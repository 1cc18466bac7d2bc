"""The process exit-code contract, shared by every CLI entry point.

One vocabulary for ``repro campaign``, ``repro mc``, ``repro serve``,
and anything scripted on top of them:

====  =============  ====================================================
code  name           meaning
====  =============  ====================================================
0     EXIT_OK        completed cleanly (a drained ``serve`` run, a
                     campaign whose ladder contained every fault)
1     EXIT_ERROR     completed with a hard failure: uncorrectable /
                     escaped faults, a bench regression, an internal
                     error
2     EXIT_USAGE     bad invocation (argparse's own code — flags or
                     operands were rejected before any work ran)
3     EXIT_DEGRADED  completed, but degraded to a partial result that
                     names what is missing (a sharded campaign with
                     ``incomplete_shards``)
====  =============  ====================================================

Scripts may therefore treat ``exit <= 0`` as success, ``3`` as "usable
but inspect the gaps", and anything else as failure. The conformance
test ``tests/test_cli_exit_codes.py`` holds every command to this
table.
"""

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3

__all__ = ["EXIT_DEGRADED", "EXIT_ERROR", "EXIT_OK", "EXIT_USAGE"]
