"""Artifact checks of the ``bench-smoke`` CI job.

Run from the repository root after the job has written its artifacts::

    python ci/bench_smoke.py artifacts BENCH_pim_ops.json metrics.json \
        trace.json trace_add.json
    python ci/bench_smoke.py torn-history torn_history.jsonl

``artifacts`` validates the ``repro bench`` document, the
``repro trace`` Chrome traces and the metrics JSON; ``torn-history``
checks that a history whose last line was torn mid-append holds the two
entries of the runs before and after the tear. A failed check raises
AssertionError (exit 1); a passing one prints one line.
"""

from __future__ import annotations

import json
import sys
from typing import List, Sequence


def check_artifacts(
    bench_path: str, metrics_path: str, trace_paths: Sequence[str]
) -> None:
    """The bench document, each Chrome trace and the metrics JSON."""
    with open(bench_path) as fh:
        bench = json.load(fh)
    assert bench["schema"] == "coruscant-bench-pim-ops/2", bench.get("schema")
    assert len(bench["kernels"]) == 4
    for kernel in bench["kernels"]:
        assert kernel["sim_cycles"] > 0, kernel
        assert kernel["wall_seconds_min"] > 0, kernel
        assert kernel["wall_seconds_median"] > 0, kernel

    for path in trace_paths:
        with open(path) as fh:
            trace = json.load(fh)
        events = trace["traceEvents"]
        assert events and events[0]["ph"] == "M", path
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, f"{path}: no complete events"
        for event in complete:
            assert {"name", "ts", "dur", "cat"} <= set(event), event

    with open(metrics_path) as fh:
        metrics = json.load(fh)
    assert metrics["counters"]["device.cycles"] > 0


def check_torn_history(path: str) -> None:
    """A history torn mid-append, then appended to, holds entries 1 and 2."""
    with open(path) as fh:
        entries = [json.loads(line) for line in fh]
    assert [e["seq"] for e in entries] == [1, 2], entries


def main(argv: List[str]) -> int:
    if len(argv) >= 4 and argv[0] == "artifacts":
        check_artifacts(argv[1], argv[2], argv[3:])
        print("benchmark + trace artifacts OK")
        return 0
    if len(argv) == 2 and argv[0] == "torn-history":
        check_torn_history(argv[1])
        print("torn history tail recovered")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
