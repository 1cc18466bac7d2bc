"""Conformance test for the process exit-code contract.

Every CLI entry point speaks the one vocabulary defined in
:mod:`repro.exitcodes`: 0 ok, 1 hard error, 2 usage, 3 degraded.
Each class below pins one code to a real command invocation.
"""

import json
import socket

import pytest

from repro import cli
from repro.exitcodes import (
    EXIT_DEGRADED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
)


class TestContract:
    def test_values(self):
        assert EXIT_OK == 0
        assert EXIT_ERROR == 1
        assert EXIT_USAGE == 2
        assert EXIT_DEGRADED == 3

    def test_cli_aliases_share_the_contract(self):
        # The command-specific names are readings of the shared codes,
        # not a second vocabulary.
        assert cli.EXIT_UNCORRECTABLE == EXIT_ERROR
        assert cli.EXIT_INCOMPLETE_SHARDS == EXIT_DEGRADED

    def test_usage_matches_argparse(self):
        # argparse exits 2 on its own; EXIT_USAGE must agree with it.
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus-command"])
        assert exc.value.code == EXIT_USAGE


class TestExitOk:
    def test_clean_command_exits_zero(self, capsys):
        assert cli.main(["add", "1", "2", "3"]) == EXIT_OK
        capsys.readouterr()


class TestExitUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--ops", "0"],
            ["serve", "--queue-capacity", "0"],
            ["serve", "--high-reserve", "-1"],
            ["serve", "--retry-attempts", "0"],
            ["serve", "--breaker-open-seconds", "0"],
            ["serve", "--default-budget-s", "0"],
            ["serve", "--profile", "storm:not_a_field=1"],
        ],
    )
    def test_bad_invocations_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_profile_shift_fault_rate_is_not_a_key(self, capsys):
        # Served kernels never shift a cluster: a profile injects TR
        # faults only, and the unknown key lists the ones it has.
        # Parsing alone, so an accepted key fails here, not serves.
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["serve", "--profile", "x:shift_fault_rate=0.1"]
            )
        assert exc.value.code == EXIT_USAGE
        assert (
            "unknown profile option 'shift_fault_rate'; pick from "
            "adaptive, seed, tr_fault_rate, tracks, trd"
        ) in capsys.readouterr().err


class TestExitError:
    def test_serve_bind_failure_exits_one(self, capsys):
        # Occupy a port, then ask serve to bind it.
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = cli.main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == EXIT_ERROR
        assert "serve failed" in capsys.readouterr().err


class TestExitDegraded:
    def test_incomplete_shards_exit_three(self, tmp_path, capsys):
        journal = tmp_path / "journal"
        code = cli.main(
            ["campaign", "--ops", "40", "--shards", "2",
             "--fault-rate", "0.01", "--journal", str(journal),
             "--max-shard-retries", "0", "--json",
             "--inject-worker-crash", "1:30:kill-always"]
        )
        assert code == EXIT_DEGRADED
        document = json.loads(capsys.readouterr().out)
        # Degraded means partial-but-named: the report says exactly
        # which shards are missing.
        assert document["exit_status"] == EXIT_DEGRADED
        assert document["incomplete_shards"] == [1]
