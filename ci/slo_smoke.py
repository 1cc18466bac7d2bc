"""SLO checks of the ``profile-smoke`` CI job.

Run from the repository root, with the package importable::

    python -m repro loadbench --requests 50 --seed 7 --slo \
        --history SLO_history.jsonl --json > loadbench-slo.json
    python -m repro slo --history SLO_history.jsonl --format json \
        > slo-healthy.json
    python ci/slo_smoke.py healthy loadbench-slo.json slo-healthy.json
    python ci/slo_smoke.py inject SLO_history.jsonl
    python -m repro slo --history SLO_history.jsonl --format json \
        > slo-burning.json                        # must exit 3
    python ci/slo_smoke.py burning slo-burning.json

``healthy`` checks that the loadbench run and the history's SLO report
pass; ``inject`` appends an all-failing, all-slow run to the history;
``burning`` checks that the report then reads ``burning`` for
availability. A failed check raises AssertionError (exit 1); a passing
one prints one line.
"""

from __future__ import annotations

import json
import sys
from typing import List


def check_healthy(loadbench_path: str, report_path: str) -> None:
    """The ``loadbench --slo --json`` output and the ``repro slo`` report."""
    with open(loadbench_path) as fh:
        payload = json.load(fh)
    assert payload["exit_status"] == 0, payload["exit_status"]
    entries = payload["slo"]
    assert entries and all(
        e["status"] in ("ok", "no_data") for e in entries
    ), entries

    with open(report_path) as fh:
        report = json.load(fh)
    assert report["exit_status"] == 0, report
    assert report["burning"] is False


def inject_violation(history_path: str) -> None:
    """Append an all-failing, all-slow run: both SLOs burn hard."""
    from repro.obs.history import BenchHistory

    BenchHistory(history_path).append({
        "schema": "coruscant-loadbench/1",
        "requests_completed": 50,
        "statuses": {"error": 50},
        "kernels": [],
        "slo": {"counts": {"availability": [0, 50],
                           "latency": [0, 50]}},
    })


def check_burning(report_path: str) -> None:
    """The ``repro slo`` report after the injected violation."""
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["burning"] is True
    statuses = {e["name"]: e["status"] for e in report["slos"]}
    assert statuses["availability"] == "burning", statuses


def main(argv: List[str]) -> int:
    if len(argv) == 3 and argv[0] == "healthy":
        check_healthy(argv[1], argv[2])
        print("healthy SLO gate OK")
        return 0
    if len(argv) == 2 and argv[0] == "inject":
        inject_violation(argv[1])
        print(f"injected an all-failing run into {argv[1]}")
        return 0
    if len(argv) == 2 and argv[0] == "burning":
        check_burning(argv[1])
        print("burning SLO gate OK")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
