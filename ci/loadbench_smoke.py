"""Checks of the ``loadbench-smoke`` CI job.

Run from the repository root::

    python ci/loadbench_smoke.py fast-baseline loadbench-fast-baseline.json
    python -m repro loadbench --requests 20 --seed 7 --no-history \
        --compare loadbench-fast-baseline.json    # must exit 1
    python ci/loadbench_smoke.py artifacts LOADBENCH_run.json \
        loadbench-smoke.json loadbench-events.jsonl

``fast-baseline`` writes a baseline that claims near-zero latency, so a
loadbench compared against it must report a regression. ``artifacts``
validates, after the job's 60-request loadbench, the
``coruscant-loadbench/1`` document, the ``--json`` output's exit
status and the event log: one ``service.request.done`` record with a
trace id per request. A failed check raises AssertionError (exit 1); a
passing command prints one line.
"""

from __future__ import annotations

import json
import sys
from typing import List

#: Requests the CI job's loadbench sends.
REQUESTS = 60


def write_fast_baseline(path: str) -> None:
    """A baseline claiming near-zero latency: the gate has to trip."""
    with open(path, "w") as fh:
        json.dump({
            "schema": "coruscant-loadbench/1",
            "kernels": [
                {"name": "loadbench.overall",
                 "wall_seconds_min": 1e-9,
                 "wall_seconds_median": 1e-9},
                {"name": "loadbench.throughput",
                 "wall_seconds_min": 1e-9,
                 "wall_seconds_median": 1e-9},
            ],
        }, fh)


def check_artifacts(run_path: str, output_path: str, events_path: str) -> None:
    """The bench document, the ``--json`` output and the event log."""
    with open(run_path) as fh:
        run = json.load(fh)
    assert run["schema"] == "coruscant-loadbench/1", run.get("schema")
    assert run["requests_completed"] == REQUESTS, run["requests_completed"]
    assert run["requests_failed"] == 0, run["statuses"]
    assert run["throughput_rps"] > 0
    names = {k["name"] for k in run["kernels"]}
    assert {"loadbench.overall", "loadbench.throughput"} <= names

    with open(output_path) as fh:
        payload = json.load(fh)
    assert payload["exit_status"] == 0, payload["exit_status"]

    with open(events_path) as fh:
        events = [json.loads(line) for line in fh]
    assert events, "event log is empty"
    assert all(e["schema"] == "coruscant-events/1" for e in events)
    done = [e for e in events if e["event"] == "service.request.done"]
    assert len(done) == REQUESTS, len(done)
    assert all(e.get("trace_id") for e in done)


def main(argv: List[str]) -> int:
    if len(argv) == 4 and argv[0] == "artifacts":
        check_artifacts(*argv[1:])
        print("loadbench smoke OK")
        return 0
    if len(argv) == 2 and argv[0] == "fast-baseline":
        write_fast_baseline(argv[1])
        print(f"wrote a near-zero-latency baseline to {argv[1]}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
