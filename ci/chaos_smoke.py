"""Check of the ``chaos-smoke`` CI job's report.

Run from the repository root after the job's chaos campaign::

    python -m repro chaos --seed 42 --duration-ops 25 \
        --faults "worker-crash:2,torn-wal:2,ack-suppress:1,kernel-fault:1,queue-saturation:1,breaker-storm:1" \
        --report-out chaos-report.json
    python ci/chaos_smoke.py chaos-report.json

The report must pass all four invariants, account for every scheduled
fault, and show that worker kills and torn acks exercised recovery:
requests replayed after the restart, and every resubmitted acked
request replayed with a matching digest. A failed check raises
AssertionError (exit 1); a passing one prints one line.
"""

from __future__ import annotations

import json
import sys
from typing import List

INVARIANTS = {
    "no-acked-request-lost",
    "request-accounting",
    "breaker-isolation",
    "events-metrics-consistency",
}


def check_report(report_path: str) -> str:
    """Validate the chaos report; returns the one-line summary."""
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["schema"] == "coruscant-chaos/1", report.get("schema")
    assert report["ok"] is True
    names = {inv["name"] for inv in report["invariants"]}
    assert names == INVARIANTS, names
    assert all(inv["ok"] for inv in report["invariants"])
    # Every scheduled fault is accounted for, one way or the other.
    scheduled = len(report["fault_timeline"])
    assert len(report["fired"]) + len(report["unfired"]) == scheduled
    # The kills and torn acks actually exercised recovery.
    fired = {f["kind"] for f in report["fired"]}
    assert "worker-crash" in fired and "torn-wal" in fired
    assert report["replay"]["count"] >= 1
    assert report["resubmits"]["count"] == report["journal"]["acked_on_disk"]
    assert all(
        r["replayed"] and r["digest_matches"]
        for r in report["resubmits"]["records"]
    )
    return (
        f"chaos smoke OK: {len(report['fired'])} faults fired, "
        f"{report['replay']['count']} requests replayed after restart"
    )


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    print(check_report(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
