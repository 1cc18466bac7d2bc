"""Checks of the ``campaign-shard-smoke`` CI job.

Run from the repository root after the job's sharded campaigns::

    python ci/shard_smoke.py report shard-smoke/report.json \
        campaign-sharded.json shard-metrics.json campaign-degraded.json
    python ci/shard_smoke.py drop-field shard-smoke/journal.shard-1.json \
        stream_rng

``report`` validates the merged report of the 100-op, 2-shard run whose
shard 1 was killed once, that run's ``--json`` output and metrics, and
the ``--json`` output of the degraded run that never finished shard 1;
``drop-field`` deletes one field from a shard journal, which the next
run must quarantine. A failed check raises AssertionError (exit 1); a
passing command prints one line.
"""

from __future__ import annotations

import json
import sys
from typing import List


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_report(
    report_path: str,
    sharded_path: str,
    metrics_path: str,
    degraded_path: str,
) -> None:
    """The merged report, the crashed run's output and metrics, and the
    degraded run's output."""
    report = _load(report_path)
    assert report["schema"] == "coruscant-campaign/2", report["schema"]
    assert report["shards"] == 2
    assert report["incomplete_shards"] == []
    assert report["merged"]["ops"] == 100
    assert [r["shard"] for r in report["shard_reports"]] == [0, 1]

    payload = _load(sharded_path)
    assert payload["exit_status"] == 0
    crashed = [
        a for a in payload["supervisor attempts"]
        if a["status"] == "crashed"
    ]
    assert crashed, "the injected crash never happened"

    metrics = _load(metrics_path)
    assert metrics["counters"]["campaign.shard_crashed"] >= 1
    assert metrics["counters"]["campaign.shard_completed"] == 2

    degraded = _load(degraded_path)
    assert degraded["exit_status"] == 3
    assert degraded["incomplete_shards"] == [1]


def drop_field(journal_path: str, field: str) -> None:
    """Delete ``field`` from the shard journal at ``journal_path``."""
    document = _load(journal_path)
    del document[field]
    with open(journal_path, "w") as fh:
        json.dump(document, fh)


def main(argv: List[str]) -> int:
    if len(argv) == 5 and argv[0] == "report":
        check_report(*argv[1:])
        print("sharded campaign smoke OK")
        return 0
    if len(argv) == 3 and argv[0] == "drop-field":
        drop_field(argv[1], argv[2])
        print(f"dropped {argv[2]!r} from {argv[1]}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
