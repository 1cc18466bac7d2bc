"""The ``campaign-shard-smoke`` CI job's checks, run on artifacts made here."""

import contextlib
import json
import os

import pytest

from ci import shard_smoke
from repro import cli
from repro.exitcodes import EXIT_DEGRADED, EXIT_OK

SHARDED = ["campaign", "--ops", "100", "--shards", "2", "--fault-rate", "1e-2",
           "--checkpoint-every", "10"]


def _run(argv, out_path):
    with open(out_path, "w") as fh, contextlib.redirect_stdout(fh):
        return cli.main(argv)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("shard_smoke")
    paths = {
        name: str(out / name)
        for name in ("shard-smoke", "campaign-sharded.json",
                     "shard-metrics.json", "campaign-degraded.json")
    }
    paths["report.json"] = os.path.join(paths["shard-smoke"], "report.json")
    assert _run(
        SHARDED + ["--journal", paths["shard-smoke"],
                   "--inject-worker-crash", "1:60:kill",
                   "--metrics-json", paths["shard-metrics.json"], "--json"],
        paths["campaign-sharded.json"],
    ) == EXIT_OK
    assert _run(
        ["campaign", "--ops", "40", "--shards", "2", "--fault-rate", "1e-2",
         "--journal", str(out / "shard-degraded"), "--max-shard-retries", "0",
         "--inject-worker-crash", "1:30:kill-always", "--json"],
        paths["campaign-degraded.json"],
    ) == EXIT_DEGRADED
    return paths


def _report_args(paths):
    return [paths["report.json"], paths["campaign-sharded.json"],
            paths["shard-metrics.json"], paths["campaign-degraded.json"]]


def test_report_passes(artifacts, capsys):
    assert shard_smoke.main(["report", *_report_args(artifacts)]) == 0
    assert "sharded campaign smoke OK" in capsys.readouterr().out


def test_usage_exits_2():
    assert shard_smoke.main(["report", "only-one.json"]) == 2
    assert shard_smoke.main(["drop-field", "journal.json"]) == 2


@pytest.mark.parametrize("name, spoil", [
    ("report.json", lambda doc: doc.update(schema="coruscant-campaign/1")),
    ("report.json", lambda doc: doc.update(incomplete_shards=[1])),
    ("report.json", lambda doc: doc["merged"].update(ops=99)),
    ("report.json", lambda doc: doc["shard_reports"].reverse()),
    ("campaign-sharded.json", lambda doc: doc.update(exit_status=3)),
    ("campaign-sharded.json",
     lambda doc: [a.update(status="completed") for a in doc["supervisor attempts"]]),
    ("shard-metrics.json",
     lambda doc: doc["counters"].update({"campaign.shard_crashed": 0})),
    ("shard-metrics.json",
     lambda doc: doc["counters"].update({"campaign.shard_completed": 1})),
    ("campaign-degraded.json", lambda doc: doc.update(exit_status=0)),
    ("campaign-degraded.json", lambda doc: doc.update(incomplete_shards=[])),
])
def test_spoiled_artifact_fails(artifacts, tmp_path, name, spoil):
    with open(artifacts[name]) as fh:
        doc = json.load(fh)
    spoil(doc)
    spoiled = str(tmp_path / name)
    with open(spoiled, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(AssertionError):
        shard_smoke.check_report(*_report_args(dict(artifacts, **{name: spoiled})))


def test_dropped_field_is_quarantined_and_rerun(artifacts, tmp_path):
    journal = str(tmp_path / "shard-smoke")
    assert _run(SHARDED + ["--journal", journal], os.devnull) == EXIT_OK
    report = os.path.join(journal, "report.json")
    with open(report, "rb") as fh:
        clean = fh.read()
    shard = os.path.join(journal, "journal.shard-1.json")
    assert shard_smoke.main(["drop-field", shard, "stream_rng"]) == 0
    with open(shard) as fh:
        assert "stream_rng" not in json.load(fh)
    assert _run(SHARDED + ["--journal", journal], os.devnull) == EXIT_OK
    assert os.path.exists(shard + ".corrupt")
    with open(report, "rb") as fh:
        assert fh.read() == clean
