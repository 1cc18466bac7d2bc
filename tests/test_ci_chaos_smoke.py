"""The ``chaos-smoke`` CI job's report check, run on a report made here."""

import contextlib
import json
import os

import pytest

from ci import chaos_smoke
from repro import cli
from repro.exitcodes import EXIT_OK


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("chaos_smoke") / "chaos-report.json")
    with open(os.devnull, "w") as fh, contextlib.redirect_stdout(fh):
        code = cli.main([
            "chaos", "--seed", "42", "--duration-ops", "10",
            "--faults", "worker-crash:1,torn-wal:1", "--report-out", path,
        ])
    assert code == EXIT_OK
    return path


def test_report_passes(report, capsys):
    assert chaos_smoke.main([report]) == 0
    assert "chaos smoke OK: 2 faults fired" in capsys.readouterr().out


def test_usage_exits_2():
    assert chaos_smoke.main([]) == 2
    assert chaos_smoke.main(["a.json", "b.json"]) == 2


def _fire_as(kind):
    def spoil(doc):
        doc["fired"][0]["kind"] = kind
        doc["fired"][1]["kind"] = kind
    return spoil


@pytest.mark.parametrize("spoil", [
    lambda doc: doc.update(schema="coruscant-chaos/0"),
    lambda doc: doc.update(ok=False),
    lambda doc: doc["invariants"].pop(),
    lambda doc: doc["invariants"][0].update(name="renamed"),
    lambda doc: doc["invariants"][-1].update(ok=False),
    lambda doc: doc["fault_timeline"].append(doc["fault_timeline"][0]),
    _fire_as("torn-wal"),
    _fire_as("worker-crash"),
    lambda doc: doc["replay"].update(count=0),
    lambda doc: doc["journal"].update(acked_on_disk=doc["journal"]["acked_on_disk"] + 1),
    lambda doc: doc["resubmits"]["records"][0].update(replayed=False),
    lambda doc: doc["resubmits"]["records"][-1].update(digest_matches=False),
])
def test_spoiled_report_fails(report, tmp_path, spoil):
    with open(report) as fh:
        doc = json.load(fh)
    spoil(doc)
    spoiled = str(tmp_path / "chaos-report.json")
    with open(spoiled, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(AssertionError):
        chaos_smoke.check_report(spoiled)
