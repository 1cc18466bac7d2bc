"""The ``profile-smoke`` CI job's SLO checks, run on artifacts made here."""

import contextlib
import json

import pytest

from ci import slo_smoke
from repro import cli
from repro.exitcodes import EXIT_DEGRADED, EXIT_OK


def _run(argv, out_path):
    with open(out_path, "w") as fh, contextlib.redirect_stdout(fh):
        return cli.main(argv)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("slo_smoke")
    paths = {
        name: str(out / name)
        for name in ("SLO_history.jsonl", "loadbench-slo.json",
                     "slo-healthy.json", "slo-burning.json")
    }
    history = paths["SLO_history.jsonl"]
    assert _run(
        ["loadbench", "--requests", "20", "--seed", "7", "--slo",
         "--history", history, "--json"],
        paths["loadbench-slo.json"],
    ) == EXIT_OK
    slo = ["slo", "--history", history, "--format", "json"]
    assert _run(slo, paths["slo-healthy.json"]) == EXIT_OK
    assert slo_smoke.main(["inject", history]) == 0
    assert _run(slo, paths["slo-burning.json"]) == EXIT_DEGRADED
    return paths


def test_healthy_and_burning_pass(artifacts, capsys):
    assert slo_smoke.main([
        "healthy", artifacts["loadbench-slo.json"],
        artifacts["slo-healthy.json"],
    ]) == 0
    assert slo_smoke.main(["burning", artifacts["slo-burning.json"]]) == 0
    out = capsys.readouterr().out
    assert "healthy SLO gate OK" in out
    assert "burning SLO gate OK" in out


def test_usage_exits_2():
    assert slo_smoke.main(["healthy", "only-one.json"]) == 2


def _entry(doc, name):
    return next(e for e in doc["slos"] if e["name"] == name)


@pytest.mark.parametrize("name, spoil", [
    ("loadbench-slo.json", lambda doc: doc.update(exit_status=3)),
    ("loadbench-slo.json", lambda doc: doc.update(slo=[])),
    ("loadbench-slo.json", lambda doc: doc["slo"][0].update(status="burning")),
    ("slo-healthy.json", lambda doc: doc.update(exit_status=3)),
    ("slo-healthy.json", lambda doc: doc.update(burning=True)),
    ("slo-burning.json", lambda doc: doc.update(burning=False)),
    ("slo-burning.json",
     lambda doc: _entry(doc, "availability").update(status="ok")),
])
def test_spoiled_artifact_fails(artifacts, tmp_path, name, spoil):
    with open(artifacts[name]) as fh:
        doc = json.load(fh)
    spoil(doc)
    spoiled = str(tmp_path / name)
    with open(spoiled, "w") as fh:
        json.dump(doc, fh)
    paths = dict(artifacts, **{name: spoiled})
    with pytest.raises(AssertionError):
        if name == "slo-burning.json":
            slo_smoke.check_burning(paths[name])
        else:
            slo_smoke.check_healthy(
                paths["loadbench-slo.json"], paths["slo-healthy.json"]
            )
