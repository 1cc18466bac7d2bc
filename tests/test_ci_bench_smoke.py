"""The ``bench-smoke`` CI job's artifact checks, run on artifacts made here."""

import json

import pytest

from ci import bench_smoke
from repro import cli


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_smoke")
    paths = {
        name: str(out / name)
        for name in ("bench.json", "metrics.json", "trace.json", "trace_add.json")
    }
    assert cli.main([
        "bench", "--repeats", "1", "--no-history", "--bench-out", paths["bench.json"],
    ]) == 0
    assert cli.main([
        "trace", "mult", "--out", paths["trace.json"],
        "--metrics-json", paths["metrics.json"],
    ]) == 0
    assert cli.main(["trace", "add", "--out", paths["trace_add.json"]]) == 0
    return paths


def _check(paths):
    bench_smoke.check_artifacts(
        paths["bench.json"], paths["metrics.json"],
        [paths["trace.json"], paths["trace_add.json"]],
    )


def test_artifacts_pass(artifacts, capsys):
    _check(artifacts)
    assert bench_smoke.main([
        "artifacts", artifacts["bench.json"], artifacts["metrics.json"],
        artifacts["trace.json"], artifacts["trace_add.json"],
    ]) == 0
    assert "artifacts OK" in capsys.readouterr().out


@pytest.mark.parametrize("name, spoil", [
    ("bench.json", lambda doc: doc.update(schema="coruscant-bench-pim-ops/1")),
    ("bench.json", lambda doc: doc["kernels"].pop()),
    ("bench.json", lambda doc: doc["kernels"][0].update(sim_cycles=0)),
    ("trace.json", lambda doc: doc["traceEvents"].reverse()),
    ("trace_add.json", lambda doc: doc["traceEvents"][-1].pop("dur")),
    ("metrics.json", lambda doc: doc["counters"].update({"device.cycles": 0})),
])
def test_spoiled_artifact_fails(artifacts, tmp_path, name, spoil):
    paths = dict(artifacts)
    with open(artifacts[name]) as fh:
        doc = json.load(fh)
    spoil(doc)
    paths[name] = str(tmp_path / name)
    with open(paths[name], "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(AssertionError):
        _check(paths)


def test_history_survives_a_torn_tail(tmp_path, capsys):
    history = str(tmp_path / "torn_history.jsonl")
    assert cli.main(["bench", "--repeats", "1", "--history", history]) == 0
    with open(history, "a") as fh:
        fh.write('{"bench": {"kernels": [')
    assert cli.main(["bench", "--repeats", "1", "--history", history]) == 0
    assert bench_smoke.main(["torn-history", history]) == 0
    assert "torn history tail recovered" in capsys.readouterr().out


def test_untorn_single_entry_fails(tmp_path):
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps({"seq": 1}) + "\n")
    with pytest.raises(AssertionError):
        bench_smoke.check_torn_history(str(history))
