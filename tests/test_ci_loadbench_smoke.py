"""The ``loadbench-smoke`` CI job's checks, run on artifacts made here."""

import contextlib
import json
import os

import pytest

from ci import loadbench_smoke
from repro import cli


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("loadbench_smoke")
    paths = {
        name: str(out / name)
        for name in ("run.json", "smoke.json", "events.jsonl")
    }
    with open(paths["smoke.json"], "w") as fh, contextlib.redirect_stdout(fh):
        code = cli.main([
            "loadbench", "--requests", str(loadbench_smoke.REQUESTS),
            "--concurrency", "2", "--seed", "7", "--no-history",
            "--event-log", paths["events.jsonl"],
            "--bench-out", paths["run.json"], "--json",
        ])
    assert code == 0
    return paths


def _check(paths):
    loadbench_smoke.check_artifacts(
        paths["run.json"], paths["smoke.json"], paths["events.jsonl"]
    )


def test_artifacts_pass(artifacts, capsys):
    _check(artifacts)
    assert loadbench_smoke.main([
        "artifacts", artifacts["run.json"], artifacts["smoke.json"],
        artifacts["events.jsonl"],
    ]) == 0
    assert "loadbench smoke OK" in capsys.readouterr().out


def test_usage_exits_2():
    assert loadbench_smoke.main([]) == 2
    assert loadbench_smoke.main(["a.json", "b.json", "c.jsonl"]) == 2
    assert loadbench_smoke.main(["fast-baseline"]) == 2


def _compare(baseline):
    """The CI step's loadbench against ``baseline``; its exit code."""
    with open(os.devnull, "w") as fh, contextlib.redirect_stdout(fh):
        return cli.main([
            "loadbench", "--requests", "20", "--seed", "7", "--no-history",
            "--compare", baseline,
        ])


def test_fast_baseline_trips_the_gate(tmp_path):
    path = str(tmp_path / "fast.json")
    assert loadbench_smoke.main(["fast-baseline", path]) == 0
    assert _compare(path) == 1


def test_a_slow_baseline_does_not_trip_the_gate(tmp_path):
    # The spoiled injection: the exit 1 above comes from the latency the
    # baseline claims, not from the comparison failing on its own.
    path = str(tmp_path / "slow.json")
    loadbench_smoke.write_fast_baseline(path)
    with open(path) as fh:
        doc = json.load(fh)
    for kernel in doc["kernels"]:
        kernel.update(wall_seconds_min=1e3, wall_seconds_median=1e3)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert _compare(path) == 0


def _first_done(events):
    return next(e for e in events if e["event"] == "service.request.done")


@pytest.mark.parametrize("name, spoil", [
    ("run.json", lambda doc: doc.update(schema="coruscant-loadbench/0")),
    ("run.json", lambda doc: doc.update(requests_completed=59)),
    ("run.json", lambda doc: doc.update(requests_failed=1)),
    ("run.json", lambda doc: doc["kernels"].pop()),
    ("smoke.json", lambda doc: doc.update(exit_status=1)),
    ("events.jsonl", lambda events: events.remove(_first_done(events))),
    ("events.jsonl", lambda events: _first_done(events).pop("trace_id")),
    ("events.jsonl", lambda events: events.clear()),
])
def test_spoiled_artifact_fails(artifacts, tmp_path, name, spoil):
    paths = dict(artifacts)
    with open(artifacts[name]) as fh:
        doc = (
            [json.loads(line) for line in fh]
            if name.endswith(".jsonl") else json.load(fh)
        )
    spoil(doc)
    paths[name] = str(tmp_path / name)
    with open(paths[name], "w") as fh:
        if name.endswith(".jsonl"):
            fh.writelines(json.dumps(e) + "\n" for e in doc)
        else:
            json.dump(doc, fh)
    with pytest.raises(AssertionError):
        _check(paths)
