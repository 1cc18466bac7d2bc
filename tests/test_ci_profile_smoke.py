"""The ``profile-smoke`` CI job's speedscope check, run on a profile made here."""

import json
import os
import subprocess
import sys

import pytest

from ci import profile_smoke

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    # A fresh process, as in CI: in this one the bench's modules are
    # already imported, and what is left runs too briefly for a 1 ms
    # sampler that waits on the interpreter lock to catch.
    out = tmp_path_factory.mktemp("profile_smoke")
    paths = {
        name: str(out / name)
        for name in ("profile.speedscope.json", "profile.folded")
    }
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", "profile", "bench",
            "--repeats", "10", "--no-history", "--profile-interval-ms", "1",
            "--profile-out", paths["profile.speedscope.json"],
            "--folded-out", paths["profile.folded"],
        ],
        cwd=str(out), env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return paths


def _check(paths):
    return profile_smoke.check_profile(
        paths["profile.speedscope.json"], paths["profile.folded"]
    )


def test_profile_passes(artifacts, capsys):
    assert _check(artifacts).startswith("speedscope OK: ")
    assert profile_smoke.main([
        artifacts["profile.speedscope.json"], artifacts["profile.folded"],
    ]) == 0
    assert "device-layer" in capsys.readouterr().out


def test_usage_exits_2():
    assert profile_smoke.main([]) == 2
    assert profile_smoke.main(["profile.speedscope.json"]) == 2


def _no_device_frames(doc):
    for frame in doc["shared"]["frames"]:
        for path in profile_smoke.DEVICE_FILES:
            frame["name"] = frame["name"].replace(path, "elsewhere.py")


@pytest.mark.parametrize("spoil", [
    lambda doc: doc.update({"$schema": "https://example.org/other.json"}),
    lambda doc: doc["profiles"].append(doc["profiles"][0]),
    lambda doc: doc["profiles"].clear(),
    lambda doc: doc["profiles"][0].update(type="evented"),
    lambda doc: doc["profiles"][0]["weights"].pop(),
    _no_device_frames,
])
def test_spoiled_speedscope_fails(artifacts, tmp_path, spoil):
    paths = dict(artifacts)
    with open(artifacts["profile.speedscope.json"]) as fh:
        doc = json.load(fh)
    spoil(doc)
    paths["profile.speedscope.json"] = str(tmp_path / "spoiled.json")
    with open(paths["profile.speedscope.json"], "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(AssertionError):
        _check(paths)


@pytest.mark.parametrize("folded", ["", "a;b;c\nno-count-here\n"])
def test_spoiled_folded_stacks_fail(artifacts, tmp_path, folded):
    paths = dict(artifacts)
    paths["profile.folded"] = str(tmp_path / "spoiled.folded")
    with open(paths["profile.folded"], "w") as fh:
        fh.write(folded)
    with pytest.raises(AssertionError):
        _check(paths)
