"""The benchmark fixture writes well-formed, schema-stable JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA as SCHEMA,
    DeterminismError,
    bench_kernel,
    run_benchmarks,
)

REQUIRED_KERNEL_KEYS = {
    "name",
    "trd",
    "repeats",
    "sim_cycles",
    "sim_energy_pj",
    "spans",
    "wall_seconds_min",
    "wall_seconds_mean",
    "wall_seconds_median",
}


def test_run_benchmarks_schema():
    document = run_benchmarks(repeats=1)
    assert document["schema"] == SCHEMA == "coruscant-bench-pim-ops/2"
    assert document["repeats"] == 1
    names = [k["name"] for k in document["kernels"]]
    assert names == ["add2_trd3", "add5_trd7", "mult8_trd7", "max5_trd7"]
    for kernel in document["kernels"]:
        assert REQUIRED_KERNEL_KEYS <= set(kernel)
        assert kernel["sim_cycles"] > 0
        assert kernel["sim_energy_pj"] > 0
        assert kernel["spans"] >= 1
        assert kernel["wall_seconds_min"] > 0
        assert (
            kernel["wall_seconds_min"] <= kernel["wall_seconds_median"]
        )


def test_sim_numbers_deterministic():
    a = run_benchmarks(repeats=1)
    b = run_benchmarks(repeats=2)
    for ka, kb in zip(a["kernels"], b["kernels"]):
        assert ka["sim_cycles"] == kb["sim_cycles"]
        assert ka["sim_energy_pj"] == kb["sim_energy_pj"]
        assert ka["spans"] == kb["spans"]


def test_repeat_drift_fails_loudly():
    # A kernel whose cost grows with every invocation is exactly the
    # non-determinism the fixture must refuse to average away: v1 of the
    # schema silently kept the last repeat's values.
    calls = []

    def drifting(system):
        calls.append(None)
        for _ in range(len(calls)):
            system.add([173, 58], n_bits=8, exact=False)

    with pytest.raises(DeterminismError, match="sim_cycles"):
        bench_kernel("drifting", 7, 2, drifting)


def test_single_repeat_never_raises_determinism_error():
    result = bench_kernel(
        "once", 7, 1, lambda s: s.add([1, 2], n_bits=8, exact=False)
    )
    assert result["repeats"] == 1
    assert result["sim_cycles"] > 0


def test_bench_command_writes_valid_json(tmp_path):
    out = tmp_path / "BENCH_pim_ops.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--repeats", "1",
         "--no-history", "--bench-out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    document = json.loads(out.read_text())
    assert document["schema"] == SCHEMA
    assert len(document["kernels"]) == 4
