"""The deterministic load generator and its CLI regression gate."""

import hashlib
import json

import pytest

from repro.obs import (
    HISTORY_SCHEMA,
    LOADBENCH_SCHEMA,
    LOAD_PROFILES,
    BenchHistory,
    build_schedule,
    run_loadbench,
)
from repro.service.kernels import CATALOGUE
from repro.service.protocol import PRIORITIES, ServiceResponse


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = [r.as_dict() for r in build_schedule("mixed", 60, seed=7)]
        b = [r.as_dict() for r in build_schedule("mixed", 60, seed=7)]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_different_schedule(self):
        a = [r.as_dict() for r in build_schedule("mixed", 60, seed=7)]
        b = [r.as_dict() for r in build_schedule("mixed", 60, seed=8)]
        assert a != b

    def test_profiles_draw_only_known_kernels(self):
        for profile, mix in LOAD_PROFILES.items():
            allowed = {kernel for kernel, _weight in mix}
            assert allowed <= set(CATALOGUE)
            schedule = build_schedule(profile, 40, seed=1)
            assert {r.kernel for r in schedule} <= allowed
            assert {r.priority for r in schedule} <= set(PRIORITIES)
            assert [r.index for r in schedule] == list(range(40))

    @pytest.mark.parametrize("mix, digest", [
        ("analytics", "d385b06be1dfedfa"),
        ("arithmetic", "77ce9639a4a12201"),
        ("mixed", "6bfb5ecac0286e4e"),
    ])
    def test_seed_7_schedules_are_pinned(self, mix, digest):
        # loadbench-smoke and the chaos campaign replay these schedules:
        # a drawn bound or an rng draw that moves changes their bytes.
        schedule = build_schedule(mix, 200, seed=7)
        text = json.dumps([r.as_dict() for r in schedule], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_unknown_profile_and_bad_count_raise(self):
        with pytest.raises(ValueError, match="unknown load profile"):
            build_schedule("nope", 10, seed=0)
        with pytest.raises(ValueError, match="requests must be"):
            build_schedule("mixed", 0, seed=0)


class StubClient:
    """Canned-latency client: deterministic documents without a gateway."""

    def __init__(self, statuses=("ok",)):
        self.statuses = statuses
        self.calls = []

    def request(self, kernel, payload, budget_s=None, priority=None):
        self.calls.append((kernel, priority))
        status = self.statuses[(len(self.calls) - 1) % len(self.statuses)]
        return ServiceResponse(200, {"status": status})


class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestRunLoadbench:
    def test_document_schema_and_accounting(self):
        client = StubClient()
        doc = run_loadbench(
            profile="arithmetic",
            requests=12,
            seed=3,
            concurrency=3,
            client=client,
        )
        assert doc["schema"] == LOADBENCH_SCHEMA == "coruscant-loadbench/1"
        assert doc["profile"] == "arithmetic"
        assert doc["requests_scheduled"] == 12
        assert doc["requests_completed"] == 12
        assert doc["requests_skipped"] == 0
        assert doc["requests_failed"] == 0
        assert doc["statuses"] == {"ok": 12}
        assert len(client.calls) == 12
        names = [k["name"] for k in doc["kernels"]]
        assert names[0] == "loadbench.overall"
        assert names[-1] == "loadbench.throughput"
        for entry in doc["kernels"]:
            assert entry["wall_seconds_min"] >= 0.0
            assert (
                entry["wall_seconds_median"] >= entry["wall_seconds_min"]
            )

    def test_failed_statuses_are_counted(self):
        client = StubClient(statuses=("ok", "error", "degraded"))
        doc = run_loadbench(
            profile="mixed", requests=9, seed=0, concurrency=1,
            client=client,
        )
        # degraded delivered partial results; only error counts failed.
        assert doc["requests_failed"] == 3
        assert doc["statuses"]["error"] == 3

    def test_duration_cap_counts_skipped(self):
        client = StubClient()
        doc = run_loadbench(
            profile="mixed",
            requests=10,
            seed=0,
            concurrency=1,
            duration=5.0,
            client=client,
            clock=FakeClock(step=1.0),
        )
        assert doc["requests_completed"] == 2
        assert doc["requests_skipped"] == 8
        assert doc["requests_completed"] + doc["requests_skipped"] == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="concurrency"):
            run_loadbench(concurrency=0, client=StubClient())
        with pytest.raises(ValueError, match="duration"):
            run_loadbench(duration=0.0, client=StubClient())

    def test_against_real_gateway(self):
        doc = run_loadbench(
            profile="arithmetic", requests=6, seed=1, concurrency=2
        )
        assert doc["requests_completed"] == 6
        assert doc["requests_failed"] == 0
        assert doc["statuses"] == {"ok": 6}
        assert doc["throughput_rps"] > 0


class TestLoadbenchCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_history_record_and_clean_exit(self, tmp_path, capsys):
        history = tmp_path / "LOADBENCH_history.jsonl"
        code, _out = self.run_cli(
            [
                "loadbench", "--requests", "4", "--seed", "2",
                "--history", str(history), "--json",
            ],
            capsys,
        )
        assert code == 0
        entries = BenchHistory(str(history)).load()
        assert len(entries) == 1
        assert entries[0]["schema"] == HISTORY_SCHEMA
        assert entries[0]["bench"]["schema"] == LOADBENCH_SCHEMA

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": LOADBENCH_SCHEMA,
                    "kernels": [
                        {
                            "name": "loadbench.overall",
                            "wall_seconds_min": 1e-9,
                            "wall_seconds_median": 1e-9,
                        },
                        {
                            "name": "loadbench.throughput",
                            "wall_seconds_min": 1e-9,
                            "wall_seconds_median": 1e-9,
                        },
                    ],
                }
            )
        )
        code, out = self.run_cli(
            [
                "loadbench", "--requests", "4", "--no-history",
                "--compare", str(baseline), "--json",
            ],
            capsys,
        )
        assert code == 1
        document = json.loads(out)
        assert document["regressed"] is True
        assert document["exit_status"] == 1

    def test_bad_flags_are_usage_errors(self, capsys):
        from repro.cli import main

        for argv in (
            ["loadbench", "--requests", "0"],
            ["loadbench", "--concurrency", "0"],
            ["loadbench", "--duration", "-1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            capsys.readouterr()
