"""SLO definitions, the outcome rule, burn-rate engine, history replay, renderers."""

import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.exitcodes import EXIT_DEGRADED, EXIT_OK
from repro.obs.history import BenchHistory
from repro.obs.loadgen import run_loadbench
from repro.obs.slo import (
    BURN_ALERT_THRESHOLD,
    DEFAULT_SLOS,
    FAST_WINDOW_S,
    GOOD_STATUSES,
    SLOW_WINDOW_S,
    SLO_SCHEMA,
    STATUS_BURNING,
    STATUS_NO_DATA,
    STATUS_OK,
    SloDefinition,
    SloEngine,
    evaluate_history,
    publish_gauges,
    render_slo_markdown,
    slo_exit_code,
)
from repro.service.protocol import STATUSES, ServiceResponse
from repro.telemetry.metrics import MetricsRegistry

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

AVAILABILITY = SloDefinition(
    name="availability", kind="availability", objective=0.99
)
LATENCY = SloDefinition(
    name="latency", kind="latency", objective=0.99, threshold_s=0.5
)


class TestDefinition:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SloDefinition(name="x", kind="throughput", objective=0.9)

    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 2.0])
    def test_objective_must_be_open_interval(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SloDefinition(
                name="x", kind="availability", objective=objective
            )

    @pytest.mark.parametrize("threshold", [None, 0.0, -1.0])
    def test_latency_needs_positive_threshold(self, threshold):
        with pytest.raises(ValueError, match="threshold_s"):
            SloDefinition(
                name="x",
                kind="latency",
                objective=0.99,
                threshold_s=threshold,
            )

    def test_budget_and_dict(self):
        assert LATENCY.budget == pytest.approx(0.01)
        record = LATENCY.as_dict()
        assert record["threshold_s"] == 0.5
        assert "description" not in record  # empty fields are elided

    def test_default_slos_cover_both_kinds(self):
        kinds = {slo.kind for slo in DEFAULT_SLOS}
        assert kinds == {"availability", "latency"}


class TestEngine:
    def test_record_applies_the_outcome_rule(self):
        engine = SloEngine(slos=(AVAILABILITY, LATENCY))
        for status, seconds in (
            ("ok", 0.1), ("degraded", 0.6), ("rejected", 0.0),
            ("expired", 0.5), ("error", 2.0),
        ):
            engine.record(status, seconds)
        # ok and degraded are good; 0.5 s is within the 0.5 s threshold.
        assert engine.counts() == {"availability": [2, 5], "latency": [3, 5]}

    def test_add_takes_embedded_counts(self):
        engine = SloEngine(slos=(AVAILABILITY, LATENCY))
        engine.add({"availability": [40, 50], "latency": [45, 50]})
        engine.add({"availability": [2, 3], "latency": [3, 3]})
        assert engine.counts() == {
            "availability": [42, 53], "latency": [48, 53],
        }

    @pytest.mark.parametrize("counts", [
        None,
        [],
        {"availability": [1, 2]},
        {"availability": [1, 2], "latency": [1]},
        {"availability": [1, 2], "latency": ["1", 2]},
        {"availability": [1, 2], "latency": [True, 2]},
        {"availability": [1, 2], "latency": [-1, 2]},
        {"availability": [1, 2], "latency": [float("nan"), 2]},
    ])
    def test_add_refuses_missing_or_malformed_counts(self, counts):
        engine = SloEngine(slos=(AVAILABILITY, LATENCY))
        with pytest.raises(ValueError, match="slo.counts"):
            engine.add(counts)
        assert engine.counts() == {"availability": [0, 0], "latency": [0, 0]}

    def test_records_and_evaluations_interleave_across_threads(self):
        # The gateway records on its loop while callers evaluate: a lost
        # update would leave the totals short.
        engine = SloEngine()
        recorders = 4
        barrier = threading.Barrier(recorders + 1)

        def recorder():
            barrier.wait()
            for _ in range(2000):
                engine.record("ok", 0.01)

        def scraper():
            barrier.wait()
            for step in range(200):
                engine.observe(float(step))
                engine.evaluate()

        threads = [threading.Thread(target=recorder) for _ in range(recorders)]
        threads.append(threading.Thread(target=scraper))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert engine.counts() == {
            "availability": [8000, 8000], "latency": [8000, 8000],
        }

    def test_time_must_be_monotone(self):
        engine = SloEngine(slos=(AVAILABILITY,))
        engine.observe(10.0)
        with pytest.raises(ValueError, match="time went backwards"):
            engine.observe(5.0)

    def test_fast_window_must_not_outlast_slow(self):
        # The windows are the module's fixed 5m/1h pair.
        assert 0 < FAST_WINDOW_S < SLOW_WINDOW_S
        report = SloEngine().evaluate()
        assert report["fast_window_s"] == FAST_WINDOW_S
        assert report["slow_window_s"] == SLOW_WINDOW_S

    def test_no_data_status(self):
        report = SloEngine(slos=(AVAILABILITY,)).evaluate()
        (entry,) = report["slos"]
        assert entry["status"] == STATUS_NO_DATA
        assert entry["compliance"] is None
        assert report["burning"] is False

    def test_healthy_traffic_is_ok(self):
        engine = SloEngine(slos=(AVAILABILITY,))
        for step in range(1, 11):
            for _ in range(5):
                engine.record("ok", 0.01)
            engine.observe(step * 30.0)
        report = engine.evaluate()
        (entry,) = report["slos"]
        assert entry["status"] == STATUS_OK
        assert entry["burn_rate_fast"] == 0.0
        assert entry["compliance"] == 1.0

    def test_total_failure_burns_both_windows(self):
        engine = SloEngine(slos=(AVAILABILITY,))
        for step in range(1, 11):
            for _ in range(5):
                engine.record("error", 0.01)
            engine.observe(step * 30.0)
        report = engine.evaluate()
        (entry,) = report["slos"]
        # bad fraction 1.0 over a 0.01 budget = burn rate 100.
        assert entry["burn_rate_fast"] == pytest.approx(100.0)
        assert entry["burn_rate_slow"] == pytest.approx(100.0)
        assert entry["status"] == STATUS_BURNING
        assert report["burning"] is True

    def test_fast_window_uses_window_baseline(self):
        engine = SloEngine(slos=(AVAILABILITY,))
        # 1000 good requests long ago, then 100 pure failures recently.
        engine.add({"availability": [1000, 1000]})
        engine.observe(0.0)
        engine.add({"availability": [0, 100]})
        engine.observe(4000.0)
        fast = engine.burn_rate(AVAILABILITY, FAST_WINDOW_S)
        slow = engine.burn_rate(AVAILABILITY, SLOW_WINDOW_S)
        # Both window baselines resolve to the t=0 point (nothing newer
        # is old enough), so both see the 100-bad / 100-new burst.
        assert fast == pytest.approx(100.0)
        assert slow == pytest.approx(100.0)

    def test_old_failures_age_out_of_the_fast_window(self):
        engine = SloEngine(slos=(AVAILABILITY,))
        engine.add({"availability": [0, 100]})  # bad burst
        engine.observe(0.0)
        engine.add({"availability": [100, 100]})
        engine.observe(500.0)
        engine.add({"availability": [100, 100]})
        engine.observe(700.0)
        # Fast window baseline already contains the burst's bad count,
        # so the trailing delta is all good.
        assert engine.burn_rate(AVAILABILITY, FAST_WINDOW_S) == 0.0
        # Slow window still sees the burst via the zero origin.
        assert engine.burn_rate(
            AVAILABILITY, SLOW_WINDOW_S
        ) == pytest.approx(100.0 / 300.0 / AVAILABILITY.budget)

    def test_report_shape(self):
        engine = SloEngine()
        report = engine.evaluate()
        assert report["schema"] == SLO_SCHEMA
        assert report["burn_threshold"] == BURN_ALERT_THRESHOLD
        assert {e["name"] for e in report["slos"]} == {
            "availability",
            "latency",
        }


def reference_reports(samples, step):
    """The cumulative fold ``record`` + ``observe`` replaced, as a reference.

    One cumulative (good, total) point per sample at ``(i + 1) * step``,
    then each window's baseline is the last point at or before its start
    (the zero origin when none is), as ``observe(t, counts)`` judged them.
    Returns the report after every sample.
    """
    cumulative = {slo.name: [0, 0] for slo in DEFAULT_SLOS}
    points = {slo.name: [] for slo in DEFAULT_SLOS}
    reports = []
    for position, (status, seconds) in enumerate(samples):
        t = (position + 1) * step
        entries, burning = [], False
        for slo in DEFAULT_SLOS:
            if slo.kind == "availability":
                is_good = status in ("ok", "degraded")
            else:
                is_good = seconds <= slo.threshold_s
            good, total = cumulative[slo.name]
            cumulative[slo.name] = [good + int(is_good), total + 1]
            points[slo.name].append((t, good + int(is_good), total + 1))
            burns = []
            for window in (300.0, 3600.0):
                _, last_good, last_total = points[slo.name][-1]
                base_good = base_total = 0
                for at, at_good, at_total in points[slo.name]:
                    if at > t - window:
                        break
                    base_good, base_total = at_good, at_total
                delta_total = last_total - base_total
                delta_bad = (last_total - last_good) - (base_total - base_good)
                burns.append(
                    max(0, delta_bad) / delta_total / slo.budget
                    if delta_total > 0 else 0.0
                )
            compliance = cumulative[slo.name][0] / cumulative[slo.name][1]
            hot = min(burns) >= BURN_ALERT_THRESHOLD
            burning = burning or hot
            entries.append({
                **slo.as_dict(),
                "burn_rate_fast": round(burns[0], 6),
                "burn_rate_slow": round(burns[1], 6),
                "compliance": round(compliance, 6),
                "status": STATUS_BURNING if hot else STATUS_OK,
            })
        reports.append({
            "schema": SLO_SCHEMA, "burn_threshold": BURN_ALERT_THRESHOLD,
            "fast_window_s": 300.0, "slow_window_s": 3600.0,
            "burning": burning, "slos": entries,
        })
    return reports


class TestOneOutcomeRule:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.sampled_from(STATUSES + ("internal",)),
                st.sampled_from([0.0, 0.001, 0.25, 0.5, 0.500001, 3.0]),
            ),
            max_size=120,
        ),
        step=st.sampled_from([1.0, 6.0, 60.0, 400.0]),
    )
    def test_record_and_observe_match_the_cumulative_fold(self, samples, step):
        engine = SloEngine()
        expected = reference_reports(samples, step)
        for position, (status, seconds) in enumerate(samples):
            engine.record(status, seconds)
            engine.observe((position + 1) * step)
            assert engine.evaluate() == expected[position]


class TestPublishGauges:
    def test_gauge_names_and_values(self):
        engine = SloEngine(slos=(AVAILABILITY,))
        engine.add({"availability": [49, 50]})
        engine.observe(6.0)
        metrics = MetricsRegistry()
        publish_gauges(metrics, engine.evaluate())
        gauges = metrics.as_dict()["gauges"]
        assert gauges["slo.availability.objective"] == 0.99
        assert gauges["slo.availability.compliance"] == 0.98
        assert "slo.availability.burn_rate.fast" in gauges
        assert "slo.availability.burn_rate.slow" in gauges

    def test_no_data_compliance_renders_as_one(self):
        metrics = MetricsRegistry()
        publish_gauges(metrics, SloEngine(slos=(AVAILABILITY,)).evaluate())
        gauges = metrics.as_dict()["gauges"]
        assert gauges["slo.availability.compliance"] == 1.0


def loadbench_doc(completed, ok, slow=0):
    """A loadbench document with ``ok`` good and ``slow`` late answers."""
    return {
        "schema": "coruscant-loadbench/1",
        "requests_completed": completed,
        "statuses": {"ok": ok, "error": completed - ok},
        "kernels": [],
        "slo": {"counts": {
            "availability": [ok, completed],
            "latency": [completed - slow, completed],
        }},
    }


class _ScriptedClient:
    """Answers each request with the next scripted (status, seconds)."""

    def __init__(self, script):
        self.script = list(script)
        self.now = 0.0

    def clock(self):
        return self.now

    def request(self, kernel, payload, budget_s, priority):
        status, seconds = self.script.pop(0)
        self.now += seconds
        return ServiceResponse(200, {"status": status})


class TestLoadbenchCounts:
    def test_embedded_counts_win(self):
        # The statuses say every request was ok; the counts decide.
        doc = loadbench_doc(50, 50)
        doc["slo"]["counts"] = {"availability": [40, 50], "latency": [45, 50]}
        report = evaluate_history([doc])
        compliance = {e["name"]: e["compliance"] for e in report["slos"]}
        assert compliance == {"availability": 0.8, "latency": 0.9}

    def test_document_carries_its_samples_tally(self):
        # Early misses, then enough good answers to age them out of the
        # fast window: the report depends on when each sample landed.
        script = [("ok", 0.25), ("degraded", 1.0), ("rejected", 0.0),
                  ("ok", 0.5), ("expired", 2.0), ("error", 0.25)]
        script += [("ok", 0.25)] * 94
        client = _ScriptedClient(script)
        document = run_loadbench(
            requests=len(script), seed=7, concurrency=1,
            client=client, clock=client.clock,
        )
        assert document["slo"]["counts"] == {
            "availability": [97, 100], "latency": [98, 100],
        }
        good, total = document["slo"]["counts"]["availability"]
        assert document["requests_failed"] == total - good == 3
        assert document["slo"]["step_seconds"] == 6.0
        assert document["slo"]["report"] == reference_reports(script, 6.0)[-1]

    def test_loadbench_without_slo_flag_embeds_counts(self, tmp_path):
        out = tmp_path / "run.json"
        assert cli.main([
            "loadbench", "--requests", "12", "--concurrency", "1",
            "--seed", "7", "--no-history", "--bench-out", str(out),
        ]) == EXIT_OK
        document = json.loads(out.read_text())
        counts = document["slo"]["counts"]
        good = sum(document["statuses"].get(s, 0) for s in GOOD_STATUSES)
        assert counts["availability"] == [good, 12]
        assert counts["latency"][1] == 12
        assert document["requests_failed"] == 12 - good
        assert document["slo"]["report"]["schema"] == SLO_SCHEMA


class TestEvaluateHistory:
    def test_healthy_history_exits_zero(self):
        documents = [loadbench_doc(50, 50) for _ in range(3)]
        report = evaluate_history(documents)
        assert report["burning"] is False
        assert report["entries"] == 3
        assert report["virtual_seconds"] == pytest.approx(900.0)
        assert slo_exit_code(report) == EXIT_OK

    def test_recent_failures_burn_and_exit_three(self):
        documents = [loadbench_doc(50, 50), loadbench_doc(50, 0)]
        report = evaluate_history(documents)
        assert report["burning"] is True
        statuses = {e["name"]: e["status"] for e in report["slos"]}
        assert statuses["availability"] == STATUS_BURNING
        assert slo_exit_code(report) == EXIT_DEGRADED

    def test_empty_history_is_no_data(self):
        report = evaluate_history([])
        assert report["burning"] is False
        assert all(
            e["status"] == STATUS_NO_DATA for e in report["slos"]
        )

    def test_entry_without_counts_is_named(self):
        bare = loadbench_doc(50, 50)
        del bare["slo"]
        with pytest.raises(ValueError, match="^entry 2 carries no slo.counts$"):
            evaluate_history([loadbench_doc(50, 50), bare])

    @pytest.mark.parametrize("completed", ["50", [50], None, -1, True])
    def test_entry_with_malformed_request_count_is_named(self, completed):
        doc = loadbench_doc(50, 50)
        doc["requests_completed"] = completed
        with pytest.raises(ValueError, match="^entry 1 has requests_completed"):
            evaluate_history([doc])


class TestSloCommand:
    def test_entry_without_counts_exits_1_naming_it(self, tmp_path):
        history = BenchHistory(str(tmp_path / "H"))
        history.append(loadbench_doc(50, 50))
        bare = loadbench_doc(50, 50)
        del bare["slo"]
        history.append(bare)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "slo", "--history", "H"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "H: entry 2 carries no slo.counts"
        ]


class TestRenderer:
    def test_markdown_report(self):
        report = evaluate_history([loadbench_doc(50, 50)])
        text = render_slo_markdown(report)
        assert text.startswith("# SLO report")
        assert "| availability |" in text
        assert "All objectives healthy." in text

    def test_markdown_burning_verdict(self):
        report = evaluate_history([loadbench_doc(50, 0)])
        assert "**BURNING**" in render_slo_markdown(report)
