"""Sampling profiler: phases, tags, folded stacks, exporters, ledger."""

import threading

import pytest

from repro.telemetry.context import TraceContext
from repro.telemetry.profiler import (
    PHASES,
    PHASE_COMPUTE,
    PHASE_SHIFT,
    PHASE_TR,
    PHASE_WRITE,
    PROFILE_SCHEMA,
    SamplingProfiler,
    classify_phase,
    fold_tracer,
    ledger_from_tracer,
    phase_of_stack,
    render_collapsed,
    self_weights,
    speedscope_document,
    tag_thread,
    thread_tag,
    top_frames,
)
from repro.telemetry.spans import Tracer


# ----------------------------------------------------------------------
# synthetic frames (the sys._current_frames() shape, but deterministic)


class _FakeCode:
    def __init__(self, filename, name):
        self.co_filename = filename
        self.co_name = name


class _FakeFrame:
    def __init__(self, filename, name, back=None):
        self.f_code = _FakeCode(filename, name)
        self.f_back = back


def chain(*frames):
    """Build a root-to-leaf frame chain; returns the leaf frame."""
    leaf = None
    for filename, name in frames:
        leaf = _FakeFrame(filename, name, back=leaf)
    return leaf


def device_leaf():
    return chain(
        ("/home/u/repo/src/repro/cli.py", "main"),
        ("/home/u/repo/src/repro/arch/dbc.py", "transverse_read"),
        ("/home/u/repo/src/repro/device/nanowire.py", "shift"),
    )


class TestPhaseClassification:
    @pytest.mark.parametrize(
        "function,phase",
        [
            ("transverse_read", PHASE_TR),
            ("transverse_read_digit", PHASE_TR),
            ("_sense", PHASE_TR),
            ("_record_tr", PHASE_TR),
            ("transverse_write", PHASE_WRITE),
            ("write_word", PHASE_WRITE),
            ("shift", PHASE_SHIFT),
            ("shift_to", PHASE_SHIFT),
            ("align_port", PHASE_SHIFT),
            ("multiply", None),
            ("main", None),
        ],
    )
    def test_classify_phase(self, function, phase):
        assert classify_phase(function) == phase

    def test_innermost_frame_wins(self):
        # write (outer) vs shift (inner): the leaf decides.
        assert phase_of_stack(["main", "write_word", "shift"]) == PHASE_SHIFT

    def test_no_device_frame_is_compute(self):
        assert phase_of_stack(["main", "run", "multiply"]) == PHASE_COMPUTE

    def test_phases_tuple_is_complete(self):
        assert set(PHASES) == {
            PHASE_SHIFT,
            PHASE_TR,
            PHASE_WRITE,
            PHASE_COMPUTE,
        }


class TestThreadTags:
    def test_tag_visible_only_inside_context(self):
        ident = threading.get_ident()
        assert thread_tag(ident) is None
        with tag_thread("storm"):
            assert thread_tag(ident) == "storm"
        assert thread_tag(ident) is None

    def test_nested_tags_restore_outer(self):
        ident = threading.get_ident()
        with tag_thread("outer"):
            with tag_thread("inner"):
                assert thread_tag(ident) == "inner"
            assert thread_tag(ident) == "outer"
        assert thread_tag(ident) is None

    def test_none_tag_is_a_no_op(self):
        ident = threading.get_ident()
        with tag_thread(None):
            assert thread_tag(ident) is None


class TestSampleOnce:
    def test_injected_frames_are_deterministic(self):
        profiler = SamplingProfiler(interval_s=0.001)
        frames = {9001: device_leaf()}
        for _ in range(5):
            assert profiler.sample_once(frames=frames) == 1
        assert profiler.samples == 5
        assert profiler.rounds == 5
        folded = profiler.folded()
        assert list(folded.values()) == [5]
        (stack,) = folded
        assert stack.endswith("repro/device/nanowire.py:shift")
        assert stack.startswith("repro/cli.py:main")

    def test_own_thread_is_excluded(self):
        profiler = SamplingProfiler(interval_s=0.001)
        frames = {
            threading.get_ident(): device_leaf(),
            424242: device_leaf(),
        }
        assert profiler.sample_once(frames=frames) == 1

    def test_phase_attribution(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.sample_once(frames={1: device_leaf()})
        profiler.sample_once(
            frames={1: chain(("/x/src/repro/pim/alu.py", "multiply"))}
        )
        phases = profiler.phases()
        assert phases[PHASE_SHIFT] == 1
        assert phases[PHASE_COMPUTE] == 1
        assert phases[PHASE_TR] == 0

    def test_tagged_thread_prefixes_stack_and_counts(self):
        profiler = SamplingProfiler(interval_s=0.001)
        done = threading.Event()
        release = threading.Event()
        captured = {}

        def worker():
            with tag_thread("storm"):
                captured["ident"] = threading.get_ident()
                done.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert done.wait(timeout=5)
            profiler.sample_once(
                frames={captured["ident"]: device_leaf()}
            )
        finally:
            release.set()
            thread.join()
        (stack,) = profiler.folded()
        assert stack.startswith("profile:storm;")
        assert profiler.tags() == {"storm": 1}

    def test_request_samples_join_via_tracer_snapshot(self):
        tracer = Tracer(clock=lambda: 0.0)
        profiler = SamplingProfiler(interval_s=0.001, tracer=tracer)
        context = TraceContext.root()
        opened = threading.Event()
        release = threading.Event()
        captured = {}

        def worker():
            with tracer.span("service.request") as span:
                span.context = context
                captured["ident"] = threading.get_ident()
                opened.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert opened.wait(timeout=5)
            profiler.sample_once(
                frames={captured["ident"]: device_leaf()}
            )
        finally:
            release.set()
            thread.join()
        document = profiler.document(mode="wall")
        assert document["schema"] == PROFILE_SCHEMA
        assert document["requests"][context.trace_id]["samples"] == 1

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0)

    @pytest.mark.parametrize("interval_s", [1e-12, 1e-6, 0.0005])
    def test_interval_below_the_floor_is_refused(self, interval_s):
        # Shorter waits spin the sampling thread on a core.
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=interval_s)
        assert SamplingProfiler(
            interval_s=SamplingProfiler.MIN_INTERVAL_S
        ).interval_s == SamplingProfiler.MIN_INTERVAL_S

    def test_cli_flag_refuses_the_same_intervals(self, capsys):
        from repro import cli

        floor_ms = 1000 * SamplingProfiler.MIN_INTERVAL_S
        for ms in (floor_ms / 2, 1e-9):
            with pytest.raises(SystemExit) as exc:
                cli.main([
                    "profile", "add", "1", "2", "--profile-interval-ms", repr(ms),
                ])
            assert exc.value.code == 2
            assert "--profile-interval-ms: must be >= 1" in capsys.readouterr().err
        args = cli.build_parser().parse_args(
            ["profile", "add", "1", "2", "--profile-interval-ms", repr(floor_ms)]
        )
        assert args.profile_interval_ms == floor_ms

    @pytest.mark.parametrize(
        "interval_s", [float("nan"), float("inf"), threading.TIMEOUT_MAX * 2]
    )
    def test_interval_must_be_a_wait_the_thread_can_make(self, interval_s):
        # Event.wait(nan) returns at once (a busy loop); a wait beyond
        # TIMEOUT_MAX raises OverflowError inside the sampling thread.
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=interval_s)


class TestWallSampling:
    def test_start_stop_round_trip(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        assert profiler.running
        with pytest.raises(RuntimeError):
            profiler.start()
        busy = threading.Event()

        def spin():
            while not busy.wait(0.001):
                pass

        thread = threading.Thread(target=spin)
        thread.start()
        try:
            deadline = threading.Event()
            deadline.wait(0.05)
        finally:
            busy.set()
            thread.join()
        profiler.stop()
        assert not profiler.running
        assert profiler.rounds >= 1


class TestFoldTracer:
    @staticmethod
    def build_tracer():
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("pim.mult") as outer:
            outer.annotate(cycles=100)
            with tracer.span("device.shift") as inner:
                inner.annotate(cycles=30)
        return tracer

    def test_self_weight_subtracts_children(self):
        folded = fold_tracer(self.build_tracer())
        assert folded == {
            "pim.mult": 70,
            "pim.mult;device.shift": 30,
        }

    def test_bit_identical_across_builds(self):
        one = fold_tracer(self.build_tracer())
        two = fold_tracer(self.build_tracer())
        assert render_collapsed(one) == render_collapsed(two)

    def test_child_exceeding_parent_clamps_to_zero(self):
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("outer") as outer:
            outer.annotate(cycles=10)
            with tracer.span("inner") as inner:
                inner.annotate(cycles=25)
        folded = fold_tracer(tracer)
        assert folded == {"outer;inner": 25}

    def test_device_counters_become_phase_stacks(self):
        from repro.telemetry.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        metrics.counter("device.shift.cycles").inc(40)
        metrics.counter("device.transverse_read.cycles").inc(7)
        metrics.counter("device.cycles").inc(47)  # 2 parts: ignored
        folded = fold_tracer(None, metrics)
        assert folded == {
            "phase:shift;device:shift": 40,
            "phase:tr;device:transverse_read": 7,
        }


class TestLedger:
    def test_parent_with_cycles_bills_once(self):
        tracer = Tracer(clock=lambda: 0.0)
        context = TraceContext.root()
        span = tracer.begin("service.request", context=context)
        with tracer.span("pim.add") as outer:
            outer.context = context.child()
            outer.annotate(cycles=50, energy_pj=2.5)
            with tracer.span("device.shift") as inner:
                inner.annotate(cycles=50, energy_pj=2.5)
        tracer.finish(span)
        ledger = ledger_from_tracer(tracer)
        entry = ledger[context.trace_id]
        # The inner 50 cycles must not double-count under the outer.
        assert entry["sim_cycles"] == 50
        assert entry["sim_energy_pj"] == 2.5
        assert entry["spans"] == 3

    def test_traces_are_separate(self):
        tracer = Tracer(clock=lambda: 0.0)
        for cycles in (10, 20):
            context = TraceContext.root()
            span = tracer.begin("req", context=context)
            span.annotate(cycles=cycles)
            tracer.finish(span)
        ledger = ledger_from_tracer(tracer)
        assert sorted(e["sim_cycles"] for e in ledger.values()) == [10, 20]


class TestExporters:
    FOLDED = {"a;b": 3, "a;c": 1, "a": 2}

    def test_render_collapsed_is_sorted_and_stable(self):
        text = render_collapsed(self.FOLDED)
        assert text == "a 2\na;b 3\na;c 1\n"
        assert render_collapsed(dict(reversed(self.FOLDED.items()))) == text

    def test_self_weights_bill_the_leaf(self):
        assert self_weights(self.FOLDED) == {"a": 2, "b": 3, "c": 1}

    def test_top_frames_orders_by_weight_then_name(self):
        assert top_frames({"x": 2, "y": 2, "z": 5}, limit=2) == [
            ("z", 5),
            ("x", 2),
        ]

    def test_speedscope_structure(self):
        doc = speedscope_document(self.FOLDED, name="t", interval_s=0.01)
        assert doc["profiles"][0]["type"] == "sampled"
        assert doc["profiles"][0]["unit"] == "seconds"
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert names == ["a", "b", "c"]  # sorted-stack first appearance
        assert doc["profiles"][0]["samples"] == [[0], [0, 1], [0, 2]]
        assert doc["profiles"][0]["weights"] == pytest.approx(
            [0.02, 0.03, 0.01]
        )
        assert doc["profiles"][0]["endValue"] == pytest.approx(0.06)

    def test_speedscope_unitless_without_interval(self):
        doc = speedscope_document(self.FOLDED)
        assert doc["profiles"][0]["unit"] == "none"
        assert doc["profiles"][0]["weights"] == [2, 3, 1]
