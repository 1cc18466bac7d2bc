"""Unit tests for device statistics accounting."""

import random
from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.stats import DeviceStats, StatsPlan
from repro.device.parameters import DeviceParameters, TimingEnergy
from repro.telemetry import TelemetryHub, runtime

import pytest


class TestDeviceStats:
    def test_record_accumulates(self):
        stats = DeviceStats()
        stats.record("shift", 1, 0.5)
        stats.record("shift", 1, 0.5, count=3)
        assert stats.count("shift") == 4
        assert stats.cycles == 4
        assert stats.energy_pj == pytest.approx(2.0)

    def test_merge(self):
        a = DeviceStats()
        b = DeviceStats()
        a.record("read", 1, 0.4)
        b.record("read", 1, 0.4)
        b.record("write", 1, 0.6)
        a.merge(b)
        assert a.count("read") == 2
        assert a.count("write") == 1
        assert a.cycles == 3

    def test_reset(self):
        stats = DeviceStats()
        stats.record("tr", 1, 1.0)
        stats.reset()
        assert stats.cycles == 0
        assert stats.energy_pj == 0.0
        assert stats.count("tr") == 0

    def test_unknown_op_counts_zero(self):
        assert DeviceStats().count("nope") == 0


class TestBreakdowns:
    def test_record_attributes_cycles_and_energy_per_op(self):
        stats = DeviceStats()
        stats.record("shift", 1, 0.5, count=4)
        stats.record("tr", 2, 1.25, count=3)
        assert stats.cycles_for("shift") == 4
        assert stats.cycles_for("tr") == 6
        assert stats.energy_for("shift") == pytest.approx(2.0)
        assert stats.energy_for("tr") == pytest.approx(3.75)
        assert stats.cycles_for("nope") == 0
        assert stats.energy_for("nope") == 0.0

    def test_breakdowns_sum_to_totals(self):
        stats = DeviceStats()
        stats.record("shift", 1, 0.5, count=7)
        stats.record("read", 1, 0.4, count=2)
        stats.record("tw", 3, 2.0)
        assert sum(stats.op_cycles.values()) == stats.cycles
        assert sum(stats.op_energy_pj.values()) == pytest.approx(
            stats.energy_pj
        )

    def test_merge_folds_breakdowns(self):
        a = DeviceStats()
        b = DeviceStats()
        a.record("read", 1, 0.4, count=2)
        b.record("read", 1, 0.4, count=3)
        b.record("write", 2, 0.6)
        a.merge(b)
        assert a.cycles_for("read") == 5
        assert a.cycles_for("write") == 2
        assert a.energy_for("read") == pytest.approx(2.0)
        assert a.energy_for("write") == pytest.approx(0.6)

    def test_reset_clears_breakdowns(self):
        stats = DeviceStats()
        stats.record("tr", 2, 1.0, count=5)
        stats.reset()
        assert stats.op_cycles == {}
        assert stats.op_energy_pj == {}
        assert stats.cycles_for("tr") == 0
        assert stats.energy_for("tr") == 0.0


class TestAsDict:
    def test_snapshot_contents(self):
        stats = DeviceStats()
        stats.record("shift", 1, 0.5, count=2)
        stats.record("tr", 2, 1.0)
        snapshot = stats.as_dict()
        assert snapshot == {
            "op_counts": {"shift": 2, "tr": 1},
            "op_cycles": {"shift": 2, "tr": 2},
            "op_energy_pj": {"shift": 1.0, "tr": 1.0},
            "cycles": 4,
            "energy_pj": 2.0,
        }

    def test_snapshot_is_non_destructive(self):
        stats = DeviceStats()
        stats.record("read", 1, 0.4, count=3)
        first = stats.as_dict()
        second = stats.as_dict()
        assert first == second

    def test_snapshot_mutation_does_not_leak_back(self):
        stats = DeviceStats()
        stats.record("read", 1, 0.4)
        snapshot = stats.as_dict()
        snapshot["op_counts"]["read"] = 999
        snapshot["op_cycles"]["read"] = 999
        snapshot["op_energy_pj"]["read"] = 999.0
        assert stats.count("read") == 1
        assert stats.cycles_for("read") == 1
        assert stats.energy_for("read") == pytest.approx(0.4)


class TestSinkPublishing:
    def test_attached_sink_receives_every_record(self):
        hub = TelemetryHub()
        stats = DeviceStats()
        hub.watch(stats)
        stats.record("shift", 1, 0.5, count=4)
        stats.record("tr", 2, 1.0)
        assert hub.metrics.as_dict()["counters"] == {
            "device.cycles": 6,
            "device.energy_pj": 3.0,
            "device.ops": 5,
            "device.shift.count": 4,
            "device.shift.cycles": 4,
            "device.shift.energy_pj": 2.0,
            "device.tr.count": 1,
            "device.tr.cycles": 2,
            "device.tr.energy_pj": 1.0,
        }

    def test_no_sink_no_publish(self):
        stats = DeviceStats()
        stats.record("shift", 1, 0.5)  # must not raise
        assert stats.cycles == 1

    def test_active_hub_is_fallback_sink(self):
        hub = TelemetryHub()
        stats = DeviceStats()
        with runtime.activated(hub):
            stats.record("tr", 2, 1.0, count=3)
        counters = hub.metrics.as_dict()["counters"]
        assert counters["device.tr.count"] == 3
        assert counters["device.cycles"] == 6

    def test_attached_sink_wins_over_active_hub(self):
        attached = TelemetryHub()
        hub = TelemetryHub()
        stats = DeviceStats()
        attached.watch(stats)
        with runtime.activated(hub):
            stats.record("read", 1, 0.4)
        assert attached.metrics.as_dict()["counters"] == {
            "device.cycles": 1,
            "device.energy_pj": 0.4,
            "device.ops": 1,
            "device.read.count": 1,
            "device.read.cycles": 1,
            "device.read.energy_pj": 0.4,
        }
        assert hub.metrics.as_dict()["counters"] == {}


# Device costs are never negative (TimingEnergy refuses them, and a
# watching hub's counters never run backward).
_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(("transverse_read", "write_bit", "carry_write", "shift")),
        st.integers(0, 10**6),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    max_size=40,
)


class TestStatsPlan:
    @settings(max_examples=300, deadline=None)
    @given(
        before=_RECORDS,
        planned=_RECORDS,
        times=st.integers(0, 4),
        active=st.booleans(),
    )
    def test_apply_equals_one_record_per_entry(
        self, before, planned, times, active
    ):
        planned_stats, recorded = DeviceStats(), DeviceStats()
        for entry in before:
            planned_stats.record(*entry)
            recorded.record(*entry)
        hubs = (TelemetryHub(), TelemetryHub())
        plan = StatsPlan.of(planned)
        with runtime.activated(hubs[0]) if active else nullcontext():
            planned_stats.apply(plan, times)
            planned_scope = planned_stats.scope
        with runtime.activated(hubs[1]) if active else nullcontext():
            for entry in planned * times:
                recorded.record(*entry)
            recorded_scope = recorded.scope
        for name in ("op_counts", "op_cycles", "op_energy_pj", "cycles", "energy_pj"):
            got, want = getattr(planned_stats, name), getattr(recorded, name)
            assert got == want, name
            assert repr(got) == repr(want), name
        # A hub activated around the apply adopts the stats exactly when
        # it would adopt them on the first of the records, and folds the
        # same counts when its scope ends.
        assert (planned_scope is hubs[0]) == (recorded_scope is hubs[1])
        assert (planned_scope is None) == (not (active and planned and times))
        assert hubs[0].metrics_dict() == hubs[1].metrics_dict()
        assert planned_stats.scope is recorded.scope is None

    def test_plan_keeps_first_appearance_order(self):
        plan = StatsPlan.of([("b", 1, 0.5), ("a", 0, 0.25), ("b", 1, 0.5)])
        assert [(op, n, c) for op, n, c, _ in plan.ops] == [("b", 2, 2), ("a", 1, 0)]
        assert plan.ops[0][3].tolist() == [0.5, 0.5]
        assert plan.cycles == 2
        assert plan.energies.tolist() == [0.5, 0.25, 0.5]

    def test_long_plan_rounds_as_sequential_adds(self):
        # Thousands of energies over many magnitudes: every partial sum
        # rounds, so any pairing of terms would show in the last bits.
        rng = random.Random(5)
        records = [
            (rng.choice("abc"), rng.randrange(3), rng.random() * 10 ** rng.randrange(-8, 9))
            for _ in range(5000)
        ]
        planned, recorded = DeviceStats(), DeviceStats()
        planned.record("a", 1, 0.1)
        recorded.record("a", 1, 0.1)
        planned.apply(StatsPlan.of(records), 3)
        for entry in records * 3:
            recorded.record(*entry)
        assert repr(planned) == repr(recorded)

    def test_empty_plan_records_nothing(self):
        hub = TelemetryHub()
        stats = DeviceStats()
        with runtime.activated(hub):
            stats.apply(StatsPlan.of([]), 5)
            stats.apply(StatsPlan.of([("a", 1, 0.5)]), 0)
            assert stats.scope is None
        assert stats == DeviceStats()


class TestParameters:
    def test_defaults(self):
        p = DeviceParameters()
        assert p.trd == 7
        assert p.sense_levels == 8

    def test_rejects_small_trd(self):
        with pytest.raises(ValueError):
            DeviceParameters(trd=1)

    def test_rejects_bad_fault_rate(self):
        with pytest.raises(ValueError):
            DeviceParameters(tr_fault_rate=2.0)

    def test_timing_energy_validation(self):
        with pytest.raises(ValueError):
            TimingEnergy(-1, 0.5)
        with pytest.raises(ValueError):
            TimingEnergy(1, -0.5)
