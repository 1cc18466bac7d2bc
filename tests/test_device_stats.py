"""Unit tests for device statistics accounting."""

from repro.device.stats import DeviceStats
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
