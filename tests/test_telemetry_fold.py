"""The hub folds watched DeviceStats into ``device.*`` when it is read.

``DeviceStats.record`` is pure accounting; a hub learns what the stats
it watches recorded only when its registry is read. These tests pin
that every read sees exactly the records the hub should count — the
ones made while the stats were attached to it, or adopted by its
activated scope — through resets, nested scopes, a system hub taking
over adopted stats, and concurrent reads; and that a kernel's hub calls
no longer grow with its device ops.
"""

import math
import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CoruscantSystem, MemoryGeometry
from repro.device.stats import DeviceStats
from repro.telemetry import TelemetryHub, runtime

OPS = ("shift", "transverse_read", "write")


def assert_matches(hub, expected):
    """``hub``'s device counters equal the per-op sums in ``expected``.

    Counts and cycles must be exact; energy sums are associated in
    another order than the records were made, so they get 1e-9.
    """
    want = {}
    for op, (count, cycles, energy) in expected.items():
        want[f"device.{op}.count"] = count
        want[f"device.{op}.cycles"] = cycles
        want[f"device.{op}.energy_pj"] = energy
    if expected:
        want["device.ops"] = sum(e[0] for e in expected.values())
        want["device.cycles"] = sum(e[1] for e in expected.values())
        want["device.energy_pj"] = sum(e[2] for e in expected.values())
    got = {
        name: value
        for name, value in hub.metrics_dict()["counters"].items()
        if name.startswith("device.")
    }
    assert set(got) == set(want)
    for name, value in want.items():
        if name.endswith("energy_pj"):
            assert math.isclose(
                got[name], value, rel_tol=1e-9, abs_tol=1e-9
            ), (name, got[name], value)
        else:
            assert got[name] == value, (name, got[name], value)


# ----------------------------------------------------------------------
# property: every read counts each record once, in the right hub

_STATS = 3
# Hub 0 is the system hub clusters get attached to; every hub,
# hub 0 included, can also be activated as a (nested) scope.
_HUBS = 3

_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.integers(0, _STATS - 1),
            st.sampled_from(OPS),
            st.integers(0, 9),
            st.floats(0.0, 50.0, allow_nan=False),
            st.integers(1, 4),
        ),
        st.tuples(st.just("read"), st.integers(0, _HUBS - 1)),
        st.tuples(st.just("reset"), st.integers(0, _STATS - 1)),
        st.tuples(st.just("attach"), st.integers(0, _STATS - 1)),
        st.tuples(st.just("enter"), st.integers(0, _HUBS - 1)),
        st.tuples(st.just("exit"),),
    ),
    max_size=60,
)


class TestFoldProperty:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_STEPS)
    def test_every_read_counts_each_record_once(self, steps):
        hubs = [TelemetryHub() for _ in range(_HUBS)]
        stats = [DeviceStats() for _ in range(_STATS)]
        expected = [{} for _ in range(_HUBS)]
        attached = set()
        scopes = []  # (hub index, entered activated() scope), innermost last
        try:
            for step in steps:
                kind = step[0]
                if kind == "record":
                    _, i, op, cycles, energy, count = step
                    stats[i].record(op, cycles, energy, count)
                    if i in attached:
                        owner = 0
                    elif scopes:
                        owner = scopes[-1][0]
                    else:
                        continue
                    sums = expected[owner].setdefault(op, [0, 0, 0.0])
                    sums[0] += count
                    sums[1] += cycles * count
                    sums[2] += energy * count
                elif kind == "read":
                    assert_matches(hubs[step[1]], expected[step[1]])
                elif kind == "reset":
                    stats[step[1]].reset()
                    assert stats[step[1]].cycles == 0
                elif kind == "attach":
                    hubs[0].watch(stats[step[1]])
                    attached.add(step[1])
                elif kind == "enter":
                    scope = runtime.activated(hubs[step[1]])
                    scope.__enter__()
                    scopes.append((step[1], scope))
                elif scopes:
                    scopes.pop()[1].__exit__(None, None, None)
        finally:
            while scopes:
                scopes.pop()[1].__exit__(None, None, None)
        assert runtime.active_hub() is None
        for hub, sums in zip(hubs, expected):
            assert_matches(hub, sums)
            # Reading never changes what the next read sees.
            assert_matches(hub, sums)

    def test_reset_between_reads_never_counts_backward(self):
        hub = TelemetryHub()
        stats = DeviceStats()
        hub.watch(stats)
        stats.record("shift", 2, 1.5, count=3)
        stats.reset()
        stats.record("shift", 2, 1.5)
        assert_matches(hub, {"shift": (4, 8, 6.0)})
        stats.reset()
        assert_matches(hub, {"shift": (4, 8, 6.0)})

    def test_records_after_the_scope_do_not_reach_its_hub(self):
        hub = TelemetryHub()
        stats = DeviceStats()
        with runtime.activated(hub):
            stats.record("write", 1, 0.5)
        stats.record("write", 1, 0.5, count=7)
        assert stats.scope is None
        assert_matches(hub, {"write": (1, 1, 0.5)})

    def test_attaching_adopted_stats_counts_them_once(self):
        active = TelemetryHub()
        system_hub = TelemetryHub()
        stats = DeviceStats()
        with runtime.activated(active):
            stats.record("shift", 1, 1.0)
            system_hub.watch(stats)
            stats.record("shift", 1, 1.0, count=2)
            assert_matches(active, {"shift": (1, 1, 1.0)})
        assert_matches(active, {"shift": (1, 1, 1.0)})
        assert_matches(system_hub, {"shift": (2, 2, 2.0)})


# ----------------------------------------------------------------------
# concurrency: reads racing records fold every record exactly once


class TestConcurrentReads:
    def test_reads_racing_records_fold_every_record_once(self):
        hub = TelemetryHub()
        stats = [DeviceStats() for _ in range(4)]
        for s in stats:
            hub.watch(s)
        records = 40000

        def record(s, k):
            for j in range(records):
                s.record(OPS[j % 3], k + 1, 0.25, count=1 + j % 2)

        stop = threading.Event()
        errors = []

        def read():
            try:
                while not stop.is_set():
                    hub.metrics_dict()
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            recorders = [
                threading.Thread(target=record, args=(s, k))
                for k, s in enumerate(stats)
            ]
            # Two reader threads and the main thread read concurrently.
            readers = [threading.Thread(target=read) for _ in range(2)]
            for thread in readers + recorders:
                thread.start()
            last = 0
            while any(thread.is_alive() for thread in recorders):
                ops = hub.metrics_dict()["counters"].get("device.ops", 0)
                assert ops >= last
                last = ops
            for thread in recorders:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in readers + recorders)
        finally:
            stop.set()
            sys.setswitchinterval(previous)
        assert errors == []

        expected = {}
        for k in range(4):
            for j in range(records):
                count = 1 + j % 2
                sums = expected.setdefault(OPS[j % 3], [0, 0, 0.0])
                sums[0] += count
                sums[1] += (k + 1) * count
                sums[2] += 0.25 * count
        assert_matches(hub, expected)


# ----------------------------------------------------------------------
# cost: a kernel's hub calls do not grow with its device ops


def _count_hub_calls(hub):
    """Wrap the hub's public methods; returns the running call count."""
    calls = [0]
    for name, attr in vars(TelemetryHub).items():
        if name.startswith("_") or not callable(attr):
            continue

        def counted(*args, _method=getattr(hub, name), **kwargs):
            calls[0] += 1
            return _method(*args, **kwargs)

        setattr(hub, name, counted)
    return calls


class TestHubCallsPerKernel:
    def hub_calls(self, run):
        hub = TelemetryHub()
        system = CoruscantSystem(
            trd=7,
            geometry=MemoryGeometry(tracks_per_dbc=64),
            telemetry=hub,
        )
        calls = _count_hub_calls(hub)
        system.add([1, 2], n_bits=8)  # attaches the PIM cluster
        before = calls[0]
        run(system)
        return calls[0] - before

    def test_multiply_hub_calls_do_not_grow_with_bits(self):
        narrow = self.hub_calls(lambda s: s.multiply(9, 6, n_bits=4))
        wide = self.hub_calls(lambda s: s.multiply(3001, 2718, n_bits=12))
        assert narrow == wide

    def test_add_hub_calls_do_not_grow_with_operands(self):
        two = self.hub_calls(lambda s: s.add([13, 200], n_bits=8))
        five = self.hub_calls(
            lambda s: s.add([13, 200, 7, 31, 42], n_bits=8)
        )
        assert two == five
