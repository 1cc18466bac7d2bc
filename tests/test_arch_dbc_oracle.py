"""Differential test: the array-backed cluster against per-track Nanowires.

The reference cluster below is the per-track loop a domain-block cluster
is defined by: one :class:`Nanowire` per track, all drawing from one
seeded :class:`FaultInjector`, driven in track order. Random op
sequences run on both, and after every op the return value (or the
exception type), each track's physical domains and offset, the commanded
offset, the cost stats, the vote stats and the injector's RNG position
must agree. Whole carry walks (Fig. 6) and block stagings are among
the ops: the reference runs a walk as the per-step TRs, ``write_bit``s
and ticks it stands for. So are whole popcounts: one
:class:`PopcountUnit` runs on each cluster, its chain of adds on the
cluster's integer :class:`WindowCopy` and on the wires themselves.
"""

import random
from typing import Any, List, Tuple

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro.arch.dbc import DomainBlockCluster, SenseVoteStats, pim_port_positions
from repro.core.popcount import PopcountResult, PopcountUnit
from repro.device.faults import FaultConfig, FaultInjector
from repro.device.nanowire import AccessPort, DataLossError, Nanowire
from repro.device.parameters import DeviceParameters
from repro.device.stats import DeviceStats
from repro.telemetry.spans import NULL_TRACER


class ReferenceCluster:
    """X Nanowires run one after another, recording at cluster level."""

    pim_enabled = True
    tracer = NULL_TRACER

    def __init__(self, tracks, domains, params, injector, overhead=None):
        ports = [AccessPort(p) for p in pim_port_positions(domains, params.trd)]
        self.wires = [
            Nanowire(domains, ports, params=params, injector=injector, overhead=overhead)
            for _ in range(tracks)
        ]
        self.params = params
        self.tracks = tracks
        self.injector = injector
        self.stats = DeviceStats()
        self.commanded_offset = 0
        self.tr_vote_reads = 1
        self.vote_stats = SenseVoteStats()

    @property
    def window(self):
        wire = self.wires[0]
        return wire.port_physical_position(0), wire.port_physical_position(1)

    @property
    def window_size(self):
        lo, hi = self.window
        return hi - lo + 1

    @property
    def super_carry(self):
        return self.window_size > 3

    def window_copy(self, first, last):
        return _WireWindow(self)

    def _check_width(self, bits):
        if len(bits) != self.tracks:
            raise ValueError(f"row must have {self.tracks} bits, got {len(bits)}")

    def _slot(self, slot):
        lo, hi = self.window
        if not lo <= lo + slot <= hi:
            raise ValueError(f"slot {slot} outside the window")
        return lo + slot

    def poke_row(self, row, bits):
        self._check_width(bits)
        for wire, bit in zip(self.wires, bits):
            wire.poke_row(row, bit)

    def peek_row(self, row):
        return [wire.peek_row(row) for wire in self.wires]

    def poke_window_slot(self, slot, bits):
        self._check_width(bits)
        position = self._slot(slot)
        for wire, bit in zip(self.wires, bits):
            wire.poke_physical(position, bit)

    def peek_window_slot(self, slot):
        position = self._slot(slot)
        return [wire.peek_physical(position) for wire in self.wires]

    def shift(self, direction, count=1):
        try:
            for wire in self.wires:
                wire.shift(direction, count, record=False)
        except DataLossError:
            for wire in self.wires:
                wire.commanded_offset = self.commanded_offset
            raise
        self.commanded_offset += direction * count
        p = self.params.shift
        self.stats.record("shift", p.cycles * count, p.energy_pj * self.tracks * count)

    def align(self, row, port_index=0):
        wire = self.wires[0]
        target = wire.port_physical_position(port_index)
        delta = target - (wire.overhead_left + row + self.commanded_offset)
        if delta:
            self.shift(1 if delta > 0 else -1, abs(delta))
        return abs(delta)

    def read_row(self, port_index=0):
        bits = [wire.read(port_index, record=False) for wire in self.wires]
        p = self.params.read
        self.stats.record("read", p.cycles, p.energy_pj * self.tracks)
        return bits

    def write_row(self, bits, port_index=0):
        self._check_width(bits)
        for wire, bit in zip(self.wires, bits):
            wire.write(port_index, bit, record=False)
        p = self.params.write
        self.stats.record("write", p.cycles, p.energy_pj * self.tracks)

    def _sense(self, wire):
        n = self.tr_vote_reads
        if n <= 1:
            return wire.transverse_read(0, 1, record=False)
        reads = [wire.transverse_read(0, 1, record=False) for _ in range(n)]
        self.vote_stats.votes += 1
        winner = max(set(reads), key=reads.count)
        if len(set(reads)) > 1:
            self.vote_stats.disagreements += 1
            if reads.count(winner) > n // 2:
                self.vote_stats.corrected += 1
            else:
                self.vote_stats.unresolved += 1
        return winner

    def _record_tr(self, senses):
        n = max(1, self.tr_vote_reads)
        p = self.params.transverse_read
        self.stats.record("transverse_read", p.cycles * n, p.energy_pj * senses * n)
        if n > 1:
            self.vote_stats.overhead_cycles += p.cycles * (n - 1)

    def transverse_read_all(self):
        levels = [self._sense(wire) for wire in self.wires]
        self._record_tr(self.tracks)
        return levels

    def transverse_read_track(self, track):
        level = self._sense(self.wires[track])
        self._record_tr(1)
        return level

    def transverse_read_tracks(self, tracks):
        levels = [self._sense(self.wires[t]) for t in tracks]
        self._record_tr(len(levels))
        return levels

    def transverse_write_row(self, bits):
        self._check_width(bits)
        ejected = [
            wire.transverse_write(bit, 0, 1, record=False)
            for wire, bit in zip(self.wires, bits)
        ]
        p = self.params.transverse_write
        self.stats.record("transverse_write", p.cycles, p.energy_pj * self.tracks)
        return ejected

    def write_bit(self, track, port_index, bit):
        self.wires[track].write(port_index, bit, record=False)
        self.stats.record("write_bit", 0, self.params.write.energy_pj)

    def poke_window_block(self, start_track, block):
        lo, hi = self.window
        if any(len(row) != hi - lo + 1 for row in block):
            raise ValueError("block rows must be as wide as the window")
        if start_track < 0 or start_track + len(block) > self.tracks:
            raise ValueError("block outside the cluster's tracks")
        if any(bit not in (0, 1) for row in block for bit in row):
            raise ValueError("block holds a non-bit")
        for track, row in enumerate(block, start_track):
            for slot, bit in enumerate(row):
                self.wires[track].poke_physical(lo + slot, bit)

    def carry_walk(self, starts, steps):
        # The per-step sequence a walk stands for: each block's TR in one
        # batch, the S/C/C' writes block by block, then the step's tick.
        # Only a window that can count to 4 has a super carry.
        if steps < 0 or not starts:
            raise ValueError("a walk needs blocks and steps >= 0")
        if min(starts) < 0 or max(starts) + steps > self.tracks:
            raise ValueError("walk outside the cluster's tracks")
        lo, hi = self.window
        super_carry = hi - lo + 1 > 3
        for step in range(steps):
            tracks = [start + step for start in starts]
            levels = self.transverse_read_tracks(tracks)
            for start, track, level in zip(starts, tracks, levels):
                end = start + steps
                self.write_bit(track, 0, level & 1)
                if track + 1 < end:
                    self.write_bit(track + 1, 1, level >> 1 & 1)
                if super_carry and track + 2 < end:
                    self.write_bit(track + 2, 0, level >> 2 & 1)
            self.stats.record("carry_write", 1, 0.0)
        return [
            [self.wires[t].peek_physical(lo) for t in range(start, start + steps)]
            for start in starts
        ]

    @property
    def misaligned_tracks(self):
        return [
            i for i, wire in enumerate(self.wires) if wire.offset != self.commanded_offset
        ]

    def position_error_check(self):
        p = self.params.transverse_read
        self.stats.record("position_check", p.cycles, p.energy_pj * self.tracks)
        return self.misaligned_tracks

    def realign(self):
        worst = moved = 0
        for wire in self.wires:
            correction = abs(wire.misalignment)
            if correction:
                worst = max(worst, correction)
                moved += correction
                wire.realign(record=False)
        if worst:
            p = self.params.shift
            self.stats.record("realign", p.cycles * worst, p.energy_pj * moved)
        return worst

    def snapshot(self):
        return [wire.checkpoint() for wire in self.wires], self.commanded_offset

    def restore(self, state):
        wires, commanded = state
        for wire, saved in zip(self.wires, wires):
            wire.restore(saved)
        self.commanded_offset = commanded

    def track_states(self):
        return [list(wire.checkpoint()) for wire in self.wires]


class _WireWindow:
    """The reference's window copy: every staging and walk on the wires,
    every step recorded as it happens."""

    def __init__(self, ref):
        self.ref = ref

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    @property
    def cycles(self):
        return self.ref.stats.cycles

    def poke_window_slots(self, start, width, slots):
        block = [[slot >> i & 1 for slot in slots] for i in range(width)]
        self.ref.poke_window_block(start, block)

    def walk(self, starts, steps):
        return self.ref.carry_walk(starts, steps)


# ----------------------------------------------------------------------
# random op sequences

DOMAINS = (8, 32)


@st.composite
def walks(draw, tracks):
    """A ``carry_walk`` op: blocks at a stride and steps.

    Half of them are made to fit the cluster's tracks.
    """
    steps = draw(st.integers(0, 12))
    blocks = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 12))
    if draw(st.booleans()):
        steps = min(steps, tracks)
        start = draw(st.integers(0, tracks - steps))
        blocks = min(blocks, (tracks - steps - start) // stride + 1)
    else:
        start = draw(st.integers(0, tracks))
    starts = [start + b * stride for b in range(blocks)]
    return ("carry_walk", starts, steps)


@st.composite
def scenarios(draw):
    trd = draw(st.sampled_from((3, 5, 7)))
    tracks = draw(st.integers(1, 70))
    domains = draw(st.sampled_from(DOMAINS))
    window = trd
    bit = st.integers(0, 1)
    row = st.one_of(
        st.lists(bit, min_size=tracks, max_size=tracks),
        st.lists(bit, min_size=tracks, max_size=tracks),
        st.lists(bit, max_size=tracks + 1),
    )
    track = st.integers(0, tracks - 1)
    port = st.integers(0, 1)
    slots = st.lists(bit, min_size=window, max_size=window)
    block = st.one_of(
        st.lists(slots, min_size=1, max_size=12),
        st.lists(slots, min_size=1, max_size=12),
        st.lists(st.lists(bit, min_size=window + 1, max_size=window + 1), min_size=1, max_size=2),
    )
    op = st.one_of(
        st.tuples(st.just("shift"), st.sampled_from((1, -1)), st.integers(0, 6)),
        st.tuples(st.just("align"), st.integers(0, domains - 1), port),
        st.tuples(st.just("read_row"), port),
        st.tuples(st.just("write_row"), row, port),
        st.tuples(st.just("poke_row"), st.integers(-1, domains), row),
        st.tuples(st.just("peek_row"), st.integers(-1, domains)),
        st.tuples(st.just("poke_window_slot"), st.integers(-1, window), row),
        st.tuples(st.just("peek_window_slot"), st.integers(-1, window)),
        st.tuples(st.just("transverse_read_all")),
        st.tuples(st.just("transverse_read_track"), track),
        st.tuples(st.just("transverse_read_tracks"), st.lists(track, max_size=6)),
        st.tuples(st.just("transverse_write_row"), row),
        st.tuples(st.just("write_bit"), track, port, bit),
        walks(tracks),
        walks(tracks),
        st.tuples(st.just("poke_window_block"), st.integers(-1, max(0, tracks - 4)), block),
        st.tuples(st.just("position_error_check")),
        st.tuples(st.just("realign")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("rates"), st.sampled_from((0.0, 0.05)), st.sampled_from((0.0, 0.05, 0.5))),
        st.tuples(st.just("popcount"), st.lists(bit, max_size=3 * tracks)),
    )
    return {
        "trd": trd,
        "tracks": tracks,
        "domains": domains,
        "overhead": draw(st.sampled_from((None, (2, 3)))),
        "tr_rate": draw(st.sampled_from((0.0, 0.05, 0.3))),
        "shift_rate": draw(st.sampled_from((0.0, 0.05, 0.5))),
        "votes": draw(st.sampled_from((1, 3))),
        "seed": draw(st.integers(0, 2**16)),
        "ops": draw(st.lists(op, min_size=1, max_size=40)),
    }


def _apply(cluster, op: Tuple, saved: List[Any]) -> Tuple[str, Any]:
    name, args = op[0], op[1:]
    try:
        if name == "snapshot":
            saved.append(cluster.snapshot())
            return ("ok", None)
        if name == "restore":
            if saved:
                cluster.restore(saved[-1])
            return ("ok", None)
        if name == "rates":
            cluster.injector.set_rates(*args)
            return ("ok", None)
        if name == "popcount":
            return ("ok", PopcountUnit(cluster).count_row(*args))
        result = getattr(cluster, name)(*args)
        if hasattr(result, "tolist"):
            result = result.tolist()  # rows read back as uint8 arrays
        return ("ok", result)
    except (ValueError, DataLossError) as exc:
        return ("raised", type(exc))


def _state(cluster, track_states) -> Tuple:
    return (
        track_states,
        cluster.commanded_offset,
        cluster.stats.as_dict(),
        cluster.vote_stats,
        cluster.injector.state(),
    )


def run_both(scenario) -> List[Tuple[str, Any]]:
    """Run ``scenario`` on both clusters, checking them after every op;
    returns the outcomes."""
    params = DeviceParameters(trd=scenario["trd"])
    config = FaultConfig(
        tr_fault_rate=scenario["tr_rate"],
        shift_fault_rate=scenario["shift_rate"],
        seed=scenario["seed"],
    )
    dbc = DomainBlockCluster(
        tracks=scenario["tracks"],
        domains=scenario["domains"],
        params=params,
        injector=FaultInjector(config),
        overhead=scenario["overhead"],
    )
    ref = ReferenceCluster(
        scenario["tracks"], scenario["domains"], params, FaultInjector(config),
        overhead=scenario["overhead"],
    )
    dbc.tr_vote_reads = ref.tr_vote_reads = scenario["votes"]
    dbc_saved: List[Any] = []
    ref_saved: List[Any] = []
    outcomes = []
    for index, op in enumerate(scenario["ops"]):
        got = _apply(dbc, op, dbc_saved)
        want = _apply(ref, op, ref_saved)
        assert got == want, f"op {index} {op[0]}"
        assert _state(dbc, dbc.snapshot().track_states()) == _state(
            ref, ref.track_states()
        ), f"state after op {index} {op[0]}"
        assert dbc.misaligned_tracks == ref.misaligned_tracks
        outcomes.append(got)
    return outcomes


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
def test_cluster_matches_per_track_nanowires(scenario):
    run_both(scenario)


def test_sequences_reach_aborted_shifts():
    # The generator reaches DataLossError aborts, with faults on and off.
    for shift_rate in (0.0, 0.5):
        found = find(
            scenarios().filter(lambda s: s["shift_rate"] == shift_rate),
            lambda s: ("raised", DataLossError) in run_both(s),
            settings=settings(
                max_examples=2000,
                deadline=None,
                derandomize=True,
                phases=[Phase.generate],
                suppress_health_check=list(HealthCheck),
            ),
        )
        assert found["shift_rate"] == shift_rate


@pytest.mark.parametrize("seed", range(3))
def test_faulted_campaign_shape_matches(seed):
    # A long faulted run at a campaign's geometry: shifts, voted reads,
    # whole four-block walks, checks and realigns interleaved as the
    # resilient executor issues them.
    ops = []
    for i in range(60):
        ops += [
            ("align", (7 * i + seed) % 32, i % 2),
            ("transverse_read_all",),
            ("transverse_read_tracks", [0, 16, 32, 48]),
            ("write_bit", (5 * i) % 64, 0, i % 2),
            ("carry_walk", [0, 16, 32, 48], 12),
            ("position_error_check",),
            ("realign",),
        ]
    run_both({
        "trd": 7, "tracks": 64, "domains": 32, "overhead": None,
        "tr_rate": 0.05, "shift_rate": 0.05, "votes": 3, "seed": seed,
        "ops": ops,
    })


@pytest.mark.parametrize("votes", (1, 3))
@pytest.mark.parametrize("trd", (3, 5, 7))
def test_faulted_popcount_chains_match(trd, votes):
    # Popcounts long enough for chains of adds, between shifts that
    # split the tracks' offsets, under TR and shift faults.
    rng = random.Random(trd * 10 + votes)
    ops = []
    for i in range(8):
        ops += [
            ("shift", 1 if i % 2 else -1, 1 + i % 3),
            ("popcount", [rng.getrandbits(1) for _ in range(40 + 25 * i)]),
            ("position_error_check",),
            ("realign",),
        ]
    outcomes = run_both({
        "trd": trd, "tracks": 48, "domains": 32, "overhead": None,
        "tr_rate": 0.05, "shift_rate": 0.05, "votes": votes, "seed": trd,
        "ops": ops,
    })
    counts = [result for _, result in outcomes if isinstance(result, PopcountResult)]
    assert len(counts) == 8
