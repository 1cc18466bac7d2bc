"""Domain-block cluster (DBC): the unit CORUSCANT computes in.

A DBC is X parallel racetracks of Y data domains each (Fig. 2d). The X
nanowires shift in lockstep, so a memory *row* is one domain position read
across all X tracks. PIM-enabled DBCs have two access ports per track
spaced TRD-1 domains apart so a transverse read spans exactly TRD domains
(Section III-A).

Cost accounting happens at the cluster level: a lockstep operation across
all X tracks costs one operation's latency but X tracks' energy. The
per-track :class:`~repro.device.nanowire.Nanowire` objects therefore run
with recording suppressed and the DBC's own :class:`DeviceStats` is the
source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.device.faults import FaultInjector
from repro.device.nanowire import AccessPort, DataLossError, Nanowire
from repro.device.parameters import DeviceParameters
from repro.device.stats import DeviceStats
from repro.telemetry.spans import NULL_TRACER


@dataclass
class SenseVoteStats:
    """Counters for the re-read-voting sense path.

    With :attr:`DomainBlockCluster.tr_vote_reads` > 1 every transverse
    read is repeated and majority-voted, which detects (and usually
    corrects) single TR level faults at the cost of the extra reads.
    """

    votes: int = 0
    disagreements: int = 0
    corrected: int = 0
    unresolved: int = 0
    overhead_cycles: int = 0

    def copy(self) -> "SenseVoteStats":
        return replace(self)


@dataclass(frozen=True)
class DBCSnapshot:
    """Zero-cost checkpoint of a whole cluster (transaction logging)."""

    wires: Tuple[Tuple[List[int], int, int], ...]
    commanded_offset: int


def pim_port_positions(domains: int, trd: int) -> Tuple[int, int]:
    """Data-relative port positions for a PIM DBC.

    Ports are centered and spaced TRD-1 apart so the TR window covers TRD
    domains; for Y = 32, TRD = 7 this gives positions (14, 20) exactly as
    in Section III-A ("the ports would move to positions 14 and 20").
    """
    if trd < 2:
        raise ValueError(f"trd must be >= 2, got {trd}")
    if trd > domains:
        raise ValueError(f"trd {trd} cannot exceed domains {domains}")
    left = domains // 2 - trd // 2 + 1
    left = max(0, min(left, domains - trd))
    return left, left + trd - 1


class DomainBlockCluster:
    """X lockstep racetracks forming one domain-block cluster."""

    def __init__(
        self,
        tracks: int = 512,
        domains: int = 32,
        params: Optional[DeviceParameters] = None,
        pim_enabled: bool = True,
        port_positions: Optional[Tuple[int, int]] = None,
        injector: Optional[FaultInjector] = None,
        overhead: Optional[Tuple[int, int]] = None,
    ) -> None:
        if tracks < 1:
            raise ValueError(f"tracks must be >= 1, got {tracks}")
        self.params = params or DeviceParameters()
        self.tracks = tracks
        self.domains = domains
        self.pim_enabled = pim_enabled
        self.injector = injector or FaultInjector()
        if port_positions is None:
            if pim_enabled:
                port_positions = pim_port_positions(domains, self.params.trd)
            else:
                port_positions = (domains // 2,)  # single central port
        ports = [AccessPort(p) for p in port_positions]
        self.port_positions: Tuple[int, ...] = tuple(port_positions)
        self.wires: List[Nanowire] = [
            Nanowire(
                domains,
                ports,
                params=self.params,
                injector=self.injector,
                overhead=overhead,
            )
            for _ in range(tracks)
        ]
        self.stats = DeviceStats()
        # Telemetry attachment point: core units open phase spans on the
        # cluster they compute in. NULL_TRACER makes every span a no-op.
        self.tracer = NULL_TRACER
        self._commanded_offset = 0
        # Re-read voting in the sense path: 1 disables, an odd n > 1
        # repeats every TR n times and majority-votes per track.
        self.tr_vote_reads = 1
        self.vote_stats = SenseVoteStats()

    # ------------------------------------------------------------------
    # geometry

    @property
    def window(self) -> Tuple[int, int]:
        """Inclusive physical window [left, right] a TR spans (PIM DBCs)."""
        if len(self.port_positions) < 2:
            raise ValueError("window is only defined for two-port (PIM) DBCs")
        wire = self.wires[0]
        return (
            wire.port_physical_position(0),
            wire.port_physical_position(1),
        )

    @property
    def window_size(self) -> int:
        lo, hi = self.window
        return hi - lo + 1

    def window_row_at(self, slot: int) -> Optional[int]:
        """Data row believed to occupy window slot ``slot`` (0 = left head).

        Computed from the *commanded* offset — what the controller thinks
        the cluster is at. After an undetected shift fault the physical
        row may differ; :meth:`position_error_check` exposes the gap.
        """
        lo, _ = self.window
        wire = self.wires[0]
        row = lo + slot - wire.overhead_left - self._commanded_offset
        return row if 0 <= row < self.domains else None

    @property
    def commanded_offset(self) -> int:
        """Offset the controller believes all tracks are at."""
        return self._commanded_offset

    @property
    def misaligned_tracks(self) -> List[int]:
        """Tracks whose physical offset disagrees with the commanded one."""
        return [
            i
            for i, wire in enumerate(self.wires)
            if wire.offset != self._commanded_offset
        ]

    # ------------------------------------------------------------------
    # zero-cost state accessors

    def poke_row(self, row: int, bits: Sequence[int]) -> None:
        """Set data row ``row`` across all tracks (no cost recorded)."""
        self._check_row_width(bits)
        for wire, bit in zip(self.wires, bits):
            wire.poke_row(row, bit)

    def peek_row(self, row: int) -> List[int]:
        """Read data row ``row`` across all tracks (no cost recorded)."""
        return [wire.peek_row(row) for wire in self.wires]

    def poke_window_slot(self, slot: int, bits: Sequence[int]) -> None:
        """Set the domains at window slot ``slot`` (no cost recorded)."""
        self._check_row_width(bits)
        lo, hi = self.window
        if not lo <= lo + slot <= hi:
            raise ValueError(f"slot {slot} outside window of {self.window_size}")
        for wire, bit in zip(self.wires, bits):
            wire.poke_physical(lo + slot, bit)

    def peek_window_slot(self, slot: int) -> List[int]:
        """Read the domains at window slot ``slot`` (no cost recorded)."""
        lo, hi = self.window
        if not lo <= lo + slot <= hi:
            raise ValueError(f"slot {slot} outside window of {self.window_size}")
        return [wire.peek_physical(lo + slot) for wire in self.wires]

    # ------------------------------------------------------------------
    # lockstep device operations (cost-recorded at cluster level)

    def shift(self, direction: int, count: int = 1) -> None:
        """Shift all tracks in lockstep.

        If a track ejects data the whole command aborts and the cluster
        keeps its commanded offset. Every track's commanded offset is
        put back to it, so no track's belief drifts from the cluster's
        and :meth:`realign` can return the tracks that already moved.
        """
        try:
            for wire in self.wires:
                wire.shift(direction, count, record=False)
        except DataLossError:
            for wire in self.wires:
                wire.commanded_offset = self._commanded_offset
            raise
        self._commanded_offset += direction * count
        p = self.params.shift
        self.stats.record(
            "shift", p.cycles * count, p.energy_pj * self.tracks * count
        )

    def align(self, row: int, port_index: int = 0) -> int:
        """Shift all tracks so data row ``row`` is under ``port_index``.

        The shift distance is computed from the commanded offset — the
        controller cannot see a misaligned track until a position-error
        check runs, so a prior shift fault leaves that track reading the
        wrong row.
        """
        wire = self.wires[0]
        target = wire.port_physical_position(port_index)
        believed = wire.overhead_left + row + self._commanded_offset
        delta = target - believed
        if delta:
            self.shift(1 if delta > 0 else -1, abs(delta))
        return abs(delta)

    def read_row(self, port_index: int = 0) -> List[int]:
        """Orthogonal read of the aligned row on every track (one cycle)."""
        bits = [wire.read(port_index, record=False) for wire in self.wires]
        p = self.params.read
        self.stats.record("read", p.cycles, p.energy_pj * self.tracks)
        return bits

    def write_row(self, bits: Sequence[int], port_index: int = 0) -> None:
        """Write a full row through the given port on every track."""
        self._check_row_width(bits)
        for wire, bit in zip(self.wires, bits):
            wire.write(port_index, bit, record=False)
        p = self.params.write
        self.stats.record("write", p.cycles, p.energy_pj * self.tracks)

    def _sense(self, wire: Nanowire) -> int:
        """One sense-path read of a wire's TR level, voting if enabled.

        With ``tr_vote_reads`` = n > 1 the TR is repeated n times and the
        per-track majority wins — the 2-of-3 (or k-of-n) re-read scheme
        that detects single TR level faults in the sense path. Vote
        outcomes land in :attr:`vote_stats`; callers account the n-times
        cycle/energy cost at the batch level.
        """
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

    def _record_tr(self, senses: int) -> None:
        """Account one TR batch of ``senses`` track reads (voted or not)."""
        n = max(1, self.tr_vote_reads)
        p = self.params.transverse_read
        self.stats.record(
            "transverse_read", p.cycles * n, p.energy_pj * senses * n
        )
        if n > 1:
            self.vote_stats.overhead_cycles += p.cycles * (n - 1)

    def transverse_read_all(self) -> List[int]:
        """TR every track in parallel; returns one level per track.

        This is the CORUSCANT polymorphic-gate read: each track's level is
        the count of '1's in its TRD-domain window, feeding the seven-level
        sense amp of Fig. 4(a).
        """
        levels = [self._sense(wire) for wire in self.wires]
        self._record_tr(self.tracks)
        return levels

    def transverse_read_track(self, track: int) -> int:
        """TR a single track (the sequential addition walk of Fig. 6)."""
        level = self._sense(self.wires[track])
        self._record_tr(1)
        return level

    def transverse_read_tracks(self, tracks: Sequence[int]) -> List[int]:
        """TR several tracks in the same cycle.

        Used by blocksize-packed addition (Section III-E): the walks of
        independent blocks advance in lockstep, so the per-step TRs of
        different blocks share one cycle while each consumes TR energy.
        """
        levels = [self._sense(self.wires[t]) for t in tracks]
        self._record_tr(len(levels))
        return levels

    def transverse_write_row(self, bits: Sequence[int]) -> List[int]:
        """TW a full row: write under the left head, segment-shift right.

        Returns the row ejected under the right head (Fig. 9).
        """
        self._check_row_width(bits)
        ejected = [
            wire.transverse_write(bit, 0, 1, record=False)
            for wire, bit in zip(self.wires, bits)
        ]
        p = self.params.transverse_write
        self.stats.record("transverse_write", p.cycles, p.energy_pj * self.tracks)
        return ejected

    def write_bit(self, track: int, port_index: int, bit: int) -> None:
        """Write one track's domain under a port (carry-chain writes).

        Latency is accounted by the caller (the carry writes of one
        addition step land in the same cycle as the sum write), so this
        records energy only.
        """
        self.wires[track].write(port_index, bit, record=False)
        self.stats.record("write_bit", 0, self.params.write.energy_pj)

    def tick(self, cycles: int = 1, label: str = "tick") -> None:
        """Account cycles with no device activity (controller overhead)."""
        self.stats.record(label, cycles, 0.0)

    # ------------------------------------------------------------------
    # resilience primitives

    def position_error_check(self) -> List[int]:
        """Guard-row checksum check: which tracks are misaligned?

        Models the alignment-fault detection the paper delegates to the
        TAPestry/Hi-Fi/PIETT line of work: the overhead domains adjacent
        to the window hold a known guard pattern, and one extra TR over
        them reveals whether the track sits where the controller thinks
        it does. Costs one TR batch; returns the misaligned track
        indices (empty when the cluster is aligned).
        """
        p = self.params.transverse_read
        self.stats.record(
            "position_check", p.cycles, p.energy_pj * self.tracks
        )
        return self.misaligned_tracks

    def realign(self) -> int:
        """Repair every misaligned track with verified recovery shifts.

        Tracks are corrected independently (per-track shift enables are
        already required by the TW path), so the latency is the worst
        single-track correction while every corrected track pays shift
        energy. Returns that worst-case shift count (0 if aligned).
        """
        worst = 0
        moved = 0
        for wire in self.wires:
            correction = abs(wire.misalignment)
            if correction:
                worst = max(worst, correction)
                moved += correction
                wire.realign(record=False)
        if worst:
            p = self.params.shift
            self.stats.record(
                "realign", p.cycles * worst, p.energy_pj * moved
            )
        return worst

    def snapshot(self) -> DBCSnapshot:
        """Zero-cost checkpoint of all track state (transaction begin)."""
        return DBCSnapshot(
            wires=tuple(wire.checkpoint() for wire in self.wires),
            commanded_offset=self._commanded_offset,
        )

    def restore(self, state: DBCSnapshot) -> None:
        """Zero-cost rollback to a :meth:`snapshot` (transaction abort)."""
        if len(state.wires) != self.tracks:
            raise ValueError(
                f"snapshot holds {len(state.wires)} tracks, cluster has "
                f"{self.tracks}"
            )
        for wire, saved in zip(self.wires, state.wires):
            wire.restore(saved)
        self._commanded_offset = state.commanded_offset

    # ------------------------------------------------------------------

    def _check_row_width(self, bits: Sequence[int]) -> None:
        if len(bits) != self.tracks:
            raise ValueError(
                f"row must have {self.tracks} bits, got {len(bits)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DomainBlockCluster(tracks={self.tracks}, domains={self.domains}, "
            f"ports={self.port_positions}, pim={self.pim_enabled})"
        )
