"""Domain-block cluster (DBC): the unit CORUSCANT computes in.

A DBC is X parallel racetracks of Y data domains each (Fig. 2d). The X
nanowires shift in lockstep, so a memory *row* is one domain position read
across all X tracks. PIM-enabled DBCs have two access ports per track
spaced TRD-1 domains apart so a transverse read spans exactly TRD domains
(Section III-A).

The cluster holds every track in one ``uint8`` array of shape
(tracks x length), stored column-major so that one physical domain
position across all tracks -- what a lockstep operation touches -- is
contiguous. Beside it sit a per-track physical shift offset and the one
offset the controller commanded. Track ``t`` behaves exactly like a
:class:`~repro.device.nanowire.Nanowire` with the same ports and
overhead, the single-wire reference model: a lockstep shift moves, in
one slice, every track that moved the same distance; a TR of every track
is a windowed sum along the domain axis; a TW is a slice assignment; a
read or write touches one column; a snapshot copies bytes.

Faults are drawn from the shared :class:`FaultInjector` in the reference
model's order, one injector call per command: a lockstep shift takes
every track's steps, track by track, from one
:meth:`~FaultInjector.shift_command`, and a sensed batch every track's
reads from one :meth:`~FaultInjector.sense_batch`. While the injector
cannot perturb (zero rate, ``perturb_*`` not overridden) no draw is made
and every operation works on whole rows.

Cost accounting happens at the cluster level: a lockstep operation across
all X tracks costs one operation's latency but X tracks' energy, recorded
in the cluster's own :class:`DeviceStats`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.faults import FaultInjector
from repro.device.nanowire import DataLossError, default_overhead
from repro.device.parameters import DeviceParameters
from repro.device.stats import DeviceStats, StatsPlan
from repro.telemetry.spans import NULL_TRACER
from repro.utils.bitops import as_bit_row


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
    """Zero-cost checkpoint of a whole cluster (transaction logging).

    ``domains`` holds every track's physical domains position by
    position: domain ``p`` of track ``t`` is byte ``p * tracks + t``.
    ``offsets`` holds each track's physical shift offset.
    """

    domains: bytes
    offsets: Tuple[int, ...]
    commanded_offset: int

    @classmethod
    def from_tracks(
        cls, tracks: Sequence[Sequence], commanded_offset: int
    ) -> "DBCSnapshot":
        """A snapshot from per-track ``(domains, offset, commanded)`` states.

        The inverse of :meth:`track_states`. Every track must hold the
        same number of 0/1 domains and believe the cluster's commanded
        offset; anything else raises ValueError.
        """
        if not tracks:
            raise ValueError("a snapshot needs at least one track")
        length = len(tracks[0][0])
        for index, (domains, _offset, commanded) in enumerate(tracks):
            if len(domains) != length:
                raise ValueError(
                    f"track {index} holds {len(domains)} domains, track 0 "
                    f"holds {length}"
                )
            if commanded != commanded_offset:
                raise ValueError(
                    f"track {index} believes offset {commanded}, the "
                    f"cluster {commanded_offset}"
                )
        columns = np.array([as_bit_row(list(t[0])) for t in tracks]).T
        return cls(
            domains=columns.tobytes(),
            offsets=tuple(int(t[1]) for t in tracks),
            commanded_offset=int(commanded_offset),
        )

    def track_states(self) -> List[List]:
        """Per-track ``[domains, offset, commanded_offset]`` lists.

        The layout of :meth:`Nanowire.checkpoint`, which the campaign
        journal stores per track.
        """
        tracks = len(self.offsets)
        rows = np.frombuffer(self.domains, dtype=np.uint8).reshape(-1, tracks)
        return [
            [domains, offset, self.commanded_offset]
            for domains, offset in zip(rows.T.tolist(), self.offsets)
        ]


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


def carry_digits(steps: int, super_carry: bool) -> Tuple[int, ...]:
    """How many digits each step of a ``steps``-track carry walk writes.

    Step ``k`` writes S; then C on the next track while ``k + 1 <
    steps``; then, with a super carry, C' two tracks up while ``k + 2 <
    steps`` (Fig. 6). Writes at or past the block end are dropped.
    """
    top = 3 if super_carry else 2
    return (top,) * (steps - top) + tuple(range(min(top, steps), 0, -1))


def carry_outputs(
    track: int, end: int, level: int, super_carry: bool
) -> List[Tuple[int, int, int]]:
    """The writes of one carry-walk step (Fig. 6), as (track, port, bit).

    The PIM block writes the binary digits of the step's TR level: S
    under the left head (port 0) of ``track``, C under the right head
    (port 1) of the next track and C' under the left head two tracks
    up, as many as :func:`carry_digits` gives for a block ending at
    ``end``. :meth:`WindowCopy.walk` writes the same digits inline.
    """
    if not 0 <= level <= 7:
        raise ValueError(f"level {level} outside [0, 7]")
    writes = [
        (track, 0, level & 1),
        (track + 1, 1, level >> 1 & 1),
        (track + 2, 0, level >> 2 & 1),
    ]
    return writes[: carry_digits(end - track, super_carry)[0]]


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
        if domains < 1:
            raise ValueError(f"domains must be >= 1, got {domains}")
        if not port_positions:
            raise ValueError("a track needs at least one access port")
        for position in port_positions:
            if not 0 <= position < domains:
                raise ValueError(
                    f"port at data position {position} outside data "
                    f"region [0, {domains})"
                )
        self.port_positions: Tuple[int, ...] = tuple(port_positions)
        ports = sorted(self.port_positions)
        if overhead is None:
            overhead = default_overhead(domains, ports)
        left, right = overhead
        if left < 0 or right < 0:
            raise ValueError("overhead domain counts must be >= 0")
        self.overhead: Tuple[int, int] = (left, right)
        self.length = left + domains + right
        # Physical domain under port ``i``, the i-th from the left as on a
        # Nanowire (ports never move).
        self._columns = tuple(left + p for p in ports)
        self._window: Optional[Tuple[int, int]] = None
        if len(ports) >= 2:
            self._window = self._columns[:2]
        self._domains = np.zeros((tracks, self.length), dtype=np.uint8, order="F")
        self._offsets: List[int] = [0] * tracks
        # The offset every track shares, or None once a fault split them.
        self._common: Optional[int] = 0
        self._commanded_offset = 0
        self.stats = DeviceStats()
        # Telemetry attachment point: core units open phase spans on the
        # cluster they compute in. NULL_TRACER makes every span a no-op.
        self.tracer = NULL_TRACER
        # Re-read voting in the sense path: 1 disables, an odd n > 1
        # repeats every TR n times and majority-votes per track.
        self.tr_vote_reads = 1
        self.vote_stats = SenseVoteStats()

    # ------------------------------------------------------------------
    # geometry

    @property
    def window(self) -> Tuple[int, int]:
        """Inclusive physical window [left, right] a TR spans (PIM DBCs)."""
        if self._window is None:
            raise ValueError("window is only defined for two-port (PIM) DBCs")
        return self._window

    @property
    def window_size(self) -> int:
        lo, hi = self.window
        return hi - lo + 1

    @property
    def super_carry(self) -> bool:
        """Whether a carry-walk step writes a super carry C' (Fig. 6).

        A TR level never exceeds the window, so only a window of four or
        more domains can count to 4.
        """
        return self.window_size > 3

    def window_row_at(self, slot: int) -> Optional[int]:
        """Data row believed to occupy window slot ``slot`` (0 = left head).

        Computed from the *commanded* offset — what the controller thinks
        the cluster is at. After an undetected shift fault the physical
        row may differ; :meth:`position_error_check` exposes the gap.
        """
        lo, _ = self.window
        row = lo + slot - self.overhead[0] - self._commanded_offset
        return row if 0 <= row < self.domains else None

    @property
    def commanded_offset(self) -> int:
        """Offset the controller believes all tracks are at."""
        return self._commanded_offset

    @property
    def offsets(self) -> List[int]:
        """Each track's physical shift offset."""
        return list(self._offsets)

    @property
    def misaligned_tracks(self) -> List[int]:
        """Tracks whose physical offset disagrees with the commanded one."""
        commanded = self._commanded_offset
        if self._common == commanded:
            return []
        return [t for t, offset in enumerate(self._offsets) if offset != commanded]

    # ------------------------------------------------------------------
    # zero-cost state accessors

    def poke_row(self, row: int, bits: Sequence[int]) -> None:
        """Set data row ``row`` across all tracks (no cost recorded)."""
        values = self._bits(bits)
        self._domains[self._row_index(row)] = values

    def peek_row(self, row: int) -> List[int]:
        """Read data row ``row`` across all tracks (no cost recorded)."""
        return self._domains[self._row_index(row)].tolist()

    def poke_window_slot(self, slot: int, bits: Sequence[int]) -> None:
        """Set the domains at window slot ``slot`` (no cost recorded)."""
        values = self._bits(bits)
        self._domains[:, self._slot_column(slot)] = values

    def peek_window_slot(self, slot: int) -> List[int]:
        """Read the domains at window slot ``slot`` (no cost recorded)."""
        return self._domains[:, self._slot_column(slot)].tolist()

    def poke_window_block(self, start_track: int, block) -> None:
        """Set the window of a run of tracks in one go (no cost recorded).

        ``block[i][s]`` goes to window slot ``s`` of track
        ``start_track + i``; the block is one row per track, each as
        wide as the window. Checked whole before any track changes.
        """
        values = np.asarray(block)
        lo, hi = self.window
        if values.ndim != 2 or values.shape[1] != hi - lo + 1:
            raise ValueError(
                f"block must be (tracks, {hi - lo + 1}), got {values.shape}"
            )
        stop = start_track + len(values)
        if start_track < 0 or stop > self.tracks:
            raise ValueError(
                f"tracks [{start_track}, {stop}) outside [0, {self.tracks})"
            )
        values = as_bit_row(values.reshape(-1)).reshape(values.shape)
        self._domains[start_track:stop, lo : hi + 1] = values

    def poke_window_slots(self, start_track: int, width: int, slots) -> None:
        """Set the window of tracks ``[start_track, start_track + width)``
        from one integer per window slot (no cost recorded).

        Bit ``i`` of ``slots[s]`` goes to window slot ``s`` of track
        ``start_track + i``: a transposed word, LSB on the first track.
        Checked whole before any track changes.
        """
        lo, hi = self.window
        _check_slots(slots, hi - lo + 1, width)
        if start_track < 0 or start_track + width > self.tracks:
            raise ValueError(
                f"tracks [{start_track}, {start_track + width}) outside "
                f"[0, {self.tracks})"
            )
        self._domains[start_track : start_track + width, lo : hi + 1] = (
            _slot_columns(width, slots)
        )

    # ------------------------------------------------------------------
    # lockstep device operations (cost-recorded at cluster level)

    def shift(self, direction: int, count: int = 1) -> None:
        """Shift all tracks in lockstep.

        If a track ejects data the whole command aborts and the cluster
        keeps its commanded offset: the tracks that already moved read
        as misaligned, and :meth:`realign` returns them.
        """
        if direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        left, right = self.overhead
        common = self._common
        distance = direction * count
        if (
            common is not None
            and self._shifts_exact()
            and -left <= common + distance <= right
        ):
            self._slide(slice(None), distance)
            self._common = common + distance
            self._offsets = [self._common] * self.tracks
        else:
            self._shift_tracks(direction, count)
        self._commanded_offset += distance
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
        target = self._columns[port_index]
        believed = self.overhead[0] + row + self._commanded_offset
        delta = target - believed
        if delta:
            self.shift(1 if delta > 0 else -1, abs(delta))
        return abs(delta)

    def read_row(self, port_index: int = 0) -> np.ndarray:
        """Orthogonal read of the aligned row on every track (one cycle).

        Returns a ``uint8`` array, one bit per track.
        """
        bits = self._domains[:, self._columns[port_index]].copy()
        p = self.params.read
        self.stats.record("read", p.cycles, p.energy_pj * self.tracks)
        return bits

    def write_row(self, bits: Sequence[int], port_index: int = 0) -> None:
        """Write a full row through the given port on every track."""
        values = self._bits(bits)
        self._domains[:, self._columns[port_index]] = values
        p = self.params.write
        self.stats.record("write", p.cycles, p.energy_pj * self.tracks)

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
        levels = self._sense(self._window_levels(slice(None)))
        self._record_tr(self.tracks)
        return levels

    def transverse_read_track(self, track: int) -> int:
        """TR a single track (the sequential addition walk of Fig. 6)."""
        (level,) = self._sense(self._window_levels([track]))
        self._record_tr(1)
        return level

    def transverse_read_tracks(self, tracks: Sequence[int]) -> List[int]:
        """TR several tracks in the same cycle, each at TR energy.

        This is one step's sense of a blocksize-packed addition (Section
        III-E). Addition walks go through :meth:`carry_walk` instead; the
        op stays public for perfbench's wrapped layer names and for the
        reference-model tests.
        """
        levels = self._sense(self._window_levels(list(tracks)))
        self._record_tr(len(levels))
        return levels

    def carry_walk(self, starts: Sequence[int], steps: int) -> List[List[int]]:
        """Walk the carry chain of Fig. 6 over blocks of tracks.

        Block ``b`` spans tracks ``[starts[b], starts[b] + steps)``. Step
        ``k`` is one cycle: a TR of track ``starts[b] + k`` of every
        block, then the PIM block writes the level's binary digits: S
        under the left head of that track, C under the right head of the
        next and, when the window has a super carry (:attr:`super_carry`),
        C' under the left head two tracks up. Writes at or past a block's
        end are dropped.

        Each step records what its separate ops would, in their order:
        one TR of the blocks' tracks, one ``write_bit`` per digit
        written and a one-cycle ``carry_write`` tick. Its TRs draw
        faults and vote as :meth:`transverse_read_tracks` does. The walk
        runs on a :class:`WindowCopy` of the walked tracks. Returns each
        block's bits under the left head -- its sum, LSB first.
        """
        first, last = _walk_span(starts, steps)
        with WindowCopy(self, first, last) as window:
            return window.walk(starts, steps)

    def window_copy(self, first: int, last: int) -> "WindowCopy":
        """An integer copy of the TR window of tracks ``[first, last)``.

        Stage and walk on it several times (a chain of additions), then
        leave it (``with``) to write it back and record every walk's cost
        in one go.
        """
        return WindowCopy(self, first, last)

    def transverse_write_row(self, bits: Sequence[int]) -> np.ndarray:
        """TW a full row: write under the left head, segment-shift right.

        Domains strictly between the heads advance one position toward
        the right head on every track. Returns the ``uint8`` row ejected
        under the right head (Fig. 9).
        """
        values = self._bits(bits)
        lo, hi = self.window
        if lo >= hi:
            raise ValueError("transverse write requires left port left of right")
        domains = self._domains
        ejected = domains[:, hi].copy()
        domains[:, lo + 1 : hi + 1] = domains[:, lo:hi]
        domains[:, lo] = values
        p = self.params.transverse_write
        self.stats.record("transverse_write", p.cycles, p.energy_pj * self.tracks)
        return ejected

    def write_bit(self, track: int, port_index: int, bit: int) -> None:
        """Write one track's domain under a port (carry-chain writes).

        Latency is accounted by the caller (the carry writes of one
        addition step land in the same cycle as the sum write), so this
        records energy only.
        """
        if bit not in (0, 1):
            raise ValueError(f"expected bit 0 or 1, got {bit!r}")
        self._domains[track, self._columns[port_index]] = bit
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
        energy. The recovery shifts draw no faults. Returns that
        worst-case shift count (0 if aligned).
        """
        commanded = self._commanded_offset
        if self._common == commanded:
            return 0
        left, right = self.overhead
        reachable = max(-left, min(right, commanded))
        if reachable != commanded:
            # No track can reach an offset past a guard edge; track 0 is
            # the first to push a data domain off on the way.
            self._move_tracks([reachable])
            raise DataLossError(_loss_message(commanded - reachable))
        moved = [reachable - offset for offset in self._offsets]
        self._move_tracks([reachable] * self.tracks)
        worst = max(abs(distance) for distance in moved)
        p = self.params.shift
        self.stats.record(
            "realign",
            p.cycles * worst,
            p.energy_pj * sum(abs(distance) for distance in moved),
        )
        return worst

    def snapshot(self) -> DBCSnapshot:
        """Zero-cost checkpoint of all track state (transaction begin)."""
        return DBCSnapshot(
            domains=self._domains.tobytes(order="F"),
            offsets=tuple(self._offsets),
            commanded_offset=self._commanded_offset,
        )

    def restore(self, state: DBCSnapshot) -> None:
        """Zero-cost rollback to a :meth:`snapshot` (transaction abort)."""
        if len(state.offsets) != self.tracks:
            raise ValueError(
                f"snapshot holds {len(state.offsets)} tracks, cluster has "
                f"{self.tracks}"
            )
        if len(state.domains) != self.tracks * self.length:
            raise ValueError(
                f"snapshot holds {len(state.domains) // self.tracks} domains "
                f"per track, cluster tracks have {self.length}"
            )
        left, right = self.overhead
        if not -left <= min(state.offsets) <= max(state.offsets) <= right:
            raise ValueError(
                f"snapshot offsets leave [{-left}, {right}], where every "
                "data domain stays on its track"
            )
        columns = np.frombuffer(state.domains, dtype=np.uint8)
        self._domains[...] = columns.reshape(self.length, self.tracks).T
        self._offsets = list(state.offsets)
        self._regroup()
        self._commanded_offset = state.commanded_offset

    # ------------------------------------------------------------------
    # internals

    def _slot_column(self, slot: int) -> int:
        lo, hi = self.window
        if not lo <= lo + slot <= hi:
            raise ValueError(f"slot {slot} outside window of {self.window_size}")
        return lo + slot

    def _row_index(self, row: int):
        """Index of data row ``row`` on every track.

        One column while the tracks share an offset; one (track, column)
        pair per track after a shift fault split them.
        """
        if not 0 <= row < self.domains:
            raise ValueError(f"row {row} outside [0, {self.domains})")
        base = self.overhead[0] + row
        if self._common is not None:
            return slice(None), base + self._common
        return np.arange(self.tracks), base + np.array(self._offsets)

    def _bits(self, bits: Sequence[int]) -> np.ndarray:
        """``bits`` as one uint8 row, checked whole before any track changes."""
        if len(bits) != self.tracks:
            raise ValueError(
                f"row must have {self.tracks} bits, got {len(bits)}"
            )
        return as_bit_row(bits)

    def _tr_window(self) -> Tuple[int, int]:
        """The window a TR spans, checked to fit the TRD."""
        lo, hi = self.window
        if hi - lo + 1 > self.params.trd:
            raise ValueError(
                f"TR window of {hi - lo + 1} domains exceeds "
                f"TRD={self.params.trd}"
            )
        return lo, hi

    def _window_levels(self, tracks: Union[slice, List[int]]) -> List[int]:
        """Count of '1's in the TR window of each given track (no faults)."""
        lo, hi = self._tr_window()
        domains = self._domains
        if isinstance(tracks, list) and len(tracks) <= _FEW_TRACKS:
            # A handful of requested tracks (the single-track TRs of max
            # and NMR): numpy's fixed cost per call outweighs short sums.
            return [sum(domains[t, lo : hi + 1].tolist()) for t in tracks]
        window = domains[tracks, lo : hi + 1]
        return window.sum(axis=-1).tolist()

    def _sense(self, levels: List[int]) -> List[int]:
        """Sense-path reads of the tracks' TR levels, voting if enabled.

        With ``tr_vote_reads`` = n > 1 each track's TR is repeated n times
        and its majority wins — the 2-of-3 (or k-of-n) re-read scheme
        that detects single TR level faults in the sense path. The batch
        draws its faults in one :meth:`FaultInjector.sense_batch` call,
        all n reads of a track before the next, and only the tracks that
        misread are tallied. Vote outcomes land in :attr:`vote_stats`;
        callers account the n-times cycle/energy cost at the batch level.
        """
        n = self.tr_vote_reads
        if n > 1:
            self.vote_stats.votes += len(levels)
        injector = self.injector
        if (
            injector.config.tr_fault_rate == 0.0
            and type(injector).perturb_tr_level is FaultInjector.perturb_tr_level
        ):
            # The injector cannot perturb: no draw is made.
            return levels
        misread = injector.sense_batch(levels, self.window_size, max(1, n))
        if not misread:
            return levels
        sensed = list(levels)
        stats = self.vote_stats
        for track, reads in misread.items():
            winner = max(set(reads), key=reads.count)
            if len(set(reads)) > 1:
                stats.disagreements += 1
                if reads.count(winner) > n // 2:
                    stats.corrected += 1
                else:
                    stats.unresolved += 1
            sensed[track] = winner
        return sensed

    def _shifts_exact(self) -> bool:
        """Whether no shift can be perturbed: zero rate, ``perturb_shift``
        not overridden. Shifts then draw nothing."""
        injector = self.injector
        return (
            injector.config.shift_fault_rate == 0.0
            and type(injector).perturb_shift is FaultInjector.perturb_shift
        )

    def _shift_tracks(self, direction: int, count: int) -> None:
        """Shift track by track, as independent wires driven in turn would.

        One :meth:`FaultInjector.shift_command` call draws every track's
        steps. The first track that would push a data domain off its wire
        stops at the guard edge and aborts the command: the tracks before
        it have moved, the tracks after it have not (and drew nothing).
        """
        left, right = self.overhead
        reached = self.injector.shift_command(
            self._offsets, direction, count, -left, right
        )
        position = reached[-1]
        reached[-1] = max(-left, min(right, position))
        self._move_tracks(reached)
        if reached[-1] != position:
            raise DataLossError(_loss_message(position - reached[-1]))

    def _move_tracks(self, reached: List[int]) -> None:
        """Move track ``t`` to offset ``reached[t]``; later tracks stay.

        Tracks that move the same distance move in one slide.
        """
        offsets = self._offsets
        moved = list(map(operator.sub, reached, offsets))
        if moved.count(moved[0]) == len(moved):
            rows = slice(None) if len(moved) == self.tracks else slice(len(moved))
            self._slide(rows, moved[0])
        else:
            distances = np.array(moved)
            for distance in set(moved):
                self._slide(np.flatnonzero(distances == distance), distance)
        offsets[: len(reached)] = reached
        self._regroup()

    def _slide(self, rows: Union[slice, np.ndarray], distance: int) -> None:
        """Move the domains of tracks ``rows`` ``distance`` positions.

        Domains pushed past an end are dropped and zeros fill in, as on a
        wire shifted one position at a time.
        """
        domains = self._domains
        if distance > 0:
            domains[rows, distance:] = domains[rows, :-distance]
            domains[rows, :distance] = 0
        elif distance < 0:
            domains[rows, :distance] = domains[rows, -distance:]
            domains[rows, distance:] = 0

    def _regroup(self) -> None:
        """Recompute the offset all tracks share (None if they differ)."""
        first = self._offsets[0]
        self._common = first if self._offsets.count(first) == self.tracks else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DomainBlockCluster(tracks={self.tracks}, domains={self.domains}, "
            f"ports={self.port_positions}, pim={self.pim_enabled})"
        )


class WindowCopy:
    """An integer copy of the TR window of tracks ``[first, last)``.

    Three lists, read once from the cluster: the bit under each track's
    left head, the bit under its right head, and its count of ones in the
    slots between the heads; a track's TR level is their sum. Staging
    (:meth:`poke_window_slots`) sets all three at zero cost, and a carry
    walk (:meth:`walk`) writes only the heads. Leaving the copy (``with``
    or :meth:`close`) writes back the two head columns and the middle
    slots of what was staged, then records the walks' costs in walk
    order. Each run of walks of one shape (a chain of equal adds is one
    run) is one :meth:`DeviceStats.apply
    <repro.device.stats.DeviceStats.apply>` of the shape's cached plan
    (:func:`_walk_plan`), ``times`` the run's length: the records one
    ``record`` per step op would make, in their order.
    """

    def __init__(self, dbc: DomainBlockCluster, first: int, last: int) -> None:
        lo, hi = dbc._tr_window()
        if lo == hi:
            raise ValueError("a carry walk needs two distinct heads")
        if not 0 <= first <= last <= dbc.tracks:
            raise ValueError(
                f"tracks [{first}, {last}) outside [0, {dbc.tracks})"
            )
        self.dbc = dbc
        self.first = first
        self.last = last
        window = dbc._domains[first:last, lo : hi + 1]
        rows = np.empty((3, last - first), dtype=np.intp)
        rows[:2] = window[:, :: hi - lo].T
        window[:, 1:-1].sum(axis=1, dtype=np.intp, out=rows[2])
        self.left, self.right, self.middle = rows.tolist()
        #: Planned cycles of the walks so far (recorded on leaving).
        self.cycles = 0
        self._size = hi - lo + 1
        self._super_carry = dbc.super_carry
        #: steps -> carry_digits(steps), for the walks of a chain.
        self._digits: Dict[int, Tuple[int, ...]] = {}
        tr = dbc.params.transverse_read
        self._costs = (tr.cycles, tr.energy_pj, dbc.params.write.energy_pj)
        self._staged: List[Tuple[int, int, Tuple[int, ...]]] = []
        #: Runs of walks of one shape: [(blocks, digits of each step
        #: done, vote reads), walks].
        self._walks: List[List] = []

    def __enter__(self) -> "WindowCopy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def poke_window_slots(self, start_track: int, width: int, slots) -> None:
        """Stage tracks ``[start_track, start_track + width)`` as
        :meth:`DomainBlockCluster.poke_window_slots` would."""
        _check_slots(slots, self._size, width)
        i = start_track - self.first
        if i < 0 or start_track + width > self.last:
            raise ValueError(
                f"tracks [{start_track}, {start_track + width}) outside the "
                f"copy's [{self.first}, {self.last})"
            )
        self.left[i : i + width] = _track_counts(slots[:1], width)
        self.right[i : i + width] = _track_counts(slots[-1:], width)
        self.middle[i : i + width] = _track_counts(slots[1:-1], width)
        stop = start_track + width
        self._staged = [
            staged for staged in self._staged
            if not start_track <= staged[0] <= staged[0] + staged[1] <= stop
        ]
        self._staged.append((start_track, width, tuple(slots)))

    def walk(self, starts: Sequence[int], steps: int) -> List[List[int]]:
        """One carry walk on the copy (:meth:`DomainBlockCluster.carry_walk`).

        Each step's TRs go through the cluster's sense path, so faults
        are drawn and reads voted as on the cluster.
        """
        first, last = _walk_span(starts, steps)
        if first < self.first or last > self.last:
            raise ValueError(
                f"walk over tracks [{first}, {last}) outside the copy's "
                f"[{self.first}, {self.last})"
            )
        dbc = self.dbc
        sense = dbc._sense
        left, middle, right = self.left, self.middle, self.right
        bases = [start - self.first for start in starts]
        blocks = range(len(bases))
        digits = self._digits.get(steps)
        if digits is None:
            digits = self._digits[steps] = carry_digits(steps, self._super_carry)
        tr_cycles = self._costs[0]
        wide = self._size > 7
        votes = max(1, dbc.tr_vote_reads)
        sums = [0] * len(bases)
        done = 0
        try:
            for step in range(steps):
                # Sense every block's track, then write: blocks may overlap.
                for i in blocks:
                    track = bases[i] + step
                    sums[i] = left[track] + middle[track] + right[track]
                levels = sense(sums)
                if wide and max(levels) > 7:
                    raise ValueError(f"level {max(levels)} outside [0, 7]")
                written = digits[step]
                for i in blocks:
                    track = bases[i] + step
                    level = levels[i]
                    left[track] = level & 1
                    if written > 1:
                        right[track + 1] = level >> 1 & 1
                        if written > 2:
                            left[track + 2] = level >> 2 & 1
                done += 1
        finally:
            shape = (len(bases), digits[:done], votes)
            if self._walks and self._walks[-1][0] == shape:
                self._walks[-1][1] += 1
            else:
                self._walks.append([shape, 1])
            # The plan's cycles: each step's voted TR and its tick.
            self.cycles += done * (tr_cycles * votes + 1)
            dbc.vote_stats.overhead_cycles += tr_cycles * (votes - 1) * done
        return [left[b : b + steps] for b in bases]

    def close(self) -> None:
        """Write the copy back and record its walks (idempotent)."""
        dbc = self.dbc
        lo, hi = dbc.window
        domains = dbc._domains
        for start, width, slots in self._staged:
            domains[start : start + width, lo + 1 : hi] = _slot_columns(
                width, slots[1:-1]
            )
        domains[self.first : self.last, lo] = self.left
        domains[self.first : self.last, hi] = self.right
        self._staged = []
        runs, self._walks = self._walks, []
        for shape, walks in runs:
            dbc.stats.apply(_walk_plan(*shape, *self._costs), walks)


# One entry per walk shape. Every add of a popcount's chain walks its
# accumulator width, so one plan serves the whole chain and every later
# popcount of that width. A plan holds one walk's records, at most
# 2 * steps + 3 * blocks * steps, 16 bytes each: for blocks that do not
# overlap, at most 80 bytes per track of the cluster, whatever the
# length of the chain or its row. The benchmark workloads and the full
# table and figure sweep each walk at most 4 shapes; 16 leaves room.
@lru_cache(maxsize=16)
def _walk_plan(
    blocks: int,
    digits: Tuple[int, ...],
    votes: int,
    tr_cycles: int,
    tr_energy_pj: float,
    write_energy_pj: float,
) -> StatsPlan:
    """The records of one carry walk of ``blocks`` blocks.

    Each step done (its count of digits written in ``digits``) records
    one TR of the blocks' tracks, voted ``votes`` times, one
    ``write_bit`` per digit of each block and a ``carry_write`` tick.
    """
    tr = ("transverse_read", tr_cycles * votes, tr_energy_pj * blocks * votes)
    write = ("write_bit", 0, write_energy_pj)
    tick = ("carry_write", 1, 0.0)
    records = []
    for written in digits:
        records.append(tr)
        records.extend([write] * (blocks * written))
        records.append(tick)
    return StatsPlan.of(records)


def _walk_span(starts: Sequence[int], steps: int) -> Tuple[int, int]:
    """The tracks ``[first, last)`` a walk of ``steps`` from ``starts`` covers."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not starts:
        raise ValueError("a walk needs at least one block")
    return min(starts), max(starts) + steps


def _check_slots(slots, size: int, width: int) -> None:
    """``slots``: one non-negative integer under ``2**width`` per slot."""
    if len(slots) != size:
        raise ValueError(f"need {size} slots, got {len(slots)}")
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    for slot in slots:
        if not isinstance(slot, int) or not 0 <= slot < 1 << width:
            raise ValueError(f"slot {slot!r} is not a {width}-track row")


def _track_counts(words: Sequence[int], width: int) -> List[int]:
    """Each track's count of ones over ``words`` (bit ``i`` on track ``i``)."""
    counts = [0] * width
    for word in words:
        while word:
            low = word & -word
            counts[low.bit_length() - 1] += 1
            word ^= low
    return counts


def _slot_columns(width: int, slots: Sequence[int]) -> np.ndarray:
    """``(width, len(slots))`` bits: column ``s`` is ``slots[s]``, LSB first."""
    size = width // 8 + 1
    raw = b"".join(slot.to_bytes(size, "little") for slot in slots)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(slots), 8 * size)[:, :width].T


# Up to this many requested tracks, TR windows are summed in Python.
_FEW_TRACKS = 8


def _loss_message(direction: int) -> str:
    side = "right" if direction > 0 else "left"
    return f"shift {side} would eject a data domain"
