"""Behavioral model of a single DWM (racetrack) nanowire.

A nanowire is a chain of magnetic domains, each storing one bit as a
magnetization direction (Fig. 1 of the paper). Domains are accessed through
one or more fixed access ports; a lateral current pulse shifts every domain
wall by one position, sliding the stored data under the ports.

Model conventions:

* Physical positions are indexed 0..length-1 left to right.
* Data rows 0..num_data-1 live, at shift offset 0, at physical positions
  ``overhead_left + r``. Shifting right (+1) moves data toward higher
  positions.
* Overhead (grey) domains on each side absorb data pushed past the ends;
  pushing a *data* domain off the wire raises :class:`DataLossError`.
* A transverse read (TR) between two taps returns the number of '1's in
  the inclusive physical window, i.e. the aggregate resistance level of a
  multi-level cell (Section II-D).
* A transverse write (TW) writes a bit under the left head while the
  domains between the heads advance one position, ejecting the bit under
  the right head (Fig. 9) — a *segmented shift* that leaves the rest of
  the nanowire untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.device.faults import FaultInjector
from repro.device.parameters import DeviceParameters
from repro.device.stats import DeviceStats


class DataLossError(RuntimeError):
    """A shift pushed a data domain off the end of the nanowire."""


@dataclass(frozen=True)
class AccessPort:
    """An access point on the nanowire.

    Attributes:
        data_position: data-relative position the port sits over at offset 0.
        read_only: True for the fixed-layer read-only port of Fig. 1.
    """

    data_position: int
    read_only: bool = False


def default_overhead(num_data: int, port_positions: Sequence[int]) -> Tuple[int, int]:
    """Overhead domains needed when each row aligns with its *nearest* port.

    This reproduces the paper's accounting (Section III-A): for Y = 32 and
    ports at data positions 14 and 20 the overhead is 11 + 14 = 25.
    Memoised: every cluster of a memory asks the same question.
    """
    return _overhead(num_data, tuple(sorted(port_positions)))


@lru_cache(maxsize=256)
def _overhead(num_data: int, ports: Tuple[int, ...]) -> Tuple[int, int]:
    left_need = 0
    right_need = 0
    for row in range(num_data):
        nearest = min(ports, key=lambda p: abs(p - row))
        delta = nearest - row  # +: shift right to align; -: shift left
        if delta > 0:
            right_need = max(right_need, delta)
        else:
            left_need = max(left_need, -delta)
    return left_need, right_need


class Nanowire:
    """One racetrack: data domains + overhead domains + access ports."""

    def __init__(
        self,
        num_data: int,
        ports: Sequence[AccessPort],
        params: Optional[DeviceParameters] = None,
        overhead: Optional[Tuple[int, int]] = None,
        injector: Optional[FaultInjector] = None,
        stats: Optional[DeviceStats] = None,
    ) -> None:
        if num_data < 1:
            raise ValueError(f"num_data must be >= 1, got {num_data}")
        if not ports:
            raise ValueError("a nanowire needs at least one access port")
        self.params = params or DeviceParameters()
        self.ports: List[AccessPort] = sorted(ports, key=lambda p: p.data_position)
        for port in self.ports:
            if not 0 <= port.data_position < num_data:
                raise ValueError(
                    f"port at data position {port.data_position} outside "
                    f"data region [0, {num_data})"
                )
        self.num_data = num_data
        if overhead is None:
            overhead = default_overhead(
                num_data, [p.data_position for p in self.ports]
            )
        self.overhead_left, self.overhead_right = overhead
        if self.overhead_left < 0 or self.overhead_right < 0:
            raise ValueError("overhead domain counts must be >= 0")
        self.length = self.overhead_left + num_data + self.overhead_right
        self._domains: List[int] = [0] * self.length
        self._offset = 0
        self._commanded_offset = 0
        self.injector = injector or FaultInjector()
        self.stats = stats or DeviceStats()

    # ------------------------------------------------------------------
    # geometry helpers

    @property
    def offset(self) -> int:
        """Current shift offset of the data block from its home position."""
        return self._offset

    @property
    def commanded_offset(self) -> int:
        """Offset the controller *believes* the wire is at.

        Tracks the shifts that were requested; shift faults move the
        physical :attr:`offset` without the controller knowing, so the
        two diverge until a position-error check repairs the wire.
        """
        return self._commanded_offset

    @commanded_offset.setter
    def commanded_offset(self, offset: int) -> None:
        """Reset the controller's belief without moving any domain.

        A lockstep cluster uses this when one of its tracks aborts a
        shift: the shifts the other tracks already made then read as
        misalignment, which :meth:`realign` undoes.
        """
        self._commanded_offset = offset

    @property
    def misalignment(self) -> int:
        """Physical minus commanded offset; nonzero after a shift fault."""
        return self._offset - self._commanded_offset

    def port_physical_position(self, port_index: int) -> int:
        """Physical position of port ``port_index`` (ports never move)."""
        return self.overhead_left + self.ports[port_index].data_position

    def row_physical_position(self, row: int) -> int:
        """Current physical position of data row ``row``."""
        if not 0 <= row < self.num_data:
            raise ValueError(f"row {row} outside [0, {self.num_data})")
        return self.overhead_left + row + self._offset

    def row_under_port(self, port_index: int) -> Optional[int]:
        """Data row currently aligned with the port, or None if overhead."""
        row = self.ports[port_index].data_position - self._offset
        return row if 0 <= row < self.num_data else None

    # ------------------------------------------------------------------
    # zero-cost state accessors (test setup / verification, not simulation)

    def peek_row(self, row: int) -> int:
        """Read data row ``row`` directly (no cost is recorded)."""
        return self._domains[self.row_physical_position(row)]

    def poke_row(self, row: int, bit: int) -> None:
        """Write data row ``row`` directly (no cost is recorded)."""
        self._domains[self.row_physical_position(row)] = self._check_bit(bit)

    def peek_physical(self, position: int) -> int:
        """Read any physical domain directly (no cost is recorded)."""
        return self._domains[position]

    def poke_physical(self, position: int, bit: int) -> None:
        """Write any physical domain directly (no cost is recorded)."""
        self._domains[position] = self._check_bit(bit)

    def load(self, bits: Sequence[int]) -> None:
        """Initialize all data rows at once (no cost is recorded)."""
        if len(bits) != self.num_data:
            raise ValueError(
                f"expected {self.num_data} bits, got {len(bits)}"
            )
        for row, bit in enumerate(bits):
            self.poke_row(row, bit)

    def dump(self) -> List[int]:
        """Snapshot of all data rows (no cost is recorded)."""
        return [self.peek_row(r) for r in range(self.num_data)]

    # ------------------------------------------------------------------
    # device operations (cost-recorded)

    def shift(self, direction: int, count: int = 1, record: bool = True) -> None:
        """Shift every domain wall ``count`` positions.

        ``direction`` is +1 (toward higher positions) or -1. Raises
        :class:`DataLossError` if a data domain would be pushed off the
        wire — the condition the overhead domains exist to prevent.
        """
        if direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        for _ in range(count):
            amount = self.injector.perturb_shift(direction)
            steps = abs(amount)
            sign = 1 if amount > 0 else -1
            for _ in range(steps):
                self._shift_once(sign)
            self._commanded_offset += direction
            if record:
                self.stats.record(
                    "shift", self.params.shift.cycles, self.params.shift.energy_pj
                )

    def _shift_once(self, direction: int) -> None:
        span_lo = self.overhead_left + self._offset
        span_hi = span_lo + self.num_data - 1
        if direction == 1:
            if span_hi >= self.length - 1:
                raise DataLossError("shift right would eject a data domain")
            self._domains = [0] + self._domains[:-1]
            self._offset += 1
        else:
            if span_lo <= 0:
                raise DataLossError("shift left would eject a data domain")
            self._domains = self._domains[1:] + [0]
            self._offset -= 1

    def realign(self, record: bool = True) -> int:
        """Undo any accumulated misalignment with verified recovery shifts.

        The recovery shifts bypass fault injection: a real controller
        performs them slowly, one position at a time, re-checking the
        guard rows after each step until the checksum matches. Returns
        the number of correction shifts performed. Only sound while the
        mis-shifted data never left the wire (no :class:`DataLossError`
        fired); overhead domains absorb the transient excursion.
        """
        correction = -self.misalignment
        sign = 1 if correction > 0 else -1
        for _ in range(abs(correction)):
            self._shift_once(sign)
        # _shift_once moved the physical offset only; the commanded
        # offset was right all along, so the two now agree again.
        if record and correction:
            self.stats.record(
                "realign",
                self.params.shift.cycles * abs(correction),
                self.params.shift.energy_pj * abs(correction),
            )
        return abs(correction)

    def checkpoint(self) -> Tuple[List[int], int, int]:
        """Zero-cost snapshot of the wire state (transaction logging)."""
        return (list(self._domains), self._offset, self._commanded_offset)

    def restore(self, state: Tuple[List[int], int, int]) -> None:
        """Zero-cost rollback to a :meth:`checkpoint` snapshot."""
        domains, offset, commanded = state
        if len(domains) != self.length:
            raise ValueError(
                f"checkpoint holds {len(domains)} domains, wire has "
                f"{self.length}"
            )
        self._domains = list(domains)
        self._offset = offset
        self._commanded_offset = commanded

    def align(self, row: int, port_index: int, record: bool = True) -> int:
        """Shift until data row ``row`` sits under port ``port_index``.

        Returns the number of single-position shifts performed.
        """
        target = self.port_physical_position(port_index)
        current = self.row_physical_position(row)
        delta = target - current
        if delta:
            self.shift(1 if delta > 0 else -1, abs(delta), record=record)
        return abs(delta)

    def read(self, port_index: int, record: bool = True) -> int:
        """Orthogonal read of the domain under a port."""
        position = self.port_physical_position(port_index)
        if record:
            self.stats.record(
                "read", self.params.read.cycles, self.params.read.energy_pj
            )
        return self._domains[position]

    def write(self, port_index: int, bit: int, record: bool = True) -> None:
        """Shift-based write of the domain under a port."""
        if self.ports[port_index].read_only:
            raise ValueError(f"port {port_index} is read-only")
        bit = self._check_bit(bit)
        position = self.port_physical_position(port_index)
        self._domains[position] = bit
        if record:
            self.stats.record(
                "write", self.params.write.cycles, self.params.write.energy_pj
            )

    def transverse_read(
        self,
        left_port_index: int = 0,
        right_port_index: int = 1,
        record: bool = True,
    ) -> int:
        """TR between two ports: count of '1's in the inclusive window.

        The window spans the domains under both heads and everything in
        between; its size must not exceed the maximum TR distance (TRD).
        A fault, if injected, moves the result one level up or down.
        """
        lo = self.port_physical_position(left_port_index)
        hi = self.port_physical_position(right_port_index)
        return self.transverse_read_span(lo, hi, record=record)

    def transverse_read_span(self, lo: int, hi: int, record: bool = True) -> int:
        """Segmented TR over an arbitrary inclusive physical window (Fig. 3)."""
        if lo > hi:
            lo, hi = hi, lo
        size = hi - lo + 1
        if size > self.params.trd:
            raise ValueError(
                f"TR window of {size} domains exceeds TRD={self.params.trd}"
            )
        level = sum(self._domains[lo : hi + 1])
        level = self.injector.perturb_tr_level(level, size)
        if record:
            te = self.params.transverse_read
            self.stats.record("transverse_read", te.cycles, te.energy_pj)
        return level

    def transverse_read_segments(
        self, spans: Sequence[Tuple[int, int]], record: bool = True
    ) -> List[int]:
        """Parallel segmented TRs over disjoint windows (Fig. 3).

        The paper's red/blue arrows: segments separated by at least one
        domain can be sensed simultaneously because the nanowire
        resistance between them keeps leakage currents negligible.
        Costs one TR operation for the whole batch.
        """
        ordered = sorted((min(a, b), max(a, b)) for a, b in spans)
        for (lo1, hi1), (lo2, _) in zip(ordered, ordered[1:]):
            if lo2 <= hi1 + 1:
                raise ValueError(
                    f"segments [{lo1},{hi1}] and starting at {lo2} are "
                    "not separated; parallel TR needs a gap"
                )
        levels = [
            self.transverse_read_span(lo, hi, record=False)
            for lo, hi in spans
        ]
        if record and spans:
            te = self.params.transverse_read
            self.stats.record("transverse_read", te.cycles, te.energy_pj)
        return levels

    def transverse_write(
        self,
        bit: int,
        left_port_index: int = 0,
        right_port_index: int = 1,
        record: bool = True,
    ) -> int:
        """TW: write ``bit`` under the left head, segment-shifting to the right.

        Domains strictly between the heads advance one position toward the
        right head; the domain previously under the right head is ejected
        (returned, since the read current that carries it out can be
        sensed). Domains outside the window are untouched (Fig. 9).
        """
        bit = self._check_bit(bit)
        lo = self.port_physical_position(left_port_index)
        hi = self.port_physical_position(right_port_index)
        if lo >= hi:
            raise ValueError("transverse write requires left port left of right")
        ejected = self._domains[hi]
        self._domains[lo + 1 : hi + 1] = self._domains[lo:hi]
        self._domains[lo] = bit
        if record:
            te = self.params.transverse_write
            self.stats.record("transverse_write", te.cycles, te.energy_pj)
        return ejected

    # ------------------------------------------------------------------

    @staticmethod
    def _check_bit(bit: int) -> int:
        """``bit`` as a Python int, so that TR levels sum as ints
        whatever integer type the bit came in."""
        if bit not in (0, 1):
            raise ValueError(f"expected bit 0 or 1, got {bit!r}")
        return int(bit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Nanowire(num_data={self.num_data}, length={self.length}, "
            f"offset={self._offset}, ports="
            f"{[p.data_position for p in self.ports]})"
        )
