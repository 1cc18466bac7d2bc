"""Per-device operation accounting (cycles + energy)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.telemetry import runtime as _telemetry


@dataclass
class DeviceStats:
    """Accumulates operation counts, cycles, and energy for one device.

    The simulator increments these on every shift / read / write / TR /
    TW, so any higher-level routine (addition, multiplication, max, ...)
    gets its cost roll-up for free. Alongside the totals, per-op cycle
    and energy breakdowns (``op_cycles`` / ``op_energy_pj``) survive
    merging, so a report can attribute *where* the cycles and picojoules
    went, not just how many there were.

    Recording is pure accounting. A telemetry hub that watches these
    stats reads them only when its metrics are read, folding in what
    they recorded since its last read (:meth:`TelemetryHub.watch
    <repro.telemetry.hub.TelemetryHub.watch>`). ``sink`` is the hub the
    stats are attached to — ``CoruscantSystem(telemetry=...)`` attaches
    every cluster it touches. Stats with no sink that record inside an
    :func:`repro.telemetry.activated` scope join that scope's hub
    (``scope``) on their first record and leave it when the scope
    ends. With no hub at all, a record costs two ``None`` checks beyond
    the sums. What :meth:`merge` adds to watched stats is folded in like
    records.
    """

    op_counts: Dict[str, int] = field(default_factory=dict)
    op_cycles: Dict[str, int] = field(default_factory=dict)
    op_energy_pj: Dict[str, float] = field(default_factory=dict)
    cycles: int = 0
    energy_pj: float = 0.0
    sink: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )
    scope: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )

    def record(self, op: str, cycles: int, energy_pj: float, count: int = 1) -> None:
        """Record ``count`` occurrences of ``op``."""
        if (
            self.sink is None
            and _telemetry._ACTIVE is not None
            and self.scope is None
        ):
            _telemetry.adopt(self)
        total_cycles = cycles * count
        total_energy = energy_pj * count
        self.op_counts[op] = self.op_counts.get(op, 0) + count
        self.op_cycles[op] = self.op_cycles.get(op, 0) + total_cycles
        self.op_energy_pj[op] = (
            self.op_energy_pj.get(op, 0.0) + total_energy
        )
        self.cycles += total_cycles
        self.energy_pj += total_energy

    def apply(self, plan: "StatsPlan", times: int = 1) -> None:
        """Record every entry of ``plan``, in its order, ``times`` over.

        The same sums as calling :meth:`record` once per entry, so every
        dict, count and float total is bit-identical to the unplanned
        calls: integers add in any order, and each float adds its
        entries one at a time in record order.
        """
        if times < 0:
            raise ValueError(f"times must be >= 0, got {times}")
        if not plan.ops or not times:
            return  # no records
        if (
            self.sink is None
            and _telemetry._ACTIVE is not None
            and self.scope is None
        ):
            _telemetry.adopt(self)
        counts = self.op_counts
        cycles = self.op_cycles
        energy = self.op_energy_pj
        for op, n, c, energies in plan.ops:
            counts[op] = counts.get(op, 0) + n * times
            cycles[op] = cycles.get(op, 0) + c * times
            energy[op] = _add_in_order(energy.get(op, 0.0), energies, times)
        self.cycles += plan.cycles * times
        self.energy_pj = _add_in_order(self.energy_pj, plan.energies, times)

    def merge(self, other: "DeviceStats") -> None:
        """Fold another stats object into this one (breakdowns included)."""
        for op, n in other.op_counts.items():
            self.op_counts[op] = self.op_counts.get(op, 0) + n
        for op, c in other.op_cycles.items():
            self.op_cycles[op] = self.op_cycles.get(op, 0) + c
        for op, e in other.op_energy_pj.items():
            self.op_energy_pj[op] = self.op_energy_pj.get(op, 0.0) + e
        self.cycles += other.cycles
        self.energy_pj += other.energy_pj

    def reset(self) -> None:
        """Zero all counters.

        A watching hub folds what was recorded since its last read
        first, so its counters lose no record and never run backward.
        """
        sink = self.sink
        hub = sink if sink is not None else self.scope
        if hub is not None:
            hub.release(self)
        self.op_counts.clear()
        self.op_cycles.clear()
        self.op_energy_pj.clear()
        self.cycles = 0
        self.energy_pj = 0.0
        if sink is not None:
            sink.watch(self)

    def count(self, op: str) -> int:
        """Occurrences of ``op`` recorded so far."""
        return self.op_counts.get(op, 0)

    def cycles_for(self, op: str) -> int:
        """Cycles attributed to ``op`` so far."""
        return self.op_cycles.get(op, 0)

    def energy_for(self, op: str) -> float:
        """Energy (pJ) attributed to ``op`` so far."""
        return self.op_energy_pj.get(op, 0.0)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready, non-destructive snapshot (totals + breakdowns)."""
        return {
            "op_counts": dict(self.op_counts),
            "op_cycles": dict(self.op_cycles),
            "op_energy_pj": dict(self.op_energy_pj),
            "cycles": self.cycles,
            "energy_pj": self.energy_pj,
        }


@dataclass(frozen=True, eq=False)
class StatsPlan:
    """A fixed sequence of ``(op, cycles, energy_pj)`` records, planned once.

    :meth:`DeviceStats.apply` records them all in one call. A plan keeps
    what the sums need: per op, in order of first appearance, its count,
    its cycles and its energies in record order; the total cycles; and
    every record's energy in record order. Cycles are integers, and each
    energy sequence is a float64 array.
    """

    ops: Tuple[Tuple[str, int, int, np.ndarray], ...]
    cycles: int
    energies: np.ndarray

    @classmethod
    def of(cls, records: Iterable[Tuple[str, int, float]]) -> "StatsPlan":
        """The plan of ``records``, one occurrence each."""
        rows: Dict[str, List[Any]] = {}
        cycles = 0
        energies: List[float] = []
        for op, c, e in records:
            row = rows.get(op)
            if row is None:
                row = rows[op] = [0, 0, []]
            row[0] += 1
            row[1] += c
            row[2].append(e)
            cycles += c
            energies.append(e)
        return cls(
            ops=tuple(
                (op, n, c, np.array(es, dtype=np.float64))
                for op, (n, c, es) in rows.items()
            ),
            cycles=cycles,
            energies=np.array(energies, dtype=np.float64),
        )


def _add_in_order(total: float, energies: np.ndarray, times: int) -> float:
    """``total`` plus ``energies`` ``times`` over, one add at a time.

    A cumulative sum rounds after every add in order, exactly as ``+=``
    on a float does (a plain ``sum`` may pair terms up instead). Its
    first add, ``total + energies[0]``, is the same float either way
    round.
    """
    sums = np.empty((times, len(energies)))
    sums[:] = energies
    sums = sums.reshape(-1)
    sums[0] += total
    return float(np.add.accumulate(sums, out=sums)[-1])
