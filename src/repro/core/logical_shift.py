"""Logical shifting between bitlines (Section III-D, brown connections).

Fig. 4(a) forwards the value read on bitline ``i`` to bitline ``i+1``,
implementing a one-position logical left shift — a multiply by two.
This is distinct from a *DW shift*, which moves data along each
nanowire: logical shifts move bits *between* nanowires (the Y direction
of Fig. 6), and cost one shifted read plus one write per position.

The multiplier uses this unit to materialise the shifted copies of the
multiplicand that become partial products: writing the copies A<<0 ..
A<<(n-1) into adjacent rows takes n shifted read/write pairs plus one
DW shift per retained copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.arch.dbc import DomainBlockCluster
from repro.utils.bitops import as_bit_row


@dataclass(frozen=True)
class ShiftedCopies:
    """Outcome of materialising shifted copies of a row.

    Attributes:
        rows: the copies as ``uint8`` rows, one per logical shift amount.
        cycles: DBC cycles consumed.
    """

    rows: List[np.ndarray]
    cycles: int


class LogicalShifter:
    """Inter-bitline shifting bound to one PIM DBC."""

    def __init__(self, dbc: DomainBlockCluster) -> None:
        if not dbc.pim_enabled:
            raise ValueError("logical shifting requires a PIM-enabled DBC")
        self.dbc = dbc

    def shift_row(self, row: Sequence[int], by: int = 1) -> np.ndarray:
        """One logical shift step: bits move ``by`` tracks toward the MSB.

        Each single-position step costs a shifted read plus a write
        (2 cycles); bits pushed past the top track must be zero.
        """
        if by < 0:
            raise ValueError(f"by must be >= 0, got {by}")
        out = as_bit_row(row).copy()
        for _ in range(by):
            if out.size and out[-1]:
                raise OverflowError(
                    "logical shift pushed a one past the top track"
                )
            out[1:] = out[:-1]
            out[:1] = 0
            self.dbc.tick(2, "logical_shift")
            self.dbc.stats.record(
                "logical_shift_energy",
                0,
                (self.dbc.params.read.energy_pj
                 + self.dbc.params.write.energy_pj) * self.dbc.tracks,
            )
        return out

    def shifted_copies(
        self,
        row: Sequence[int],
        count: int,
        predicate: Sequence[int] = (),
    ) -> ShiftedCopies:
        """Materialise ``count`` adjacent shifted copies of ``row``.

        ``predicate`` optionally zeroes de-selected copies (the
        row-buffer predication of Section III-D3); copy ``i`` survives
        when ``predicate[i]`` is 1 (all survive when empty).

        Cost model per the paper: each copy derives from the previous by
        one shifted read/write (2 cycles), each retained copy needs one
        DW shift to move to the next row (1 cycle), plus a 2-cycle pass
        streaming the predicate through the row buffer.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if predicate and len(predicate) != count:
            raise ValueError(
                f"predicate has {len(predicate)} entries for {count} copies"
            )
        before = self.dbc.stats.cycles
        # Copy the source operand into the working row of the
        # processing tile (the RowClone-style staging of Section III-D3).
        self.dbc.tick(2, "stage_in")
        rows: List[np.ndarray] = []
        current = as_bit_row(row)
        for i in range(count):
            keep = (not predicate) or bool(predicate[i])
            rows.append(current.copy() if keep else np.zeros_like(current))
            self.dbc.tick(1, "dw_shift")  # move to the next row slot
            if i != count - 1:
                current = self.shift_row(current, 1)
        if predicate:
            self.dbc.tick(2, "predication_pass")
        return ShiftedCopies(
            rows=rows, cycles=self.dbc.stats.cycles - before
        )
