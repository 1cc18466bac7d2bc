"""Multi-operand bulk-bitwise operations over a PIM DBC (Section III-B).

One transverse read per track, in parallel across all tracks of the DBC,
evaluates a bulk-bitwise operation of up to TRD operand rows at once.
Fewer than TRD operands are handled by the Fig. 7 padding presets: unused
window slots hold '1's for AND/NAND and '0's for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.dbc import DomainBlockCluster
from repro.core.pim_logic import BulkOp, PimLogicBlock


@dataclass(frozen=True)
class BulkResult:
    """Outcome of one bulk-bitwise PIM operation.

    Attributes:
        bits: the result row (one bit per track).
        levels: raw TR level per track (what the sense amps reported).
        cycles: DBC cycles the operation consumed.
    """

    bits: List[int]
    levels: List[int]
    cycles: int


class BulkBitwiseUnit:
    """Executes Fig. 5 operations on a PIM-enabled DBC."""

    def __init__(self, dbc: DomainBlockCluster) -> None:
        if not dbc.pim_enabled:
            raise ValueError("bulk-bitwise PIM requires a PIM-enabled DBC")
        self.dbc = dbc
        self.logic = PimLogicBlock(trd=dbc.window_size)

    # ------------------------------------------------------------------
    # operand placement

    def stage_operands(self, op: BulkOp, operands: Sequence[Sequence[int]]) -> None:
        """Place operand rows and padding into the TR window at zero cost.

        Models data already resident between the heads (the common case:
        PIM operates on rows previously written to the PIM DBC). Operands
        occupy the slots adjacent to the left head; padding fills the rest
        per Fig. 7.
        """
        k = self._check_operands(operands)
        pad_row = self._padding_row(op)
        for slot in range(self.dbc.window_size):
            if slot < k:
                self.dbc.poke_window_slot(slot, operands[slot])
            else:
                self.dbc.poke_window_slot(slot, pad_row)

    def write_operands(self, op: BulkOp, operands: Sequence[Sequence[int]]) -> int:
        """Write operand rows through the left head (costed staging).

        Writes operand i then shifts it into place, assuming the padding
        preset of Fig. 7 is already in the remaining window slots (the
        preset rows are maintained by the controller between operations).
        Returns the cycles spent.
        """
        k = self._check_operands(operands)
        before = self.dbc.stats.cycles
        pad_row = self._padding_row(op)
        for slot in range(self.dbc.window_size):
            if slot >= k:
                self.dbc.poke_window_slot(slot, pad_row)  # preset, zero cost
        # Write the last operand first; each subsequent write pushes the
        # previous ones one slot deeper via a lockstep shift.
        for i, row in enumerate(reversed(list(operands))):
            self.dbc.write_row(row, port_index=0)
            if i != k - 1:
                self.dbc.shift(1)
        # Shift so the operand block sits against the left head with the
        # first operand under it.
        return self.dbc.stats.cycles - before

    # ------------------------------------------------------------------
    # execution

    def execute(
        self,
        op: BulkOp,
        operands: int,
        writeback_slot: Optional[int] = None,
    ) -> BulkResult:
        """One TR across all tracks evaluates ``op`` over ``operands`` rows.

        ``writeback_slot``: optionally write the result row back over a
        window slot (costs one extra cycle), as when a result overwrites
        one of the original operands (Section III-B).
        """
        before = self.dbc.stats.cycles
        levels = self.dbc.transverse_read_all()
        bits = self.logic.evaluate_row(op, levels, operands)
        self.dbc.stats.record("pim_logic", 0, _PIM_LOGIC_PJ * self.dbc.tracks)
        if writeback_slot is not None:
            self.dbc.poke_window_slot(writeback_slot, bits)
            self.dbc.tick(1, "writeback")
            self.dbc.stats.record(
                "writeback_energy", 0, self.dbc.params.write.energy_pj * self.dbc.tracks
            )
        return BulkResult(
            bits=bits.tolist(),
            levels=levels,
            cycles=self.dbc.stats.cycles - before,
        )

    # ------------------------------------------------------------------

    def _check_operands(self, operands: Sequence[Sequence[int]]) -> int:
        k = len(operands)
        if not 1 <= k <= self.dbc.window_size:
            raise ValueError(
                f"operand count {k} outside [1, {self.dbc.window_size}]"
            )
        for i, row in enumerate(operands):
            if len(row) != self.dbc.tracks:
                raise ValueError(
                    f"operand {i} has {len(row)} bits, expected {self.dbc.tracks}"
                )
        return k

    def _padding_row(self, op: BulkOp) -> np.ndarray:
        """The Fig. 7 preset: '1's for AND/NAND, '0's for the rest."""
        pad = 1 if op in (BulkOp.AND, BulkOp.NAND) else 0
        return np.full(self.dbc.tracks, pad, dtype=np.uint8)


# Synthesized PIM-block energy per bitline per evaluation (45 nm FreePDK45
# scaled to 32 nm, Section V-A); small next to the TR itself.
_PIM_LOGIC_PJ = 0.05
