"""PIM logic block (Fig. 4b): functions of the TR level.

The block turns the sense amp's thermometer code into the bulk-bitwise
outputs (AND/NAND/OR/NOR/XOR/XNOR) and the adder outputs: sum ``S``,
carry ``C``, and super-carry ``C'``, satisfying ``m = S + 2C + 4C'`` for
every TR level ``m`` in 0..7 — the identity the multi-operand adder and
the 7->3 carry-save reduction rest on.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.utils.bitops import as_level_row


class BulkOp(enum.Enum):
    """Bulk-bitwise operations the polymorphic gate provides (Fig. 5)."""

    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    NOT = "not"  # single operand padded with zeros, NOR output
    MAJ = "maj"  # majority — the C' circuit, reused for NMR voting


def adder_outputs(level: int) -> Tuple[int, int, int]:
    """(S, C, C') for a TR level: the binary decomposition of the count.

    Per Fig. 4(b): S is the XOR (odd levels); C is a function of levels
    above two and not above four or above six, i.e. level in {2,3} or
    {6,7}; C' is level >= 4.

    >>> adder_outputs(5)
    (1, 0, 1)
    """
    if not 0 <= level <= 7:
        raise ValueError(f"level {level} outside [0, 7]")
    s = level & 1
    c = (level >> 1) & 1
    c_prime = (level >> 2) & 1
    return s, c, c_prime


class InconsistentLevelError(ValueError):
    """A TR level the operands and their Fig. 7 padding cannot produce.

    The staged rows cannot sense that level, so the TR was misread: a
    detected device fault, not a bad argument.
    """


class PimLogicBlock:
    """Per-bitline logic evaluating bulk ops of the TR level.

    ``operands`` is how many rows in the TR window carry real data; the
    remaining window slots are expected to be padded per Fig. 7 ('1's for
    AND/NAND, '0's for the rest), and the thresholds below account for
    that padding.
    """

    def __init__(self, trd: int = 7) -> None:
        if trd < 2:
            raise ValueError(f"trd must be >= 2, got {trd}")
        self.trd = trd

    def evaluate(self, op: BulkOp, level: int, operands: int) -> int:
        """Value of ``op`` over ``operands`` rows given TR level ``level``."""
        if not 0 <= level <= self.trd:
            raise ValueError(f"level {level} outside [0, {self.trd}]")
        if not 1 <= operands <= self.trd:
            raise ValueError(
                f"operands {operands} outside [1, {self.trd}]"
            )
        padding_ones = self._padding_ones(op, operands)
        data_ones = level - padding_ones
        if not 0 <= data_ones <= operands:
            raise InconsistentLevelError(
                f"TR level {level} inconsistent with {operands} operands "
                f"and {padding_ones} padded ones (expected padding per Fig. 7)"
            )
        return self._truth(op, data_ones, operands)

    def evaluate_row(
        self, op: BulkOp, levels: Sequence[int], operands: int
    ) -> np.ndarray:
        """:meth:`evaluate` for every track's TR level at once.

        Each level is looked up in the (op, operand-count) table as a
        ``uint8`` row; the first level the padding cannot produce raises
        as :meth:`evaluate` does.
        """
        table = _level_table(self.trd, op, operands)
        index = as_level_row(levels)
        bits = table[index]
        if bits.max(initial=0) > 1:
            self.evaluate(op, int(index[np.argmax(bits > 1)]), operands)
        return bits

    def _padding_ones(self, op: BulkOp, operands: int) -> int:
        """Ones contributed by the Fig. 7 padding preset."""
        if op in (BulkOp.AND, BulkOp.NAND):
            return self.trd - operands
        return 0

    @staticmethod
    def _truth(op: BulkOp, ones: int, operands: int) -> int:
        if op is BulkOp.AND:
            return 1 if ones == operands else 0
        if op is BulkOp.NAND:
            return 0 if ones == operands else 1
        if op is BulkOp.OR:
            return 1 if ones >= 1 else 0
        if op is BulkOp.NOR:
            return 0 if ones >= 1 else 1
        if op is BulkOp.NOT:
            if operands != 1:
                raise ValueError("NOT takes exactly one operand")
            return 1 - ones
        if op is BulkOp.XOR:
            return ones & 1
        if op is BulkOp.XNOR:
            return 1 - (ones & 1)
        if op is BulkOp.MAJ:
            return 1 if 2 * ones > operands else 0
        raise ValueError(f"unknown op {op!r}")

    def truth_table(self, op: BulkOp, operands: int) -> Dict[int, int]:
        """Output for every reachable TR level (used by the circuit tests)."""
        padding = self._padding_ones(op, operands)
        return {
            ones + padding: self._truth(op, ones, operands)
            for ones in range(operands + 1)
        }


@lru_cache(maxsize=None)
def _level_table(trd: int, op: BulkOp, operands: int) -> np.ndarray:
    """``op``'s output for every uint8 TR level over ``operands`` rows.

    2 marks a level the Fig. 7 padding of the window cannot produce.
    """
    if not 1 <= operands <= trd:
        raise ValueError(f"operands {operands} outside [1, {trd}]")
    block = PimLogicBlock(trd)
    table = np.full(256, 2, dtype=np.uint8)
    for level, bit in block.truth_table(op, operands).items():
        table[level] = bit
    table.flags.writeable = False
    return table
