"""Multi-operand addition over a PIM DBC (Section III-C, Fig. 6).

Operands are stored *transposed*: bit ``k`` of every operand sits on track
``k``, and the operands occupy adjacent window slots between the access
ports. The adder walks the tracks from LSB to MSB; at each step one TR
senses the count of ones (operand bits plus incoming carry and super
carry), and the PIM block's (S, C, C') outputs are written simultaneously
to track ``k``'s left head, track ``k+1``'s right head, and track
``k+2``'s left head.

With TRD = 7 the window holds five operands (two slots carry C and C' in),
so a five-operand addition costs the same 2 cycles/bit as a two-operand
one. With TRD = 3 the super carry cannot occur (counts never reach 4), so
the window holds two operands plus the carry slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.dbc import DomainBlockCluster, WindowCopy
from repro.utils.bitops import bits_to_int, word_row


def max_addition_operands(trd: int) -> int:
    """Operands one addition can take for a given TRD.

    One window slot is reserved for the incoming carry; a second for the
    incoming super carry when counts can reach 4 (TRD >= 4). The paper's
    examples: 5 for TRD = 7, 2 for TRD = 3.
    """
    if trd < 3:
        raise ValueError(f"addition needs trd >= 3, got {trd}")
    return trd - 1 if trd == 3 else trd - 2


@dataclass(frozen=True)
class AdditionResult:
    """Outcome of one multi-operand addition.

    Attributes:
        values: the per-block sums (mod 2**result_bits).
        cycles: DBC cycles consumed (staging + compute).
        staging_cycles: cycles of the staging phase alone.
    """

    values: List[int]
    cycles: int
    staging_cycles: int

    @property
    def value(self) -> int:
        """The sum, for single-block additions."""
        if len(self.values) != 1:
            raise ValueError("value is only defined for single-block adds")
        return self.values[0]


class MultiOperandAdder:
    """CORUSCANT multi-operand adder bound to one PIM DBC."""

    def __init__(self, dbc: DomainBlockCluster) -> None:
        if not dbc.pim_enabled:
            raise ValueError("addition requires a PIM-enabled DBC")
        self.dbc = dbc
        self.trd = dbc.window_size
        self.max_operands = max_addition_operands(self.trd)
        # Slot layout: with a super carry, slot 0 carries C' in (and S
        # out); operands sit in slots 1..max_operands. Without one,
        # operands sit in slots 0..1. The last slot always carries C in.
        self.operand_base_slot = 1 if dbc.super_carry else 0
        self.carry_slot = self.trd - 1

    # ------------------------------------------------------------------
    # staging

    def stage_words(
        self,
        words: Sequence[int],
        n_bits: int,
        start_track: int = 0,
        zero_extend_to: Optional[int] = None,
        window: Optional[WindowCopy] = None,
    ) -> None:
        """Place operand words transposed into the window at zero cost.

        Models operands already resident in the PIM DBC. ``zero_extend_to``
        widens the staged region so carries beyond ``n_bits`` can resolve.
        With ``window``, the words go to that copy of the cluster's window.
        """
        k = self._check_operand_count(len(words))
        width = zero_extend_to or n_bits
        self._check_block(start_track, width)
        for i, word in enumerate(words):
            if word < 0:
                raise ValueError(f"operand {i} must be non-negative")
            if word >> n_bits:
                raise ValueError(
                    f"operand {i} ({word}) does not fit in {n_bits} bits"
                )
        # Operand i, LSB first, goes down slot base + i of the block.
        shown = (1 << min(n_bits, width)) - 1
        slots = [0] * self.trd
        base = self.operand_base_slot
        slots[base : base + k] = [int(word) & shown for word in words]
        target = self.dbc if window is None else window
        target.poke_window_slots(start_track, width, slots)

    def stage_rows(self, rows: Sequence[Sequence[int]]) -> None:
        """Place already-materialised track rows into the operand slots.

        Zero cost: used when the operands are outputs of a previous PIM
        step (e.g. the S/C/C' rows of a carry-save reduction) that are
        already sitting in the window.
        """
        k = self._check_operand_count(len(rows))
        width = self.dbc.tracks
        zero = np.zeros(width, dtype=np.uint8)
        for slot in range(self.trd):
            idx = slot - self.operand_base_slot
            if 0 <= idx < k:
                row = rows[idx]
                if len(row) != width:
                    raise ValueError(
                        f"row {idx} has {len(row)} bits, expected {width}"
                    )
                self.dbc.poke_window_slot(slot, row)
            else:
                self.dbc.poke_window_slot(slot, zero)

    def write_words(self, words: Sequence[int], n_bits: int) -> int:
        """Costed staging: shift-and-write the operands through the left head.

        Reproduces the paper's staging cost: k writes plus k-1 shifts, plus
        one final shift to free the left-head slot when the super carry is
        in use — 10 cycles for five operands at TRD = 7, 3 cycles for two
        at TRD = 3 (Section V-B).
        """
        k = self._check_operand_count(len(words))
        before = self.dbc.stats.cycles
        with self.dbc.tracer.span(
            "add.stage", category="core", operands=k
        ) as span:
            rows = [word_row(word, n_bits, self.dbc.tracks) for word in words]
            for i, row in enumerate(reversed(rows)):
                self.dbc.write_row(row, port_index=0)
                last = i == k - 1
                if not last or self.dbc.super_carry:
                    self.dbc.shift(1)
            # Non-operand window slots come from the Fig. 7 zero preset —
            # zero cost, the preset rows are maintained between operations.
            base = self.operand_base_slot
            zero = np.zeros(self.dbc.tracks, dtype=np.uint8)
            for slot in range(self.trd):
                if not base <= slot < base + k:
                    self.dbc.poke_window_slot(slot, zero)
            span.annotate(cycles=self.dbc.stats.cycles - before)
        return self.dbc.stats.cycles - before

    # ------------------------------------------------------------------
    # compute

    def run(
        self,
        n_operands: int,
        result_bits: int,
        start_track: int = 0,
        blocks: int = 1,
        block_stride: Optional[int] = None,
        window: Optional[WindowCopy] = None,
    ) -> AdditionResult:
        """Walk the carry chain and return the per-block sums.

        ``blocks`` > 1 models blocksize-packed rows (Section III-E): the
        walks of all blocks advance in lockstep, sharing cycles. Carry
        writes past a block's end are masked by the controller. With
        ``window``, the walk runs on that copy of the cluster's window,
        whose cost is recorded when the copy is left.
        """
        self._check_operand_count(n_operands)
        stride = block_stride or result_bits
        if blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {blocks}")
        last = start_track + (blocks - 1) * stride + result_bits
        if last > self.dbc.tracks:
            raise ValueError("blocks extend past the DBC's tracks")
        with self.dbc.tracer.span(
            "add.walk", category="core", operands=n_operands, blocks=blocks
        ) as span:
            starts = [start_track + b * stride for b in range(blocks)]
            if window is None:
                before = self.dbc.stats.cycles
                sums = self.dbc.carry_walk(starts, result_bits)
                cycles = self.dbc.stats.cycles - before
            else:
                before = window.cycles
                sums = window.walk(starts, result_bits)
                cycles = window.cycles - before
            span.annotate(cycles=cycles)
        values = [bits_to_int(bits) for bits in sums]
        return AdditionResult(values=values, cycles=cycles, staging_cycles=0)

    def add_words(
        self,
        words: Sequence[int],
        n_bits: int,
        result_bits: Optional[int] = None,
        costed_staging: bool = False,
    ) -> AdditionResult:
        """Stage + run: the convenience path for one block of operands.

        ``result_bits`` defaults to the full sum width so the result is
        exact; pass ``n_bits`` for the paper's mod-2^n accounting.
        """
        k = len(words)
        if result_bits is None:
            result_bits = n_bits + max(1, (k - 1).bit_length()) + 1
        staging = 0
        if costed_staging:
            staging = self.write_words(words, n_bits)
        else:
            self.stage_words(words, n_bits, zero_extend_to=result_bits)
        result = self.run(k, result_bits)
        return AdditionResult(
            values=result.values,
            cycles=result.cycles + staging,
            staging_cycles=staging,
        )

    # ------------------------------------------------------------------
    # internals

    def _check_operand_count(self, k: int) -> int:
        if not 1 <= k <= self.max_operands:
            raise ValueError(
                f"operand count {k} outside [1, {self.max_operands}] "
                f"for TRD={self.trd}"
            )
        return k

    def _check_block(self, start: int, width: int) -> None:
        if start < 0 or start + width > self.dbc.tracks:
            raise ValueError(
                f"block [{start}, {start + width}) outside "
                f"[0, {self.dbc.tracks})"
            )
