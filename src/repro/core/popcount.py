"""Population count via transverse reads.

A TR already *is* a popcount of up to TRD domains, so counting the ones
in a long row reduces to summing TR levels: read each TRD-domain group
of the value (staged transposed across window slots), then accumulate
the per-group counts with the multi-operand adder. Database queries use
this to answer "how many" without shipping the result bitmap to the CPU
(Section V-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.arch.dbc import DomainBlockCluster
from repro.core.addition import MultiOperandAdder
from repro.utils.bitops import as_bit_row


@dataclass(frozen=True)
class PopcountResult:
    """Outcome of one in-memory popcount.

    Attributes:
        count: number of '1's in the row.
        cycles: DBC cycles consumed.
        groups: how many TR groups were sensed.
    """

    count: int
    cycles: int
    groups: int


class PopcountUnit:
    """Counts ones in a row using the polymorphic gate."""

    def __init__(self, dbc: DomainBlockCluster) -> None:
        if not dbc.pim_enabled:
            raise ValueError("popcount requires a PIM-enabled DBC")
        self.dbc = dbc
        self.trd = dbc.window_size
        self.adder = MultiOperandAdder(dbc)

    def count_row(self, bits: Sequence[int]) -> PopcountResult:
        """Popcount of an arbitrary bit row.

        The row is staged transposed: group g occupies window slots so
        that one TR of track g senses the whole group. Group counts are
        then summed via staged multi-operand additions.
        """
        row = as_bit_row(bits)
        before = self.dbc.stats.cycles
        tracks = self.dbc.tracks
        n_groups = -(-len(row) // self.trd)
        # Group g holds bits [g * TRD, (g + 1) * TRD), zero-padded.
        groups = np.zeros((n_groups, self.trd), dtype=np.uint8)
        groups.reshape(-1)[: len(row)] = row
        counts: List[int] = []
        staged = 0
        # Sense groups in batches of `tracks` parallel TRs, group g of a
        # batch on track g and zeros on the tracks above the batch.
        for start in range(0, n_groups, tracks):
            batch = groups[start : start + tracks]
            staged = len(batch)
            block = np.zeros((tracks, self.trd), dtype=np.uint8)
            block[:staged] = batch
            self.dbc.poke_window_block(0, block)
            levels = self.dbc.transverse_read_all()
            counts.extend(levels[:staged])
        total = self._sum_counts(counts, staged)
        return PopcountResult(
            count=total,
            cycles=self.dbc.stats.cycles - before,
            groups=n_groups,
        )

    def _sum_counts(self, counts: List[int], staged: int) -> int:
        """Accumulate group counts with chained multi-operand adds.

        Window tracks from ``staged`` up hold zeros from the group
        staging, and no add reaches them. The tracks from the accumulator
        width up to ``staged`` are zeroed once, so each add stages only
        its own width. The adds stage and walk on one copy of those
        tracks' window, written back and costed once at the end.
        """
        width = max(8, (sum(counts)).bit_length() + 2)
        if width > self.dbc.tracks:
            raise ValueError(
                f"popcount accumulator of {width} bits exceeds the "
                f"{self.dbc.tracks}-track DBC"
            )
        if len(counts) < 2:
            return sum(counts)
        budget = self.adder.max_operands
        span = max(width, staged)
        acc = 0
        pending = list(counts)
        first = True
        with self.dbc.window_copy(0, span) as window:
            window.poke_window_slots(width, span - width, [0] * self.trd)
            while pending:
                take = budget if first else budget - 1
                group = pending[:take]
                pending = pending[take:]
                if not first:
                    group.insert(0, acc)
                self.adder.stage_words(group, width, window=window)
                acc = self.adder.run(len(group), width, window=window).value
                first = False
        return acc
