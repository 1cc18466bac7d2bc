"""Carry-save 7->3 operand reduction (Section III-D3).

A CSA uses a full adder's three inputs for three operands, reducing three
rows to two with no carry propagation. CORUSCANT's polymorphic gate does
the same with *seven* inputs: one parallel TR per track senses up to TRD
packed operand rows and the PIM block emits S, C, C' rows — a 7->3
reduction in O(1) (one TR plus three row writes, 4 cycles).

The C row carries weight 2 and the C' row weight 4, so they are written
through the inter-block connections of Fig. 4(a) displaced by one and two
tracks respectively. Repeating the reduction until at most TRD-2 rows
remain, then finishing with a single multi-operand addition, makes
multiplication O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.arch.dbc import DomainBlockCluster
from repro.core.addition import max_addition_operands
from repro.utils.bitops import as_level_row, bits_to_int


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of one or more reduction rounds.

    Attributes:
        rows: surviving operand rows (track-bit vectors, weight 1 each;
            the rows a round produced are ``uint8`` arrays).
        cycles: DBC cycles consumed.
        rounds: how many TR reduction rounds ran.
    """

    rows: List[Sequence[int]]
    cycles: int
    rounds: int


class CarrySaveReducer:
    """Iterated 7->3 (or 5->3, or 3->2) reduction on a PIM DBC."""

    def __init__(self, dbc: DomainBlockCluster) -> None:
        if not dbc.pim_enabled:
            raise ValueError("reduction requires a PIM-enabled DBC")
        self.dbc = dbc
        self.trd = dbc.window_size
        # With TRD = 3 counts stay below 4, so C' is always zero and one
        # round turns three rows into two.
        self.outputs_per_round = 2 if self.trd == 3 else 3

    def reduce_once(self, rows: Sequence[Sequence[int]]) -> ReductionResult:
        """One parallel-TR reduction of up to TRD rows.

        Costs 1 TR cycle + one write cycle per output row. Raises if a
        weighted carry would fall off the top track while carrying a one.
        """
        k = len(rows)
        if not 2 <= k <= self.trd:
            raise ValueError(f"row count {k} outside [2, {self.trd}]")
        width = self.dbc.tracks
        zero = np.zeros(width, dtype=np.uint8)
        for slot in range(self.trd):
            if slot < k:
                row = rows[slot]
                if len(row) != width:
                    raise ValueError(
                        f"row {slot} has {len(row)} bits, expected {width}"
                    )
                self.dbc.poke_window_slot(slot, row)
            else:
                self.dbc.poke_window_slot(slot, zero)
        levels = as_level_row(self.dbc.transverse_read_all())
        s_row = levels & 1
        c_row = self._displace((levels >> 1) & 1, 1)
        out_rows = [s_row, c_row]
        if self.outputs_per_round == 3:
            out_rows.append(self._displace((levels >> 2) & 1, 2))
        # One write cycle per output row; S lands locally, C and C' go
        # through the i+1 / i+2 mux connections of Fig. 4(a).
        write_energy = self.dbc.params.write.energy_pj * self.dbc.tracks
        for _ in out_rows:
            self.dbc.tick(1, "reduction_write")
            self.dbc.stats.record("reduction_write_energy", 0, write_energy)
        return ReductionResult(rows=out_rows, cycles=0, rounds=1)

    def reduce_to(
        self, rows: Sequence[Sequence[int]], target: int = 0
    ) -> ReductionResult:
        """Reduce until at most ``target`` rows remain.

        ``target`` defaults to the adder's operand limit (TRD-2), the
        hand-off point to the final addition.
        """
        if target <= 0:
            target = max_addition_operands(self.trd)
        if target < self.outputs_per_round:
            raise ValueError(
                f"target {target} below the {self.outputs_per_round} rows "
                "one round produces; reduction cannot converge"
            )
        before = self.dbc.stats.cycles
        pending = list(rows)
        rounds = 0
        while len(pending) > target:
            take = min(self.trd, len(pending))
            # Reducing fewer rows than the round produces makes no progress.
            if take <= self.outputs_per_round:
                break
            batch, pending = pending[:take], pending[take:]
            result = self.reduce_once(batch)
            pending = result.rows + pending
            rounds += 1
        return ReductionResult(
            rows=pending,
            cycles=self.dbc.stats.cycles - before,
            rounds=rounds,
        )

    def _displace(self, bits: np.ndarray, by: int) -> np.ndarray:
        """Shift a row ``by`` tracks toward the MSB (multiply by 2**by)."""
        if bits[len(bits) - by :].any():
            raise OverflowError(
                f"carry of weight 2**{by} fell off the top track; widen "
                "the operand region"
            )
        out = np.zeros_like(bits)
        out[by:] = bits[: len(bits) - by]
        return out

    @staticmethod
    def rows_sum(rows: Sequence[Sequence[int]]) -> int:
        """Arithmetic value of a set of weight-1 rows (testing helper)."""
        return sum(bits_to_int(r) for r in rows)
