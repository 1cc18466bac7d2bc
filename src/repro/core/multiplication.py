"""CORUSCANT multiplication (Section III-D).

Three strategies, all built on logical shifting (inter-track bit movement
through the brown connections of Fig. 4a) plus multi-operand addition:

* **constant** — the multiplier is known at compile time; a CSD/Booth
  plan (see :mod:`repro.core.booth`) packs the signed shifted copies into
  as few addition steps as possible (two for the paper's 20061 example).
* **arbitrary** — the '1' bits of the multiplier select shifted copies of
  the multiplicand, summed in groups of TRD-2 (worst case ~2n/ (TRD-2)
  addition steps, O(n^2)).
* **optimized** — all n shifted copies are generated, predicated on the
  multiplier bits, and reduced 7->3 carry-save style until at most TRD-2
  rows remain; a single addition finishes. O(n) total.

A naive repeated-addition strategy is included as the ablation baseline
the paper argues against ("consider 9A...").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.arch.dbc import DomainBlockCluster
from repro.core.addition import MultiOperandAdder
from repro.core.booth import ConstantPlan, plan_constant_multiply
from repro.core.logical_shift import LogicalShifter
from repro.core.reduction import CarrySaveReducer
from repro.utils.bitops import bits_to_int, word_row


@dataclass(frozen=True)
class MultiplyResult:
    """Outcome of one multiplication.

    Attributes:
        value: the product (mod 2**result_bits).
        cycles: total DBC cycles.
        breakdown: cycles per phase (partial products, reduction, adds).
    """

    value: int
    cycles: int
    breakdown: Dict[str, int] = field(default_factory=dict)


class Multiplier:
    """Multiplication strategies bound to one PIM DBC."""

    def __init__(self, dbc: DomainBlockCluster) -> None:
        if not dbc.pim_enabled:
            raise ValueError("multiplication requires a PIM-enabled DBC")
        self.dbc = dbc
        self.trd = dbc.window_size
        self.adder = MultiOperandAdder(dbc)
        self.reducer = CarrySaveReducer(dbc)
        self.shifter = LogicalShifter(dbc)

    # ------------------------------------------------------------------
    # optimized multiplication (Section III-D3)

    def multiply(
        self, a: int, b: int, n_bits: int, result_bits: Optional[int] = None
    ) -> MultiplyResult:
        """Predicated partial products + carry-save reduction + one add."""
        width = self._width(n_bits, result_bits)
        self._check_operand(a, n_bits, "a")
        self._check_operand(b, n_bits, "b")
        tracer = self.dbc.tracer
        before = self.dbc.stats.cycles
        with tracer.span("mult.partial_products", category="core") as span:
            rows, pp_cycles = self._partial_products(a, b, n_bits, width)
            span.annotate(cycles=pp_cycles, rows=len(rows))
        breakdown = {"partial_products": pp_cycles}
        if len(rows) == 0:
            return MultiplyResult(0, self.dbc.stats.cycles - before, breakdown)
        if len(rows) == 1:
            value = bits_to_int(rows[0])
            return MultiplyResult(
                value & ((1 << width) - 1),
                self.dbc.stats.cycles - before,
                breakdown,
            )
        with tracer.span("mult.reduction", category="core") as span:
            red_before = self.dbc.stats.cycles
            # Rows beyond the window are staged in as reduction frees
            # slots: one read + one write each through the row buffer.
            overflow = max(0, len(rows) - self.trd)
            if overflow:
                self.dbc.tick(2 * overflow, "row_staging")
            reduced = self.reducer.reduce_to(rows)
            breakdown["reduction"] = self.dbc.stats.cycles - red_before
            span.annotate(cycles=breakdown["reduction"])
        with tracer.span("mult.final_add", category="core") as span:
            add_before = self.dbc.stats.cycles
            value = self._final_add(reduced.rows, width)
            breakdown["final_add"] = self.dbc.stats.cycles - add_before
            span.annotate(cycles=breakdown["final_add"])
        return MultiplyResult(
            value, self.dbc.stats.cycles - before, breakdown
        )

    # ------------------------------------------------------------------
    # arbitrary multiplication (Section III-D2)

    def multiply_arbitrary(
        self, a: int, b: int, n_bits: int, result_bits: Optional[int] = None
    ) -> MultiplyResult:
        """Sum the shifted copies selected by the multiplier's '1' bits."""
        width = self._width(n_bits, result_bits)
        self._check_operand(a, n_bits, "a")
        self._check_operand(b, n_bits, "b")
        before = self.dbc.stats.cycles
        mask = (1 << width) - 1
        shifts = [i for i in range(n_bits) if (b >> i) & 1]
        breakdown: Dict[str, int] = {}
        # Generating and retaining the selected copies: one shifted
        # read/write pair per logical position, one DW shift per retained
        # copy (Section III-D).
        self.dbc.tick(2 * n_bits + len(shifts), "partial_products")
        breakdown["partial_products"] = 2 * n_bits + len(shifts)
        if not shifts:
            return MultiplyResult(0, self.dbc.stats.cycles - before, breakdown)
        terms = [(a << s) & mask for s in shifts]
        budget = self.adder.max_operands
        add_before = self.dbc.stats.cycles
        total = terms[0] if len(terms) == 1 else None
        pending = terms
        acc: Optional[int] = None
        while pending or acc is None:
            group: List[int] = []
            if acc is not None:
                group.append(acc)
            room = budget - len(group)
            group.extend(pending[:room])
            pending = pending[room:]
            if len(group) == 1:
                acc = group[0]
                break
            rows = [self._row(g, width) for g in group]
            self.adder.stage_rows(rows)
            acc = self.adder.run(len(rows), width).value
        breakdown["additions"] = self.dbc.stats.cycles - add_before
        assert acc is not None
        return MultiplyResult(
            acc & mask, self.dbc.stats.cycles - before, breakdown
        )

    # ------------------------------------------------------------------
    # constant multiplication (Section III-D1)

    def multiply_constant(
        self,
        a: int,
        constant: int,
        n_bits: int,
        result_bits: Optional[int] = None,
        plan: Optional[ConstantPlan] = None,
    ) -> MultiplyResult:
        """Execute a compile-time CSD plan for ``constant * a``."""
        width = self._width(n_bits, result_bits)
        self._check_operand(a, n_bits, "a")
        if plan is None:
            plan = plan_constant_multiply(constant, self.trd)
        elif plan.constant != constant:
            raise ValueError(
                f"plan computes {plan.constant}, not {constant}"
            )
        before = self.dbc.stats.cycles
        mask = (1 << width) - 1
        values: Dict[str, int] = {"A": a & mask}
        breakdown = {"addition_steps": 0}
        result = 0
        for step in plan.steps:
            rows = []
            ones_due = 0
            for term in step.terms:
                v = (values[term.source] << term.shift) & mask
                if term.negate:
                    # Complement through the PIM block's NOT output, one
                    # TR + one write; the +1 rides in the carry-in slot.
                    v = (~v) & mask
                    ones_due += 1
                    self.dbc.tick(2, "complement")
                rows.append(self._row(v, width))
            result = self._add_with_carry_ones(rows, ones_due, width)
            values[step.name] = result
            breakdown["addition_steps"] += 1
        return MultiplyResult(
            result & mask, self.dbc.stats.cycles - before, breakdown
        )

    # ------------------------------------------------------------------
    # naive repeated addition (ablation baseline)

    def multiply_naive(
        self, a: int, b: int, n_bits: int, result_bits: Optional[int] = None
    ) -> MultiplyResult:
        """Sum ``b`` copies of ``a`` using chained multi-operand adds."""
        width = self._width(n_bits, result_bits)
        self._check_operand(a, n_bits, "a")
        if b < 0:
            raise ValueError("b must be non-negative")
        before = self.dbc.stats.cycles
        mask = (1 << width) - 1
        budget = self.adder.max_operands
        acc = 0
        remaining = b
        first = True
        while remaining:
            take = min(budget if first else budget - 1, remaining)
            group = [a & mask] * take
            if not first:
                group.insert(0, acc)
            rows = [self._row(g, width) for g in group]
            if len(rows) == 1:
                acc = group[0]
            else:
                self.adder.stage_rows(rows)
                acc = self.adder.run(len(rows), width).value
            remaining -= take
            first = False
        return MultiplyResult(
            acc & mask, self.dbc.stats.cycles - before, {}
        )

    # ------------------------------------------------------------------
    # internals

    def _partial_products(
        self, a: int, b: int, n_bits: int, width: int
    ):
        """Generate the predicated shifted copies of ``a``.

        Runs the logical-shift unit (Fig. 4a brown connections): stage
        the operand in, derive each copy from the previous with a
        shifted read/write, DW-shift retained copies into adjacent rows,
        and stream the multiplier through the row buffer as the
        predicate that zeroes de-selected copies.
        """
        before = self.dbc.stats.cycles
        base = self._row(a, width)
        predicate = [(b >> i) & 1 for i in range(n_bits)]
        copies = self.shifter.shifted_copies(base, n_bits, predicate)
        return copies.rows, self.dbc.stats.cycles - before

    def _final_add(self, rows: Sequence[Sequence[int]], width: int) -> int:
        """One multi-operand addition of the surviving rows."""
        if len(rows) == 1:
            return bits_to_int(rows[0]) & ((1 << width) - 1)
        self.adder.stage_rows(rows)
        return self.adder.run(len(rows), width).value

    def _add_with_carry_ones(
        self, rows: List[Sequence[int]], ones_due: int, width: int
    ) -> int:
        """Add rows plus ``ones_due`` unit corrections from negated terms.

        The first +1 is injected through the carry-in slot; the rest form
        a small constant operand (or chain an extra 2-operand add when the
        window is full).
        """
        budget = self.adder.max_operands
        extra = 0
        if ones_due > 1:
            if len(rows) < budget:
                rows = rows + [self._row(ones_due - 1, width)]
                ones_due = 1
            else:
                extra = ones_due - 1
                ones_due = 1
        if len(rows) == 1:
            acc = bits_to_int(rows[0]) + ones_due
        else:
            self.adder.stage_rows(rows)
            if ones_due:
                # Preload the carry-in slot of track 0 with the +1.
                carry_row = self.dbc.peek_window_slot(self.adder.carry_slot)
                carry_row[0] = 1
                self.dbc.poke_window_slot(self.adder.carry_slot, carry_row)
            acc = self.adder.run(len(rows), width).value
        if extra:
            rows2 = [
                self._row(acc & ((1 << width) - 1), width),
                self._row(extra, width),
            ]
            self.adder.stage_rows(rows2)
            acc = self.adder.run(2, width).value
        return acc & ((1 << width) - 1)

    def _row(self, value: int, width: int):
        """``value`` transposed onto the first ``width`` tracks of a row."""
        return word_row(value, width, self.dbc.tracks)

    def _width(self, n_bits: int, result_bits: Optional[int]) -> int:
        width = result_bits if result_bits is not None else 2 * n_bits
        if width > self.dbc.tracks:
            raise ValueError(
                f"result width {width} exceeds DBC tracks {self.dbc.tracks}"
            )
        return width

    @staticmethod
    def _check_operand(value: int, n_bits: int, name: str) -> None:
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
        if value >> n_bits:
            raise ValueError(f"{name} ({value}) does not fit in {n_bits} bits")
