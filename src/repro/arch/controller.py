"""Memory controller: regular accesses plus cpim dispatch (Section III-E).

The controller owns the timing model: regular reads/writes pay the DDR
timings of Table II (with DWM's placement-dependent shift latency in
place of precharge), while cpim instructions are expanded into the PIM
command sequences the core units execute on the target DBC.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.arch.memory import MainMemory
from repro.core.addition import MultiOperandAdder
from repro.core.bulk_bitwise import BulkBitwiseUnit
from repro.core.isa import Address, CpimInstruction, CpimOp
from repro.core.maxpool import MaxUnit
from repro.core.nmr import ModularRedundancy
from repro.core.pim_logic import BulkOp
from repro.core.reduction import CarrySaveReducer

_BULK_OPS = {
    CpimOp.AND: BulkOp.AND,
    CpimOp.NAND: BulkOp.NAND,
    CpimOp.OR: BulkOp.OR,
    CpimOp.NOR: BulkOp.NOR,
    CpimOp.XOR: BulkOp.XOR,
    CpimOp.XNOR: BulkOp.XNOR,
    CpimOp.NOT: BulkOp.NOT,
}


@dataclass
class ControllerStats:
    """Aggregate accounting across all controller activity."""

    reads: int = 0
    writes: int = 0
    pim_ops: int = 0
    row_hits: int = 0
    row_misses: int = 0
    memory_cycles: int = 0

    @property
    def row_hit_rate(self) -> float:
        accesses = self.row_hits + self.row_misses
        return self.row_hits / accesses if accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Non-destructive counter snapshot."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "pim_ops": self.pim_ops,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_hit_rate": self.row_hit_rate,
            "memory_cycles": self.memory_cycles,
        }


class MemoryController:
    """Decodes requests into commands against a :class:`MainMemory`."""

    def __init__(self, memory: Optional[MainMemory] = None) -> None:
        self.memory = memory or MainMemory()
        self.stats = ControllerStats()
        # Optional TelemetryHub; attach_telemetry() wires it. None keeps
        # every access on the bare (un-instrumented) path.
        self.telemetry = None
        self._open_rows: Dict[tuple, int] = {}
        self._op_hooks: List[Callable[[int], None]] = []
        self._hooks_suspended = False
        self._pending_ops = 0

    def attach_telemetry(self, hub) -> None:
        """Publish accesses/cpim dispatch into ``hub`` from now on."""
        self.telemetry = hub

    # ------------------------------------------------------------------
    # operation hooks (background maintenance: scrubbing, telemetry)

    def add_op_hook(self, hook: Callable[[int], None]) -> None:
        """Register ``hook(ops)`` to run after memory operations complete.

        Hooks receive the number of operations since the last delivery
        (1 outside transactions, batched inside :meth:`deferred_hooks`).
        The scrub engine uses this as its notion of time.
        """
        self._op_hooks.append(hook)

    @contextmanager
    def deferred_hooks(self):
        """Batch hook delivery until the enclosing transaction commits.

        The resilient executor wraps its snapshot/retry/escalate ladder
        in this so background maintenance (which may realign tracks)
        never runs between an attempt and its detection scan.
        """
        if self._hooks_suspended:
            yield  # already inside a transaction: the outer one flushes
            return
        self._hooks_suspended = True
        try:
            yield
        finally:
            self._hooks_suspended = False
            self._flush_op_hooks()

    def _notify_op(self, count: int = 1) -> None:
        self._pending_ops += count
        if not self._hooks_suspended:
            self._flush_op_hooks()

    def _flush_op_hooks(self) -> None:
        pending, self._pending_ops = self._pending_ops, 0
        if pending and self._op_hooks:
            for hook in self._op_hooks:
                hook(pending)

    # ------------------------------------------------------------------
    # regular accesses

    def read(self, address: Address) -> List[int]:
        """Regular row read through the orange bypass path of Fig. 4(a)."""
        dbc = self._dbc(address)
        shifts = dbc.align(address.row, port_index=0)
        bits = dbc.read_row(port_index=0).tolist()
        hit = self._account_access(address, shifts, is_write=False)
        self.stats.reads += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "mem.access", access="reads", row="hits" if hit else "misses"
            )
        self._notify_op()
        return bits

    def write(self, address: Address, bits: Sequence[int]) -> None:
        """Regular row write."""
        dbc = self._dbc(address)
        shifts = dbc.align(address.row, port_index=0)
        dbc.write_row(list(bits), port_index=0)
        hit = self._account_access(address, shifts, is_write=True)
        self.stats.writes += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                "mem.access", access="writes", row="hits" if hit else "misses"
            )
        self._notify_op()

    # ------------------------------------------------------------------
    # cpim dispatch

    def execute(self, instruction: CpimInstruction):
        """Expand and run one cpim instruction; returns the op's result.

        Bulk-bitwise ops return a :class:`~repro.core.bulk_bitwise.BulkResult`;
        ADD returns an :class:`~repro.core.addition.AdditionResult` computed
        per ``blocksize`` segment; other ops return their unit's result type.
        With telemetry attached the dispatch runs inside a ``cpim.<op>``
        span annotated with the DBC's cycle/energy deltas and feeds the
        per-op TR-count histogram.
        """
        hub = self.telemetry
        if hub is None:
            result = self._dispatch(instruction)
            self._notify_op()
            return result
        op_name = instruction.op.name.lower()
        dbc = self._dbc(instruction.src)
        with hub.tracer.span(f"cpim.{op_name}", category="cpim") as span:
            cycles_before = dbc.stats.cycles
            energy_before = dbc.stats.energy_pj
            trs_before = dbc.stats.count("transverse_read")
            result = self._dispatch(instruction)
            cycles = dbc.stats.cycles - cycles_before
            energy = dbc.stats.energy_pj - energy_before
            trs = dbc.stats.count("transverse_read") - trs_before
            span.annotate(
                cycles=cycles,
                energy_pj=round(energy, 3),
                transverse_reads=trs,
            )
            hub.emit(
                "cpim.op", op=op_name, cycles=cycles, energy_pj=energy,
                trs=trs,
            )
        self._notify_op()
        return result

    def _dispatch(self, instruction: CpimInstruction):
        dbc = self._dbc(instruction.src)
        if not dbc.pim_enabled:
            raise ValueError(
                f"cpim targets non-PIM DBC at {instruction.src}"
            )
        self.stats.pim_ops += 1
        op = instruction.op
        if op in _BULK_OPS:
            unit = BulkBitwiseUnit(dbc)
            return unit.execute(_BULK_OPS[op], instruction.operands)
        if op is CpimOp.ADD:
            adder = MultiOperandAdder(dbc)
            blocks = dbc.tracks // instruction.blocksize
            return adder.run(
                instruction.operands,
                result_bits=instruction.blocksize,
                blocks=blocks,
                block_stride=instruction.blocksize,
            )
        if op is CpimOp.MAX:
            unit = MaxUnit(dbc)
            return unit.run(n_bits=instruction.blocksize)
        if op is CpimOp.REDUCE:
            reducer = CarrySaveReducer(dbc)
            rows = [
                dbc.peek_window_slot(slot)
                for slot in range(instruction.operands)
            ]
            return reducer.reduce_once(rows)
        if op is CpimOp.VOTE:
            voter = ModularRedundancy(dbc)
            replicas = [
                dbc.peek_window_slot(slot)
                for slot in range(instruction.operands)
            ]
            return voter.vote(replicas)
        raise NotImplementedError(
            f"cpim op {op.name} requires staged operand data; use the "
            "core units directly or repro.sim.system"
        )

    # ------------------------------------------------------------------

    def _dbc(self, address: Address):
        dbc = (
            self.memory.bank(address.bank)
            .subarray(address.subarray)
            .tile(address.tile)
            .dbc(address.dbc)
        )
        if self.telemetry is not None and dbc.stats.sink is None:
            # Lazily-materialised clusters join the telemetry stream the
            # first time the controller touches them.
            self.telemetry.watch(dbc.stats)
            dbc.tracer = self.telemetry.tracer
        return dbc

    def _account_access(
        self, address: Address, shifts: int, is_write: bool
    ) -> bool:
        """Charge one access's cycles; returns True on a row-buffer hit."""
        timings = self.memory.timings
        key = (address.bank, address.subarray, address.tile, address.dbc)
        open_row = self._open_rows.get(key)
        hit = open_row == address.row
        if hit:
            # Row hits skip activation for writes too: only the column
            # access (reads) or write recovery (writes) is due.
            cycles = (
                timings.row_hit_write_cycles()
                if is_write
                else timings.row_hit_read_cycles()
            )
            self.stats.row_hits += 1
        elif is_write:
            cycles = timings.row_miss_write_cycles(shifts)
            self.stats.row_misses += 1
        else:
            cycles = timings.row_miss_read_cycles(shifts)
            self.stats.row_misses += 1
        self._open_rows[key] = address.row
        self.stats.memory_cycles += cycles
        return hit
