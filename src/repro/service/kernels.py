"""The kernel catalogue: each served kernel's runner and payload generator.

Adding a kernel means adding one :class:`Kernel` to :data:`CATALOGUE`.
A generator takes (rng, trd, tracks) and draws only payloads that device
accepts; no cap binds at TRD 7 and 64 tracks, the default profile. A
runner takes (system, payload, deadline), validates the payload (raising
:class:`BadRequest` — never retried), computes the kernel on the
worker's :class:`CoruscantSystem`, and checks the device answer against
a host-side golden model. A mismatch means a fault escaped the
device-level ladder silently; the runner surfaces it as a retryable
:class:`KernelFault` with verdict ``corrupted`` so the dispatcher's
retry loop gets a fresh shot instead of shipping a wrong answer.

``add`` and ``bulk-op`` go through the cpim instruction path —
``system.execute(instruction, deadline)`` — so the resilient executor's
retry/NMR ladder (and its deadline-aware shedding) runs under them.
The other kernels use the facade or workload engines, which have no
instruction form; their resilience comes from the service-layer golden
check plus the dispatcher's retry loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.chaos import hooks as chaos_hooks
from repro.core.addition import max_addition_operands
from repro.core.isa import BLOCK_SIZES, Address, CpimInstruction, CpimOp
from repro.core.pim_logic import InconsistentLevelError
from repro.device.nanowire import DataLossError
from repro.service.protocol import BadRequest, KernelFault
from repro.telemetry.context import TraceContext, use_context
from repro.telemetry.profiler import tag_thread
from repro.utils.deadline import Deadline

_ORIGIN = Address(bank=0, subarray=0, tile=0, dbc=0, row=0)

#: Host-side reference for each bulk op, applied per track column.
_BULK_GOLDEN: Dict[str, Callable[[Sequence[int]], int]] = {
    "AND": lambda col: int(all(col)),
    "NAND": lambda col: 1 - int(all(col)),
    "OR": lambda col: int(any(col)),
    "NOR": lambda col: 1 - int(any(col)),
    "XOR": lambda col: sum(col) % 2,
    "XNOR": lambda col: 1 - sum(col) % 2,
    "NOT": lambda col: 1 - col[0],
}


def _require(payload: Dict[str, Any], key: str, kind: type) -> Any:
    if key not in payload:
        raise BadRequest(f"payload is missing {key!r}")
    value = payload[key]
    if kind is int and isinstance(value, bool):
        raise BadRequest(f"{key!r} must be an integer, not a bool")
    if not isinstance(value, kind):
        raise BadRequest(
            f"{key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _int_list(payload: Dict[str, Any], key: str) -> List[int]:
    raw = _require(payload, key, list)
    if not raw:
        raise BadRequest(f"{key!r} must be non-empty")
    for item in raw:
        if isinstance(item, bool) or not isinstance(item, int):
            raise BadRequest(f"{key!r} must hold only integers")
    return list(raw)


def _check_bits(bits: List[int], label: str, tracks: int) -> List[int]:
    if not bits:
        raise BadRequest(f"{label} must be non-empty")
    for b in bits:
        if isinstance(b, bool) or b not in (0, 1):
            raise BadRequest(f"{label} must hold only 0/1 bits")
    if len(bits) > tracks:
        raise BadRequest(
            f"{label} has {len(bits)} bits; the DBC holds {tracks}"
        )
    return list(bits)


def _bit_row(payload: Dict[str, Any], key: str, tracks: int) -> List[int]:
    return _check_bits(_int_list(payload, key), repr(key), tracks)


# ----------------------------------------------------------------------
# kernels


def run_add(system, payload: Dict[str, Any], deadline: Deadline) -> Dict:
    """Multi-operand addition through the resilient instruction path."""
    from repro.core.addition import MultiOperandAdder
    from repro.resilience.errors import UncorrectableFaultError

    words = _int_list(payload, "words")
    n_bits = _require(payload, "n_bits", int)
    if not 1 <= n_bits <= 64:
        raise BadRequest(f"n_bits must be in [1, 64], got {n_bits}")
    if any(not 0 <= w < (1 << n_bits) for w in words):
        raise BadRequest(f"words must fit in {n_bits} bits")
    dbc = system.pim_dbc()
    blocksize = payload.get("blocksize", 16)
    if blocksize not in BLOCK_SIZES or blocksize > dbc.tracks:
        raise BadRequest(
            f"blocksize must be one of "
            f"{[b for b in BLOCK_SIZES if b <= dbc.tracks]}, "
            f"got {blocksize}"
        )
    if blocksize < n_bits:
        raise BadRequest(
            f"blocksize {blocksize} cannot hold {n_bits}-bit operands"
        )
    adder = MultiOperandAdder(dbc)
    if len(words) > adder.max_operands:
        raise BadRequest(
            f"{len(words)} operands exceed the TRD-{system.trd} "
            f"limit of {adder.max_operands}"
        )
    adder.stage_words(words, n_bits, zero_extend_to=blocksize)
    instruction = CpimInstruction(
        op=CpimOp.ADD,
        blocksize=blocksize,
        src=_ORIGIN,
        dest=_ORIGIN,
        operands=len(words),
    )
    golden = sum(words) % (1 << blocksize)
    try:
        outcome = system.execute(instruction, deadline=deadline)
    except UncorrectableFaultError as exc:
        raise KernelFault("uncorrectable", str(exc)) from exc
    if outcome.values[0] != golden:
        raise KernelFault(
            "corrupted",
            f"add returned {outcome.values[0]}, golden {golden}",
        )
    return {"sum": outcome.values[0], "cycles": outcome.cycles}


def run_bulk_op(
    system, payload: Dict[str, Any], deadline: Deadline
) -> Dict:
    """Multi-operand bulk-bitwise op through the instruction path."""
    from repro.core.bulk_bitwise import BulkBitwiseUnit
    from repro.resilience.errors import UncorrectableFaultError

    op_name = _require(payload, "op", str).upper()
    if op_name not in _BULK_GOLDEN:
        raise BadRequest(
            f"op must be one of {sorted(_BULK_GOLDEN)}, got {op_name!r}"
        )
    raw_rows = _require(payload, "operands", list)
    if not raw_rows or not all(isinstance(r, list) for r in raw_rows):
        raise BadRequest("'operands' must be a non-empty list of rows")
    dbc = system.pim_dbc()
    rows = [
        _check_bits(row, f"operand row {i}", dbc.tracks)
        for i, row in enumerate(raw_rows)
    ]
    if op_name == "NOT":
        if len(rows) != 1:
            raise BadRequest("NOT takes exactly one operand row")
    elif not 2 <= len(rows) <= dbc.window_size:
        raise BadRequest(
            f"{op_name} takes 2..{dbc.window_size} operand rows, "
            f"got {len(rows)}"
        )
    width = max(len(r) for r in rows)
    padded = [r + [0] * (dbc.tracks - len(r)) for r in rows]
    unit = BulkBitwiseUnit(dbc)
    from repro.core.pim_logic import BulkOp

    unit.stage_operands(BulkOp[op_name], padded)
    instruction = CpimInstruction(
        op=CpimOp[op_name],
        blocksize=16,
        src=_ORIGIN,
        dest=_ORIGIN,
        operands=len(rows),
    )
    golden = [
        _BULK_GOLDEN[op_name]([row[i] for row in padded])
        for i in range(width)
    ]
    try:
        outcome = system.execute(instruction, deadline=deadline)
    except UncorrectableFaultError as exc:
        raise KernelFault("uncorrectable", str(exc)) from exc
    got = outcome.bits[:width]
    if got != golden:
        raise KernelFault(
            "corrupted", f"bulk {op_name} result differs from golden"
        )
    return {"op": op_name, "bits": got, "cycles": outcome.cycles}


def run_multiply(
    system, payload: Dict[str, Any], deadline: Deadline
) -> Dict:
    """Carry-save multiplication via the facade, golden-checked."""
    a = _require(payload, "a", int)
    b = _require(payload, "b", int)
    n_bits = _require(payload, "n_bits", int)
    if not 1 <= n_bits <= 16:
        raise BadRequest(f"n_bits must be in [1, 16], got {n_bits}")
    if not 0 <= a < (1 << n_bits) or not 0 <= b < (1 << n_bits):
        raise BadRequest(f"a and b must fit in {n_bits} bits")
    tracks = system.memory.geometry.tracks_per_dbc
    if 2 * n_bits > tracks:
        raise BadRequest(
            f"a {2 * n_bits}-bit product exceeds the DBC's {tracks} tracks"
        )
    outcome = system.multiply(a, b, n_bits)
    golden = (a * b) % (1 << (2 * n_bits))
    if outcome.value != golden:
        raise KernelFault(
            "corrupted",
            f"multiply returned {outcome.value}, golden {golden}",
        )
    return {"product": outcome.value, "cycles": outcome.cycles}


def run_popcount(
    system, payload: Dict[str, Any], deadline: Deadline
) -> Dict:
    """TR-group popcount of one row, golden-checked against sum()."""
    tracks = system.memory.geometry.tracks_per_dbc
    bits = _bit_row(payload, "bits", tracks)
    count = system.popcount(bits)
    golden = sum(bits)
    if count != golden:
        raise KernelFault(
            "corrupted", f"popcount returned {count}, golden {golden}"
        )
    return {"count": count, "width": len(bits)}


def run_bitmap_query(
    system, payload: Dict[str, Any], deadline: Deadline
) -> Dict:
    """The Section V-D weekly-activity query on an in-DBC database."""
    from repro.workloads.bitmap import (
        weekly_activity_database,
        weekly_query,
    )
    from repro.workloads.query import And, Attr, QueryEngine

    users = _require(payload, "users", int)
    weeks = _require(payload, "weeks", int)
    seed = payload.get("seed", 7)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise BadRequest("'seed' must be an integer")
    tracks = system.memory.geometry.tracks_per_dbc
    if not 1 <= users <= tracks:
        raise BadRequest(
            f"users must be in [1, {tracks}] (one track per user)"
        )
    if not 1 <= weeks <= 8:
        raise BadRequest(f"weeks must be in [1, 8], got {weeks}")
    db = weekly_activity_database(
        num_users=users, weeks=weeks, seed=seed
    )
    query = weekly_query(weeks)
    engine = QueryEngine(system, db)
    tree = And(*[Attr(name) for name in query.criteria])
    outcome = engine.run(tree)
    golden = query.evaluate(db)
    if outcome.count != golden:
        raise KernelFault(
            "corrupted",
            f"query counted {outcome.count}, golden {golden}",
        )
    return {
        "count": outcome.count,
        "users": users,
        "weeks": weeks,
        "tr_passes": outcome.tr_passes,
        "cycles": outcome.cycles,
    }


def run_cnn_infer(
    system, payload: Dict[str, Any], deadline: Deadline
) -> Dict:
    """Tiny conv->relu->pool->dense pipeline on the PIM engine.

    The workload generates its deterministic inputs from ``seed`` so a
    retry replays the identical inference; the engine runs at the
    profile's TRD.
    """
    import numpy as np

    from repro.workloads.cnn.inference import (
        reference_pipeline,
        run_tiny_cnn,
    )

    seed = payload.get("seed", 0)
    size = payload.get("size", 6)
    for name, value in (("seed", seed), ("size", size)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadRequest(f"{name!r} must be an integer")
    if not 4 <= size <= 12:
        raise BadRequest(f"size must be in [4, 12], got {size}")
    # The PIM engine's predicated multiplier takes unsigned operands,
    # so inputs draw from the same 4-bit range the paper's CNN uses.
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 16, size=(size, size), dtype=np.int64)
    kernel = rng.integers(0, 16, size=(3, 3), dtype=np.int64)
    pooled = ((size - 2) // 2) ** 2
    fc_weights = rng.integers(0, 16, size=(4, pooled), dtype=np.int64)
    logits, engine = run_tiny_cnn(
        image, kernel, fc_weights, trd=system.trd
    )
    golden = reference_pipeline(image, kernel, fc_weights)
    if list(logits) != list(golden):
        raise KernelFault("corrupted", "cnn logits differ from golden")
    return {
        "logits": [int(v) for v in logits],
        "size": size,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# payload generators


def _payload_add(rng, trd: int, tracks: int) -> Dict:
    n_bits = 8
    count = rng.randint(2, min(5, max_addition_operands(trd)))
    words = [rng.randrange(1 << n_bits) for _ in range(count)]
    if tracks < 16:
        return {"words": words, "n_bits": n_bits, "blocksize": 8}
    return {"words": words, "n_bits": n_bits}


def _payload_multiply(rng, trd: int, tracks: int) -> Dict:
    n_bits = min(8, tracks // 2)
    return {
        "a": rng.randrange(1 << n_bits),
        "b": rng.randrange(1 << n_bits),
        "n_bits": n_bits,
    }


def _payload_popcount(rng, trd: int, tracks: int) -> Dict:
    width = rng.randint(8, min(32, tracks))
    return {"bits": [rng.randint(0, 1) for _ in range(width)]}


def _payload_bulk_op(rng, trd: int, tracks: int) -> Dict:
    op = rng.choice(("AND", "OR", "XOR", "NOR"))
    rows = rng.randint(2, min(4, trd))
    width = rng.randint(4, min(16, tracks))
    return {
        "op": op,
        "operands": [
            [rng.randint(0, 1) for _ in range(width)] for _ in range(rows)
        ],
    }


def _payload_bitmap_query(rng, trd: int, tracks: int) -> Dict:
    return {
        "users": rng.randint(8, min(32, tracks)),
        "weeks": rng.randint(1, 3),
        "seed": rng.randrange(1 << 16),
    }


def _payload_cnn_infer(rng, trd: int, tracks: int) -> Dict:
    return {"seed": rng.randrange(1 << 16), "size": rng.randint(4, 6)}


class Kernel(NamedTuple):
    """One served kernel: its runner and its payload generator."""

    run: Callable[[Any, Dict[str, Any], Deadline], Dict]
    payload: Callable[[Any, int, int], Dict]


#: Every served kernel, in admission round-robin order.
CATALOGUE: Dict[str, Kernel] = {
    "add": Kernel(run_add, _payload_add),
    "multiply": Kernel(run_multiply, _payload_multiply),
    "bulk-op": Kernel(run_bulk_op, _payload_bulk_op),
    "popcount": Kernel(run_popcount, _payload_popcount),
    "bitmap-query": Kernel(run_bitmap_query, _payload_bitmap_query),
    "cnn-infer": Kernel(run_cnn_infer, _payload_cnn_infer),
}

KERNELS = tuple(CATALOGUE)


def run_traced(
    system,
    kernel: str,
    payload: Dict[str, Any],
    deadline: Deadline,
    telemetry,
    context: Optional[TraceContext] = None,
    profile: Optional[str] = None,
) -> Dict:
    """Run one kernel inside a ``service.execute`` span on this thread.

    This is the worker-thread trace bridge: the dispatcher hands the
    request's :class:`TraceContext` to its worker's own kernel thread,
    this function binds it as the ambient context *in that thread*,
    and opens the ``service.execute`` span under it — so every span the
    simulator opens below (``resilience.op``, ``cpim.add``, ...) nests
    inside the same trace by plain thread-local stacking.

    ``profile`` (the worker's device-profile name) tags the executing
    thread for the sampling profiler, so wall samples fold under
    ``profile:<name>;...``.
    """
    run = CATALOGUE[kernel].run
    with tag_thread(profile), use_context(context):
        with telemetry.tracer.span(
            "service.execute", category="service", kernel=kernel
        ) as span:
            try:
                # Chaos: kernel-level latency/fault injection (worker
                # thread — a blocking sleep here models the device
                # going slow without touching the event loop). May
                # raise KernelFault.
                chaos_hooks.fire(
                    chaos_hooks.SITE_KERNEL_EXECUTE, kernel=kernel
                )
                try:
                    return run(system, payload, deadline)
                except (InconsistentLevelError, OverflowError) as exc:
                    # A TR level or a carry no fault-free run of a
                    # validated payload can produce: a detected misread.
                    raise KernelFault("misread", str(exc)) from exc
                except DataLossError as exc:
                    raise KernelFault("data_loss", str(exc)) from exc
            except KernelFault as exc:
                span.annotate(verdict=exc.verdict)
                raise


__all__ = ["CATALOGUE", "KERNELS", "Kernel", "run_traced"]
