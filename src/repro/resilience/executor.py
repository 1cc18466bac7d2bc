"""Transactional, self-healing execution of cpim instructions.

:class:`ResilientExecutor` wraps :meth:`MemoryController.execute` with
the full recovery ladder the paper assumes external schemes provide:

1. **remap** — work aimed at a FAILED DBC is moved to a healthy one
   (:func:`~repro.arch.placement.remap_pim_dbc`);
2. **detect** — the attempt runs with re-read voting in the sense path
   and ends with a guard-row position check;
3. **retry** — a suspect attempt (unresolved vote, misalignment, data
   loss) is rolled back to the pre-op snapshot and re-executed, up to
   ``RetryPolicy.max_attempts`` times, with every extra cycle accounted;
4. **escalate** — persistent disagreement triggers N-modular-redundant
   re-execution with a majority vote over the result signatures, realised
   in-memory through the C' circuit when the result rows fit the window;
5. **typed error** — if even the NMR replicas cannot agree the op raises
   :class:`UncorrectableFaultError` and the DBC's health record is
   charged, eventually degrading and retiring the cluster.

With an :class:`~repro.resilience.breaker.AdaptiveProtection` ladder
attached, the executor additionally *adapts*: per-DBC observed fault
rates choose between the bare pipeline (no voting), the voted sense
path, and proactively NMR-redundant execution, with every op's outcome
fed back to the ladder.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.arch.controller import MemoryController
from repro.arch.placement import remap_pim_dbc
from repro.chaos import hooks as chaos_hooks
from repro.core.isa import CpimInstruction
from repro.core.nmr import ModularRedundancy
from repro.resilience.breaker import AdaptiveProtection, ProtectionLevel
from repro.resilience.detector import FaultDetector
from repro.resilience.errors import (
    BudgetExhaustedError,
    DataLossError,
    ResilienceError,
    UncorrectableFaultError,
)
from repro.resilience.health import DBCHealthRegistry, dbc_key
from repro.resilience.policy import RetryPolicy
from repro.telemetry.spans import NULL_TRACER
from repro.utils.bitops import bits_from_int
from repro.utils.deadline import Deadline


@dataclass
class RecoveryStats:
    """Aggregate recovery accounting across all executed operations."""

    operations: int = 0
    attempts: int = 0
    retries: int = 0
    escalations: int = 0
    escalation_corrected: int = 0
    nmr_ops: int = 0
    nmr_widenings: int = 0
    hw_votes: int = 0
    faults_detected: int = 0
    faults_corrected_inline: int = 0
    misalignments_repaired: int = 0
    data_loss_events: int = 0
    uncorrectable: int = 0
    budget_exhausted: int = 0
    remaps: int = 0
    overhead_cycles: int = 0

    @property
    def faults_corrected(self) -> int:
        """Faults neutralised by any rung of the ladder."""
        return self.faults_corrected_inline + self.misalignments_repaired

    def as_dict(self) -> dict:
        """Non-destructive counter snapshot for JSON export."""
        from dataclasses import asdict

        snapshot = asdict(self)
        snapshot["faults_corrected"] = self.faults_corrected
        return snapshot


def result_signature(result: Any) -> Any:
    """A hashable signature of an op result for majority voting."""
    for attr in ("values", "bits", "rows"):
        value = getattr(result, attr, None)
        if value is not None:
            return tuple(
                tuple(v) if isinstance(v, list) else v for v in value
            )
    value = getattr(result, "value", None)
    if value is not None:
        return value
    return repr(result)


def result_row_bits(
    result: Any, blocksize: int, tracks: int
) -> Optional[List[int]]:
    """An op result as one DBC-wide bit row, or None if not row-shaped.

    Used to realise the escalation vote through the in-memory majority
    (C') circuit: bulk results expose their row directly; ADD results
    are re-packed from the per-block sums at ``blocksize`` tracks each.
    """
    bits = getattr(result, "bits", None)
    if bits is not None and len(bits) == tracks:
        return list(bits)
    values = getattr(result, "values", None)
    if values is not None and blocksize >= 1:
        row: List[int] = []
        for value in values:
            row.extend(bits_from_int(value % (1 << blocksize), blocksize))
        if len(row) <= tracks:
            return row + [0] * (tracks - len(row))
    return None


class ResilientExecutor:
    """Detect/retry/escalate wrapper around a :class:`MemoryController`."""

    def __init__(
        self,
        controller: MemoryController,
        policy: Optional[RetryPolicy] = None,
        registry: Optional[DBCHealthRegistry] = None,
        breaker: Optional[AdaptiveProtection] = None,
    ) -> None:
        self.controller = controller
        self.policy = policy or RetryPolicy()
        self.registry = registry or DBCHealthRegistry(
            degrade_after=self.policy.degrade_after,
            fail_after=self.policy.fail_after,
        )
        self.detector = FaultDetector(self.policy)
        self.breaker = breaker
        self.stats = RecoveryStats()
        # Optional TelemetryHub; when set, every execute() runs inside a
        # ``resilience.op`` span annotated with its fault verdict.
        self.telemetry = None

    # ------------------------------------------------------------------

    def attach_telemetry(self, hub) -> None:
        """Trace/measure every operation through ``hub`` from now on."""
        self.telemetry = hub

    def _tracer(self):
        hub = self.telemetry
        return hub.tracer if hub is not None else NULL_TRACER

    def execute(
        self,
        instruction: CpimInstruction,
        deadline: Optional[Deadline] = None,
    ):
        """Run one cpim instruction under the recovery ladder.

        Returns the same result object :meth:`MemoryController.execute`
        would; raises :class:`UncorrectableFaultError` only after retries
        and NMR escalation are both exhausted. With a ``deadline``, the
        ladder checks the budget *between* attempts (and between NMR
        replicas) and abandons the op with :class:`BudgetExhaustedError`
        — after restoring the pre-op snapshot — instead of retrying past
        it. Background maintenance hooks (scrubbing) are deferred until
        the transaction commits. With telemetry attached the whole
        ladder runs inside a ``resilience.op`` span whose ``verdict``
        attribute records how the op resolved (clean / retried /
        escalated / uncorrectable / expired).
        """
        hub = self.telemetry
        if hub is None:
            return self._execute_inner(instruction, deadline)
        before_attempts = self.stats.attempts
        before_retries = self.stats.retries
        before_escalations = self.stats.escalations
        before_nmr = self.stats.nmr_ops
        op_name = instruction.op.name.lower()
        with hub.tracer.span(
            "resilience.op", category="resilience", op=op_name
        ) as span:
            try:
                result = self._execute_inner(instruction, deadline)
            except ResilienceError as exc:
                attempts = max(1, self.stats.attempts - before_attempts)
                verdict = (
                    "expired"
                    if isinstance(exc, BudgetExhaustedError)
                    else "uncorrectable"
                )
                span.annotate(attempts=attempts, verdict=verdict)
                hub.emit("resilience.op", attempts=attempts, verdict=verdict)
                raise
            attempts = max(1, self.stats.attempts - before_attempts)
            escalated = (
                self.stats.escalations > before_escalations
                or self.stats.nmr_ops > before_nmr
            )
            if escalated:
                verdict = "escalated"
            elif self.stats.retries > before_retries:
                verdict = "retried"
            else:
                verdict = "clean"
            span.annotate(attempts=attempts, verdict=verdict)
            hub.emit("resilience.op", attempts=attempts, verdict=verdict)
            return result

    def _execute_inner(
        self,
        instruction: CpimInstruction,
        deadline: Optional[Deadline] = None,
    ):
        # Chaos: device-level give-up. Raising UncorrectableFaultError
        # here exercises the same escape path a real ladder exhaustion
        # takes (kernel golden-check -> KernelFault -> dispatcher retry).
        chaos_hooks.fire(
            chaos_hooks.SITE_RESILIENCE_EXECUTE, op=instruction.op.name
        )
        with self.controller.deferred_hooks():
            instruction = self._remap(instruction)
            key = dbc_key(instruction.src)
            dbc = self.controller._dbc(instruction.src)
            self.stats.operations += 1
            level: Optional[ProtectionLevel] = None
            if self.breaker is not None:
                level = self.breaker.level(key)
            faults = 0
            try:
                if level is ProtectionLevel.NMR:
                    result, faults = self._nmr_op(instruction, dbc, deadline)
                else:
                    result, faults = self._ladder_op(
                        instruction, dbc, key, level, deadline
                    )
                return result
            except BudgetExhaustedError:
                # An expired budget is the caller's clock, not a device
                # fault: the breaker only hears about the real faults
                # the attempts saw (already counted above).
                raise
            except ResilienceError:
                faults += 1
                raise
            finally:
                if self.breaker is not None:
                    self.breaker.record(key, faults > 0)

    # ------------------------------------------------------------------
    # internals

    def _check_budget(self, deadline, dbc, snapshot, context: str) -> None:
        """Abandon the op cleanly if the caller's budget has expired."""
        if deadline is None or not deadline.expired:
            return
        dbc.restore(snapshot)
        self.stats.budget_exhausted += 1
        raise BudgetExhaustedError(f"deadline expired {context}")

    def _ladder_op(
        self,
        instruction: CpimInstruction,
        dbc,
        key,
        level: Optional[ProtectionLevel],
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Any, int]:
        """The detect -> retry -> escalate ladder for one instruction."""
        snapshot = dbc.snapshot()
        reads = 1 if level is ProtectionLevel.BARE else None
        self.detector.arm(dbc, reads=reads)
        op_start = dbc.stats.cycles
        first_attempt_base: Optional[int] = None
        faults = 0

        for attempt in range(1, self.policy.max_attempts + 1):
            if attempt > 1:
                self._check_budget(
                    deadline, dbc, snapshot,
                    f"before retry attempt {attempt}",
                )
                dbc.restore(snapshot)
                self.stats.retries += 1
                self._tracer().instant(
                    "resilience.retry",
                    category="resilience",
                    attempt=attempt,
                    op=instruction.op.name.lower(),
                )
            self.stats.attempts += 1
            self.detector.mark(dbc)
            start = dbc.stats.cycles
            vote_overhead_start = dbc.vote_stats.overhead_cycles
            try:
                result = self.controller.execute(instruction)
            except DataLossError:
                # A faulty over-shift ejected data: the attempt is
                # unrecoverable in place, but the snapshot restores it.
                self.stats.data_loss_events += 1
                self.stats.faults_detected += 1
                faults += 1
                self.registry.record_transient(key)
                continue
            report = self.detector.scan(dbc)
            self.stats.faults_detected += report.faults_detected
            self.stats.faults_corrected_inline += report.corrected
            faults += report.faults_detected
            if report.misaligned_tracks:
                dbc.realign()
                self.stats.misalignments_repaired += len(
                    report.misaligned_tracks
                )
            if first_attempt_base is None:
                vote_extra = (
                    dbc.vote_stats.overhead_cycles - vote_overhead_start
                )
                first_attempt_base = (
                    dbc.stats.cycles
                    - start
                    - vote_extra
                    - report.check_cycles
                )
            if report.clean:
                self._commit(dbc, op_start, first_attempt_base)
                if attempt > 1:
                    self.registry.record_transient(key)
                return result, faults
            self.registry.record_transient(key)

        self._check_budget(
            deadline, dbc, snapshot, "before NMR escalation"
        )
        result, nmr_faults, _ = self._nmr_execute(
            instruction, dbc, snapshot, reactive=True, deadline=deadline
        )
        faults += nmr_faults
        self._commit(dbc, op_start, first_attempt_base or 0)
        return result, faults

    def _nmr_op(
        self,
        instruction: CpimInstruction,
        dbc,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Any, int]:
        """Proactively NMR-redundant execution (the ladder's open state)."""
        snapshot = dbc.snapshot()
        self.detector.arm(dbc)
        op_start = dbc.stats.cycles
        self.stats.nmr_ops += 1
        result, faults, base = self._nmr_execute(
            instruction, dbc, snapshot, reactive=False, deadline=deadline
        )
        self._commit(dbc, op_start, base)
        return result, faults

    def _commit(self, dbc, op_start: int, base_cycles: int) -> None:
        """Charge everything beyond one clean execution as overhead."""
        total = dbc.stats.cycles - op_start
        self.stats.overhead_cycles += max(0, total - base_cycles)

    def _nmr_execute(
        self,
        instruction: CpimInstruction,
        dbc,
        snapshot,
        reactive: bool,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Any, int, int]:
        """Span-wrapped entry to :meth:`_nmr_execute_inner`."""
        with self._tracer().span(
            "resilience.nmr",
            category="resilience",
            reactive=reactive,
            op=instruction.op.name.lower(),
        ) as span:
            result, faults, base = self._nmr_execute_inner(
                instruction, dbc, snapshot, reactive, deadline
            )
            span.annotate(faults=faults)
            return result, faults, base

    def _nmr_execute_inner(
        self,
        instruction: CpimInstruction,
        dbc,
        snapshot,
        reactive: bool,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Any, int, int]:
        """NMR re-execution: majority over result signatures or give up.

        ``reactive`` marks the retry ladder's escalation rung (counted as
        an escalation, always charged as a transient on success); the
        proactive path is the adaptive ladder's NMR mode. Returns
        ``(result, faults_seen, base_cycles)`` where ``base_cycles`` is
        one clean replica's compute cost (for overhead accounting).
        """
        key = dbc_key(instruction.src)
        if reactive:
            self.stats.escalations += 1
        n = self.policy.escalation_nmr
        # Adaptive NMR widening: when the starting redundancy degree
        # can't form a majority, widen through the supported degrees
        # before giving the op up as uncorrectable.
        widths = [n] + [w for w in ModularRedundancy.SUPPORTED if w > n]
        faults = 0
        base_cycles = 0
        for width in widths:
            if width != n:
                self._check_budget(
                    deadline, dbc, snapshot,
                    f"before widening NMR to {width} replicas",
                )
                self.stats.nmr_widenings += 1
            outcomes = []
            for _ in range(width):
                self._check_budget(
                    deadline, dbc, snapshot, "between NMR replicas"
                )
                # A replica slot that detects its own fault (data loss,
                # misalignment, unresolved sense vote) re-runs rather
                # than abstaining: hardware NMR realigns and re-executes
                # the module, it does not vote with a missing input.
                replica = None
                for _ in range(max(1, self.policy.max_attempts)):
                    dbc.restore(snapshot)
                    self.detector.mark(dbc)
                    start = dbc.stats.cycles
                    vote_overhead_start = dbc.vote_stats.overhead_cycles
                    unresolved_before = dbc.vote_stats.unresolved
                    try:
                        candidate = self.controller.execute(instruction)
                    except DataLossError:
                        self.stats.data_loss_events += 1
                        faults += 1
                        continue
                    if (
                        self.policy.position_check
                        and dbc.position_error_check()
                    ):
                        dbc.realign()
                        faults += 1
                        continue
                    if dbc.vote_stats.unresolved > unresolved_before:
                        faults += 1
                        continue
                    replica = candidate
                    break
                if replica is None:
                    continue
                if not base_cycles:
                    vote_extra = (
                        dbc.vote_stats.overhead_cycles - vote_overhead_start
                    )
                    base_cycles = dbc.stats.cycles - start - vote_extra
                outcomes.append((result_signature(replica), replica))
            if not outcomes:
                continue
            counts = Counter(signature for signature, _ in outcomes)
            signature, votes = counts.most_common(1)[0]
            if len(counts) > 1:
                # Replica divergence is itself a detected fault, even
                # though the majority resolves it.
                faults += 1
                self.stats.faults_detected += 1
            if votes > width // 2:
                winner = next(r for s, r in outcomes if s == signature)
                self._hardware_vote(
                    dbc, snapshot, instruction, [r for _, r in outcomes]
                )
                if reactive:
                    self.stats.escalation_corrected += 1
                    self.registry.record_transient(key)
                elif faults:
                    self.registry.record_transient(key)
                return winner, faults, base_cycles
        self.stats.uncorrectable += 1
        status = self.registry.record_uncorrectable(key)
        raise UncorrectableFaultError(
            f"cpim {instruction.op.name} on DBC {key} failed "
            f"{self.policy.max_attempts} attempts and up to "
            f"{widths[-1]}-MR escalation (DBC now {status.value})"
        )

    def _hardware_vote(
        self,
        dbc,
        snapshot,
        instruction: CpimInstruction,
        replicas: Sequence[Any],
    ) -> None:
        """Realise the replica vote through the in-memory C' circuit.

        When every replica result can be expressed as a DBC row and the
        redundancy degree fits the TR window, the majority is recomputed
        by :class:`~repro.core.nmr.ModularRedundancy` — the paper's NMR
        path — so its staging and TR cost land in the DBC stats. A
        strict signature majority guarantees the bitwise vote agrees, so
        only the accounting (not the result) depends on this step.
        """
        rows = [
            result_row_bits(r, instruction.blocksize, dbc.tracks)
            for r in replicas
        ]
        if any(row is None for row in rows):
            return
        if len(rows) not in ModularRedundancy.SUPPORTED:
            return
        voter = ModularRedundancy(dbc)
        if not voter._fits(len(rows)):
            return
        dbc.restore(snapshot)
        voter.vote(rows)
        self.stats.hw_votes += 1

    def _remap(self, instruction: CpimInstruction) -> CpimInstruction:
        """Move the instruction off a FAILED DBC, if its home is retired."""
        src = instruction.src
        if self.registry.is_usable(dbc_key(src)):
            return instruction
        bank, subarray = remap_pim_dbc(
            src.bank,
            src.subarray,
            self.controller.memory.geometry,
            self.registry.is_usable,
            tile=src.tile,
            dbc=src.dbc,
        )
        self.stats.remaps += 1
        new_src = replace(src, bank=bank, subarray=subarray)
        dest = instruction.dest
        if (dest.bank, dest.subarray) == (src.bank, src.subarray):
            dest = replace(dest, bank=bank, subarray=subarray)
        return replace(instruction, src=new_src, dest=dest)
