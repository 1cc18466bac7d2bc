"""The CORUSCANT system facade.

One object tying the pieces together: a main memory with PIM-enabled
DBCs, a memory controller, and convenience methods for the PIM
operations so applications don't wire units by hand. This is the entry
point `examples/` build on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple, Union

from repro.arch.controller import MemoryController
from repro.arch.dbc import DomainBlockCluster
from repro.arch.geometry import MemoryGeometry
from repro.arch.memory import MainMemory
from repro.arch.placement import remap_pim_dbc
from repro.core.addition import AdditionResult, MultiOperandAdder
from repro.core.bulk_bitwise import BulkBitwiseUnit, BulkResult
from repro.core.maxpool import MaxResult, MaxUnit
from repro.core.multiplication import Multiplier, MultiplyResult
from repro.core.nmr import ModularRedundancy, VoteResult
from repro.core.pim_logic import BulkOp
from repro.device.faults import FaultConfig, FaultInjector
from repro.device.parameters import DeviceParameters
from repro.resilience.breaker import AdaptiveProtection, BreakerConfig
from repro.resilience.executor import ResilientExecutor
from repro.resilience.health import DBCHealthRegistry
from repro.resilience.policy import RetryPolicy
from repro.resilience.scrub import ScrubEngine
from repro.telemetry.hub import TelemetryHub


class CoruscantSystem:
    """A DWM main memory with CORUSCANT PIM, ready to compute.

    Args:
        trd: transverse-read distance (3, 5 or 7).
        geometry: memory shape; defaults to the Table II configuration.
        fault_config: optional fault injection for reliability studies.
        resilience: ``True`` (default :class:`RetryPolicy`) or a policy
            object to run PIM work under the resilient execution layer:
            re-read voting in the sense path, transactional
            retry/escalation through :attr:`executor`, and health-aware
            remapping of failed DBCs. ``False`` keeps the bare,
            fault-oblivious pipeline (faults silently corrupt results).
        scrub_interval: when set, run a background alignment scrub pass
            over every materialised DBC each ``scrub_interval`` memory
            operations (:attr:`scrubber`). Works with or without the
            resilient executor.
        adaptive: ``True`` (default :class:`BreakerConfig`) or a config
            object to run the per-DBC adaptive protection ladder
            (:attr:`breaker`): BARE -> VOTED -> NMR escalation on
            sustained faults, half-open de-escalation when a cluster
            calms down. Requires ``resilience``.
        telemetry: ``True`` (a fresh :class:`TelemetryHub`) or a hub
            object to trace and measure every layer: the facade's
            ``pim.<op>`` spans nest the controller's ``cpim.<op>`` and
            the core units' phase spans, the resilience / scrub
            counters publish into the hub's metrics registry, and the
            hub watches the device stats of every cluster the system
            touches, folding them into ``device.*`` when it is read.
            ``False`` (default) keeps the zero-overhead null path.
    """

    def __init__(
        self,
        trd: int = 7,
        geometry: Optional[MemoryGeometry] = None,
        fault_config: Optional[FaultConfig] = None,
        resilience: Union[bool, RetryPolicy] = False,
        scrub_interval: Optional[int] = None,
        adaptive: Union[bool, BreakerConfig] = False,
        telemetry: Union[bool, TelemetryHub] = False,
    ) -> None:
        if trd not in (3, 5, 7):
            raise ValueError(f"trd must be 3, 5 or 7, got {trd}")
        self.trd = trd
        params = DeviceParameters(trd=trd)
        injector = FaultInjector(fault_config)
        self.memory = MainMemory(
            geometry=geometry, params=params, injector=injector
        )
        self.controller = MemoryController(self.memory)
        if resilience is True:
            resilience = RetryPolicy()
        self.policy: Optional[RetryPolicy] = resilience or None
        if adaptive and self.policy is None:
            raise ValueError(
                "adaptive protection requires the resilient executor; "
                "pass resilience=True (or a RetryPolicy) as well"
            )
        if adaptive is True:
            adaptive = BreakerConfig()
        self.breaker: Optional[AdaptiveProtection] = (
            AdaptiveProtection(adaptive) if adaptive else None
        )
        # The health registry is always on: even a non-resilient system
        # must route PIM work around DBCs an external BIST retired.
        if self.policy is not None:
            self.health = DBCHealthRegistry(
                degrade_after=self.policy.degrade_after,
                fail_after=self.policy.fail_after,
            )
            self.executor: Optional[ResilientExecutor] = ResilientExecutor(
                self.controller, self.policy, self.health, self.breaker
            )
        else:
            self.health = DBCHealthRegistry()
            self.executor = None
        self.scrubber: Optional[ScrubEngine] = None
        if scrub_interval is not None:
            self.scrubber = ScrubEngine(
                self.memory, scrub_interval, registry=self.health
            )
            self.controller.add_op_hook(self.scrubber.on_ops)
        if telemetry is True:
            telemetry = TelemetryHub()
        self.telemetry: Optional[TelemetryHub] = telemetry or None
        if self.telemetry is not None:
            self.controller.attach_telemetry(self.telemetry)
            if self.executor is not None:
                self.executor.attach_telemetry(self.telemetry)
            if self.scrubber is not None:
                self.scrubber.attach_telemetry(self.telemetry)
            if self.breaker is not None:
                self.breaker.attach_telemetry(self.telemetry)

    # ------------------------------------------------------------------

    def pim_home(
        self, bank: int = 0, subarray: int = 0
    ) -> Tuple[int, int]:
        """Where PIM work aimed at (bank, subarray) currently lands.

        Identity while the local cluster is healthy; after the health
        registry retires it, the nearest usable cluster takes over.
        """
        return remap_pim_dbc(
            bank, subarray, self.memory.geometry, self.health.is_usable
        )

    def pim_dbc(
        self, bank: int = 0, subarray: int = 0
    ) -> DomainBlockCluster:
        """A PIM-enabled DBC to compute in, remapped around failures."""
        bank, subarray = self.pim_home(bank, subarray)
        dbc = self.memory.pim_dbc(bank=bank, subarray=subarray)
        if self.policy is not None:
            dbc.tr_vote_reads = self.policy.tr_vote_reads
        if self.telemetry is not None and dbc.stats.sink is None:
            self.telemetry.watch(dbc.stats)
            dbc.tracer = self.telemetry.tracer
        return dbc

    @contextmanager
    def _traced(self, op: str, dbc: DomainBlockCluster):
        """``pim.<op>`` span around one facade operation on ``dbc``."""
        hub = self.telemetry
        if hub is None:
            yield
            return
        cycles_before = dbc.stats.cycles
        energy_before = dbc.stats.energy_pj
        with hub.tracer.span(f"pim.{op}", category="pim") as span:
            yield
            cycles = dbc.stats.cycles - cycles_before
            energy = dbc.stats.energy_pj - energy_before
            span.annotate(cycles=cycles, energy_pj=round(energy, 3))
            hub.emit("pim.op", op=op, cycles=cycles, energy_pj=energy)

    def execute(self, instruction, deadline=None):
        """Run a cpim instruction, resiliently when a policy is set.

        ``deadline`` (a :class:`~repro.utils.deadline.Deadline`) bounds
        the resilient ladder's retries/escalation; it is ignored on the
        bare pipeline, which never retries.
        """
        if self.executor is not None:
            return self.executor.execute(instruction, deadline=deadline)
        return self.controller.execute(instruction)

    def describe(self) -> dict:
        """A JSON-ready summary of this system's configuration.

        The kernel gateway's ``/readyz`` reports this per device
        profile so operators can see what each worker pool is running.
        """
        geometry = self.memory.geometry
        return {
            "trd": self.trd,
            "tracks_per_dbc": geometry.tracks_per_dbc,
            "banks": geometry.banks,
            "subarrays_per_bank": geometry.subarrays_per_bank,
            "resilience": self.policy is not None,
            "adaptive": self.breaker is not None,
            "scrubbing": self.scrubber is not None,
            "telemetry": self.telemetry is not None,
        }

    def bulk_op(
        self,
        op: BulkOp,
        operands: Sequence[Sequence[int]],
        bank: int = 0,
        subarray: int = 0,
    ) -> BulkResult:
        """Multi-operand bulk-bitwise operation on full rows."""
        dbc = self.pim_dbc(bank, subarray)
        unit = BulkBitwiseUnit(dbc)
        rows = [self._pad_row(dbc, r) for r in operands]
        with self._traced(f"bulk_{op.name.lower()}", dbc):
            unit.stage_operands(op, rows)
            return unit.execute(op, len(rows))

    def add(
        self,
        words: Sequence[int],
        n_bits: int,
        bank: int = 0,
        subarray: int = 0,
        exact: bool = True,
    ) -> AdditionResult:
        """Multi-operand addition of up to TRD-2 words."""
        dbc = self.pim_dbc(bank, subarray)
        adder = MultiOperandAdder(dbc)
        result_bits = None if exact else n_bits
        with self._traced("add", dbc):
            return adder.add_words(words, n_bits, result_bits=result_bits)

    def multiply(
        self,
        a: int,
        b: int,
        n_bits: int,
        bank: int = 0,
        subarray: int = 0,
    ) -> MultiplyResult:
        """Optimized (carry-save) multiplication."""
        dbc = self.pim_dbc(bank, subarray)
        with self._traced("mult", dbc):
            return Multiplier(dbc).multiply(a, b, n_bits)

    def multiply_constant(
        self,
        a: int,
        constant: int,
        n_bits: int,
        result_bits: Optional[int] = None,
        bank: int = 0,
        subarray: int = 0,
    ) -> MultiplyResult:
        """Compile-time constant multiplication via CSD planning."""
        dbc = self.pim_dbc(bank, subarray)
        with self._traced("mult_const", dbc):
            return Multiplier(dbc).multiply_constant(
                a, constant, n_bits, result_bits=result_bits
            )

    def maximum(
        self,
        words: Sequence[int],
        n_bits: int,
        bank: int = 0,
        subarray: int = 0,
    ) -> MaxResult:
        """Max of up to TRD words via the TW subroutine."""
        dbc = self.pim_dbc(bank, subarray)
        with self._traced("max", dbc):
            return MaxUnit(dbc).run(words, n_bits)

    def vote(
        self,
        replicas: Sequence[Sequence[int]],
        bank: int = 0,
        subarray: int = 0,
    ) -> VoteResult:
        """N-modular-redundancy majority vote of result rows."""
        dbc = self.pim_dbc(bank, subarray)
        rows = [self._pad_row(dbc, r) for r in replicas]
        with self._traced("vote", dbc):
            return ModularRedundancy(dbc).vote(rows)

    def popcount(
        self, bits: Sequence[int], bank: int = 0, subarray: int = 0
    ) -> int:
        """Count the ones in a row using TR-group sensing."""
        from repro.core.popcount import PopcountUnit

        dbc = self.pim_dbc(bank, subarray)
        with self._traced("popcount", dbc):
            return PopcountUnit(dbc).count_row(list(bits)).count

    def minimum(
        self,
        words: Sequence[int],
        n_bits: int,
        bank: int = 0,
        subarray: int = 0,
    ):
        """Min of up to TRD words (max over complements)."""
        from repro.core.compare import CompareUnit

        dbc = self.pim_dbc(bank, subarray)
        with self._traced("min", dbc):
            return CompareUnit(dbc).minimum(words, n_bits)

    # ------------------------------------------------------------------

    @staticmethod
    def _pad_row(dbc: DomainBlockCluster, row: Sequence[int]) -> List[int]:
        bits = list(row)
        if len(bits) > dbc.tracks:
            raise ValueError(
                f"row of {len(bits)} bits exceeds the {dbc.tracks}-track DBC"
            )
        return bits + [0] * (dbc.tracks - len(bits))
