"""Deadline budgets and their interaction with the resilient ladder.

The satellite contract: retries must stop the moment the budget is
exhausted, the DBC must be restored to its pre-op snapshot (never torn
mid-attempt), and budget exhaustion is the caller's clock — not a
device-health event.
"""

import pytest

from repro.arch.geometry import MemoryGeometry
from repro.core.addition import MultiOperandAdder
from repro.core.isa import Address, CpimInstruction, CpimOp
from repro.device.faults import FaultConfig
from repro.resilience.errors import (
    BudgetExhaustedError,
    UncorrectableFaultError,
)
from repro.resilience.policy import RetryPolicy
from repro.sim.system import CoruscantSystem
from repro.utils.deadline import Deadline


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def add_instruction(blocksize=16, operands=2):
    address = Address(bank=0, subarray=0, tile=0, dbc=0, row=0)
    return CpimInstruction(
        op=CpimOp.ADD,
        blocksize=blocksize,
        src=address,
        dest=address,
        operands=operands,
    )


def make_system(rate=0.0, seed=0, policy=None, tracks=16):
    return CoruscantSystem(
        trd=7,
        geometry=MemoryGeometry(tracks_per_dbc=tracks),
        fault_config=FaultConfig(tr_fault_rate=rate, seed=seed),
        resilience=policy if policy is not None else False,
    )


class TestDeadline:
    def test_budget_counts_down(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_never_expires(self):
        clock = FakeClock()
        deadline = Deadline.never(clock=clock)
        clock.advance(1e9)
        assert not deadline.expired
        assert deadline.allows(1e12)

    def test_allows(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.allows(0.5)
        assert not deadline.allows(1.5)

    def test_zero_budget_starts_expired(self):
        assert Deadline(0.0, clock=FakeClock()).expired

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0, clock=FakeClock())

    def test_nan_budget_rejected(self):
        # A NaN deadline would never expire yet allow no retry sleep.
        with pytest.raises(ValueError):
            Deadline(float("nan"), clock=FakeClock())

    def test_as_timeout(self):
        clock = FakeClock()
        assert Deadline.never(clock=clock).as_timeout() is None
        assert Deadline.never(clock=clock).as_timeout(cap=3.0) == 3.0
        assert Deadline(1.0, clock=clock).as_timeout(cap=5.0) == 1.0


class TestExecutorDeadline:
    def stage(self, system, words=(3, 4)):
        dbc = system.pim_dbc()
        adder = MultiOperandAdder(dbc)
        adder.stage_words(list(words), 8, zero_extend_to=16)
        return dbc

    def test_clean_op_ignores_deadline(self):
        system = make_system(policy=RetryPolicy())
        self.stage(system)
        clock = FakeClock()
        result = system.execute(
            add_instruction(), deadline=Deadline(10.0, clock=clock)
        )
        assert result.values[0] == 7

    def test_expired_budget_stops_retries(self):
        # rate 0.6 / seed 3 needs a retry (see test_resilience); with
        # the budget already gone by attempt 2 the executor must stop.
        system = make_system(
            rate=0.6, seed=3,
            policy=RetryPolicy(max_attempts=2, escalation_nmr=3),
        )
        dbc = self.stage(system)
        snapshot_before = dbc.snapshot()
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)  # budget gone before the first retry
        with pytest.raises(BudgetExhaustedError):
            system.execute(add_instruction(), deadline=deadline)
        stats = system.executor.stats
        assert stats.budget_exhausted == 1
        assert stats.retries == 0
        # Never torn mid-attempt: the staged operands are exactly as
        # they were before the expired execution started.
        assert dbc.snapshot() == snapshot_before

    def test_budget_exhaustion_is_not_a_device_fault(self):
        system = make_system(
            rate=0.6, seed=3,
            policy=RetryPolicy(max_attempts=2, escalation_nmr=3),
        )
        self.stage(system)
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(BudgetExhaustedError):
            system.execute(add_instruction(), deadline=deadline)
        report = system.health.report()
        key = (0, 0, 0, 0)
        assert key not in report or report[key].uncorrectables == 0

    def test_generous_budget_allows_full_ladder(self):
        system = make_system(
            rate=0.8, seed=2,
            policy=RetryPolicy(max_attempts=2, escalation_nmr=3),
        )
        self.stage(system)
        clock = FakeClock()
        system.execute(
            add_instruction(), deadline=Deadline(100.0, clock=clock)
        )
        stats = system.executor.stats
        assert stats.escalations == 1
        assert stats.budget_exhausted == 0

    def test_uncorrectable_still_wins_over_budget(self):
        # A device verdict reached within budget is reported as the
        # device verdict, not converted into a deadline error.
        policy = RetryPolicy(
            max_attempts=2, escalation_nmr=3,
            degrade_after=1, fail_after=2,
        )
        system = make_system(rate=0.6, seed=1, policy=policy)
        self.stage(system)
        with pytest.raises(UncorrectableFaultError):
            system.execute(
                add_instruction(),
                deadline=Deadline(100.0, clock=FakeClock()),
            )
        assert system.executor.stats.budget_exhausted == 0
