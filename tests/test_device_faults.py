"""Unit tests for fault injection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.faults import FaultConfig, FaultInjector


class TestFaultConfig:
    def test_defaults_fault_free(self):
        config = FaultConfig()
        assert config.tr_fault_rate == 0.0
        assert config.shift_fault_rate == 0.0

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultConfig(tr_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(shift_fault_rate=-0.1)


class TestTrPerturbation:
    def test_fault_free_identity(self):
        injector = FaultInjector()
        for level in range(8):
            assert injector.perturb_tr_level(level, 7) == level

    def test_always_faulting_moves_one_level(self):
        injector = FaultInjector(FaultConfig(tr_fault_rate=1.0, seed=3))
        for level in range(8):
            got = injector.perturb_tr_level(level, 7)
            assert abs(got - level) == 1
            assert 0 <= got <= 7

    def test_clamps_at_bounds(self):
        injector = FaultInjector(FaultConfig(tr_fault_rate=1.0, seed=1))
        for _ in range(20):
            assert injector.perturb_tr_level(0, 7) == 1
            assert injector.perturb_tr_level(7, 7) == 6

    def test_fault_rate_statistics(self):
        injector = FaultInjector(FaultConfig(tr_fault_rate=0.25, seed=42))
        faults = sum(
            1 for _ in range(4000) if injector.perturb_tr_level(3, 7) != 3
        )
        assert 800 <= faults <= 1200  # ~1000 expected

    def test_counter_increments(self):
        injector = FaultInjector(FaultConfig(tr_fault_rate=1.0))
        injector.perturb_tr_level(3, 7)
        assert injector.tr_faults_injected == 1

    def test_reproducible_with_seed(self):
        a = FaultInjector(FaultConfig(tr_fault_rate=0.5, seed=9))
        b = FaultInjector(FaultConfig(tr_fault_rate=0.5, seed=9))
        seq_a = [a.perturb_tr_level(3, 7) for _ in range(50)]
        seq_b = [b.perturb_tr_level(3, 7) for _ in range(50)]
        assert seq_a == seq_b


class TestShiftPerturbation:
    def test_fault_free_identity(self):
        injector = FaultInjector()
        assert injector.perturb_shift(1) == 1
        assert injector.perturb_shift(-1) == -1

    def test_faults_are_over_or_under(self):
        injector = FaultInjector(FaultConfig(shift_fault_rate=1.0, seed=5))
        outcomes = {injector.perturb_shift(1) for _ in range(100)}
        assert outcomes <= {0, 2}
        assert injector.shift_faults_injected == 100


def _stepwise(injector, position, direction, count, low, high):
    """``count`` perturb_shift calls in turn, stopping outside [low, high]."""
    for _ in range(count):
        position += injector.perturb_shift(direction)
        if not low <= position <= high:
            break
    return position


class _EveryThirdOverShifts(FaultInjector):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def perturb_shift(self, amount):
        self.calls += 1
        return 2 * amount if self.calls % 3 == 0 else amount


class TestPerturbShifts:
    """One call for a track's steps makes the draws of one call per step."""

    @settings(max_examples=300, deadline=None)
    @given(
        rate=st.sampled_from((0.0, 1e-3, 0.3, 1.0)),
        seed=st.integers(0, 2**16),
        low=st.integers(-6, 0),
        high=st.integers(0, 6),
        direction=st.sampled_from((1, -1)),
        count=st.integers(0, 14),
        data=st.data(),
    )
    def test_equals_one_perturb_shift_per_step(
        self, rate, seed, low, high, direction, count, data
    ):
        position = data.draw(st.integers(low, high))
        config = FaultConfig(shift_fault_rate=rate, seed=seed)
        batched, stepwise = FaultInjector(config), FaultInjector(config)
        got = batched.perturb_shifts(position, direction, count, low, high)
        want = _stepwise(stepwise, position, direction, count, low, high)
        assert got == want
        assert batched.state() == stepwise.state()

    def test_overridden_perturb_shift_is_called_per_step(self):
        batched, stepwise = _EveryThirdOverShifts(), _EveryThirdOverShifts()
        for count in (0, 1, 5, 9):
            got = batched.perturb_shifts(0, 1, count, -2, 6)
            want = _stepwise(stepwise, 0, 1, count, -2, 6)
            assert got == want
            assert batched.calls == stepwise.calls

    def test_stops_at_the_first_step_past_an_edge(self):
        injector = FaultInjector()
        assert injector.perturb_shifts(2, 1, 10, -3, 4) == 5
        assert injector.perturb_shifts(-2, -1, 10, -3, 4) == -4
        assert injector.perturb_shifts(0, 1, 3, -3, 4) == 3


class TestIntrinsicRate:
    """Satellite: one source of truth for the paper's intrinsic TR rate."""

    def test_intrinsic_config_uses_tr_faults_constant(self):
        from repro.reliability.tr_faults import TR_FAULT_RATE

        config = FaultConfig.intrinsic(seed=4)
        assert config.tr_fault_rate == TR_FAULT_RATE
        assert config.shift_fault_rate == 0.0
        assert config.seed == 4

    def test_device_parameters_share_the_constant(self):
        from repro.device.parameters import DeviceParameters
        from repro.reliability.tr_faults import TR_FAULT_RATE

        assert DeviceParameters().tr_fault_rate == TR_FAULT_RATE


class TestRateSwitchAndState:
    def test_set_rates_preserves_rng_stream(self):
        reference = FaultInjector(FaultConfig(tr_fault_rate=0.5, seed=6))
        switched = FaultInjector(FaultConfig(tr_fault_rate=0.5, seed=6))
        for _ in range(10):
            reference.perturb_tr_level(3, 7)
            switched.perturb_tr_level(3, 7)
        switched.set_rates(tr_fault_rate=0.5)  # same rate, fresh config
        seq_a = [reference.perturb_tr_level(3, 7) for _ in range(20)]
        seq_b = [switched.perturb_tr_level(3, 7) for _ in range(20)]
        assert seq_a == seq_b

    def test_set_rates_changes_only_given_rates(self):
        injector = FaultInjector(
            FaultConfig(tr_fault_rate=0.5, shift_fault_rate=0.25, seed=0)
        )
        injector.set_rates(tr_fault_rate=0.0)
        assert injector.config.tr_fault_rate == 0.0
        assert injector.config.shift_fault_rate == 0.25

    def test_state_roundtrip_resumes_stream_and_counters(self):
        injector = FaultInjector(
            FaultConfig(tr_fault_rate=0.5, shift_fault_rate=0.5, seed=8)
        )
        for _ in range(25):
            injector.perturb_tr_level(3, 7)
            injector.perturb_shift(1)
        saved = injector.state()
        clone = FaultInjector(
            FaultConfig(tr_fault_rate=0.5, shift_fault_rate=0.5, seed=999)
        )
        clone.restore_state(saved)
        assert clone.tr_faults_injected == injector.tr_faults_injected
        assert clone.shift_faults_injected == injector.shift_faults_injected
        seq_a = [injector.perturb_tr_level(3, 7) for _ in range(30)]
        seq_b = [clone.perturb_tr_level(3, 7) for _ in range(30)]
        assert seq_a == seq_b
