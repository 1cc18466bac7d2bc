"""Unit tests for fault injection."""

import random

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


def _stepwise(injector, offsets, direction, count, low, high):
    """One perturb_shift call per step per track, track after track,
    stopping after the first track that leaves [low, high]."""
    reached = []
    for position in offsets:
        for _ in range(count):
            position += injector.perturb_shift(direction)
            if not low <= position <= high:
                break
        reached.append(position)
        if not low <= position <= high:
            break
    return reached


def _per_read(injector, levels, max_level, votes):
    """One perturb_tr_level call per read, all reads of a level in turn."""
    return [
        [injector.perturb_tr_level(level, max_level) for _ in range(votes)]
        for level in levels
    ]


def _batch_reads(injector, levels, max_level, votes):
    """Every read of a sense_batch call: its misread levels' reads, the
    level itself for the others."""
    misread = injector.sense_batch(levels, max_level, votes)
    assert all(reads != [levels[i]] * votes for i, reads in misread.items())
    return [misread.get(i, [level] * votes) for i, level in enumerate(levels)]


class _EveryThirdOverShifts(FaultInjector):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def perturb_shift(self, amount):
        self.calls += 1
        return 2 * amount if self.calls % 3 == 0 else amount


class _CountingInjector(FaultInjector):
    """Overrides both per-call draws: the base draws, each call counted."""

    def __init__(self, config=None):
        super().__init__(config)
        self.calls = 0

    def perturb_shift(self, amount):
        self.calls += 1
        return super().perturb_shift(amount)

    def perturb_tr_level(self, level, max_level):
        self.calls += 1
        return super().perturb_tr_level(level, max_level)


INJECTORS = (FaultInjector, _CountingInjector)

RATES = st.one_of(
    st.sampled_from((0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0)), st.floats(0.0, 1.0)
)

DERANDOMIZED = settings(max_examples=300, derandomize=True, deadline=None)


@st.composite
def shift_commands(draw):
    """A lockstep shift: track offsets (some within ``2 * count`` of a
    guard edge, some shared by every track, some in runs long enough to
    draw in bulk between tracks near an edge), a direction and a count."""
    low = draw(st.integers(-48, 0))
    high = draw(st.integers(0, 48))
    count = draw(st.one_of(st.integers(0, 20), st.integers(1, 6)))
    near_low = st.integers(low, min(high, low + 2 * count))
    near_high = st.integers(max(low, high - 2 * count), high)
    offset = st.one_of(st.integers(low, high), near_low, near_high)
    runs = st.lists(
        st.tuples(offset, st.integers(1, 24)), min_size=1, max_size=5
    )
    offsets = draw(st.one_of(
        st.lists(offset, min_size=1, max_size=40),
        st.builds(lambda o, n: [o] * n, offset, st.integers(1, 64)),
        runs.map(lambda runs: [o for o, n in runs for _ in range(n)]),
    ))
    return offsets, draw(st.sampled_from((1, -1))), count, low, high


class TestShiftCommand:
    """One call for a command's steps makes the draws of one
    perturb_shift call per step per track."""

    @pytest.mark.parametrize("injector_class", INJECTORS)
    @DERANDOMIZED
    @given(command=shift_commands(), rate=RATES, seed=st.integers(0, 2**16))
    def test_equals_one_perturb_shift_per_step(
        self, injector_class, command, rate, seed
    ):
        offsets, direction, count, low, high = command
        config = FaultConfig(shift_fault_rate=rate, seed=seed)
        batched, stepwise = injector_class(config), injector_class(config)
        got = batched.shift_command(offsets, direction, count, low, high)
        want = _stepwise(stepwise, offsets, direction, count, low, high)
        assert got == want  # positions, and where the command stopped
        assert batched.state() == stepwise.state()
        assert batched._rng.getstate() == stepwise._rng.getstate()
        assert getattr(batched, "calls", 0) == getattr(stepwise, "calls", 0)

    def test_overridden_perturb_shift_is_called_per_step(self):
        batched, stepwise = _EveryThirdOverShifts(), _EveryThirdOverShifts()
        for count in (0, 1, 5, 9):
            got = batched.shift_command([0, 1, -1], 1, count, -2, 6)
            want = _stepwise(stepwise, [0, 1, -1], 1, count, -2, 6)
            assert got == want
            assert batched.calls == stepwise.calls

    def test_stops_after_the_first_track_past_an_edge(self):
        injector = FaultInjector()
        assert injector.shift_command([2, 0, 1], 1, 10, -3, 4) == [5]
        assert injector.shift_command([0, -2], -1, 10, -3, 4) == [-4]
        assert injector.shift_command([0, 2, -3], 1, 3, -3, 4) == [3, 5]
        assert injector.shift_command([0, 1, -3], 1, 3, -3, 5) == [3, 4, 0]


class TestSenseBatch:
    """One call for a sensed batch makes the draws of one
    perturb_tr_level call per read."""

    @pytest.mark.parametrize("injector_class", INJECTORS)
    @DERANDOMIZED
    @given(
        max_level=st.sampled_from((3, 5, 7)),
        votes=st.sampled_from((1, 3, 5)),
        rate=RATES,
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_equals_one_perturb_tr_level_per_read(
        self, injector_class, max_level, votes, rate, seed, data
    ):
        level = st.one_of(
            st.sampled_from((0, max_level)), st.integers(0, max_level)
        )
        levels = data.draw(st.lists(level, max_size=40))
        config = FaultConfig(tr_fault_rate=rate, seed=seed)
        batched, per_read = injector_class(config), injector_class(config)
        got = _batch_reads(batched, levels, max_level, votes)
        assert got == _per_read(per_read, levels, max_level, votes)
        assert batched.state() == per_read.state()
        assert batched._rng.getstate() == per_read._rng.getstate()
        assert getattr(batched, "calls", 0) == getattr(per_read, "calls", 0)


class TestBulkDraws:
    """``getrandbits(64 * n)`` takes the words of ``n`` random() calls."""

    @DERANDOMIZED
    @given(n=st.integers(0, 2000), seed=st.integers(0, 2**32))
    def test_equal_n_random_calls(self, n, seed):
        bulk, single = random.Random(seed), random.Random(seed)
        injector = FaultInjector()
        injector._rng = bulk
        assert injector._doubles(n).tolist() == [single.random() for _ in range(n)]
        assert bulk.getstate() == single.getstate()


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
