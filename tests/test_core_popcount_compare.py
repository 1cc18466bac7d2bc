"""Unit tests for the popcount and comparison units."""

import random

import pytest

from repro.arch.dbc import DomainBlockCluster
from repro.core.compare import CompareUnit, pack_row, unpack_row
from repro.core.popcount import PopcountUnit
from repro.device.parameters import DeviceParameters


def make_dbc(tracks=32, trd=7):
    return DomainBlockCluster(
        tracks=tracks, domains=32, params=DeviceParameters(trd=trd)
    )


_RNG = random.Random(21)
_BITS = [_RNG.getrandbits(1) for _ in range(512)]


class TestTracedPopcount:
    """A traced popcount keeps its spans: one ``add.walk`` per chained add,
    each annotated with its own cycles, under the facade's span."""

    BITS = _BITS

    @pytest.mark.parametrize("trd, cycles, energy, operands", [
        (7, 419, 1228.245, [5] * 18 + [2]),
        (3, 3741, 5036.19, [2] * 170),
    ])
    def test_spans(self, trd, cycles, energy, operands):
        from repro import CoruscantSystem

        system = CoruscantSystem(trd=trd, telemetry=True)
        assert system.popcount(self.BITS) == sum(self.BITS) == 261
        (root,) = system.telemetry.tracer.roots
        assert (root.name, root.category) == ("pim.popcount", "pim")
        assert root.attrs == {"cycles": cycles, "energy_pj": energy}
        assert [
            (span.name, span.category, span.children) for span in root.children
        ] == [("add.walk", "core", [])] * len(operands)
        assert [span.attrs for span in root.children] == [
            {"operands": k, "blocks": 1, "cycles": 22} for k in operands
        ]
        # The group TR (one cycle) and the walks account for every cycle.
        assert cycles == 1 + 22 * len(operands)


class TestPopcount:
    @pytest.mark.parametrize(
        "bits",
        [
            [0] * 16,
            [1] * 16,
            [1, 0] * 8,
            [1, 1, 1, 0, 0, 0, 1, 0, 1],
        ],
    )
    def test_counts(self, bits):
        unit = PopcountUnit(make_dbc())
        assert unit.count_row(bits).count == sum(bits)

    def test_long_row(self):
        bits = [(i * 7) % 3 == 0 for i in range(200)]
        bits = [1 if b else 0 for b in bits]
        unit = PopcountUnit(make_dbc(tracks=48))
        result = unit.count_row(bits)
        assert result.count == sum(bits)
        assert result.groups == -(-200 // 7)

    @pytest.mark.parametrize("trd", [7, 3])
    def test_long_rows_cache_one_walk_plan(self, trd):
        # Every add of a popcount's chain walks the accumulator width, so
        # the chain needs one cached plan of one walk's records: a row ten
        # times longer, with ten times the adds, caches the same plan.
        from repro.arch.dbc import _walk_plan, carry_digits

        width = 9  # a 100 count needs 7 bits, plus 2
        digits = carry_digits(width, trd > 3)
        for length in (700, 7000):
            _walk_plan.cache_clear()
            unit = PopcountUnit(make_dbc(tracks=48, trd=trd))
            bits = [1, 0] * 100 + [0] * (length - 200)
            assert unit.count_row(bits).count == 100
            info = _walk_plan.cache_info()
            assert (info.misses, info.currsize) == (1, 1)
            tr, write = unit.dbc.params.transverse_read, unit.dbc.params.write
            plan = _walk_plan(
                1, digits, 1, tr.cycles, tr.energy_pj, write.energy_pj
            )
            assert _walk_plan.cache_info().hits == 1  # the chain's plan
            # Per step: one TR, one write_bit per digit and one tick.
            assert len(plan.energies) == 2 * width + sum(digits)
        _walk_plan.cache_clear()

    def test_trd3(self):
        unit = PopcountUnit(make_dbc(trd=3))
        bits = [1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1]
        assert unit.count_row(bits).count == sum(bits)

    def test_rejects_non_bits(self):
        unit = PopcountUnit(make_dbc())
        with pytest.raises(ValueError):
            unit.count_row([0, 2, 1])

    def test_requires_pim(self):
        plain = DomainBlockCluster(tracks=8, domains=32, pim_enabled=False)
        with pytest.raises(ValueError):
            PopcountUnit(plain)

    def test_cycles_accumulate(self):
        unit = PopcountUnit(make_dbc())
        assert unit.count_row([1] * 20).cycles > 0


class TestCompareUnit:
    def test_minimum(self):
        unit = CompareUnit(make_dbc(tracks=16))
        assert unit.minimum([12, 250, 99], 8).value == 12

    def test_minimum_with_zero(self):
        unit = CompareUnit(make_dbc(tracks=16))
        assert unit.minimum([0, 77, 255], 8).value == 0

    def test_minimum_single(self):
        unit = CompareUnit(make_dbc(tracks=16))
        assert unit.minimum([42], 8).value == 42

    def test_greater_equal(self):
        unit = CompareUnit(make_dbc(tracks=16))
        assert unit.greater_equal(200, 100, 8).value == 1
        assert unit.greater_equal(100, 200, 8).value == 0
        assert unit.greater_equal(55, 55, 8).value == 1

    def test_relu_row(self):
        unit = CompareUnit(make_dbc(tracks=16))
        # Two's-complement 8-bit: 0x80.. are negative.
        out = unit.relu_row([5, 0x80, 127, 0xFF], 8)
        assert out == [5, 0, 127, 0]

    def test_relu_validation(self):
        unit = CompareUnit(make_dbc(tracks=16))
        with pytest.raises(ValueError):
            unit.relu_row([256], 8)

    def test_min_empty_rejected(self):
        unit = CompareUnit(make_dbc(tracks=16))
        with pytest.raises(ValueError):
            unit.minimum([], 8)


class TestPackUnpack:
    def test_roundtrip(self):
        words = [3, 255, 0, 17]
        row = pack_row(words, 8, 64)
        assert unpack_row(row, 8)[:4] == words

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_row([1] * 9, 8, 64)
