"""Unit tests for the PIM logic block (Fig. 4b)."""

import itertools
import re

import pytest

from repro.core.pim_logic import BulkOp, PimLogicBlock, adder_outputs


class TestAdderOutputs:
    def test_binary_decomposition_identity(self):
        # The load-bearing invariant: m == S + 2C + 4C' for all levels.
        for m in range(8):
            s, c, cp = adder_outputs(m)
            assert s + 2 * c + 4 * cp == m

    def test_paper_definitions(self):
        # C is '1' for levels {2,3} and {6,7}; C' for levels >= 4.
        assert [adder_outputs(m)[1] for m in range(8)] == [
            0, 0, 1, 1, 0, 0, 1, 1,
        ]
        assert [adder_outputs(m)[2] for m in range(8)] == [
            0, 0, 0, 0, 1, 1, 1, 1,
        ]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            adder_outputs(8)


class TestBulkTruth:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_ops_match_python_semantics(self, k):
        block = PimLogicBlock(7)
        for bits in itertools.product((0, 1), repeat=k):
            ones = sum(bits)
            and_pad = (7 - k) + ones  # AND pads with '1's
            assert block.evaluate(BulkOp.OR, ones, k) == (
                1 if any(bits) else 0
            )
            assert block.evaluate(BulkOp.NOR, ones, k) == (
                0 if any(bits) else 1
            )
            assert block.evaluate(BulkOp.AND, and_pad, k) == (
                1 if all(bits) else 0
            )
            assert block.evaluate(BulkOp.NAND, and_pad, k) == (
                0 if all(bits) else 1
            )
            expected_xor = ones & 1
            assert block.evaluate(BulkOp.XOR, ones, k) == expected_xor
            assert block.evaluate(BulkOp.XNOR, ones, k) == 1 - expected_xor

    def test_not_single_operand(self):
        block = PimLogicBlock(7)
        assert block.evaluate(BulkOp.NOT, 0, 1) == 1
        assert block.evaluate(BulkOp.NOT, 1, 1) == 0

    def test_not_rejects_multi_operand(self):
        with pytest.raises(ValueError):
            PimLogicBlock(7).evaluate(BulkOp.NOT, 1, 2)

    def test_majority(self):
        block = PimLogicBlock(7)
        assert block.evaluate(BulkOp.MAJ, 4, 7) == 1
        assert block.evaluate(BulkOp.MAJ, 3, 7) == 0

    def test_inconsistent_level_rejected(self):
        block = PimLogicBlock(7)
        # AND with 2 operands pads 5 ones; level below 5 is impossible.
        with pytest.raises(ValueError):
            block.evaluate(BulkOp.AND, 2, 2)

    def test_truth_table_levels(self):
        block = PimLogicBlock(7)
        table = block.truth_table(BulkOp.AND, 3)
        # 4 padded ones; data ones 0..3 -> levels 4..7.
        assert set(table) == {4, 5, 6, 7}
        assert table[7] == 1 and table[6] == 0

    def test_operand_count_validation(self):
        with pytest.raises(ValueError):
            PimLogicBlock(7).evaluate(BulkOp.OR, 0, 8)


class TestEvaluateRow:
    """The whole-row table lookup agrees with the per-level circuit."""

    @pytest.mark.parametrize("trd", [3, 5, 7])
    def test_matches_evaluate_on_every_level(self, trd):
        block = PimLogicBlock(trd)
        for op in BulkOp:
            for k in range(1, trd + 1):
                if op is BulkOp.NOT and k != 1:
                    continue
                for level in range(trd + 2):
                    try:
                        want = block.evaluate(op, level, k)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=re.escape(str(exc))):
                            block.evaluate_row(op, [level, level], k)
                        continue
                    got = block.evaluate_row(op, [level, level], k)
                    assert got.tolist() == [want, want]

    def test_first_bad_track_reported(self):
        block = PimLogicBlock(7)
        # AND of 2 rows pads 5 ones: levels 3 and 4 are unreachable.
        with pytest.raises(ValueError, match="TR level 3"):
            block.evaluate_row(BulkOp.AND, [5, 3, 4], 2)

    def test_operand_count_validated(self):
        with pytest.raises(ValueError):
            PimLogicBlock(7).evaluate_row(BulkOp.OR, [0], 8)
        with pytest.raises(ValueError, match="NOT takes exactly one"):
            PimLogicBlock(7).evaluate_row(BulkOp.NOT, [0], 2)
