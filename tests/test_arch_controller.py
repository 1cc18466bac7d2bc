"""Unit tests for the memory controller."""

import dataclasses

import pytest

from repro.arch.controller import MemoryController
from repro.arch.geometry import MemoryGeometry
from repro.arch.memory import MainMemory
from repro.core.isa import Address, CpimInstruction, CpimOp


def make_controller(tracks=16):
    memory = MainMemory(geometry=MemoryGeometry(tracks_per_dbc=tracks))
    return MemoryController(memory)


def addr(**kwargs):
    defaults = dict(bank=0, subarray=0, tile=0, dbc=0, row=5)
    defaults.update(kwargs)
    return Address(**defaults)


class TestRegularAccess:
    def test_write_then_read(self):
        ctl = make_controller()
        bits = [1, 0] * 8
        ctl.write(addr(), bits)
        assert ctl.read(addr()) == bits

    def test_row_hit_cheaper_than_miss(self):
        ctl = make_controller()
        ctl.read(addr(row=5))
        after_first = ctl.stats.memory_cycles
        ctl.read(addr(row=5))  # hit
        hit_cost = ctl.stats.memory_cycles - after_first
        ctl.read(addr(row=9))  # miss + shifts
        miss_cost = ctl.stats.memory_cycles - after_first - hit_cost
        assert hit_cost < miss_cost

    def test_row_hit_write_charged_write_recovery_only(self):
        # Regression: the is_write branch used to precede the row-hit
        # check, so a write to the open row paid the full miss cost.
        ctl = make_controller()
        bits = [1] * 16
        ctl.write(addr(row=5), bits)  # opens row 5
        before = ctl.stats.memory_cycles
        ctl.write(addr(row=5), bits)  # hit
        hit_cost = ctl.stats.memory_cycles - before
        assert hit_cost == ctl.memory.timings.row_hit_write_cycles()

    def test_row_hit_write_cheaper_than_miss(self):
        ctl = make_controller()
        bits = [1] * 16
        ctl.write(addr(row=5), bits)
        before = ctl.stats.memory_cycles
        ctl.write(addr(row=5), bits)  # hit
        hit_cost = ctl.stats.memory_cycles - before
        ctl.write(addr(row=9), bits)  # miss + shifts
        miss_cost = ctl.stats.memory_cycles - before - hit_cost
        assert hit_cost < miss_cost

    def test_stats_counted(self):
        ctl = make_controller()
        ctl.write(addr(), [0] * 16)
        ctl.read(addr())
        assert ctl.stats.reads == 1
        assert ctl.stats.writes == 1


class TestControllerStats:
    def test_every_field_is_an_int_counter(self):
        # The stats keep counters only: per-access state would grow
        # with every op of a million-op campaign.
        ctl = make_controller(tracks=16)
        n = 6
        dbc = ctl.memory.pim_dbc()
        for i in range(n):
            ctl.write(addr(row=i % 3), [i & 1] * 16)
            ctl.read(addr(row=(i + 1) % 3))
            for slot in range(7):
                dbc.poke_window_slot(slot, [1] * 16)
            ctl.execute(
                CpimInstruction(
                    op=CpimOp.AND, blocksize=16, src=addr(row=14),
                    dest=addr(row=0), operands=2,
                )
            )
        values = {
            field.name: getattr(ctl.stats, field.name)
            for field in dataclasses.fields(ctl.stats)
        }
        assert all(type(v) is int for v in values.values()), values
        assert values["reads"] == values["writes"] == n
        assert values["pim_ops"] == n
        assert values["row_hits"] + values["row_misses"] == 2 * n
        assert values["memory_cycles"] > 0


class TestCpimDispatch:
    def test_bulk_and(self):
        ctl = make_controller(tracks=16)
        dbc = ctl.memory.pim_dbc()
        dbc.poke_window_slot(0, [1] * 16)
        dbc.poke_window_slot(1, [1, 0] * 8)
        for slot in range(2, 7):
            dbc.poke_window_slot(slot, [1] * 16)  # AND padding preset
        instr = CpimInstruction(
            op=CpimOp.AND, blocksize=16, src=addr(row=14), dest=addr(row=0),
            operands=2,
        )
        result = ctl.execute(instr)
        assert result.bits == [1, 0] * 8
        assert ctl.stats.pim_ops == 1

    def test_add_blocks(self):
        ctl = make_controller(tracks=16)
        dbc = ctl.memory.pim_dbc()
        from repro.core.addition import MultiOperandAdder

        adder = MultiOperandAdder(dbc)
        adder.stage_words([3, 4], 8, start_track=0, zero_extend_to=8)
        adder.stage_words([10, 20], 8, start_track=8, zero_extend_to=8)
        instr = CpimInstruction(
            op=CpimOp.ADD, blocksize=8, src=addr(row=14), dest=addr(row=0),
            operands=2,
        )
        result = ctl.execute(instr)
        assert result.values == [7, 30]

    def test_non_pim_target_rejected(self):
        ctl = make_controller()
        instr = CpimInstruction(
            op=CpimOp.AND, blocksize=16, src=addr(dbc=5), dest=addr(),
            operands=2,
        )
        with pytest.raises(ValueError):
            ctl.execute(instr)

    def test_unsupported_op(self):
        ctl = make_controller()
        instr = CpimInstruction(
            op=CpimOp.MULT, blocksize=16, src=addr(), dest=addr(),
            operands=2,
        )
        with pytest.raises(NotImplementedError):
            ctl.execute(instr)


class TestReduceAndVoteDispatch:
    def test_reduce(self):
        ctl = make_controller(tracks=16)
        dbc = ctl.memory.pim_dbc()
        from repro.utils.bitops import bits_from_int

        values = [5, 9, 3]
        for slot, v in enumerate(values):
            dbc.poke_window_slot(slot, bits_from_int(v, 16))
        instr = CpimInstruction(
            op=CpimOp.REDUCE, blocksize=16, src=addr(row=14),
            dest=addr(row=0), operands=3,
        )
        result = ctl.execute(instr)
        from repro.core.reduction import CarrySaveReducer

        assert CarrySaveReducer.rows_sum(result.rows) == sum(values)

    def test_vote(self):
        ctl = make_controller(tracks=16)
        dbc = ctl.memory.pim_dbc()
        good = [1, 0, 1, 0] * 4
        bad = list(good)
        bad[2] ^= 1
        for slot, row in enumerate((good, bad, good)):
            dbc.poke_window_slot(slot, row)
        instr = CpimInstruction(
            op=CpimOp.VOTE, blocksize=16, src=addr(row=14),
            dest=addr(row=0), operands=3,
        )
        # Voting needs the Fig. 7(c) padding layout, which vote()
        # itself stages from the replica rows it is given.
        result = ctl.execute(instr)
        assert result.bits == good
