"""Unit tests for the DWM nanowire model."""

import numpy as np
import pytest

from repro.device.faults import FaultConfig, FaultInjector
from repro.device.nanowire import (
    AccessPort,
    DataLossError,
    Nanowire,
    default_overhead,
)
from repro.device.parameters import DeviceParameters


def make_wire(num_data=32, ports=(14, 20), **kwargs):
    return Nanowire(
        num_data, [AccessPort(p) for p in ports], **kwargs
    )


class TestGeometry:
    def test_paper_overhead_for_tr_port_placement(self):
        # Section III-A: ports at 14 and 20 cost 25 overhead domains.
        left, right = default_overhead(32, (14, 20))
        assert left + right == 25

    def test_single_port_overhead(self):
        # 2Y-1 total domains for a single central port (Section III-A).
        left, right = default_overhead(32, (31,))
        wire = Nanowire(32, [AccessPort(31)])
        assert wire.length == 32 + left + right

    def test_port_positions_fixed(self):
        wire = make_wire()
        p0 = wire.port_physical_position(0)
        wire.shift(1, 3)
        assert wire.port_physical_position(0) == p0

    def test_rejects_port_outside_data(self):
        with pytest.raises(ValueError):
            make_wire(ports=(40,))

    def test_rejects_empty_ports(self):
        with pytest.raises(ValueError):
            Nanowire(8, [])


class TestShift:
    def test_shift_moves_rows_under_port(self):
        wire = make_wire()
        row_before = wire.row_under_port(0)
        wire.shift(1)
        assert wire.row_under_port(0) == row_before - 1

    def test_align_then_read(self):
        wire = make_wire()
        wire.poke_row(5, 1)
        wire.align(5, 0)
        assert wire.read(0) == 1

    def test_shift_preserves_data(self):
        wire = make_wire()
        pattern = [i % 2 for i in range(32)]
        wire.load(pattern)
        wire.shift(1, 5)
        wire.shift(-1, 5)
        assert wire.dump() == pattern

    def test_data_loss_raises(self):
        wire = make_wire()
        with pytest.raises(DataLossError):
            wire.shift(1, wire.overhead_right + 1)

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            make_wire().shift(2)

    def test_shift_records_cost(self):
        wire = make_wire()
        wire.shift(1, 3)
        assert wire.stats.count("shift") == 3
        assert wire.stats.cycles == 3


class TestReadWrite:
    def test_write_then_read(self):
        wire = make_wire()
        wire.write(0, 1)
        assert wire.read(0) == 1

    def test_write_rejects_non_bit(self):
        with pytest.raises(ValueError):
            make_wire().write(0, 2)

    def test_read_only_port(self):
        wire = Nanowire(
            16, [AccessPort(4), AccessPort(10, read_only=True)]
        )
        with pytest.raises(ValueError):
            wire.write(1, 1)

    def test_costs_recorded(self):
        wire = make_wire()
        wire.write(0, 1)
        wire.read(0)
        assert wire.stats.count("write") == 1
        assert wire.stats.count("read") == 1


class TestTransverseRead:
    def test_counts_ones_in_window(self):
        wire = make_wire()
        # Window covers data rows 14..20 at offset 0.
        for row in (14, 16, 20):
            wire.poke_row(row, 1)
        assert wire.transverse_read(0, 1) == 3

    def test_window_includes_both_heads(self):
        wire = make_wire()
        wire.poke_row(14, 1)
        wire.poke_row(20, 1)
        assert wire.transverse_read(0, 1) == 2

    def test_rejects_window_beyond_trd(self):
        params = DeviceParameters(trd=3)
        wire = make_wire(ports=(14, 20), params=params)
        with pytest.raises(ValueError):
            wire.transverse_read(0, 1)

    def test_segmented_span(self):
        wire = make_wire()
        wire.poke_row(15, 1)
        lo = wire.row_physical_position(15)
        assert wire.transverse_read_span(lo, lo + 2) == 1

    def test_zero_window(self):
        wire = make_wire()
        assert wire.transverse_read(0, 1) == 0

    def test_numpy_bits_misread_by_one(self):
        # Bits poked as numpy uint8 are stored as ints, so a misread of
        # level 6 by -1 is level 5, not a uint8 overflow.
        injector = FaultInjector(FaultConfig(tr_fault_rate=1.0))
        wire = make_wire(num_data=16, ports=(2, 8), injector=injector)
        for slot, bit in enumerate(np.array([1, 1, 1, 0, 1, 1, 1], dtype=np.uint8)):
            wire.poke_physical(wire.port_physical_position(0) + slot, bit)
        wire.write(1, np.uint8(1))
        levels = [wire.transverse_read(0, 1) for _ in range(8)]
        assert set(levels) == {5, 7}
        assert all(type(level) is int for level in levels)
        assert injector.tr_faults_injected == 8

    def test_bits_are_stored_as_ints(self):
        wire = make_wire()
        wire.poke_row(3, np.uint8(1))
        wire.poke_physical(0, np.uint8(1))
        wire.write(0, np.uint8(1))
        wire.transverse_write(np.uint8(1), 0, 1)
        assert {type(bit) for bit in wire.checkpoint()[0]} == {int}


class TestTransverseWrite:
    def test_segment_shifts_right(self):
        wire = make_wire()
        for i, row in enumerate(range(14, 21)):
            wire.poke_row(row, 1 if i == 0 else 0)
        ejected = wire.transverse_write(1)
        assert ejected == 0
        # Old head value moved one right; new bit under left head.
        assert wire.peek_row(14) == 1
        assert wire.peek_row(15) == 1

    def test_ejects_right_head_bit(self):
        wire = make_wire()
        wire.poke_row(20, 1)
        assert wire.transverse_write(0) == 1
        assert wire.peek_row(20) == 0

    def test_outside_window_untouched(self):
        wire = make_wire()
        wire.poke_row(5, 1)
        wire.poke_row(25, 1)
        wire.transverse_write(1)
        assert wire.peek_row(5) == 1
        assert wire.peek_row(25) == 1

    def test_full_rotation_restores_order(self):
        wire = make_wire()
        pattern = [1, 0, 1, 1, 0, 0, 1]
        for i, row in enumerate(range(14, 21)):
            wire.poke_row(row, pattern[i])
        for _ in range(7):
            bit = wire.peek_physical(wire.port_physical_position(1))
            wire.transverse_write(bit)
        assert [wire.peek_row(r) for r in range(14, 21)] == pattern
