"""Unit tests for the domain-block cluster."""

import pytest

from repro.arch.dbc import (
    DomainBlockCluster,
    carry_digits,
    carry_outputs,
    pim_port_positions,
)
from repro.device.faults import FaultConfig, FaultInjector
from repro.device.nanowire import DataLossError
from repro.device.parameters import DeviceParameters


def make_dbc(tracks=16, trd=7, **kwargs):
    return DomainBlockCluster(
        tracks=tracks,
        domains=32,
        params=DeviceParameters(trd=trd),
        **kwargs,
    )


class TestPortPlacement:
    def test_paper_positions_for_trd7(self):
        # Section III-A: Y = 32, TRD = 7 puts the ports at 14 and 20.
        assert pim_port_positions(32, 7) == (14, 20)

    def test_window_size_equals_trd(self):
        for trd in (3, 5, 7):
            lo, hi = pim_port_positions(32, trd)
            assert hi - lo + 1 == trd

    def test_small_domain_clamping(self):
        lo, hi = pim_port_positions(8, 7)
        assert 0 <= lo and hi <= 7

    def test_rejects_trd_larger_than_domains(self):
        with pytest.raises(ValueError):
            pim_port_positions(4, 7)


class TestWindow:
    def test_window_size(self):
        assert make_dbc(trd=7).window_size == 7
        assert make_dbc(trd=3).window_size == 3

    def test_window_slots_map_to_rows(self):
        dbc = make_dbc()
        assert dbc.window_row_at(0) == 14
        assert dbc.window_row_at(6) == 20

    def test_window_slots_track_shifting(self):
        dbc = make_dbc()
        dbc.shift(1)
        assert dbc.window_row_at(0) == 13

    def test_poke_peek_window_slot(self):
        dbc = make_dbc(tracks=8)
        row = [1, 0, 1, 0, 1, 0, 1, 0]
        dbc.poke_window_slot(3, row)
        assert dbc.peek_window_slot(3) == row

    def test_non_pim_dbc_has_no_window(self):
        dbc = DomainBlockCluster(tracks=4, domains=32, pim_enabled=False)
        with pytest.raises(ValueError):
            _ = dbc.window


class TestLockstepOps:
    def test_row_write_read(self):
        dbc = make_dbc(tracks=8)
        bits = [1, 1, 0, 0, 1, 0, 1, 0]
        dbc.align(10, 0)
        dbc.write_row(bits, 0)
        assert dbc.read_row(0).tolist() == bits

    def test_row_width_checked(self):
        dbc = make_dbc(tracks=8)
        with pytest.raises(ValueError):
            dbc.write_row([1, 0], 0)

    def test_cycles_counted_once_per_lockstep_op(self):
        dbc = make_dbc(tracks=8)
        before = dbc.stats.cycles
        dbc.read_row(0)
        assert dbc.stats.cycles == before + 1

    def test_energy_scales_with_tracks(self):
        small = make_dbc(tracks=4)
        large = make_dbc(tracks=8)
        small.read_row(0)
        large.read_row(0)
        assert large.stats.energy_pj == pytest.approx(
            2 * small.stats.energy_pj
        )

    def test_shift_lockstep(self):
        dbc = make_dbc(tracks=4)
        dbc.poke_row(20, [1, 0, 1, 0])
        dbc.shift(1, 6)
        # Row 20 now aligned where row 14 was; align back and check.
        dbc.shift(-1, 6)
        assert dbc.peek_row(20) == [1, 0, 1, 0]


class _OverShiftTrack(FaultInjector):
    """Every shift step of one track of a lockstep cluster moves two.

    The cluster draws one shift perturbation per track per step, track 0
    first, so a draw's place in its round names the track. A round that
    aborts stops at the track that raised: reset ``draws`` after one.
    """

    def __init__(self, track, tracks):
        super().__init__()
        self.track = track
        self.tracks = tracks
        self.draws = 0

    def perturb_shift(self, amount):
        track = self.draws % self.tracks
        self.draws += 1
        return 2 * amount if track == self.track else amount


class TestAbortedShift:
    def test_tracks_keep_the_cluster_offset_and_realign(self):
        # Track 2 over-shifts, so it reaches a guard edge first and
        # aborts each lockstep shift after tracks 0 and 1 have moved.
        injector = _OverShiftTrack(track=2, tracks=4)
        dbc = make_dbc(tracks=4, injector=injector)
        for row in range(dbc.domains):
            dbc.poke_row(row, [(row >> t) & 1 for t in range(4)])
        expected = [dbc.peek_row(row) for row in range(dbc.domains)]
        for direction in (1, -1, 1, -1):
            injector.draws = 0
            offset = dbc.commanded_offset
            with pytest.raises(DataLossError):
                for _ in range(dbc.length):
                    dbc.shift(direction)
            # The aborted shift kept the cluster's commanded offset, so
            # the tracks that moved under it read as misaligned: 0 and 1
            # by the aborted step, 2 by its over-shifts; 3 never moved.
            assert dbc.offsets[3] == dbc.commanded_offset != offset
            assert dbc.misaligned_tracks == [0, 1, 2]
            dbc.realign()
            assert dbc.misaligned_tracks == []
            assert [
                dbc.peek_row(row) for row in range(dbc.domains)
            ] == expected


DRAWS = ("perturb_tr_level", "perturb_shift", "sense_batch", "shift_command")


def _run_ops(dbc):
    dbc.tr_vote_reads = 3
    dbc.shift(1, 3)
    dbc.align(5)
    dbc.transverse_read_all()
    dbc.transverse_read_tracks([0, 3, 5])
    dbc.carry_walk([0, 8], 6)
    dbc.position_error_check()
    dbc.realign()


class TestInjectorCalls:
    def test_fault_free_cluster_makes_no_injector_call(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("a fault-free cluster called its injector")

        for name in DRAWS:
            monkeypatch.setattr(FaultInjector, name, refuse)
        _run_ops(make_dbc())

    def test_one_call_per_shift_command_and_sensed_batch(self, monkeypatch):
        calls = dict.fromkeys(DRAWS, 0)
        for name in DRAWS:
            method = getattr(FaultInjector, name)

            def counted(self, *args, _method=method, _name=name):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(FaultInjector, name, counted)
        config = FaultConfig(tr_fault_rate=0.05, shift_fault_rate=0.05, seed=3)
        _run_ops(make_dbc(injector=FaultInjector(config)))
        # Two shifts (shift, align); TR all, TR tracks and six walk steps.
        assert calls == {
            "perturb_tr_level": 0, "perturb_shift": 0,
            "sense_batch": 8, "shift_command": 2,
        }


class TestRejectedRows:
    """A row with a non-bit anywhere is refused before any track changes."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda dbc, row: dbc.write_row(row),
            lambda dbc, row: dbc.transverse_write_row(row),
            lambda dbc, row: dbc.poke_row(5, row),
            lambda dbc, row: dbc.poke_window_slot(2, row),
            lambda dbc, row: dbc.poke_window_block(1, [row[:7], row[1:]]),
        ],
        ids=[
            "write_row", "transverse_write_row", "poke_row", "poke_window_slot",
            "poke_window_block",
        ],
    )
    @pytest.mark.parametrize("bad", [2, -1, 0.5, "1"])
    def test_state_unchanged(self, call, bad):
        dbc = make_dbc(tracks=8)
        for slot in range(dbc.window_size):
            dbc.poke_window_slot(slot, [(slot + t) % 2 for t in range(8)])
        before = dbc.snapshot()
        stats = dbc.stats.as_dict()
        with pytest.raises(ValueError):
            call(dbc, [1, 1, 1, bad, 1, 1, 1, 1])
        assert dbc.snapshot() == before
        assert dbc.stats.as_dict() == stats


class TestTransverseOps:
    def test_tr_all_counts_per_track(self):
        dbc = make_dbc(tracks=4)
        dbc.poke_window_slot(0, [1, 1, 0, 0])
        dbc.poke_window_slot(3, [1, 0, 0, 0])
        assert dbc.transverse_read_all() == [2, 1, 0, 0]

    def test_tr_single_track(self):
        dbc = make_dbc(tracks=4)
        dbc.poke_window_slot(2, [0, 1, 0, 0])
        assert dbc.transverse_read_track(1) == 1
        assert dbc.transverse_read_track(0) == 0

    def test_tr_tracks_shares_cycle(self):
        dbc = make_dbc(tracks=8)
        before = dbc.stats.cycles
        dbc.transverse_read_tracks([0, 3, 5])
        assert dbc.stats.cycles == before + 1

    def test_tw_row(self):
        dbc = make_dbc(tracks=4)
        dbc.poke_window_slot(6, [1, 1, 1, 1])
        ejected = dbc.transverse_write_row([0, 1, 0, 1])
        assert ejected.tolist() == [1, 1, 1, 1]
        assert dbc.peek_window_slot(0) == [0, 1, 0, 1]

    @pytest.mark.parametrize("super_carry", [False, True])
    def test_carry_digits_mask_the_block_end(self, super_carry):
        # S always; C while a next track is in the block; C' also needs
        # a super carry and the track after that.
        for steps in range(7):
            assert carry_digits(steps, super_carry) == tuple(
                1 + (k + 1 < steps) + (super_carry and k + 2 < steps)
                for k in range(steps)
            )
        assert carry_outputs(4, 7, 0b110, super_carry) == [
            (4, 0, 0), (5, 1, 1), (6, 0, 1),
        ][: 2 + super_carry]
        assert carry_outputs(5, 7, 0b011, super_carry) == [(5, 0, 1), (6, 1, 1)]

    @pytest.mark.parametrize("trd, votes", [(7, 1), (7, 3), (3, 1)])
    def test_walks_on_one_copy_cost_as_separate_walks(self, trd, votes):
        # Walks of several shapes on one copy (two runs of one shape among
        # them) record, leave and answer as the same walks one by one.
        from repro.device.faults import FaultConfig

        walks = [([0], 8), ([0], 8), ([0], 5), ([0, 8], 4), ([0], 8)]
        clusters = []
        for _ in range(2):
            dbc = make_dbc(
                tracks=16, trd=trd,
                injector=FaultInjector(FaultConfig(tr_fault_rate=0.1, seed=3)),
            )
            dbc.tr_vote_reads = votes
            for slot in range(dbc.window_size):
                dbc.poke_window_slot(slot, [(t * slot) % 3 == 0 for t in range(16)])
            clusters.append(dbc)
        chained, separate = clusters
        with chained.window_copy(0, 16) as window:
            chained_sums = [window.walk(*walk) for walk in walks]
        separate_sums = [separate.carry_walk(*walk) for walk in walks]
        assert chained_sums == separate_sums
        assert repr(chained.stats) == repr(separate.stats)
        assert chained.vote_stats == separate.vote_stats
        assert (chained._domains == separate._domains).all()

    def test_walk_stopped_by_a_bad_level_records_the_steps_done(self):
        # A window of 9 domains can sense a level above 7: the walk stops
        # before that step writes, and only the steps done are recorded.
        dbc = DomainBlockCluster(
            tracks=8, domains=32, params=DeviceParameters(trd=9),
            port_positions=(12, 20),
        )
        # Levels 7, 6 and 9: the carries of steps 0 and 1 keep track 2
        # full, and step 2 senses 9.
        for slot in range(9):
            dbc.poke_window_slot(slot, [slot <= 6, slot <= 5, 1, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="level 9 outside"):
            dbc.carry_walk([0], 5)
        tr = dbc.params.transverse_read
        assert dbc.stats.op_counts == {
            "transverse_read": 2, "write_bit": 6, "carry_write": 2,
        }
        assert dbc.stats.cycles == 2 * (tr.cycles + 1)

    def test_overhead_override(self):
        dbc = make_dbc(tracks=2, overhead=(5, 100))
        assert dbc.overhead == (5, 100)
        assert dbc.length == 5 + 32 + 100


class TestLongNanowires:
    """The architecture scales to 32 <= Y <= 512 (Section II-B)."""

    def test_y512_dbc_operates(self):
        from repro.core.addition import MultiOperandAdder

        dbc = DomainBlockCluster(
            tracks=16, domains=512, params=DeviceParameters(trd=7)
        )
        assert dbc.window_size == 7
        adder = MultiOperandAdder(dbc)
        assert adder.add_words([100, 200], 8).value == 300

    def test_y512_port_positions_centered(self):
        lo, hi = pim_port_positions(512, 7)
        assert hi - lo + 1 == 7
        assert 200 < lo < 312

    def test_y128_shifting_and_overhead(self):
        dbc = DomainBlockCluster(
            tracks=4, domains=128, params=DeviceParameters(trd=7)
        )
        dbc.poke_row(64, [1, 0, 1, 0])
        dbc.align(64, 0)
        assert dbc.read_row(0).tolist() == [1, 0, 1, 0]
