"""Tests for sharded campaigns: supervision + bit-identical merge.

The tentpole guarantee, verified by literally diffing the canonical
report bytes: a campaign split into N supervised worker processes — even
one whose workers get SIGKILLed, hang past the timeout, or resume from
per-shard journals — produces exactly the report of the sequential
in-process run, which for ``shards=1`` is the plain single-process
campaign.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability.campaign import (
    CampaignConfig,
    run_add_campaign,
    shard_bounds,
)
from repro.reliability.montecarlo import FaultCampaign
from repro.reliability.sharded import (
    CAMPAIGN_SCHEMA,
    MC_SCHEMA,
    ShardSupervisor,
    journal_path,
    merge_campaign_records,
    report_bytes,
    run_sharded_campaign,
    run_sharded_mc,
)
from repro.telemetry import TelemetryHub


def _fail_first_attempt(spec):
    """A pool-picklable worker that fails each shard's first attempt."""
    if spec["attempt"] == 1:
        raise RuntimeError("first attempt")
    return {"shard": spec["shard"], "record": dict(spec),
            "wall_seconds": 0.0}


def storm_config(seed=0, ops=40):
    return CampaignConfig(
        ops=ops,
        tr_fault_rate=1e-2,
        shift_fault_rate=1e-3,
        seed=seed,
        recovery=True,
        scrub_interval=8,
        storm_ops=ops // 2,
        calm_tr_fault_rate=1e-4,
    )


class TestShardBounds:
    def test_partition_is_contiguous_and_complete(self):
        for ops, shards in ((40, 4), (41, 4), (7, 3), (5, 5)):
            bounds = [shard_bounds(ops, k, shards) for k in range(shards)]
            assert bounds[0][0] == 0
            assert bounds[-1][1] == ops
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo
            sizes = [hi - lo for lo, hi in bounds]
            assert max(sizes) - min(sizes) <= 1

    def test_single_shard_is_whole_range(self):
        assert shard_bounds(100, 0, 1) == (0, 100)

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0, 0)
        with pytest.raises(ValueError):
            shard_bounds(10, 4, 4)
        with pytest.raises(ValueError):
            shard_bounds(3, 0, 4)

    def test_more_shards_than_ops_rejected_at_every_index(self):
        # The guard must hold for every shard index, not just shard 0:
        # a worker asking for shard 3 of a 2-op run is a caller bug.
        for shard in range(4):
            with pytest.raises(ValueError, match="cannot split"):
                shard_bounds(2, shard, 4)

    def test_zero_ops_rejected(self):
        # CampaignConfig already requires ops >= 1; shard_bounds must
        # not quietly hand out empty ranges below that floor.
        with pytest.raises(ValueError):
            shard_bounds(0, 0, 1)
        with pytest.raises(ValueError):
            shard_bounds(0, 0, 2)

    def test_single_op_single_shard(self):
        assert shard_bounds(1, 0, 1) == (0, 1)

    def test_ops_equal_shards_gives_one_op_each(self):
        bounds = [shard_bounds(3, k, 3) for k in range(3)]
        assert bounds == [(0, 1), (1, 2), (2, 3)]


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_multiprocess_equals_sequential(self, shards):
        config = storm_config()
        sequential = run_sharded_campaign(config, shards=shards, workers=0)
        multiproc = run_sharded_campaign(config, shards=shards)
        assert report_bytes(sequential.report) == report_bytes(
            multiproc.report
        )
        assert sequential.report["schema"] == CAMPAIGN_SCHEMA

    def test_single_shard_merge_matches_plain_run(self):
        config = storm_config(seed=2)
        plain = run_add_campaign(config).summary()
        merged = run_sharded_campaign(config, shards=1, workers=0).report[
            "merged"
        ]
        for key, value in merged.items():
            assert plain[key] == value, key

    def test_report_is_wall_clock_free(self):
        config = storm_config(seed=1)
        blob = report_bytes(
            run_sharded_campaign(config, shards=2, workers=0).report
        )
        assert b"wall" not in blob
        assert b"resumed_from" not in blob


class TestCrashRecovery:
    def test_sigkilled_worker_resumes_bit_identical(self, tmp_path):
        config = storm_config(seed=4)
        baseline = run_sharded_campaign(config, shards=2, workers=0)
        crashed = run_sharded_campaign(
            config,
            shards=2,
            journal_dir=str(tmp_path / "j"),
            checkpoint_every=5,
            crash={"shard": 1, "at_op": 30, "mode": "kill"},
        )
        statuses = [
            a.status for a in crashed.attempts if a.shard == 1
        ]
        assert statuses == ["crashed", "completed"]
        assert crashed.complete
        assert report_bytes(crashed.report) == report_bytes(baseline.report)
        # The merged report was persisted next to the journals.
        on_disk = (tmp_path / "j" / "report.json").read_bytes()
        assert on_disk == report_bytes(baseline.report)

    def test_crash_fires_on_the_first_attempt_only(self, tmp_path):
        # The retry knows its attempt number: no marker file is left.
        result = run_sharded_campaign(
            storm_config(seed=4),
            shards=2,
            journal_dir=str(tmp_path),
            crash={"shard": 0, "at_op": 3, "mode": "kill"},
        )
        assert [
            (a.attempt, a.status) for a in result.attempts if a.shard == 0
        ] == [(1, "crashed"), (2, "completed")]
        assert sorted(os.listdir(tmp_path)) == [
            "journal.shard-0.json", "journal.shard-1.json", "report.json"
        ]

    def test_hung_worker_times_out_and_retries(self, tmp_path):
        config = storm_config(seed=5)
        baseline = run_sharded_campaign(config, shards=2, workers=0)
        hub = TelemetryHub()
        hung = run_sharded_campaign(
            config,
            shards=2,
            journal_dir=str(tmp_path / "j"),
            checkpoint_every=5,
            shard_timeout=3.0,
            telemetry=hub,
            crash={"shard": 0, "at_op": 10, "mode": "hang"},
        )
        assert hung.complete
        assert report_bytes(hung.report) == report_bytes(baseline.report)
        counters = hub.metrics_dict()["counters"]
        assert counters["campaign.shard_timeout"] >= 1
        assert counters["campaign.shard_retries"] >= 1

    def test_retry_exhaustion_degrades_gracefully(self, tmp_path):
        config = storm_config(seed=6)
        hub = TelemetryHub()
        degraded = run_sharded_campaign(
            config,
            shards=2,
            journal_dir=str(tmp_path / "j"),
            max_shard_retries=1,
            telemetry=hub,
            crash={"shard": 1, "at_op": 25, "mode": "kill-always"},
        )
        assert not degraded.complete
        assert degraded.incomplete_shards == [1]
        assert degraded.report["incomplete_shards"] == [
            {"shard": 1, "reason": "worker crashed"}
        ]
        # The healthy shard's results are still in the partial report.
        assert [r["shard"] for r in degraded.report["shard_reports"]] == [0]
        assert degraded.report["merged"]["ops"] == shard_bounds(
            config.ops, 0, 2
        )[1]
        assert hub.metrics_dict()["counters"][
            "campaign.incomplete_shards"
        ] == 1

    def test_crash_injection_rejected_inline(self):
        with pytest.raises(ValueError):
            run_sharded_campaign(
                storm_config(),
                shards=2,
                workers=0,
                crash={"shard": 0, "at_op": 1},
            )


class TestJournalRobustness:
    def test_torn_temp_file_is_discarded(self, tmp_path):
        config = storm_config(seed=7)
        baseline = run_sharded_campaign(config, shards=2, workers=0)
        journal_dir = tmp_path / "j"
        journal_dir.mkdir()
        # A crash mid-save leaves a truncated temp beside the journal.
        torn = journal_path(str(journal_dir), 0) + ".tmp"
        with open(torn, "w", encoding="utf-8") as fh:
            fh.write('{"format": 2, "trunca')
        result = run_sharded_campaign(
            config, shards=2, workers=0, journal_dir=str(journal_dir)
        )
        assert not os.path.exists(torn)
        assert report_bytes(result.report) == report_bytes(baseline.report)

    def test_corrupt_journal_is_quarantined(self, tmp_path):
        config = storm_config(seed=8)
        baseline = run_sharded_campaign(config, shards=2, workers=0)
        journal_dir = tmp_path / "j"
        journal_dir.mkdir()
        journal = journal_path(str(journal_dir), 1)
        with open(journal, "w", encoding="utf-8") as fh:
            fh.write("not json at all")
        result = run_sharded_campaign(
            config, shards=2, workers=0, journal_dir=str(journal_dir)
        )
        assert os.path.exists(journal + ".corrupt")
        assert report_bytes(result.report) == report_bytes(baseline.report)

    def test_non_object_journal_is_quarantined(self, tmp_path):
        # Valid JSON that is no checkpoint is as corrupt as torn JSON.
        config = CampaignConfig(ops=40)
        baseline = run_sharded_campaign(config, shards=2, workers=0)
        journal_dir = tmp_path / "j"
        journal_dir.mkdir()
        journal = journal_path(str(journal_dir), 0)
        with open(journal, "w", encoding="utf-8") as fh:
            fh.write("[1, 2]")
        result = run_sharded_campaign(
            config, shards=2, workers=0, journal_dir=str(journal_dir)
        )
        assert os.path.exists(journal + ".corrupt")
        assert report_bytes(result.report) == report_bytes(baseline.report)

    def test_stale_journal_of_other_campaign_fails_shard(self, tmp_path):
        # A journal from a different config is a configuration error:
        # the shard fails (and is retried / reported), never silently
        # merges foreign state.
        journal_dir = tmp_path / "j"
        run_sharded_campaign(
            storm_config(seed=0),
            shards=2,
            workers=0,
            journal_dir=str(journal_dir),
        )
        for shard in range(2):
            assert os.path.exists(journal_path(str(journal_dir), shard))
        result = run_sharded_campaign(
            storm_config(seed=99),
            shards=2,
            workers=0,
            max_shard_retries=0,
            journal_dir=str(journal_dir),
        )
        assert result.incomplete_shards == [0, 1]
        assert all(
            a.status == "failed" for a in result.attempts
        )


class TestSupervisor:
    def test_inline_failure_retries_then_reports_incomplete(self):
        calls = {"n": 0}

        def worker(spec):
            calls["n"] += 1
            raise RuntimeError("boom")

        supervisor = ShardSupervisor(
            worker,
            [{"shard": 0}],
            workers=0,
            max_shard_retries=2,
        )
        outcome = supervisor.run()
        assert calls["n"] == 3  # first attempt + 2 retries
        assert outcome.incomplete == {0: "failed: boom"}
        assert [a.status for a in outcome.attempts] == ["failed"] * 3
        assert [a.attempt for a in outcome.attempts] == [1, 2, 3]

    @pytest.mark.parametrize("workers", [0, None])
    def test_each_attempt_gets_its_number(self, workers):
        outcome = ShardSupervisor(
            _fail_first_attempt,
            [{"shard": 0}, {"shard": 1}],
            workers=workers,
        ).run()
        for shard in (0, 1):
            assert [
                (a.attempt, a.status)
                for a in outcome.attempts if a.shard == shard
            ] == [(1, "failed"), (2, "completed")]
            assert outcome.results[shard]["record"]["attempt"] == 2

    def test_invalid_supervisor_parameters(self):
        with pytest.raises(ValueError):
            ShardSupervisor(lambda s: s, [], max_shard_retries=-1)
        with pytest.raises(ValueError):
            ShardSupervisor(lambda s: s, [], shard_timeout=0)
        with pytest.raises(ValueError):
            ShardSupervisor(lambda s: s, [], workers=-1)


class TestMerge:
    def record(self, shard, **overrides):
        base = {
            "shard": shard,
            "ops": 10,
            "injected": 20,
            "detected": 18,
            "corrected": 16,
            "escaped": 1,
            "retries": 2,
            "escalations": 0,
            "uncorrectable": 0,
            "overhead_cycles": 100,
            "total_cycles": 400,
            "recovery": True,
            "completed": True,
            "analytic_op_error_rate": 0.01,
        }
        base.update(overrides)
        return base

    def test_counters_sum_and_rates_recompute(self):
        merged = merge_campaign_records(
            [self.record(0), self.record(1, detected=20, corrected=20)],
            analytic_op_error_rate=0.01,
        )
        assert merged["ops"] == 20
        assert merged["injected"] == 40
        assert merged["detection_rate"] == round(38 / 40, 4)
        assert merged["correction_rate"] == round(36 / 40, 4)
        assert merged["observed_op_error_rate"] == round(2 / 20, 6)
        assert merged["completed"]

    def test_scrub_stats_merge_by_key(self):
        merged = merge_campaign_records(
            [
                self.record(0, scrub={"passes": 2, "repaired_tracks": 1}),
                self.record(1, scrub={"passes": 3, "repaired_tracks": 0}),
            ],
            analytic_op_error_rate=0.01,
        )
        assert merged["scrub"] == {"passes": 5, "repaired_tracks": 1}

    def test_unused_storage_keys_dropped(self):
        merged = merge_campaign_records(
            [self.record(0)], analytic_op_error_rate=0.01
        )
        assert "storage_ops" not in merged
        assert "storage_wrong" not in merged

    def test_zero_injected_rates_default_to_one(self):
        merged = merge_campaign_records(
            [
                self.record(
                    0, injected=0, detected=0, corrected=0, escaped=0
                )
            ],
            analytic_op_error_rate=0.0,
        )
        assert merged["detection_rate"] == 1.0
        assert merged["correction_rate"] == 1.0


@st.composite
def campaign_configs(draw):
    ops = draw(st.integers(4, 40))
    recovery = draw(st.booleans())
    return CampaignConfig(
        ops=ops,
        tr_fault_rate=draw(st.sampled_from([0.0, 1e-2])),
        shift_fault_rate=draw(st.sampled_from([0.0, 1e-3])),
        seed=draw(st.integers(0, 1000)),
        recovery=recovery,
        adaptive=recovery and draw(st.booleans()),
        scrub_interval=draw(st.sampled_from([None, 4])),
        storage_rows=draw(st.sampled_from([0, 8])),
        storm_ops=draw(st.sampled_from([None, ops // 2])),
    )


class TestMergeDifferential:
    """The merged summary against plain runs, over generated configs."""

    COUNTERS = ("ops", "injected", "detected", "corrected", "escaped",
                "retries", "escalations", "uncorrectable",
                "overhead_cycles", "total_cycles")

    @settings(max_examples=25, deadline=None)
    @given(config=campaign_configs())
    def test_one_shard_merge_is_the_plain_summary(self, config):
        plain = run_add_campaign(config).summary()
        plain.pop("protection", None)
        merged = run_sharded_campaign(config, shards=1, workers=0).report[
            "merged"
        ]
        assert merged == plain

    @settings(max_examples=25, deadline=None)
    @given(config=campaign_configs(), shards=st.integers(2, 3))
    def test_merged_counters_are_shard_sums(self, config, shards):
        parts = [
            run_add_campaign(config, shard=k, shards=shards).summary()
            for k in range(shards)
        ]
        merged = run_sharded_campaign(
            config, shards=shards, workers=0
        ).report["merged"]
        for key in self.COUNTERS:
            assert merged[key] == sum(p[key] for p in parts), key
        storage = sum(p.get("storage_ops", 0) for p in parts)
        if storage:
            assert merged["storage_ops"] == storage
            assert merged["storage_wrong"] == sum(
                p["storage_wrong"] for p in parts
            )
        else:
            assert "storage_ops" not in merged
        scrubs = [p["scrub"] for p in parts if "scrub" in p]
        assert merged.get("scrub") == (
            {k: sum(s[k] for s in scrubs) for k in scrubs[0]}
            if scrubs else None
        )
        injected, ops = merged["injected"], merged["ops"]
        assert merged["detection_rate"] == round(
            merged["detected"] / injected if injected else 1.0, 4
        )
        assert merged["correction_rate"] == round(
            merged["corrected"] / injected if injected else 1.0, 4
        )
        assert merged["observed_op_error_rate"] == round(
            merged["escaped"] / ops, 6
        )
        assert merged["recovery"] is config.recovery
        assert merged["completed"] is True


class TestShardedMonteCarlo:
    def test_multiprocess_equals_sequential(self):
        kwargs = dict(trials=40, fault_rate=5e-3, seed=3)
        sequential = run_sharded_mc("additions", shards=2, workers=0, **kwargs)
        multiproc = run_sharded_mc("additions", shards=2, **kwargs)
        assert report_bytes(sequential.report) == report_bytes(
            multiproc.report
        )
        assert sequential.report["schema"] == MC_SCHEMA

    def test_single_shard_matches_plain_campaign(self):
        plain = FaultCampaign(trd=7, fault_rate=5e-3, seed=1).run_additions(
            trials=30
        )
        merged = run_sharded_mc(
            "additions",
            trials=30,
            shards=1,
            fault_rate=5e-3,
            seed=1,
            workers=0,
        ).report["merged"]
        assert merged["trials"] == plain.trials
        assert merged["errors"] == plain.errors

    def test_journal_resume_round_trip(self, tmp_path):
        kwargs = dict(trials=30, fault_rate=5e-3, seed=2)
        baseline = run_sharded_mc("additions", shards=2, workers=0, **kwargs)
        journal_dir = str(tmp_path / "j")
        first = run_sharded_mc(
            "additions",
            shards=2,
            workers=0,
            journal_dir=journal_dir,
            checkpoint_every=5,
            **kwargs,
        )
        # Journals persisted; a rerun resumes from them (idempotent).
        again = run_sharded_mc(
            "additions",
            shards=2,
            workers=0,
            journal_dir=journal_dir,
            checkpoint_every=5,
            **kwargs,
        )
        assert report_bytes(first.report) == report_bytes(baseline.report)
        assert report_bytes(again.report) == report_bytes(baseline.report)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_sharded_mc("divisions", trials=10, shards=1, fault_rate=0.01)


class TestShardSummaries:
    def test_supervision_rides_outside_the_canonical_report(self, tmp_path):
        config = storm_config(seed=9)
        result = run_sharded_campaign(
            config,
            shards=2,
            journal_dir=str(tmp_path / "j"),
            checkpoint_every=5,
            crash={"shard": 0, "at_op": 5, "mode": "kill"},
        )
        summaries = {s["shard"]: s for s in result.shard_summaries()}
        assert summaries[0]["supervisor_attempts"] == 2
        assert summaries[1]["supervisor_attempts"] == 1
        assert all("wall_seconds" in s for s in summaries.values())
        # ...but none of it leaks into the report the bytes-diff covers.
        canonical = json.loads(report_bytes(result.report))
        for record in canonical["shard_reports"]:
            assert "supervisor_attempts" not in record
            assert "wall_seconds" not in record
