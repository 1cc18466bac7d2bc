"""Tests for crash-safe checkpointing and bit-identical resume.

The tentpole guarantee: a campaign interrupted at any point and resumed
from its journal produces exactly the final report of the uninterrupted
run — RNG streams, fault counters, and device state all survive the
round trip through JSON.
"""

import json
import random

import pytest

from repro.reliability.campaign import (
    CampaignConfig,
    resume_add_campaign,
    run_add_campaign,
)
from repro.reliability.montecarlo import FaultCampaign
from repro.resilience import checkpoint as ckpt
from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
)


def storm_config(seed=0, ops=60):
    return CampaignConfig(
        ops=ops,
        tr_fault_rate=1e-2,
        shift_fault_rate=1e-3,
        seed=seed,
        recovery=True,
        adaptive=True,
        scrub_interval=8,
        storm_ops=ops // 2,
        calm_tr_fault_rate=1e-5,
        storage_rows=4,
    )


class TestPrimitives:
    def test_rng_state_json_roundtrip(self):
        rng = random.Random(1234)
        rng.random()
        state = ckpt.rng_state_to_json(rng.getstate())
        # Survives an actual JSON round trip (tuples become lists).
        state = json.loads(json.dumps(state))
        clone = random.Random()
        clone.setstate(ckpt.rng_state_from_json(state))
        assert [clone.random() for _ in range(5)] == [
            rng.random() for _ in range(5)
        ]

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ckpt.save_checkpoint(path, {"hello": [1, 2, 3]})
        document = ckpt.load_checkpoint(path)
        assert document["hello"] == [1, 2, 3]
        assert document["format"] == ckpt.FORMAT_VERSION

    def test_save_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ckpt.save_checkpoint(path, {"n": 1})
        ckpt.save_checkpoint(path, {"n": 2})
        assert ckpt.load_checkpoint(path)["n"] == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "ck.json"]

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"format": ckpt.FORMAT_VERSION + 1}))
        with pytest.raises(CheckpointError):
            ckpt.load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "document", ["[1, 2]", '"text"', "null"], ids=["list", "str", "null"]
    )
    def test_non_object_document_rejected(self, tmp_path, document):
        path = tmp_path / "ck.json"
        path.write_text(document)
        with pytest.raises(CheckpointError, match="not a JSON object"):
            ckpt.load_checkpoint(str(path))

    def test_fingerprint_mismatch_raises(self):
        document = {"fingerprint": {"seed": 0}}
        ckpt.verify_fingerprint(document, {"seed": 0}, "ck.json")
        with pytest.raises(CheckpointMismatchError):
            ckpt.verify_fingerprint(document, {"seed": 1}, "ck.json")

    def test_fingerprint_mismatch_names_differing_fields(self):
        document = {"fingerprint": {"seed": 0, "ops": 10}}
        with pytest.raises(CheckpointMismatchError, match="seed"):
            ckpt.verify_fingerprint(
                document, {"seed": 1, "ops": 10}, "ck.json"
            )

    def test_v1_journal_still_readable(self, tmp_path):
        # Pre-sharding journals (format 1, no config hash / shard
        # fields) must keep loading and resuming as shard 0 of 1.
        path = tmp_path / "ck.json"
        path.write_text(
            json.dumps({"format": 1, "fingerprint": {"seed": 0}, "op": 5})
        )
        document = ckpt.load_checkpoint(str(path))
        assert document["op"] == 5
        ckpt.verify_resume(document, {"seed": 0}, str(path))

    def test_discard_torn_temp(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ckpt.save_checkpoint(path, {"n": 1})
        assert not ckpt.discard_torn_temp(path)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write('{"format": 2, "trunc')
        assert ckpt.discard_torn_temp(path)
        assert not (tmp_path / "ck.json.tmp").exists()
        # The intact journal itself is untouched.
        assert ckpt.load_checkpoint(path)["n"] == 1

    def test_config_hash_is_stable_and_order_free(self):
        assert ckpt.config_hash({"a": 1, "b": 2}) == ckpt.config_hash(
            {"b": 2, "a": 1}
        )
        assert ckpt.config_hash({"a": 1}) != ckpt.config_hash({"a": 2})
        assert len(ckpt.config_hash({"a": 1})) == 16


class TestVerifyResume:
    def document(self, fingerprint, shard=0, shards=1):
        return {
            "format": ckpt.FORMAT_VERSION,
            "fingerprint": fingerprint,
            "config_hash": ckpt.config_hash(fingerprint),
            "shard": shard,
            "shards": shards,
        }

    def test_matching_document_passes(self):
        fp = {"seed": 0, "ops": 10}
        ckpt.verify_resume(self.document(fp), fp, "ck.json")
        ckpt.verify_resume(
            self.document(fp, shard=2, shards=4), fp, "ck.json",
            shard=2, shards=4,
        )

    def test_unknown_format_rejected(self):
        fp = {"seed": 0}
        document = self.document(fp)
        document["format"] = 99
        with pytest.raises(CheckpointMismatchError, match="format"):
            ckpt.verify_resume(document, fp, "ck.json")

    def test_config_hash_mismatch_rejected(self):
        document = self.document({"seed": 0})
        with pytest.raises(CheckpointMismatchError, match="config hash"):
            ckpt.verify_resume(document, {"seed": 1}, "ck.json")

    def test_shard_identity_mismatch_rejected(self):
        fp = {"seed": 0}
        document = self.document(fp, shard=1, shards=4)
        with pytest.raises(CheckpointMismatchError, match="shard"):
            ckpt.verify_resume(document, fp, "ck.json", shard=2, shards=4)
        with pytest.raises(CheckpointMismatchError, match="shard"):
            ckpt.verify_resume(document, fp, "ck.json", shard=1, shards=2)

    def test_saved_v2_journal_round_trips(self, tmp_path):
        fp = {"seed": 3, "ops": 7}
        path = str(tmp_path / "ck.json")
        ckpt.save_checkpoint(
            path,
            {
                "fingerprint": fp,
                "config_hash": ckpt.config_hash(fp),
                "shard": 1,
                "shards": 2,
            },
        )
        document = ckpt.load_checkpoint(path)
        assert document["format"] == 2
        ckpt.verify_resume(document, fp, path, shard=1, shards=2)


class TestCampaignResume:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("stop_after", [1, 23, 59])
    def test_resume_is_bit_identical(self, tmp_path, seed, stop_after):
        config = storm_config(seed=seed)
        baseline = run_add_campaign(config).summary()
        path = str(tmp_path / "campaign.json")
        partial = run_add_campaign(
            config,
            checkpoint_path=path,
            checkpoint_every=7,
            stop_after=stop_after,
        )
        assert not partial.completed
        resumed = resume_add_campaign(
            config, checkpoint_path=path, checkpoint_every=7
        )
        assert resumed.completed
        assert resumed.resumed_from == stop_after
        summary = resumed.summary()
        summary.pop("resumed_from")
        assert summary == baseline

    def test_multi_leg_resume(self, tmp_path):
        config = storm_config(seed=3)
        baseline = run_add_campaign(config).summary()
        path = str(tmp_path / "campaign.json")
        legs = 0
        result = run_add_campaign(
            config, checkpoint_path=path, checkpoint_every=5, stop_after=13
        )
        while not result.completed:
            legs += 1
            result = resume_add_campaign(
                config, checkpoint_path=path,
                checkpoint_every=5, stop_after=13,
            )
        assert legs >= 4
        summary = result.summary()
        summary.pop("resumed_from")
        assert summary == baseline

    def test_resume_of_finished_run_is_idempotent(self, tmp_path):
        config = storm_config(seed=1, ops=20)
        path = str(tmp_path / "campaign.json")
        first = run_add_campaign(config, checkpoint_path=path)
        again = resume_add_campaign(config, checkpoint_path=path)
        assert again.resumed_from == config.ops
        summary = again.summary()
        summary.pop("resumed_from")
        assert summary == first.summary()

    def test_resume_without_journal_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            resume_add_campaign(
                storm_config(), str(tmp_path / "missing.json")
            )

    def test_journal_of_other_config_rejected(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        run_add_campaign(
            storm_config(seed=0), checkpoint_path=path, stop_after=5
        )
        with pytest.raises(CheckpointMismatchError):
            run_add_campaign(storm_config(seed=1), checkpoint_path=path)


class TestMonteCarloResume:
    def campaign(self, seed=0):
        return FaultCampaign(trd=7, fault_rate=5e-3, seed=seed)

    @pytest.mark.parametrize("stop_after", [1, 17, 39])
    def test_additions_resume_identical(self, tmp_path, stop_after):
        baseline = self.campaign().run_additions(trials=40)
        path = str(tmp_path / "mc.json")
        partial = self.campaign().run_additions(
            trials=40,
            checkpoint_path=path,
            checkpoint_every=10,
            stop_after=stop_after,
        )
        assert not partial.completed
        resumed = self.campaign().run_additions(
            trials=40, checkpoint_path=path, checkpoint_every=10
        )
        assert resumed.completed
        assert (resumed.trials, resumed.errors) == (
            baseline.trials,
            baseline.errors,
        )
        assert resumed.error_rate == baseline.error_rate

    def test_multiplies_resume_identical(self, tmp_path):
        baseline = self.campaign(seed=2).run_multiplies(trials=25)
        path = str(tmp_path / "mc.json")
        self.campaign(seed=2).run_multiplies(
            trials=25, checkpoint_path=path,
            checkpoint_every=5, stop_after=8,
        )
        resumed = self.campaign(seed=2).run_multiplies(
            trials=25, checkpoint_path=path, checkpoint_every=5
        )
        assert (resumed.trials, resumed.errors) == (
            baseline.trials,
            baseline.errors,
        )

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "mc.json")
        self.campaign().run_additions(
            trials=10, checkpoint_path=path, stop_after=3
        )
        with pytest.raises(CheckpointMismatchError):
            self.campaign().run_multiplies(trials=10, checkpoint_path=path)


class TestDBCState:
    """A cluster's journaled per-track state, through JSON and back."""

    @staticmethod
    def make(seed):
        from repro.arch.dbc import DomainBlockCluster
        from repro.device.faults import FaultConfig, FaultInjector
        from repro.device.parameters import DeviceParameters

        dbc = DomainBlockCluster(
            tracks=6,
            domains=32,
            params=DeviceParameters(trd=7),
            injector=FaultInjector(
                FaultConfig(shift_fault_rate=0.3, seed=seed)
            ),
        )
        for row in range(dbc.domains):
            dbc.poke_row(row, [(row >> t) & 1 for t in range(6)])
        for _ in range(5):
            dbc.shift(1)  # shift faults leave the tracks misaligned
        return dbc

    def journaled(self, dbc):
        return json.loads(json.dumps(ckpt.dbc_state(dbc)))

    def test_round_trip(self):
        dbc = self.make(seed=0)
        assert dbc.misaligned_tracks
        state = self.journaled(dbc)
        assert [len(track) for track in state["wires"]] == [3] * 6
        other = self.make(seed=1)
        ckpt.restore_dbc_state(other, state)
        assert other.snapshot() == dbc.snapshot()
        assert other.misaligned_tracks == dbc.misaligned_tracks

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda wires: wires[2][0].pop(),
            lambda wires: wires[2][0].__setitem__(4, 2),
            lambda wires: wires[2].__setitem__(1, 999),
            lambda wires: wires[2].__setitem__(2, wires[2][2] + 1),
        ],
        ids=["short_track", "non_bit", "offset_off_wire", "commanded_split"],
    )
    def test_malformed_track_state_rejected(self, corrupt):
        dbc = self.make(seed=0)
        state = self.journaled(dbc)
        corrupt(state["wires"])
        before = dbc.snapshot()
        with pytest.raises(ValueError):
            ckpt.restore_dbc_state(dbc, state)
        assert dbc.snapshot() == before
