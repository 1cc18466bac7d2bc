"""Crash-safe checkpoint/resume journaling for long fault campaigns.

A million-op campaign that dies at op 900k must not restart from
scratch — and a resumed run must be *bit-identical* to an uninterrupted
one, or the checkpoint itself becomes a reproducibility hazard. This
module provides the journal: an atomically-replaced JSON file holding
everything a campaign's forward progress depends on — op index, the
operand-stream and fault-injector RNG states, fault counters, the DBC
track state (domain bits + physical/commanded offsets), cycle/energy
stats, health records, and the adaptive-ladder state.

Writes go through :func:`repro.utils.durable.atomic_write`, so a crash
mid-write leaves the previous checkpoint intact; a reader sees either
the old journal or the new one, never a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Tuple

from repro.arch.dbc import DBCSnapshot, DomainBlockCluster, SenseVoteStats
from repro.device.stats import DeviceStats
from repro.resilience.health import DBCHealth, DBCHealthRegistry
from repro.utils.durable import atomic_write, discard_torn_temp

# v2 adds the campaign config hash and shard identity to the journal
# header; v1 journals (pre-sharding) are still readable.
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, FORMAT_VERSION)


class CheckpointError(RuntimeError):
    """The checkpoint file is unreadable or structurally invalid."""


class CheckpointMismatchError(CheckpointError):
    """The checkpoint belongs to a different campaign configuration."""


#: What restoring a parsed journal raises on a missing or mistyped field;
#: journal readers re-raise these as :class:`CheckpointError`.
MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


# ----------------------------------------------------------------------
# RNG state

def rng_state_to_json(state: Tuple) -> List:
    """A ``random.Random.getstate()`` tuple as JSON-safe nested lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(data: List) -> Tuple:
    """The inverse of :func:`rng_state_to_json`."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


# ----------------------------------------------------------------------
# simulator state

def dbc_state(dbc: DomainBlockCluster) -> Dict[str, Any]:
    """Full track state of one cluster (domains + offsets) as JSON.

    Each track is journaled as ``[domains, offset, commanded_offset]``.
    """
    snapshot = dbc.snapshot()
    return {
        "wires": snapshot.track_states(),
        "commanded_offset": snapshot.commanded_offset,
        "stats": device_stats_state(dbc.stats),
        "vote_stats": vote_stats_state(dbc.vote_stats),
    }


def restore_dbc_state(dbc: DomainBlockCluster, state: Dict[str, Any]) -> None:
    wires = state["wires"]
    if len(wires) != dbc.tracks:
        raise CheckpointMismatchError(
            f"checkpoint holds {len(wires)} tracks, cluster has {dbc.tracks}"
        )
    dbc.restore(DBCSnapshot.from_tracks(wires, state["commanded_offset"]))
    restore_device_stats(dbc.stats, state["stats"])
    dbc.vote_stats = SenseVoteStats(**state["vote_stats"])


def device_stats_state(stats: DeviceStats) -> Dict[str, Any]:
    return {
        "op_counts": dict(stats.op_counts),
        "op_cycles": dict(stats.op_cycles),
        "op_energy_pj": dict(stats.op_energy_pj),
        "cycles": stats.cycles,
        "energy_pj": stats.energy_pj,
    }


def restore_device_stats(stats: DeviceStats, state: Dict[str, Any]) -> None:
    stats.op_counts = dict(state["op_counts"])
    # Journals written before per-op breakdowns existed lack these keys.
    stats.op_cycles = dict(state.get("op_cycles", {}))
    stats.op_energy_pj = dict(state.get("op_energy_pj", {}))
    stats.cycles = state["cycles"]
    stats.energy_pj = state["energy_pj"]


def vote_stats_state(stats: SenseVoteStats) -> Dict[str, int]:
    return {
        "votes": stats.votes,
        "disagreements": stats.disagreements,
        "corrected": stats.corrected,
        "unresolved": stats.unresolved,
        "overhead_cycles": stats.overhead_cycles,
    }


def health_state(registry: DBCHealthRegistry) -> List[Dict[str, Any]]:
    return [
        {
            "key": list(key),
            "transients": record.transients,
            "uncorrectables": record.uncorrectables,
            "status": record.status.value,
        }
        for key, record in registry.report().items()
    ]


def restore_health_state(
    registry: DBCHealthRegistry, state: List[Dict[str, Any]]
) -> None:
    for entry in state:
        record = registry.record(tuple(entry["key"]))
        record.transients = entry["transients"]
        record.uncorrectables = entry["uncorrectables"]
        record.status = DBCHealth(entry["status"])


# ----------------------------------------------------------------------
# the journal file

def save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomically persist ``payload`` (plus a format header) to ``path``.

    An interruption at any instant leaves either the previous checkpoint
    or the new one — never a torn journal.
    """
    document = {"format": FORMAT_VERSION, **payload}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write(
        path, json.dumps(document, separators=(",", ":")).encode("utf-8")
    )


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read a journal written by :func:`save_checkpoint` (v1 or v2)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if document.get("format") not in _READABLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint {path} has format {document.get('format')!r}, "
            f"expected one of {_READABLE_VERSIONS}"
        )
    return document


def config_hash(fingerprint: Dict[str, Any]) -> str:
    """A short stable digest of a campaign fingerprint.

    Stored in every v2 journal so a resume against the wrong campaign
    configuration fails with a compact, diffable message instead of a
    dump of two full fingerprints.
    """
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def verify_fingerprint(
    document: Dict[str, Any], fingerprint: Dict[str, Any], path: str
) -> None:
    """Refuse to resume a checkpoint from a different campaign shape."""
    saved = document.get("fingerprint")
    if saved != fingerprint:
        differing = sorted(
            key
            for key in set(saved or {}) | set(fingerprint)
            if (saved or {}).get(key) != fingerprint.get(key)
        )
        raise CheckpointMismatchError(
            f"checkpoint {path} was written by a different campaign "
            f"configuration (differing fields: {', '.join(differing) or '?'}; "
            f"saved {saved!r}, current {fingerprint!r})"
        )


def verify_resume(
    document: Dict[str, Any],
    fingerprint: Dict[str, Any],
    path: str,
    shard: int = 0,
    shards: int = 1,
) -> None:
    """Full resume guard: format, config hash, fingerprint, shard identity.

    v1 journals carry neither a config hash nor shard fields; they are
    accepted as unsharded (shard 0 of 1) and guarded by the fingerprint
    alone, so pre-v2 campaign journals keep resuming.
    """
    fmt = document.get("format")
    if fmt not in _READABLE_VERSIONS:
        raise CheckpointMismatchError(
            f"checkpoint {path} has journal format {fmt!r}; this build "
            f"reads {_READABLE_VERSIONS}"
        )
    expected_hash = config_hash(fingerprint)
    saved_hash = document.get("config_hash")
    if saved_hash is not None and saved_hash != expected_hash:
        raise CheckpointMismatchError(
            f"checkpoint {path} belongs to a different campaign config "
            f"(config hash {saved_hash} != expected {expected_hash}); "
            f"pass the exact config the journal was written with"
        )
    verify_fingerprint(document, fingerprint, path)
    saved_shard = int(document.get("shard", 0))
    saved_shards = int(document.get("shards", 1))
    if (saved_shard, saved_shards) != (shard, shards):
        raise CheckpointMismatchError(
            f"checkpoint {path} journals shard {saved_shard} of "
            f"{saved_shards}, but this run is shard {shard} of {shards}; "
            f"each shard must resume from its own journal"
        )


__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointMismatchError",
    "MALFORMED",
    "config_hash",
    "dbc_state",
    "device_stats_state",
    "discard_torn_temp",
    "health_state",
    "load_checkpoint",
    "restore_dbc_state",
    "restore_device_stats",
    "restore_health_state",
    "rng_state_to_json",
    "rng_state_from_json",
    "save_checkpoint",
    "vote_stats_state",
    "verify_fingerprint",
    "verify_resume",
]
