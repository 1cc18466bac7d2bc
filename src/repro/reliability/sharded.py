"""Sharded fault campaigns: supervised workers, bit-identical merge.

The paper's reliability claims live in the tail — error rates around
1e-6 per op only become visible at millions of operations — and a
single-process campaign cannot sweep fault-rate x TRD x protection
grids at that scale. This module splits a campaign into ``N`` shards,
each a *pure function* of ``(config, shard, shards)``:

* shard ``k`` runs the contiguous global op slice
  :func:`~repro.reliability.campaign.shard_bounds`;
* its operand stream and fault injector are derived substreams
  (:func:`~repro.utils.streams.derive_stream`, SeedSequence-style — not
  ``seed + k`` arithmetic);
* it journals crash-safe per-shard checkpoints
  (``journal.shard-K.json``) through :mod:`repro.resilience.checkpoint`.

Because a shard's result does not depend on *where* it runs, the merge
of per-shard results is **bit-identical** whether the shards ran under
a ``ProcessPoolExecutor``, sequentially in one process, or some of each
after crashes and resumes. :func:`report_bytes` is the canonical
serialisation the tests literally diff.

The supervisor owns the unhappy paths:

* **per-shard timeout** — a wave of workers that overruns its deadline
  is terminated and the affected shards retried;
* **crashed / killed workers** — a SIGKILLed worker breaks the pool;
  every shard it took down is retried *from its own journal* in a fresh
  pool, so forward progress survives;
* **torn journals** — a truncated ``.tmp`` beside an intact journal is
  discarded; a corrupt journal itself is quarantined and the shard
  restarts from scratch (still deterministic);
* **graceful degradation** — a shard that exhausts
  ``max_shard_retries`` is reported in ``incomplete_shards`` and the
  merged report covers the shards that did finish.

Per-shard wall times and retry/timeout/crash counters are published
through the :class:`~repro.telemetry.TelemetryHub` so the obs
scoreboard can gate shard balance and supervisor health.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.reliability.campaign import (
    CampaignConfig,
    CampaignResult,
    run_add_campaign,
    shard_bounds,
)
from repro.resilience import checkpoint as ckpt
from repro.utils.durable import atomic_write

CAMPAIGN_SCHEMA = "coruscant-campaign/2"
MC_SCHEMA = "coruscant-mc-campaign/1"

# Keys of a shard record that hold per-shard *sums* (mergeable ints).
_SUMMED_KEYS = (
    "ops",
    "injected",
    "detected",
    "corrected",
    "escaped",
    "retries",
    "escalations",
    "uncorrectable",
    "overhead_cycles",
    "total_cycles",
    "storage_ops",
    "storage_wrong",
)


# ----------------------------------------------------------------------
# crash injection (tests + the CI smoke job only)


def _crash_hook(crash: Dict[str, Any], attempt: int) -> Callable[[int], None]:
    """An ``on_op`` hook that kills or hangs the worker at one op.

    ``mode`` ``"kill"``/``"hang"`` fire on the shard's first attempt
    only, so the retried worker sails past the same op.
    ``"kill-always"`` fires on every attempt (to exercise retry
    exhaustion and the degraded report).
    """
    at_op = int(crash["at_op"])
    mode = crash.get("mode", "kill")

    def hook(index: int) -> None:
        if index != at_op or (attempt > 1 and mode != "kill-always"):
            return
        if mode == "hang":
            time.sleep(3600)
        elif mode not in ("kill", "kill-always"):
            raise ValueError(f"unknown crash mode {mode!r}")
        os.kill(os.getpid(), signal.SIGKILL)

    return hook


# ----------------------------------------------------------------------
# shard workers (top-level so ProcessPoolExecutor can pickle them)


def _shard_worker(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one shard's ``body``; returns its timed, enveloped record.

    A journal that fails to *load* or restore (torn by an external
    cause, bad JSON, a missing field) is moved aside to
    ``<journal>.corrupt`` and the shard restarts from scratch — the
    restart is deterministic, so the merge guarantee holds. A
    :class:`CheckpointMismatchError` (journal from a different campaign
    or shard) is a configuration error and propagates.
    """
    shard, journal = spec["shard"], spec["journal_path"]
    lo, hi = shard_bounds(spec["total"], shard, spec["shards"])
    started = time.perf_counter()
    try:
        record = spec["body"](spec)
    except ckpt.CheckpointMismatchError:
        raise
    except ckpt.CheckpointError:
        if not os.path.exists(journal):
            raise
        os.replace(journal, journal + ".corrupt")
        record = spec["body"](spec)
    return {
        "shard": shard,
        "record": {"shard": shard, "start": lo, "stop": hi, **record},
        "wall_seconds": time.perf_counter() - started,
    }


def _campaign_shard(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One add-campaign shard's summary, minus ``resumed_from``.

    ``resumed_from`` depends on whether the attempt resumed after a
    crash — sim state does not — so it must not enter the canonical
    report the bit-identity guarantee covers.
    """
    crash, on_op = spec["crash"], None
    if crash is not None and int(crash["shard"]) == spec["shard"]:
        on_op = _crash_hook(crash, spec["attempt"])
    record = run_add_campaign(
        spec["config"],
        checkpoint_path=spec["journal_path"],
        checkpoint_every=spec["checkpoint_every"],
        shard=spec["shard"],
        shards=spec["shards"],
        on_op=on_op,
    ).summary()
    record.pop("resumed_from", None)
    return record


def _mc_shard(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One Monte Carlo shard's trial and error counts."""
    from repro.reliability.montecarlo import FaultCampaign

    fp = spec["config"]
    campaign = FaultCampaign(
        trd=fp["trd"],
        fault_rate=fp["fault_rate"],
        seed=fp["seed"],
        tracks=fp["tracks"],
        shard=spec["shard"],
        shards=spec["shards"],
    )
    result = getattr(campaign, f"run_{fp['kind']}")(
        trials=fp["trials"],
        n_bits=fp["n_bits"],
        checkpoint_path=spec["journal_path"],
        checkpoint_every=spec["checkpoint_every"],
    )
    return {
        "trials": result.trials,
        "errors": result.errors,
        "error_rate": round(result.error_rate, 8),
    }


# ----------------------------------------------------------------------
# the supervisor


@dataclass
class ShardAttempt:
    """One worker attempt, as the supervisor saw it (wall clock and all)."""

    shard: int
    attempt: int
    status: str  # completed | timeout | crashed | failed
    wall_seconds: float
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "shard": self.shard,
            "attempt": self.attempt,
            "status": self.status,
            "wall_seconds": round(self.wall_seconds, 4),
        }
        if self.error:
            record["error"] = self.error
        return record


@dataclass
class SupervisorOutcome:
    """Everything the supervisor learned: payloads, attempts, failures."""

    results: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    attempts: List[ShardAttempt] = field(default_factory=list)
    incomplete: Dict[int, str] = field(default_factory=dict)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool whose workers overran their deadline.

    ``shutdown`` alone would block on the hung workers; killing the
    worker processes first breaks the pool, after which shutdown is a
    bookkeeping no-op.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # already dead / mid-teardown
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class ShardSupervisor:
    """Runs shard specs to completion under timeout/retry supervision.

    Shards run in waves of at most ``workers`` processes so the
    per-shard timeout is measured from when a shard actually starts.
    Any shard whose attempt ends in ``timeout``/``crashed``/``failed``
    is retried — resuming from its own journal — until it completes or
    has consumed ``1 + max_shard_retries`` attempts, at which point it
    is recorded in ``incomplete`` and the campaign degrades gracefully.
    Each attempt runs ``worker`` on its spec plus ``"attempt"``, the
    shard's 1-based attempt number.

    ``workers=0`` runs every shard inline in this process (the
    reference mode the bit-identity tests diff against).
    """

    def __init__(
        self,
        worker: Callable[[Dict[str, Any]], Dict[str, Any]],
        specs: List[Dict[str, Any]],
        workers: Optional[int] = None,
        shard_timeout: Optional[float] = None,
        max_shard_retries: int = 2,
        telemetry=None,
    ) -> None:
        if max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be > 0, got {shard_timeout}"
            )
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.worker = worker
        self.specs = {spec["shard"]: spec for spec in specs}
        self.workers = workers
        self.shard_timeout = shard_timeout
        self.max_attempts = 1 + max_shard_retries
        self.telemetry = telemetry

    # ------------------------------------------------------------------

    def run(self) -> SupervisorOutcome:
        outcome = SupervisorOutcome()
        attempts = {shard: 0 for shard in self.specs}
        last_reason = {shard: "never ran" for shard in self.specs}
        pending = set(self.specs)
        while pending:
            runnable = sorted(
                s for s in pending if attempts[s] < self.max_attempts
            )
            for shard in sorted(pending - set(runnable)):
                outcome.incomplete[shard] = last_reason[shard]
                pending.discard(shard)
                if self.telemetry is not None:
                    self.telemetry.emit(
                        "campaign.shard_incomplete", shard=shard,
                        shard_id=shard,
                    )
            if not runnable:
                break
            if self.workers == 0:
                self._run_inline(runnable, outcome, attempts,
                                 last_reason, pending)
                continue
            wave_width = self.workers or len(runnable)
            for i in range(0, len(runnable), wave_width):
                self._run_wave(
                    runnable[i : i + wave_width],
                    outcome, attempts, last_reason, pending,
                )
        return outcome

    # ------------------------------------------------------------------

    def _record(
        self,
        outcome: SupervisorOutcome,
        shard: int,
        attempt: int,
        status: str,
        wall: float,
        error: Optional[str] = None,
    ) -> None:
        outcome.attempts.append(
            ShardAttempt(shard, attempt, status, wall, error)
        )
        hub = self.telemetry
        if hub is not None:
            hub.emit(
                "campaign.shard_attempt", shard=shard, shard_id=shard,
                status=status, wall_seconds=wall,
            )
            # Every attempt that did not complete triggers a retry.
            if status != "completed":
                hub.emit("campaign.shard_retry")

    def _run_inline(self, runnable, outcome, attempts, last_reason, pending):
        for shard in runnable:
            attempts[shard] += 1
            started = time.perf_counter()
            try:
                payload = self.worker(
                    {**self.specs[shard], "attempt": attempts[shard]}
                )
            except Exception as exc:
                wall = time.perf_counter() - started
                last_reason[shard] = f"failed: {exc}"
                self._record(outcome, shard, attempts[shard], "failed",
                             wall, str(exc))
            else:
                outcome.results[shard] = payload
                pending.discard(shard)
                self._record(outcome, shard, attempts[shard], "completed",
                             payload["wall_seconds"])

    def _run_wave(self, wave, outcome, attempts, last_reason, pending):
        # One single-worker pool per shard: a SIGKILLed worker breaks
        # only its own pool, so crashes (and timeout terminations) are
        # attributed to the shard that actually misbehaved instead of
        # burning retries of every shard sharing a pool.
        pools = {
            shard: ProcessPoolExecutor(max_workers=1) for shard in wave
        }
        started = time.monotonic()
        deadline = (
            None if self.shard_timeout is None
            else started + self.shard_timeout
        )
        try:
            futures = {}
            for shard in wave:
                attempts[shard] += 1
                future = pools[shard].submit(
                    self.worker,
                    {**self.specs[shard], "attempt": attempts[shard]},
                )
                futures[future] = shard
            not_done = set(futures)
            while not_done:
                timeout = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                done, not_done = wait(
                    not_done, timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                if not done:
                    # Deadline expired with workers still running: kill
                    # exactly those shards' pools and retry them later.
                    for future in not_done:
                        shard = futures[future]
                        last_reason[shard] = (
                            f"timeout after {self.shard_timeout}s"
                        )
                        self._record(
                            outcome, shard, attempts[shard], "timeout",
                            now - started,
                        )
                        _terminate_pool(pools[shard])
                    return
                for future in done:
                    shard = futures[future]
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        last_reason[shard] = "worker crashed"
                        self._record(
                            outcome, shard, attempts[shard], "crashed",
                            now - started,
                        )
                    except Exception as exc:
                        last_reason[shard] = f"failed: {exc}"
                        self._record(
                            outcome, shard, attempts[shard], "failed",
                            now - started, str(exc),
                        )
                    else:
                        outcome.results[shard] = payload
                        pending.discard(shard)
                        self._record(
                            outcome, shard, attempts[shard], "completed",
                            payload["wall_seconds"],
                        )
                    pools[shard].shutdown(wait=False, cancel_futures=True)
        finally:
            for pool in pools.values():
                pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# deterministic merge


def _merge_scrub(records: List[Dict[str, Any]]) -> Optional[Dict[str, int]]:
    scrubs = [r["scrub"] for r in records if r.get("scrub") is not None]
    if not scrubs:
        return None
    merged: Dict[str, int] = {}
    for scrub in scrubs:
        for key, value in scrub.items():
            merged[key] = merged.get(key, 0) + int(value)
    return merged


def merge_campaign_records(
    records: List[Dict[str, Any]],
    analytic_op_error_rate: float,
) -> Dict[str, Any]:
    """Recombine per-shard records into the single-run totals.

    Counter fields sum, and :meth:`CampaignResult.summary` computes the
    rates from the sums, so a 1-shard merge reproduces the plain summary
    field-for-field. Adaptive-protection state is inherently
    per-DBC-per-shard and stays in the shard records rather than being
    averaged into nonsense here.
    """
    sums = {
        key: sum(int(record.get(key, 0)) for record in records)
        for key in _SUMMED_KEYS
    }
    sums["injected_tr_faults"] = sums.pop("injected")
    return CampaignResult(
        recovery=bool(records) and all(r["recovery"] for r in records),
        completed=all(r["completed"] for r in records),
        analytic_op_error_rate=analytic_op_error_rate,
        scrub=_merge_scrub(records),
        **sums,
    ).summary()


def _report(
    schema: str,
    kind: str,
    config: Dict[str, Any],
    shards: int,
    records: List[Dict[str, Any]],
    incomplete: Dict[int, str],
    merge: Callable[[List[Dict[str, Any]]], Dict[str, Any]],
    **header: Any,
) -> Dict[str, Any]:
    """The report envelope both campaign kinds share."""
    ordered = sorted(records, key=lambda r: r["shard"])
    return {
        "schema": schema,
        "kind": kind,
        "config": config,
        **header,
        "shards": shards,
        "shard_reports": ordered,
        "merged": merge(ordered),
        "incomplete_shards": [
            {"shard": shard, "reason": reason}
            for shard, reason in sorted(incomplete.items())
        ],
    }


def build_campaign_report(
    config: CampaignConfig,
    shards: int,
    records: List[Dict[str, Any]],
    incomplete: Dict[int, str],
) -> Dict[str, Any]:
    """The canonical merged report — JSON-stable, wall-clock-free.

    Everything in here is a pure function of ``(config, shards)`` plus
    which shards completed; :func:`report_bytes` of this document is
    what must be byte-identical between a multiprocess run, a
    sequential run, and a crashed-then-resumed run.
    """
    fingerprint = config.fingerprint()
    return _report(
        CAMPAIGN_SCHEMA, "add_campaign", fingerprint, shards, records,
        incomplete,
        lambda ordered: merge_campaign_records(
            ordered,
            ordered[0]["analytic_op_error_rate"] if ordered else 0.0,
        ),
        config_hash=ckpt.config_hash(fingerprint),
    )


def build_mc_report(
    fingerprint: Dict[str, Any],
    shards: int,
    records: List[Dict[str, Any]],
    incomplete: Dict[int, str],
) -> Dict[str, Any]:
    """The canonical merged Monte Carlo report (trials and errors sum)."""

    def merge(ordered: List[Dict[str, Any]]) -> Dict[str, Any]:
        trials = sum(r["trials"] for r in ordered)
        errors = sum(r["errors"] for r in ordered)
        return {
            "trials": trials,
            "errors": errors,
            "error_rate": round(errors / trials if trials else 0.0, 8),
            "injected_rate": fingerprint["fault_rate"],
        }

    return _report(
        MC_SCHEMA, fingerprint["kind"], fingerprint, shards, records,
        incomplete, merge,
    )


def report_bytes(report: Dict[str, Any]) -> bytes:
    """The canonical serialisation the bit-identity tests diff."""
    return (
        json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def write_report(report: Dict[str, Any], path: str) -> None:
    """Atomically write the canonical report next to the journals."""
    atomic_write(path, report_bytes(report))


# ----------------------------------------------------------------------
# campaign + MC entry points


@dataclass
class ShardedRunResult:
    """A sharded run: the canonical report plus supervisor accounting."""

    report: Dict[str, Any]
    attempts: List[ShardAttempt]
    journal_dir: Optional[str]

    @property
    def incomplete_shards(self) -> List[int]:
        return [e["shard"] for e in self.report["incomplete_shards"]]

    @property
    def complete(self) -> bool:
        return not self.report["incomplete_shards"]

    def shard_summaries(self) -> List[Dict[str, Any]]:
        """Per-shard records with supervisor wall time/attempts folded in.

        This is the ``--json`` payload's view — wall-clock and retry
        counts ride alongside the deterministic record, they are just
        kept out of the canonical report.
        """
        by_shard: Dict[int, Dict[str, Any]] = {}
        for attempt in self.attempts:
            entry = by_shard.setdefault(
                attempt.shard, {"attempts": 0, "wall_seconds": 0.0}
            )
            entry["attempts"] += 1
            entry["wall_seconds"] += attempt.wall_seconds
            entry["last_status"] = attempt.status
        summaries = []
        for record in self.report["shard_reports"]:
            supervision = by_shard.get(record["shard"], {})
            summaries.append(
                {
                    **record,
                    "supervisor_attempts": supervision.get("attempts", 1),
                    "wall_seconds": round(
                        supervision.get("wall_seconds", 0.0), 4
                    ),
                }
            )
        return summaries


def journal_path(journal_dir: str, shard: int) -> str:
    return os.path.join(journal_dir, f"journal.shard-{shard}.json")


def _run_sharded(
    body: Callable[[Dict[str, Any]], Dict[str, Any]],
    total: int,
    shards: int,
    common: Dict[str, Any],
    build_report: Callable[..., Dict[str, Any]],
    journal_dir: Optional[str],
    **supervision: Any,
) -> ShardedRunResult:
    """The one run path of both campaign kinds.

    Shard ``k``'s spec is ``common`` plus its identity and journal path;
    :func:`_shard_worker` runs ``body`` on it under a
    :class:`ShardSupervisor` built with ``supervision``, and
    ``build_report(records, incomplete)`` merges the results. The report
    is written to ``journal_dir/report.json``; without a ``journal_dir``
    a temporary directory backs the retry machinery and is removed
    afterwards.
    """
    shard_bounds(total, 0, shards)  # validates shards vs ops / trials
    directory = journal_dir or tempfile.mkdtemp(prefix="coruscant-shards-")
    os.makedirs(directory, exist_ok=True)
    try:
        specs = [
            {
                **common,
                "body": body,
                "total": total,
                "shard": shard,
                "shards": shards,
                "journal_path": journal_path(directory, shard),
            }
            for shard in range(shards)
        ]
        outcome = ShardSupervisor(_shard_worker, specs, **supervision).run()
        report = build_report(
            [payload["record"] for payload in outcome.results.values()],
            outcome.incomplete,
        )
        if journal_dir is not None:
            write_report(report, os.path.join(directory, "report.json"))
        return ShardedRunResult(report, outcome.attempts, journal_dir)
    finally:
        if journal_dir is None:
            shutil.rmtree(directory, ignore_errors=True)


def run_sharded_campaign(
    config: CampaignConfig,
    shards: int,
    journal_dir: Optional[str] = None,
    workers: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 2,
    checkpoint_every: int = 100,
    telemetry=None,
    crash: Optional[Dict[str, Any]] = None,
) -> ShardedRunResult:
    """Run ``config`` split into ``shards`` under the supervisor.

    Args:
        config: the campaign shape (exactly as for
            :func:`run_add_campaign`).
        shards: how many substreams/slices to split the op range into.
        journal_dir: directory for the per-shard journals and the
            merged ``report.json``. When omitted a temporary directory
            backs the retry machinery and is removed afterwards.
        workers: worker processes per wave (default: one per shard;
            ``0`` = run shards sequentially in this process — the
            reference mode).
        shard_timeout: seconds one shard may run before its wave is
            killed and the shard retried.
        max_shard_retries: attempts beyond the first before a shard is
            declared incomplete.
        checkpoint_every: ops between journal writes inside each shard.
        telemetry: optional TelemetryHub for supervisor metrics.
        crash: test/CI-only fault injection
            (``{"shard": k, "at_op": i, "mode": "kill"|"hang"|"kill-always"}``).
    """
    if crash is not None and workers == 0:
        raise ValueError(
            "crash injection needs worker processes; it would kill or "
            "hang the supervisor when run inline (workers=0)"
        )
    return _run_sharded(
        _campaign_shard,
        config.ops,
        shards,
        {"config": config, "checkpoint_every": checkpoint_every,
         "crash": crash},
        lambda records, incomplete: build_campaign_report(
            config, shards, records, incomplete
        ),
        journal_dir,
        workers=workers,
        shard_timeout=shard_timeout,
        max_shard_retries=max_shard_retries,
        telemetry=telemetry,
    )


MC_KINDS = ("additions", "multiplies", "tmr_additions")


def run_sharded_mc(
    kind: str,
    trials: int,
    shards: int,
    fault_rate: float,
    trd: int = 7,
    seed: int = 0,
    tracks: int = 32,
    n_bits: int = 8,
    journal_dir: Optional[str] = None,
    workers: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    max_shard_retries: int = 2,
    checkpoint_every: int = 0,
    telemetry=None,
) -> ShardedRunResult:
    """Monte Carlo :class:`FaultCampaign` trials, sharded and merged.

    The same supervisor/merge machinery as the add campaign; shard
    ``k`` runs trial slice ``shard_bounds(trials, k, shards)`` with its
    own derived injector stream.
    """
    if kind not in MC_KINDS:
        raise ValueError(
            f"unknown MC kind {kind!r}; pick one of {', '.join(MC_KINDS)}"
        )
    fingerprint = {
        "kind": kind,
        "trd": trd,
        "fault_rate": fault_rate,
        "seed": seed,
        "tracks": tracks,
        "trials": trials,
        "n_bits": n_bits,
    }
    return _run_sharded(
        _mc_shard,
        trials,
        shards,
        {"config": fingerprint, "checkpoint_every": checkpoint_every},
        lambda records, incomplete: build_mc_report(
            fingerprint, shards, records, incomplete
        ),
        journal_dir,
        workers=workers,
        shard_timeout=shard_timeout,
        max_shard_retries=max_shard_retries,
        telemetry=telemetry,
    )


__all__ = [
    "CAMPAIGN_SCHEMA",
    "MC_KINDS",
    "MC_SCHEMA",
    "ShardAttempt",
    "ShardSupervisor",
    "ShardedRunResult",
    "SupervisorOutcome",
    "build_campaign_report",
    "build_mc_report",
    "journal_path",
    "merge_campaign_records",
    "report_bytes",
    "run_sharded_campaign",
    "run_sharded_mc",
    "write_report",
]
