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


def _crash_hook(crash: Dict[str, Any]) -> Callable[[int], None]:
    """An ``on_op`` hook that kills or hangs the worker at one op.

    ``mode`` ``"kill"``/``"hang"`` fire once — a marker file in the
    journal directory records that the crash already happened, so the
    retried worker sails past the same op. ``"kill-always"`` fires on
    every attempt (to exercise retry exhaustion and the degraded
    report).
    """
    at_op = int(crash["at_op"])
    mode = crash.get("mode", "kill")
    marker = crash.get("marker")

    def hook(index: int) -> None:
        if index != at_op:
            return
        if mode != "kill-always" and marker:
            if os.path.exists(marker):
                return
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write(f"crashed at op {index}\n")
        if mode in ("kill", "kill-always"):
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == "hang":
            time.sleep(3600)
        else:
            raise ValueError(f"unknown crash mode {mode!r}")

    return hook


# ----------------------------------------------------------------------
# shard workers (top-level so ProcessPoolExecutor can pickle them)


def _deterministic_record(result: CampaignResult) -> Dict[str, Any]:
    """A shard's summary with volatile resume bookkeeping stripped.

    ``resumed_from`` depends on whether the attempt resumed after a
    crash — sim state does not — so it must not enter the canonical
    report the bit-identity guarantee covers.
    """
    record = result.summary()
    record.pop("resumed_from", None)
    return record


def _run_with_journal_recovery(run: Callable[[], Any], journal: Optional[str]):
    """Run a shard body, quarantining a corrupt journal once.

    A journal that fails to *load* (torn by an external cause, bad
    JSON) is moved aside to ``<journal>.corrupt`` and the shard restarts
    from scratch — the restart is deterministic, so the merge guarantee
    holds. A :class:`CheckpointMismatchError` (journal from a different
    campaign or shard) is a configuration error and propagates.
    """
    try:
        return run()
    except ckpt.CheckpointMismatchError:
        raise
    except ckpt.CheckpointError:
        if not journal or not os.path.exists(journal):
            raise
        os.replace(journal, journal + ".corrupt")
        return run()


def _campaign_shard_worker(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one campaign shard (possibly resuming); returns its record."""
    config: CampaignConfig = spec["config"]
    shard, shards = spec["shard"], spec["shards"]
    journal = spec.get("journal_path")
    crash = spec.get("crash")
    on_op = _crash_hook(crash) if crash else None
    lo, hi = shard_bounds(config.ops, shard, shards)
    started = time.perf_counter()

    def run() -> CampaignResult:
        return run_add_campaign(
            config,
            checkpoint_path=journal,
            checkpoint_every=spec.get("checkpoint_every", 100),
            shard=shard,
            shards=shards,
            on_op=on_op,
        )

    result = _run_with_journal_recovery(run, journal)
    return {
        "shard": shard,
        "record": {"shard": shard, "start": lo, "stop": hi,
                   **_deterministic_record(result)},
        "wall_seconds": time.perf_counter() - started,
        "resumed_from": result.resumed_from,
    }


def _mc_shard_worker(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one Monte Carlo shard; returns its record."""
    from repro.reliability.montecarlo import FaultCampaign

    shard, shards = spec["shard"], spec["shards"]
    journal = spec.get("journal_path")
    campaign = FaultCampaign(
        trd=spec["trd"],
        fault_rate=spec["fault_rate"],
        seed=spec["seed"],
        tracks=spec["tracks"],
        shard=shard,
        shards=shards,
    )
    runner = getattr(campaign, f"run_{spec['kind']}")
    lo, hi = shard_bounds(spec["trials"], shard, shards)
    started = time.perf_counter()

    def run():
        return runner(
            trials=spec["trials"],
            n_bits=spec["n_bits"],
            checkpoint_path=journal,
            checkpoint_every=spec.get("checkpoint_every", 0),
        )

    result = _run_with_journal_recovery(run, journal)
    return {
        "shard": shard,
        "record": {
            "shard": shard,
            "start": lo,
            "stop": hi,
            "trials": result.trials,
            "errors": result.errors,
            "error_rate": round(result.error_rate, 8),
        },
        "wall_seconds": time.perf_counter() - started,
        "resumed_from": None,
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
                payload = self.worker(self.specs[shard])
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
                future = pools[shard].submit(self.worker, self.specs[shard])
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

    Counter fields sum; the rates are recomputed from the summed
    counters exactly as :meth:`CampaignResult.summary` computes them, so
    a 1-shard merge reproduces the plain summary field-for-field.
    Adaptive-protection state is inherently per-DBC-per-shard and stays
    in the shard records rather than being averaged into nonsense here.
    """
    merged: Dict[str, Any] = {key: 0 for key in _SUMMED_KEYS}
    for record in records:
        for key in _SUMMED_KEYS:
            merged[key] += int(record.get(key, 0))
    injected = merged["injected"]
    merged["recovery"] = all(r["recovery"] for r in records) if records else False
    merged["completed"] = all(r["completed"] for r in records)
    merged["detection_rate"] = round(
        merged["detected"] / injected if injected else 1.0, 4
    )
    merged["correction_rate"] = round(
        merged["corrected"] / injected if injected else 1.0, 4
    )
    merged["observed_op_error_rate"] = round(
        merged["escaped"] / merged["ops"] if merged["ops"] else 0.0, 6
    )
    merged["analytic_op_error_rate"] = round(analytic_op_error_rate, 6)
    scrub = _merge_scrub(records)
    if scrub is not None:
        merged["scrub"] = scrub
    if not any(r.get("storage_ops") for r in records):
        merged.pop("storage_ops", None)
        merged.pop("storage_wrong", None)
    return merged


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
    ordered = sorted(records, key=lambda r: r["shard"])
    return {
        "schema": CAMPAIGN_SCHEMA,
        "kind": "add_campaign",
        "config": config.fingerprint(),
        "config_hash": ckpt.config_hash(config.fingerprint()),
        "shards": shards,
        "shard_reports": ordered,
        "merged": merge_campaign_records(
            ordered,
            records[0]["analytic_op_error_rate"] if records else 0.0,
        ),
        "incomplete_shards": [
            {"shard": shard, "reason": reason}
            for shard, reason in sorted(incomplete.items())
        ],
    }


def build_mc_report(
    kind: str,
    fingerprint: Dict[str, Any],
    shards: int,
    records: List[Dict[str, Any]],
    incomplete: Dict[int, str],
) -> Dict[str, Any]:
    ordered = sorted(records, key=lambda r: r["shard"])
    trials = sum(r["trials"] for r in ordered)
    errors = sum(r["errors"] for r in ordered)
    return {
        "schema": MC_SCHEMA,
        "kind": kind,
        "config": fingerprint,
        "shards": shards,
        "shard_reports": ordered,
        "merged": {
            "trials": trials,
            "errors": errors,
            "error_rate": round(errors / trials if trials else 0.0, 8),
            "injected_rate": fingerprint["fault_rate"],
        },
        "incomplete_shards": [
            {"shard": shard, "reason": reason}
            for shard, reason in sorted(incomplete.items())
        ],
    }


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


def _crash_spec(
    crash: Optional[Dict[str, Any]], journal_dir: str, shard: int
) -> Optional[Dict[str, Any]]:
    if crash is None or int(crash["shard"]) != shard:
        return None
    return {
        "at_op": int(crash["at_op"]),
        "mode": crash.get("mode", "kill"),
        "marker": os.path.join(journal_dir, f"crash.shard-{shard}.done"),
    }


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
    shard_bounds(config.ops, 0, shards)  # validates shards vs ops
    if crash is not None and workers == 0:
        raise ValueError(
            "crash injection needs worker processes; it would kill or "
            "hang the supervisor when run inline (workers=0)"
        )
    owns_dir = journal_dir is None
    directory = journal_dir or tempfile.mkdtemp(prefix="coruscant-shards-")
    os.makedirs(directory, exist_ok=True)
    try:
        specs = [
            {
                "config": config,
                "shard": shard,
                "shards": shards,
                "journal_path": journal_path(directory, shard),
                "checkpoint_every": checkpoint_every,
                "crash": _crash_spec(crash, directory, shard),
            }
            for shard in range(shards)
        ]
        supervisor = ShardSupervisor(
            _campaign_shard_worker,
            specs,
            workers=workers,
            shard_timeout=shard_timeout,
            max_shard_retries=max_shard_retries,
            telemetry=telemetry,
        )
        outcome = supervisor.run()
        report = build_campaign_report(
            config,
            shards,
            [payload["record"] for payload in outcome.results.values()],
            outcome.incomplete,
        )
        if journal_dir is not None:
            write_report(report, os.path.join(directory, "report.json"))
        return ShardedRunResult(
            report=report,
            attempts=outcome.attempts,
            journal_dir=journal_dir,
        )
    finally:
        if owns_dir:
            shutil.rmtree(directory, ignore_errors=True)


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
    shard_bounds(trials, 0, shards)  # validates shards vs trials
    owns_dir = journal_dir is None
    directory = journal_dir or tempfile.mkdtemp(prefix="coruscant-mc-")
    os.makedirs(directory, exist_ok=True)
    fingerprint = {
        "kind": kind,
        "trd": trd,
        "fault_rate": fault_rate,
        "seed": seed,
        "tracks": tracks,
        "trials": trials,
        "n_bits": n_bits,
    }
    try:
        specs = [
            {
                "kind": kind,
                "trials": trials,
                "fault_rate": fault_rate,
                "trd": trd,
                "seed": seed,
                "tracks": tracks,
                "n_bits": n_bits,
                "shard": shard,
                "shards": shards,
                "journal_path": journal_path(directory, shard),
                "checkpoint_every": checkpoint_every,
            }
            for shard in range(shards)
        ]
        supervisor = ShardSupervisor(
            _mc_shard_worker,
            specs,
            workers=workers,
            shard_timeout=shard_timeout,
            max_shard_retries=max_shard_retries,
            telemetry=telemetry,
        )
        outcome = supervisor.run()
        report = build_mc_report(
            kind,
            fingerprint,
            shards,
            [payload["record"] for payload in outcome.results.values()],
            outcome.incomplete,
        )
        if journal_dir is not None:
            write_report(report, os.path.join(directory, "report.json"))
        return ShardedRunResult(
            report=report,
            attempts=outcome.attempts,
            journal_dir=journal_dir,
        )
    finally:
        if owns_dir:
            shutil.rmtree(directory, ignore_errors=True)


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
