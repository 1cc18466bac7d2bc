"""The telemetry hub: tracer + metrics registry + event log, shared stack-wide.

A :class:`TelemetryHub` is what ``CoruscantSystem(telemetry=...)`` wires
through the device, arch, core, and resilience layers. Each layer calls
the narrow publishing helpers here (``memory_access``, ``cpim_op``,
``pim_op``, ...) so instrument names and bucket edges stay consistent
no matter who publishes.

The device layer is too hot to publish into: a kernel makes hundreds of
:meth:`DeviceStats.record <repro.device.stats.DeviceStats.record>`
calls. The hub instead *watches* the stats of the clusters it is
attached to (:meth:`TelemetryHub.watch`), and of those an activated
scope adopts (:meth:`TelemetryHub.adopt`). Reading the registry —
:meth:`MetricsRegistry.as_dict
<repro.telemetry.metrics.MetricsRegistry.as_dict>`, which every export
goes through — first folds into the ``device.*`` counters what each of
them recorded since the previous read (:meth:`TelemetryHub.device_op`
names those counters), so recording itself costs the hub nothing.

Concurrency: the service/campaign/resilience hooks (``service_*``,
``shard_*``, ``resilient_op``, breaker transitions) are called from the
gateway event loop, worker threads, and the campaign supervisor at
request/attempt frequency, so they serialize their metric updates under
one hub lock and mirror themselves into the structured event log. The
fold and the watch bookkeeping take the same lock, so two concurrent
reads never fold one record twice. The per-kernel hooks
(``memory_access``, ``cpim_op``, ``pim_op``, ...) run inside one
simulator thread and stay lock-free.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.telemetry import runtime
from repro.telemetry.chrome import chrome_trace, write_chrome_trace
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer

# Fixed bucket edges (inclusive upper bounds) for the stack's histograms.
TR_PER_OP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
OP_CYCLE_BUCKETS = (8, 16, 32, 64, 128, 256, 512, 1024)
RETRY_DEPTH_BUCKETS = (1, 2, 3, 4, 5, 8)
QUEUE_CYCLE_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
SHARD_WALL_BUCKETS = (0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600)
REQUEST_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
    10, 30,
)


class _Watched:
    """A watched DeviceStats and what the hub has folded from it so far."""

    __slots__ = ("stats", "counts", "cycles", "energy")

    def __init__(self, stats) -> None:
        self.stats = stats
        self.counts: Dict[str, int] = dict(stats.op_counts)
        self.cycles: Dict[str, int] = dict(stats.op_cycles)
        self.energy: Dict[str, float] = dict(stats.op_energy_pj)


class TelemetryHub:
    """Tracer + metrics registry + event log + the publishing helpers."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.events = EventLog() if events is None else events
        self._lock = threading.Lock()
        # Watched DeviceStats by id(); each entry keeps its stats alive.
        self._watched: Dict[int, _Watched] = {}
        self.metrics.add_collector(self._fold)
        # Dropped event-log records surface as a counter, not as an
        # event (emitting an event about a failed emit would recurse
        # straight back into the failing sink).
        if getattr(self.events, "on_write_error", None) is None:
            self.events.on_write_error = self._event_write_error

    def _event_write_error(self) -> None:
        with self._lock:
            self.metrics.counter("events.write_errors").inc()

    # ------------------------------------------------------------------
    # device layer

    def watch(self, stats) -> None:
        """Count what ``stats`` record from now on in ``device.*``.

        The hub keeps ``stats`` and folds their new records in whenever
        its registry is read. Stats attached to a hub (``stats.sink``)
        stay with it. Stats an activated scope adopted are released by
        that scope's hub first, which counts what they recorded so far,
        so no record is counted twice.
        """
        scope = stats.scope
        if scope is not None:
            scope.release(stats)
        with self._lock:
            if stats.sink is None and stats.scope is None:
                stats.sink = self
                self._watched[id(stats)] = _Watched(stats)

    def adopt(self, stats) -> None:
        """Watch ``stats`` until this hub stops being the active one.

        Called through :func:`repro.telemetry.runtime.adopt` on the
        first record of stats that have no hub. A no-op once the hub is
        no longer active (:meth:`release_adopted` already ran).
        """
        with self._lock:
            if (
                runtime.active_hub() is self
                and stats.sink is None
                and stats.scope is None
            ):
                stats.scope = self
                self._watched[id(stats)] = _Watched(stats)

    def release(self, stats) -> None:
        """Fold what ``stats`` recorded since the last read; stop watching."""
        with self._lock:
            watched = self._watched.pop(id(stats), None)
            if watched is not None:
                self._fold_one(watched)
                stats.sink = stats.scope = None

    def release_adopted(self) -> None:
        """Release every adopted stats: the hub's activated scope ended."""
        with self._lock:
            for key, watched in list(self._watched.items()):
                if watched.stats.scope is self:
                    self._fold_one(watched)
                    watched.stats.scope = None
                    del self._watched[key]

    def _fold(self) -> None:
        """The registry's collector: fold every watched stats."""
        with self._lock:
            for watched in self._watched.values():
                self._fold_one(watched)

    def _fold_one(self, watched: _Watched) -> None:
        # Caller holds the lock. The dict() copies are atomic under the
        # GIL, so a record running meanwhile in the stats' own thread
        # cannot change a dict mid-iteration; what a copy misses is
        # still unfolded at the next read.
        stats = watched.stats
        counts = dict(stats.op_counts)
        cycles = dict(stats.op_cycles)
        energy = dict(stats.op_energy_pj)
        seen_counts = watched.counts
        seen_cycles = watched.cycles
        seen_energy = watched.energy
        for op, n in counts.items():
            c = cycles.get(op, 0)
            e = energy.get(op, 0.0)
            dn = n - seen_counts.get(op, 0)
            dc = c - seen_cycles.get(op, 0)
            de = e - seen_energy.get(op, 0.0)
            if dn or dc or de or op not in seen_counts:
                self.device_op(op, dc, de, dn)
                seen_counts[op] = n
                seen_cycles[op] = c
                seen_energy[op] = e

    def device_op(
        self, op: str, cycles: int, energy_pj: float, count: int = 1
    ) -> None:
        """``count`` occurrences of device op ``op``, with their totals.

        The fold publishes each watched stats' activity since the last
        read through here: totals plus per-op breakdowns. The per-op
        cycle and energy counters are what the observability layer's
        hotspot table (:func:`repro.obs.fidelity.extract_hotspots`)
        attributes costs from.
        """
        m = self.metrics
        m.counter("device.ops").inc(count)
        m.counter(f"device.{op}.count").inc(count)
        m.counter(f"device.{op}.cycles").inc(cycles)
        m.counter(f"device.{op}.energy_pj").inc(energy_pj)
        m.counter("device.cycles").inc(cycles)
        m.counter("device.energy_pj").inc(energy_pj)

    # ------------------------------------------------------------------
    # memory controller / scheduler

    def memory_access(self, is_write: bool, row_hit: bool) -> None:
        m = self.metrics
        m.counter("mem.writes" if is_write else "mem.reads").inc()
        m.counter("mem.row_hits" if row_hit else "mem.row_misses").inc()
        hits = m.counter("mem.row_hits").value
        total = hits + m.counter("mem.row_misses").value
        m.gauge("mem.row_buffer_hit_rate").set(hits / total if total else 0.0)

    def cpim_op(
        self, op: str, cycles: int, energy_pj: float, trs: int
    ) -> None:
        m = self.metrics
        m.counter("cpim.ops").inc()
        m.counter(f"cpim.{op}.count").inc()
        m.counter("cpim.cycles").inc(cycles)
        m.counter("cpim.energy_pj").inc(energy_pj)
        m.histogram("cpim.tr_per_op", TR_PER_OP_BUCKETS).observe(trs)
        m.histogram("cpim.op_cycles", OP_CYCLE_BUCKETS).observe(cycles)

    def scheduler_request(self, queue_cycles: int) -> None:
        self.metrics.counter("sched.requests").inc()
        self.metrics.histogram(
            "sched.queue_cycles", QUEUE_CYCLE_BUCKETS
        ).observe(queue_cycles)

    def scheduler_replay(
        self, hit_rate: float, queue_fraction: float
    ) -> None:
        self.metrics.gauge("sched.row_hit_rate").set(hit_rate)
        self.metrics.gauge("sched.queue_fraction").set(queue_fraction)

    # ------------------------------------------------------------------
    # facade (pim.*) operations

    def pim_op(self, op: str, cycles: int, energy_pj: float) -> None:
        m = self.metrics
        m.counter("pim.ops").inc()
        m.counter(f"pim.{op}.count").inc()
        m.counter("pim.cycles").inc(cycles)
        m.counter("pim.energy_pj").inc(energy_pj)

    # ------------------------------------------------------------------
    # resilience layers

    def resilient_op(self, attempts: int, verdict: str) -> None:
        with self._lock:
            m = self.metrics
            m.counter("resilience.ops").inc()
            m.counter(f"resilience.verdict.{verdict}").inc()
            m.histogram(
                "resilience.retry_depth", RETRY_DEPTH_BUCKETS
            ).observe(attempts)
        if self.events.enabled:
            self.events.emit(
                "resilience.op", attempts=attempts, verdict=verdict
            )

    def scrub_pass(
        self, dbcs_checked: int, misaligned: int, repaired: int, cycles: int
    ) -> None:
        m = self.metrics
        m.counter("scrub.passes").inc()
        m.counter("scrub.dbcs_checked").inc(dbcs_checked)
        m.counter("scrub.misaligned_dbcs").inc(misaligned)
        m.counter("scrub.repaired_tracks").inc(repaired)
        m.counter("scrub.cycles").inc(cycles)

    def breaker_transition(self, src: str, dst: str) -> None:
        with self._lock:
            self.metrics.counter("breaker.transitions").inc()
            self.metrics.counter(f"breaker.to_{dst.lower()}").inc()
        if self.events.enabled:
            self.events.emit("breaker.transition", src=src, dst=dst)

    # ------------------------------------------------------------------
    # sharded campaign supervisor

    def shard_attempt(
        self, shard: int, wall_seconds: float, status: str
    ) -> None:
        """One shard-worker attempt's outcome, published by the supervisor.

        ``status`` is one of ``completed`` / ``timeout`` / ``crashed`` /
        ``failed``; every non-``completed`` attempt also counts as a
        retry trigger. The wall-time histogram is what the obs
        scoreboard gates shard balance on.
        """
        with self._lock:
            m = self.metrics
            m.counter("campaign.shard_attempts").inc()
            m.counter(f"campaign.shard_{status}").inc()
            m.histogram(
                "campaign.shard_wall_seconds", SHARD_WALL_BUCKETS
            ).observe(wall_seconds)
            if status != "completed":
                m.counter("campaign.shard_retries").inc()
        if self.events.enabled:
            self.events.emit(
                "campaign.shard_attempt",
                shard=shard,
                shard_id=shard,
                status=status,
                wall_seconds=wall_seconds,
            )

    def shard_incomplete(self, shard: int) -> None:
        """A shard exhausted its retries; the report degrades gracefully."""
        with self._lock:
            self.metrics.counter("campaign.incomplete_shards").inc()
        if self.events.enabled:
            self.events.emit(
                "campaign.shard_incomplete", shard=shard, shard_id=shard
            )

    # ------------------------------------------------------------------
    # kernel gateway (repro.service)

    def service_admitted(
        self, kernel: str, priority: str, trace_id: Optional[str] = None
    ) -> None:
        with self._lock:
            m = self.metrics
            m.counter("service.admitted").inc()
            m.counter(f"service.admitted.{priority}").inc()
            m.counter(f"service.{kernel}.admitted").inc()
        if self.events.enabled:
            self.events.emit(
                "service.admitted",
                trace_id=trace_id,
                kernel=kernel,
                priority=priority,
            )

    def service_rejected(
        self, kernel: str, reason: str, trace_id: Optional[str] = None
    ) -> None:
        """An admission refusal: queue_full, breaker_open, or draining."""
        with self._lock:
            m = self.metrics
            m.counter("service.rejected").inc()
            m.counter(f"service.rejected.{reason}").inc()
        if self.events.enabled:
            self.events.emit(
                "service.rejected",
                trace_id=trace_id,
                kernel=kernel,
                reason=reason,
            )

    def service_shed(
        self, kernel: str, stage: str, trace_id: Optional[str] = None
    ) -> None:
        """Expired-deadline work dropped before (or between) executions."""
        with self._lock:
            m = self.metrics
            m.counter("service.shed").inc()
            m.counter(f"service.shed.{stage}").inc()
        if self.events.enabled:
            self.events.emit(
                "service.shed", trace_id=trace_id, kernel=kernel, stage=stage
            )

    def service_retry(
        self, kernel: str, trace_id: Optional[str] = None
    ) -> None:
        with self._lock:
            self.metrics.counter("service.retries").inc()
            self.metrics.counter(f"service.{kernel}.retries").inc()
        if self.events.enabled:
            self.events.emit(
                "service.retry", trace_id=trace_id, kernel=kernel
            )

    def service_request(
        self,
        kernel: str,
        status: str,
        seconds: float,
        trace_id: Optional[str] = None,
    ) -> None:
        """One served request's terminal status and end-to-end latency."""
        with self._lock:
            m = self.metrics
            m.counter("service.requests").inc()
            m.counter(f"service.status.{status}").inc()
            m.histogram(
                "service.request_seconds", REQUEST_SECONDS_BUCKETS
            ).observe(seconds)
            m.histogram(
                f"service.{kernel}.request_seconds", REQUEST_SECONDS_BUCKETS
            ).observe(seconds)
        if self.events.enabled:
            self.events.emit(
                "service.request.done",
                trace_id=trace_id,
                kernel=kernel,
                status=status,
                seconds=seconds,
            )

    def service_breaker_transition(
        self, profile: str, src: str, dst: str
    ) -> None:
        with self._lock:
            m = self.metrics
            m.counter("service.breaker.transitions").inc()
            m.counter(f"service.breaker.to_{dst.lower()}").inc()
        self.tracer.instant(
            "service.breaker.transition",
            category="service",
            profile=profile,
            src=src,
            dst=dst,
        )
        if self.events.enabled:
            self.events.emit(
                "service.breaker.transition",
                profile=profile,
                src=src,
                dst=dst,
            )

    def service_worker_crashed(
        self, profile: str, worker: int, trace_id: Optional[str] = None
    ) -> None:
        """A worker died with a job in flight and was respawned."""
        with self._lock:
            m = self.metrics
            m.counter("service.worker_crashes").inc()
            m.counter(f"service.worker_crashes.{profile}").inc()
        if self.events.enabled:
            self.events.emit(
                "service.worker.crashed",
                trace_id=trace_id,
                profile=profile,
                worker=worker,
            )

    def journal_dedup_hit(self) -> None:
        """A duplicate idempotency key answered from the journal."""
        with self._lock:
            self.metrics.counter("journal.dedup_hits").inc()

    def journal_replayed(self, count: int) -> None:
        """Un-acked intents re-submitted after a restart."""
        with self._lock:
            self.metrics.counter("journal.replays").inc(count)
        if self.events.enabled:
            self.events.emit("journal.replayed", count=count)

    def service_drained(self, completed: int) -> None:
        """Drain accounting at shutdown: everything admitted must land."""
        with self._lock:
            self.metrics.counter("service.drain.completed").inc(completed)
        if self.events.enabled:
            self.events.emit("service.drained", completed=completed)

    # ------------------------------------------------------------------
    # export

    def metrics_dict(self) -> Dict[str, Any]:
        """Non-destructive snapshot of the whole registry."""
        return self.metrics.as_dict()

    def chrome_trace(self) -> Dict[str, Any]:
        return chrome_trace(self.tracer)

    def write_chrome_trace(self, path: str) -> Dict[str, Any]:
        return write_chrome_trace(self.tracer, path)


__all__ = [
    "OP_CYCLE_BUCKETS",
    "QUEUE_CYCLE_BUCKETS",
    "REQUEST_SECONDS_BUCKETS",
    "RETRY_DEPTH_BUCKETS",
    "SHARD_WALL_BUCKETS",
    "TR_PER_OP_BUCKETS",
    "TelemetryHub",
]
