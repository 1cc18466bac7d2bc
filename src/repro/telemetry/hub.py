"""The telemetry hub: tracer + metrics registry + event log, shared stack-wide.

A :class:`TelemetryHub` is what ``CoruscantSystem(telemetry=...)`` wires
through the device, arch, core, resilience and service layers. Every
layer publishes through one method, :meth:`TelemetryHub.emit`, naming a
*kind* and passing that kind's fields::

    hub.emit("pim.op", op="add", cycles=22, energy_pj=18.7)

:data:`KINDS` is the one list of kinds. For each it gives the counters
the kind adds to, the histograms it observes into, the gauges it sets
and the event record it writes. Instrument names, bucket edges and event
fields are written there and nowhere else.

The device layer is too hot to publish into: a kernel makes hundreds of
:meth:`DeviceStats.record <repro.device.stats.DeviceStats.record>`
calls. The hub instead *watches* the stats of the clusters it is
attached to (:meth:`TelemetryHub.watch`), and of those an activated
scope adopts (:meth:`TelemetryHub.adopt`). Every registry read (every
export goes through ``MetricsRegistry.as_dict``) first emits, as
``device.op``, what each of them recorded since the previous read, and
derives ``mem.row_buffer_hit_rate`` from the row hit and miss counters.

Concurrency: publishers run on the gateway event loop, on executor
threads (a profile's workers share one hub) and in the campaign
supervisor. So every emit updates its instruments under the hub lock,
then writes its event outside it. The fold and the watch bookkeeping
take the same (reentrant) lock, so two concurrent reads never fold one
record twice.
"""

from __future__ import annotations

import threading
from functools import partial
from string import Formatter
from typing import Any, Dict, Optional, Tuple, Union

from repro.telemetry import runtime
from repro.telemetry.chrome import chrome_trace, write_chrome_trace
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


class Kind:
    """What one :meth:`TelemetryHub.emit` of a kind updates and writes.

    ``counters`` are (name template, the field whose value it adds, or
    1); ``histograms`` are (name template, bucket edges, the field it
    observes); ``gauges`` are (name, the field it is set to). A template
    such as ``"pim.{op}.count"`` is filled from the emit's fields.
    ``event`` names the event record and ``fields`` are the fields that
    record carries, in order; a kind without an event only counts.
    """

    def __init__(
        self,
        counters: Tuple[Tuple[str, Union[str, int]], ...] = (),
        histograms: Tuple[Tuple[str, Tuple[float, ...], str], ...] = (),
        gauges: Tuple[Tuple[str, str], ...] = (),
        event: Optional[str] = None,
        fields: Tuple[str, ...] = (),
    ) -> None:
        self.counters = counters
        self.histograms = histograms
        self.gauges = gauges
        self.event = event
        self.fields = fields
        templates = [t for t, _ in counters] + [t for t, _, _ in histograms]
        #: The fields every emit of this kind takes: no more, no fewer.
        self.needs = frozenset(
            [name for t in templates for _, name, _, _ in Formatter().parse(t)
             if name]
            + [add for _, add in counters if add != 1]
            + [field for _, _, field in histograms]
            + [field for _, field in gauges]
            + list(fields)
        )


#: Every kind the hub publishes, by name.
KINDS: Dict[str, Kind] = {
    # device layer: the fold of watched DeviceStats. The per-op cycle and
    # energy counters feed the fidelity scoreboard's hotspot table.
    "device.op": Kind(counters=(
        ("device.ops", "count"), ("device.{op}.count", "count"),
        ("device.{op}.cycles", "cycles"),
        ("device.{op}.energy_pj", "energy_pj"),
        ("device.cycles", "cycles"), ("device.energy_pj", "energy_pj"),
    )),
    # memory controller and bank scheduler
    "mem.access": Kind(counters=(("mem.{access}", 1), ("mem.row_{row}", 1))),
    "cpim.op": Kind(
        counters=(("cpim.ops", 1), ("cpim.{op}.count", 1),
                  ("cpim.cycles", "cycles"), ("cpim.energy_pj", "energy_pj")),
        histograms=(
            ("cpim.tr_per_op", (1, 2, 4, 8, 16, 32, 64, 128, 256), "trs"),
            ("cpim.op_cycles", (8, 16, 32, 64, 128, 256, 512, 1024),
             "cycles"),
        ),
    ),
    "sched.request": Kind(
        counters=(("sched.requests", 1),),
        histograms=(("sched.queue_cycles",
                     (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
                     "queue_cycles"),),
    ),
    "sched.replay": Kind(gauges=(("sched.row_hit_rate", "hit_rate"),
                                 ("sched.queue_fraction", "queue_fraction"))),
    # CoruscantSystem facade
    "pim.op": Kind(counters=(("pim.ops", 1), ("pim.{op}.count", 1),
                             ("pim.cycles", "cycles"),
                             ("pim.energy_pj", "energy_pj"))),
    # resilience layers
    "resilience.op": Kind(
        counters=(("resilience.ops", 1), ("resilience.verdict.{verdict}", 1)),
        histograms=(("resilience.retry_depth", (1, 2, 3, 4, 5, 8),
                     "attempts"),),
        event="resilience.op", fields=("attempts", "verdict"),
    ),
    "scrub.pass": Kind(counters=(
        ("scrub.passes", 1), ("scrub.dbcs_checked", "dbcs_checked"),
        ("scrub.misaligned_dbcs", "misaligned"),
        ("scrub.repaired_tracks", "repaired"), ("scrub.cycles", "cycles"),
    )),
    # ``to`` is ``dst`` in lower case, as the counter names spell it
    "breaker.transition": Kind(
        counters=(("breaker.transitions", 1), ("breaker.to_{to}", 1)),
        event="breaker.transition", fields=("src", "dst"),
    ),
    # sharded campaign supervisor; the obs scoreboard gates shard balance
    # on the wall-time histogram
    "campaign.shard_attempt": Kind(
        counters=(("campaign.shard_attempts", 1),
                  ("campaign.shard_{status}", 1)),
        histograms=(("campaign.shard_wall_seconds",
                     (0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600),
                     "wall_seconds"),),
        event="campaign.shard_attempt",
        fields=("shard", "shard_id", "status", "wall_seconds"),
    ),
    "campaign.shard_retry": Kind(counters=(("campaign.shard_retries", 1),)),
    "campaign.shard_incomplete": Kind(
        counters=(("campaign.incomplete_shards", 1),),
        event="campaign.shard_incomplete", fields=("shard", "shard_id"),
    ),
    # kernel gateway (repro.service)
    "service.admitted": Kind(
        counters=(("service.admitted", 1), ("service.admitted.{priority}", 1),
                  ("service.{kernel}.admitted", 1)),
        event="service.admitted", fields=("kernel", "priority"),
    ),
    # reason: queue_full, breaker_open, draining, ...
    "service.rejected": Kind(
        counters=(("service.rejected", 1), ("service.rejected.{reason}", 1)),
        event="service.rejected", fields=("kernel", "reason"),
    ),
    # expired-deadline work dropped before or between executions
    "service.shed": Kind(
        counters=(("service.shed", 1), ("service.shed.{stage}", 1)),
        event="service.shed", fields=("kernel", "stage"),
    ),
    "service.retry": Kind(
        counters=(("service.retries", 1), ("service.{kernel}.retries", 1)),
        event="service.retry", fields=("kernel",),
    ),
    # one served request's terminal status and end-to-end latency
    "service.request": Kind(
        counters=(("service.requests", 1), ("service.status.{status}", 1)),
        histograms=tuple(
            (name, (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                    1, 2.5, 5, 10, 30), "seconds")
            for name in ("service.request_seconds",
                         "service.{kernel}.request_seconds")
        ),
        event="service.request.done", fields=("kernel", "status", "seconds"),
    ),
    "service.breaker.transition": Kind(
        counters=(("service.breaker.transitions", 1),
                  ("service.breaker.to_{to}", 1)),
        event="service.breaker.transition", fields=("profile", "src", "dst"),
    ),
    # a worker died with a job in flight and was respawned
    "service.worker.crashed": Kind(
        counters=(("service.worker_crashes", 1),
                  ("service.worker_crashes.{profile}", 1)),
        event="service.worker.crashed", fields=("profile", "worker"),
    ),
    "journal.dedup_hit": Kind(counters=(("journal.dedup_hits", 1),)),
    "journal.replayed": Kind(counters=(("journal.replays", "count"),),
                             event="journal.replayed", fields=("count",)),
    "service.drained": Kind(
        counters=(("service.drain.completed", "completed"),),
        event="service.drained", fields=("completed",),
    ),
    # A dropped event-log record is counted, not logged: an event about a
    # failed write would go straight back to the failing sink.
    "events.write_error": Kind(counters=(("events.write_errors", 1),)),
}


class _Watched:
    """A watched DeviceStats and what the hub has folded from it so far."""

    __slots__ = ("stats", "counts", "cycles", "energy")

    def __init__(self, stats) -> None:
        self.stats = stats
        self.counts: Dict[str, int] = dict(stats.op_counts)
        self.cycles: Dict[str, int] = dict(stats.op_cycles)
        self.energy: Dict[str, float] = dict(stats.op_energy_pj)


class TelemetryHub:
    """Tracer + metrics registry + event log + the one publish path."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.events = EventLog() if events is None else events
        self._lock = threading.RLock()
        # Watched DeviceStats by id(); each entry keeps its stats alive.
        self._watched: Dict[int, _Watched] = {}
        self.metrics.add_collector(self._collect)
        if getattr(self.events, "on_write_error", None) is None:
            self.events.on_write_error = partial(
                self.emit, "events.write_error"
            )

    def emit(
        self, kind: str, trace_id: Optional[str] = None, **fields: Any
    ) -> None:
        """Publish one ``kind`` (a :data:`KINDS` key) with its fields.

        Updates the kind's instruments under the hub lock, then writes
        its event record (``trace_id`` or the ambient trace) when the
        event log is enabled. An unknown kind, or fields other than the
        kind's, raise :class:`KeyError`.
        """
        spec = KINDS[kind]
        if fields.keys() != spec.needs:
            raise KeyError(
                f"{kind} takes fields {sorted(spec.needs)}, "
                f"got {sorted(fields)}"
            )
        m = self.metrics
        with self._lock:
            for name, add in spec.counters:
                if "{" in name:
                    name = name.format_map(fields)
                m.counter(name).inc(1 if add == 1 else fields[add])
            for name, edges, field in spec.histograms:
                if "{" in name:
                    name = name.format_map(fields)
                m.histogram(name, edges).observe(fields[field])
            for name, field in spec.gauges:
                m.gauge(name).set(fields[field])
        if spec.event is not None and self.events.enabled:
            self.events.emit(
                spec.event,
                trace_id=trace_id,
                **{field: fields[field] for field in spec.fields},
            )

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

    def _collect(self) -> None:
        """The registry's collector: fold, then derive the hit rate."""
        m = self.metrics
        with self._lock:
            for watched in self._watched.values():
                self._fold_one(watched)
            if "mem.row_hits" in m or "mem.row_misses" in m:
                hits = m.counter("mem.row_hits").value
                total = hits + m.counter("mem.row_misses").value
                m.gauge("mem.row_buffer_hit_rate").set(hits / total)

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
                self.emit(
                    "device.op", op=op, count=dn, cycles=dc, energy_pj=de
                )
                seen_counts[op] = n
                seen_cycles[op] = c
                seen_energy[op] = e

    # ------------------------------------------------------------------
    # export

    def metrics_dict(self) -> Dict[str, Any]:
        """Non-destructive snapshot of the whole registry."""
        return self.metrics.as_dict()

    def chrome_trace(self) -> Dict[str, Any]:
        return chrome_trace(self.tracer)

    def write_chrome_trace(self, path: str) -> Dict[str, Any]:
        return write_chrome_trace(self.tracer, path)


__all__ = ["KINDS", "Kind", "TelemetryHub"]
