"""Telemetry subsystem: tracing, metrics, events, and their exports.

The pieces, usable separately or together through
:class:`TelemetryHub`:

* :class:`Tracer` / :class:`NullTracer` — nested spans with wall-time
  plus simulated cycles/energy attributes (``pim.add``, ``cpim.add``,
  ``mult.reduction``, ``resilience.op``, ``scrub.pass``, ...), thread-
  aware and linked across threads by :class:`TraceContext`.
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms every layer publishes into; exported as JSON
  (``as_dict``) or OpenMetrics text (:func:`render_openmetrics`).
* :class:`EventLog` — structured JSONL events (``coruscant-events/1``)
  with trace_id correlation, routed to a :class:`NullSink` /
  :class:`MemorySink` / rotating :class:`JsonlSink`.
* :func:`chrome_trace` / :func:`write_chrome_trace` — export the span
  tree as Chrome ``trace_event`` JSON (with cross-thread flow events)
  for ``chrome://tracing`` or https://ui.perfetto.dev.

Wire it end to end with ``CoruscantSystem(telemetry=True)`` or
``CoruscantSystem(telemetry=TelemetryHub())``; scope a hub over code
that builds its own clusters with :func:`activated`.
"""

from repro.telemetry.chrome import chrome_trace, write_chrome_trace
from repro.telemetry.context import (
    TraceContext,
    current_context,
    mint_request_id,
    mint_span_id,
    mint_trace_id,
    use_context,
)
from repro.telemetry.events import (
    EVENTS_SCHEMA,
    EventLog,
    JsonlSink,
    MemorySink,
    NullSink,
)
from repro.telemetry.hub import KINDS, Kind, TelemetryHub
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.openmetrics import (
    CONTENT_TYPE as OPENMETRICS_CONTENT_TYPE,
    negotiates_openmetrics,
    render_openmetrics,
)
from repro.telemetry.profiler import (
    PROFILE_SCHEMA,
    SamplingProfiler,
    fold_tracer,
    ledger_from_tracer,
    profile_document,
    render_collapsed,
    speedscope_document,
    tag_thread,
)
from repro.telemetry.runtime import (
    activate,
    activated,
    active_hub,
    deactivate,
)
from repro.telemetry.spans import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "EVENTS_SCHEMA",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "KINDS",
    "Kind",
    "MemorySink",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSink",
    "NullTracer",
    "OPENMETRICS_CONTENT_TYPE",
    "PROFILE_SCHEMA",
    "SamplingProfiler",
    "Span",
    "TelemetryHub",
    "TraceContext",
    "Tracer",
    "fold_tracer",
    "ledger_from_tracer",
    "profile_document",
    "render_collapsed",
    "speedscope_document",
    "tag_thread",
    "activate",
    "activated",
    "active_hub",
    "chrome_trace",
    "current_context",
    "deactivate",
    "mint_request_id",
    "mint_span_id",
    "mint_trace_id",
    "negotiates_openmetrics",
    "render_openmetrics",
    "use_context",
    "write_chrome_trace",
]
