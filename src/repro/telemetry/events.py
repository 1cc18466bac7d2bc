"""Structured JSONL event log (schema ``coruscant-events/1``).

The metrics registry answers "how much"; the event log answers "what
happened, in what order, on which request". Every TelemetryHub emit of
a kind with an event — service admission/completion, campaign shard
lifecycle, resilience verdicts, breaker transitions — writes one
structured record here, stamped with a monotonic sequence number, a
wall-clock microsecond timestamp, and (when one is ambient or passed
explicitly) the ``trace_id`` of the request it belongs to, so a grep
over the log reconstructs one request's path through the service.

Sinks, not the log, own persistence policy:

* :class:`NullSink` — the default everywhere; records nothing and
  short-circuits record *construction*, so un-instrumented runs pay one
  attribute read per emit.
* :class:`MemorySink` — bounded in-memory ring, for tests and the
  gateway's ``/events`` style introspection.
* :class:`JsonlSink` — append-only JSONL file with size-based rotation
  (``events.jsonl`` -> ``events.jsonl.1`` ...), for long-running
  ``serve`` processes.

Records are one JSON object per line::

    {"schema": "coruscant-events/1", "seq": 7, "ts_us": 1754650000000000,
     "event": "service.request.done", "trace_id": "ab12...", ...}
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.chaos import hooks as chaos_hooks
from repro.telemetry.context import current_context
from repro.utils.durable import JsonlLog, encode

EVENTS_SCHEMA = "coruscant-events/1"


class NullSink:
    """Discards everything; the zero-overhead default."""

    enabled = False

    def emit(self, record: Dict[str, Any]) -> None:  # pragma: no cover
        return None

    def close(self) -> None:
        return None


class MemorySink:
    """Keeps the last ``capacity`` records in memory (tests, probes)."""

    enabled = True

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)
            if len(self.records) > self.capacity:
                del self.records[: len(self.records) - self.capacity]

    def close(self) -> None:
        return None


class JsonlSink:
    """Append-only JSONL file with size-based rotation.

    When the active file would exceed ``max_bytes`` after a write, it is
    rotated: ``path`` -> ``path.1`` -> ... -> ``path.<backups>``, oldest
    dropped. Rotation is by whole records (a record is never split), so
    every file in the set is independently valid JSONL. Each record is
    flushed through a :class:`~repro.utils.durable.JsonlLog`.
    """

    enabled = True

    def __init__(
        self,
        path: str,
        max_bytes: int = 8 * 1024 * 1024,
        backups: int = 3,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError(f"max_bytes must be >= 1024, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()
        self._log = JsonlLog(path).open()

    def emit(self, record: Dict[str, Any]) -> None:
        line = encode(record)
        with self._lock:
            if self._log.tell() + len(line) + 1 > self.max_bytes:
                self._rotate()
            self._log.write(line)

    def _rotate(self) -> None:
        self._log.close()
        if self.backups == 0:
            os.truncate(self.path, 0)
        for index in range(self.backups, 0, -1):
            src = f"{self.path}.{index - 1}" if index > 1 else self.path
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index}")

    def close(self) -> None:
        with self._lock:
            self._log.close()


class EventLog:
    """Stamps and routes structured events into a sink.

    ``emit`` is cheap to call unconditionally: with the default
    :class:`NullSink` it returns before building the record. Each
    emitted record carries the schema tag, a process-monotonic ``seq``,
    ``ts_us`` wall-clock microseconds, the event name, and — from the
    explicit ``trace_id`` argument or the ambient
    :func:`~repro.telemetry.context.current_context` — the trace it
    belongs to.

    ``common`` fields are stamped onto every record the log emits —
    the campaign CLI binds ``shard_id`` here so each record of a
    campaign event stream names its shard. Explicit per-emit fields
    win over common ones.

    Sink failures never reach the caller: telemetry rides the request
    path, so a full disk or failed rotation drops the record, bumps
    ``write_errors`` (and the ``on_write_error`` callback, which the
    hub uses to expose an ``events.write_errors`` counter), and the
    request proceeds untouched.
    """

    def __init__(
        self,
        sink: Optional[Any] = None,
        common: Optional[Dict[str, Any]] = None,
        on_write_error: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.common: Dict[str, Any] = dict(common) if common else {}
        self.on_write_error = on_write_error
        self.write_errors = 0
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return bool(getattr(self.sink, "enabled", True))

    def emit(
        self,
        event: str,
        trace_id: Optional[str] = None,
        **fields: Any,
    ) -> Optional[Dict[str, Any]]:
        if not self.enabled:
            return None
        if trace_id is None:
            ambient = current_context()
            if ambient is not None:
                trace_id = ambient.trace_id
        with self._lock:
            self._seq += 1
            seq = self._seq
        record: Dict[str, Any] = {
            "schema": EVENTS_SCHEMA,
            "seq": seq,
            "ts_us": time.time_ns() // 1000,
            "event": event,
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        for key, value in self.common.items():
            if value is not None:
                record[key] = value
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        try:
            chaos_hooks.fire(chaos_hooks.SITE_EVENTS_WRITE, event=event)
            self.sink.emit(record)
        except (OSError, ValueError):
            # Drop the record, count it, move on: the event log must
            # never fail a request.
            with self._lock:
                self.write_errors += 1
            if self.on_write_error is not None:
                try:
                    self.on_write_error()
                except Exception:
                    pass
            return None
        return record

    def close(self) -> None:
        self.sink.close()


NULL_EVENT_LOG = EventLog(NullSink())

__all__ = [
    "EVENTS_SCHEMA",
    "EventLog",
    "JsonlSink",
    "MemorySink",
    "NULL_EVENT_LOG",
    "NullSink",
]
