"""Structured tracing: nested spans over the PIM stack.

A :class:`Span` is one traced operation — a facade-level ``pim.mult``, a
controller-level ``cpim.add``, a core phase like ``mult.reduction``, or
a maintenance pass like ``scrub.pass``. Spans nest by wall-clock
containment (the tracer keeps an explicit stack *per thread*) and carry
free-form attributes; the convention across the stack is that every
span is annotated with its *simulated* cost (``cycles``/``energy_pj``)
while its ``start_us``/``duration_us`` record host wall time.

Tracing is thread-aware: each thread nests its own spans on its own
stack, every span records a compact ``tid`` so the Chrome export puts
it on the right track, and a span opened with no local parent inherits
the ambient :class:`~repro.telemetry.context.TraceContext` (bound with
:func:`~repro.telemetry.context.use_context`) — that is how one gateway
request's trace id flows from the event loop into the worker thread and
down to the resilient executor. For async hops where context-manager
nesting is impossible (coroutines interleave on one thread),
:meth:`Tracer.begin` / :meth:`Tracer.finish` open a *detached* span
whose parentage comes from an explicit context instead of the stack.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span()``
returns a shared no-op singleton: no span objects are allocated, no
lists grow, so un-instrumented runs pay only an attribute read per
potential span site.

This module is dependency-free (stdlib only) so every layer of the
simulator can import it without cycles.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.telemetry.context import TraceContext, current_context


class Span:
    """One traced operation: name, wall interval, attributes, children."""

    __slots__ = (
        "name",
        "category",
        "start_us",
        "duration_us",
        "attrs",
        "children",
        "tid",
        "context",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str = "pim",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.start_us = 0.0
        self.duration_us = 0.0
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.tid = 0
        self.context: Optional[TraceContext] = None

    def annotate(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    @property
    def trace_id(self) -> Optional[str]:
        return self.context.trace_id if self.context is not None else None

    @property
    def span_id(self) -> Optional[str]:
        return self.context.span_id if self.context is not None else None

    @property
    def parent_span_id(self) -> Optional[str]:
        return self.context.parent_id if self.context is not None else None

    @property
    def finished(self) -> bool:
        return self.duration_us > 0.0 or not self._tracer._is_open(self)

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, dur_us={self.duration_us:.1f}, "
            f"attrs={self.attrs}, children={len(self.children)})"
        )


class Tracer:
    """Collects nested spans and instant events.

    Use :meth:`span` as a context manager::

        tracer = Tracer()
        with tracer.span("pim.mult", n_bits=8) as span:
            ...
            span.annotate(cycles=64)

    Spans entered while another span is open *on the same thread* become
    its children; each thread keeps its own stack and its own compact
    ``tid``. ``clock`` is injectable for deterministic tests.
    ``max_roots`` (for long-running services) bounds retained root
    spans, and instants to the same count: the oldest are dropped once
    the limit is exceeded, so a gateway's tracer cannot grow without
    bound.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_roots: Optional[int] = None,
    ) -> None:
        if max_roots is not None and max_roots < 1:
            raise ValueError(f"max_roots must be >= 1, got {max_roots}")
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[Span]] = {}
        self._tids: Dict[int, int] = {}
        self._tid_names: Dict[int, str] = {}
        self.roots: List[Span] = []
        self.instants: List[Dict[str, Any]] = []
        self.max_roots = max_roots

    # ------------------------------------------------------------------

    def span(self, name: str, category: str = "pim", **attrs: Any) -> Span:
        """A new span, recorded once it is entered as a context manager."""
        return Span(self, name, category, attrs)

    def begin(
        self,
        name: str,
        category: str = "pim",
        parent: Optional[TraceContext] = None,
        context: Optional[TraceContext] = None,
        **attrs: Any,
    ) -> Span:
        """Open a *detached* span: explicit parentage, no stack nesting.

        For async hops — gateway admission, a dispatcher coroutine —
        where requests interleave on one thread and the stack would mis-
        nest them. ``context`` makes the span *be* that exact context
        (the trace root case); ``parent`` makes it a child of that
        context; with neither, the ambient context (if any) is the
        parent. Close it with :meth:`finish`.
        """
        span = Span(self, name, category, attrs)
        span.start_us = self._now_us()
        _stack, tid = self._thread_state()
        span.tid = tid
        if context is not None:
            span.context = context
        else:
            base = parent if parent is not None else current_context()
            if base is not None:
                span.context = base.child()
        with self._lock:
            self.roots.append(span)
            self._trim(self.roots)
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close a detached span opened with :meth:`begin`."""
        if attrs:
            span.annotate(**attrs)
        if span.duration_us == 0.0:
            span.duration_us = max(0.0, self._now_us() - span.start_us)
        return span

    def instant(self, name: str, category: str = "pim", **attrs: Any) -> None:
        """Record a zero-duration event (retry, breaker transition, ...)."""
        _stack, tid = self._thread_state()
        entry: Dict[str, Any] = {
            "name": name,
            "category": category,
            "ts_us": self._now_us(),
            "tid": tid,
            "attrs": attrs,
        }
        ambient = current_context()
        if ambient is not None:
            entry["trace_id"] = ambient.trace_id
        with self._lock:
            self.instants.append(entry)
            self._trim(self.instants)

    @property
    def active(self) -> Optional[Span]:
        """This thread's innermost open span, or None outside any span."""
        stack, _tid = self._thread_state()
        return stack[-1] if stack else None

    @property
    def depth(self) -> int:
        stack, _tid = self._thread_state()
        return len(stack)

    def thread_names(self) -> Dict[int, str]:
        """Compact tid -> thread name, for trace-export metadata."""
        with self._lock:
            return dict(self._tid_names)

    def active_snapshot(self) -> Dict[int, Span]:
        """Thread ident -> that thread's innermost open span.

        The sampling profiler joins this against
        ``sys._current_frames()`` (also keyed by thread ident) to bill
        samples to the request whose span is open on the sampled
        thread. Owner threads push/pop their stacks without the lock,
        so the snapshot is taken defensively: a stack that empties
        mid-read is simply skipped.
        """
        with self._lock:
            stacks = list(self._stacks.items())
        snapshot: Dict[int, Span] = {}
        for ident, stack in stacks:
            try:
                span = stack[-1]
            except IndexError:
                continue
            snapshot[ident] = span
        return snapshot

    def iter_spans(self) -> Iterator[Span]:
        """All finished-or-open spans, depth-first in start order."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def span_count(self) -> int:
        return sum(1 for _ in self.iter_spans())

    def find(self, name: str) -> List[Span]:
        """Every span with the given name, in start order."""
        return [s for s in self.iter_spans() if s.name == name]

    def clear(self) -> None:
        """Drop all recorded spans and events (all stacks must be empty)."""
        with self._lock:
            if any(self._stacks.values()):
                raise RuntimeError("cannot clear a tracer with open spans")
            self.roots.clear()
            self.instants.clear()

    # ------------------------------------------------------------------
    # internals

    def _now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    def _thread_state(self):
        """This thread's (stack, compact tid), created on first use."""
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
                if ident not in self._tids:
                    tid = len(self._tids)
                    self._tids[ident] = tid
                    self._tid_names[tid] = threading.current_thread().name
        return stack, self._tids[ident]

    def _is_open(self, span: Span) -> bool:
        with self._lock:
            stacks = list(self._stacks.values())
        return any(span in stack for stack in stacks)

    def _trim(self, entries: List[Any]) -> None:
        """Drop the oldest entries past ``max_roots`` (caller holds lock)."""
        if self.max_roots is not None and len(entries) > self.max_roots:
            del entries[: len(entries) - self.max_roots]

    def _enter(self, span: Span) -> None:
        stack, tid = self._thread_state()
        span.start_us = self._now_us()
        span.tid = tid
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(span)
            if parent.context is not None:
                span.context = parent.context.child()
        else:
            ambient = current_context()
            if ambient is not None:
                span.context = ambient.child()
            with self._lock:
                self.roots.append(span)
                self._trim(self.roots)
        stack.append(span)

    def _exit(self, span: Span) -> None:
        span.duration_us = max(0.0, self._now_us() - span.start_us)
        # Tolerate mismatched exits (an inner span leaked by an
        # exception): unwind down to - and including - this span.
        stack, _tid = self._thread_state()
        while stack:
            if stack.pop() is span:
                break


class _NullSpan:
    """Shared no-op span: the zero-overhead stand-in for :class:`Span`."""

    __slots__ = ()

    name = None
    category = None
    start_us = 0.0
    duration_us = 0.0
    attrs: Dict[str, Any] = {}
    children: tuple = ()
    tid = 0
    context = None
    trace_id = None
    span_id = None
    parent_span_id = None

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing and allocates nothing per span.

    ``span()`` always returns the shared :data:`NULL_SPAN` singleton, so
    instrumented code paths cost one method call and no allocation when
    tracing is off — the default for every simulator object.
    """

    enabled = False
    roots: tuple = ()
    instants: tuple = ()
    active = None
    depth = 0

    def span(self, name: str, category: str = "pim", **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def begin(self, name: str, category: str = "pim", **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def finish(self, span, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def instant(self, name: str, category: str = "pim", **attrs: Any) -> None:
        return None

    def thread_names(self) -> Dict[int, str]:
        return {}

    def active_snapshot(self) -> Dict[int, Span]:
        return {}

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def span_count(self) -> int:
        return 0

    def find(self, name: str) -> List[Span]:
        return []

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
]
