"""The Coruscant-as-a-service HTTP gateway (stdlib asyncio, no deps).

A deliberately small HTTP/1.1 front end over the per-profile
dispatchers. Endpoints:

* ``POST /v1/<kernel>`` — run one kernel. JSON body::

      {"payload": {...},          # kernel arguments (or {"items": [...]})
       "budget_s": 2.0,           # optional deadline budget
       "priority": "interactive", # or "batch"
       "profile": "default"}      # device profile

* ``GET /healthz`` — liveness: always 200 while the process serves,
  body reports draining state, queue depths, breaker states.
* ``GET /readyz`` — readiness: 503 while draining or when every
  profile's breaker is open; otherwise 200 with per-profile detail.
* ``GET /metrics`` — the TelemetryHub metrics registry as JSON, or as
  OpenMetrics text when the ``Accept`` header asks for
  ``application/openmetrics-text`` (or ``text/plain``). Scrapes also
  refresh the SLO engine, so the ``slo.*`` burn-rate/compliance gauges
  appear in both forms.
* ``POST /debug/profile/start`` / ``POST /debug/profile/stop`` —
  toggle the in-process sampling profiler; ``stop`` returns the
  ``coruscant-profile/1`` document plus a speedscope export. Guarded
  behind ``Gateway(enable_profiling=True)`` (the ``serve
  --enable-profiling`` flag); 403 otherwise.

On start, a gateway with a journal replays the requests a previous
process accepted but never answered, before it opens the listener.

SIGTERM (and SIGINT) starts a graceful drain: the listener refuses new
work with 503 ``draining``, every already-admitted request runs to its
terminal response, every open connection gets its answer, then the
process exits 0. Nothing admitted is ever dropped. A client that has
not sent its whole request within ``_READ_TIMEOUT_S`` is answered 408
``request_timeout`` and closed, so a stalled connection cannot hold the
drain open.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.chaos import hooks as chaos_hooks
from repro.obs.slo import SloEngine, publish_gauges
from repro.service.admission import AdmissionPolicy
from repro.service.breaker import OPEN, RequestBreakerConfig
from repro.service.dispatch import ProfileDispatcher, RetryConfig
from repro.service.journal import RequestJournal
from repro.service.kernels import KERNELS
from repro.service.profiles import DeviceProfile, default_profiles
from repro.service.protocol import (
    PRIORITIES,
    PRIORITY_INTERACTIVE,
    BadRequest,
    KernelRequest,
    ServiceReject,
    ServiceResponse,
    reject_response,
)
from repro.telemetry.context import TraceContext, mint_request_id
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.openmetrics import (
    CONTENT_TYPE as _OPENMETRICS_CONTENT_TYPE,
    negotiates_openmetrics,
    render_openmetrics,
)
from repro.telemetry.spans import Tracer
from repro.utils.deadline import Deadline

_MAX_BODY = 1 << 20  # 1 MiB of JSON is far beyond any kernel payload

#: An HTTP answer: status, JSON body (or pre-rendered text), headers.
_Reply = Tuple[int, Any, Dict[str, str]]

#: Seconds a client gets to send its whole request (line, headers and
#: body) before it is answered ``408 request_timeout`` and closed, so a
#: stalled client cannot hold a connection open through a drain.
_READ_TIMEOUT_S = 10.0

#: Root-span retention for the gateway's *default* hub: enough recent
#: requests for trace export, bounded so a long-running serve process
#: cannot grow without limit. Callers wanting different retention pass
#: their own hub.
_DEFAULT_MAX_ROOTS = 4096


class Gateway:
    """The long-running batched kernel service."""

    def __init__(
        self,
        profiles: Optional[Dict[str, DeviceProfile]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionPolicy] = None,
        breaker: Optional[RequestBreakerConfig] = None,
        retry: Optional[RetryConfig] = None,
        workers: int = 2,
        default_budget_s: float = 10.0,
        telemetry: Optional[TelemetryHub] = None,
        enable_profiling: bool = False,
        clock=time.monotonic,
        journal: Optional[RequestJournal] = None,
    ) -> None:
        if default_budget_s <= 0:
            raise ValueError(
                f"default_budget_s must be > 0, got {default_budget_s}"
            )
        self.host = host
        self.port = port
        self.default_budget_s = default_budget_s
        self.telemetry = telemetry or TelemetryHub(
            tracer=Tracer(max_roots=_DEFAULT_MAX_ROOTS)
        )
        self.enable_profiling = enable_profiling
        self._profiler = None
        self._clock = clock
        self._epoch = clock()
        self.slo_engine = SloEngine()
        self.dispatchers: Dict[str, ProfileDispatcher] = {
            name: ProfileDispatcher(
                profile,
                admission=admission,
                breaker=breaker,
                retry=retry,
                workers=workers,
                telemetry=self.telemetry,
            )
            for name, profile in (
                profiles or default_profiles()
            ).items()
        }
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["asyncio.Task"] = set()
        self._drained = asyncio.Event()
        # Crash durability: WAL of accepted-request intents and their
        # terminal acks, plus the in-flight map that coalesces
        # concurrent duplicates of one idempotency key.
        self.journal = journal
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self.last_replay: List[Dict[str, Any]] = []
        if journal is not None:
            self.telemetry.metrics.add_collector(self._collect_journal)

    def _collect_journal(self) -> None:
        """Registry collector: the journal's counts at this read."""
        gauge = self.telemetry.metrics.gauge
        for name, value in self.journal.counts().items():
            gauge(f"journal.{name}").set(value)

    # ------------------------------------------------------------------
    # lifecycle

    async def start_core(self) -> None:
        """Start the dispatchers, then replay the journal's pending intents.

        The replays finish before the first request is served, so they
        win any idempotency race with a client re-sending the same key.
        """
        for dispatcher in self.dispatchers.values():
            dispatcher.start()
        await self.replay_journal()

    async def start(self) -> None:
        await self.start_core()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.shutdown())
            )

    async def shutdown(self) -> None:
        """Drain and stop: refuse new work, land everything admitted."""
        if self.draining:
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
        for dispatcher in self.dispatchers.values():
            dispatcher.queues.close()
        await asyncio.gather(
            *(d.drain() for d in self.dispatchers.values())
        )
        if self._server is not None:
            await self._server.wait_closed()
        # Before Python 3.12 wait_closed() does not wait for open
        # connections; each one ends within _READ_TIMEOUT_S.
        if self._connections:
            await asyncio.wait(set(self._connections))
        if self.journal is not None:
            self.journal.close()
        self._drained.set()

    async def replay_journal(self) -> List[Dict[str, Any]]:
        """Re-submit every journalled intent that never got its ack.

        Run by :meth:`start_core`, after the dispatchers are up: these
        are the requests a previous process accepted and then died
        with. Each replays through the normal :meth:`handle` path under
        its original idempotency key — so it re-executes, gets acked, and
        future duplicates dedup against the new ack. Returns one
        ``{"key", "kernel", "http_status", "status"}`` record per
        replayed request, in original acceptance order.
        """
        if self.journal is None:
            return []
        replayed: List[Dict[str, Any]] = []
        for intent in self.journal.pending():
            response = await self.handle(
                intent["kernel"], intent["body"], journal_key=intent["key"]
            )
            replayed.append(
                {
                    "key": intent["key"],
                    "kernel": intent["kernel"],
                    "http_status": response.http_status,
                    "status": response.status,
                }
            )
        if replayed:
            self.telemetry.emit("journal.replayed", count=len(replayed))
        self.last_replay = replayed
        return replayed

    async def serve_until_drained(self) -> None:
        await self._drained.wait()

    # ------------------------------------------------------------------
    # request handling (transport-independent core)

    async def handle(
        self,
        kernel: str,
        body: Dict[str, Any],
        journal_key: Optional[str] = None,
    ) -> ServiceResponse:
        """Admit + await one kernel request; always returns a response.

        Each request gets a restart-safe salted ``request_id`` and a
        fresh :class:`TraceContext` root. The whole admission-to-
        response interval is recorded as a *detached* ``service.request``
        span (requests interleave on the event-loop thread, so stack
        nesting would mis-parent them) whose context every downstream
        span — dispatcher, worker, resilient executor — descends from.

        With a journal attached, a body's ``idempotency_key`` gives the
        request a durable identity: an already-acked key returns the
        original response (stamped ``"replayed": true``) without
        re-executing; a key currently in flight coalesces onto the
        first submission's future; a fresh key is journalled as an
        intent after admission and acked with its terminal response.
        ``journal_key`` is the internal replay path — it carries a
        recovered intent's key through re-submission, bypassing the
        dedup lookups (no ack exists for a pending intent by
        construction).
        """
        replaying = journal_key is not None
        key = journal_key
        if key is None and isinstance(body, dict):
            raw_key = body.get("idempotency_key")
            if isinstance(raw_key, str) and raw_key:
                key = raw_key
        if self.journal is None or key is None:
            return await self._handle_core(kernel, body, None)
        if not replaying:
            ack = self.journal.get_ack(key)
            if ack is not None:
                replay_body = {**ack["body"], "replayed": True}
                self.telemetry.emit("journal.dedup_hit")
                return ServiceResponse(ack["http_status"], replay_body)
            inflight = self._inflight.get(key)
            if inflight is not None:
                # Concurrent duplicate: ride the first submission.
                original = await asyncio.shield(inflight)
                dedup_body = {**original.body, "replayed": True}
                self.telemetry.emit("journal.dedup_hit")
                return ServiceResponse(
                    original.http_status, dedup_body,
                    dict(original.headers),
                )
        inflight_future: "asyncio.Future" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[key] = inflight_future
        try:
            response = await self._handle_core(kernel, body, key)
        except BaseException:
            inflight_future.cancel()
            raise
        else:
            inflight_future.set_result(response)
            return response
        finally:
            self._inflight.pop(key, None)

    async def _handle_core(
        self,
        kernel: str,
        body: Dict[str, Any],
        journal_key: Optional[str],
    ) -> ServiceResponse:
        started = self._clock()
        request_id = mint_request_id()
        trace = TraceContext.root()
        request = KernelRequest(
            kernel=kernel,
            payload={},
            deadline=Deadline.never(),
            request_id=request_id,
            retry_key=request_id,
            trace=trace,
        )
        span = self.telemetry.tracer.begin(
            "service.request",
            category="service",
            context=trace,
            kernel=kernel,
            request_id=request_id,
        )
        try:
            request = self._parse(kernel, body, request_id, trace)
            if self.draining:
                raise ServiceReject(
                    503, "draining", "gateway is draining", retry_after=1.0
                )
            dispatcher = self.dispatchers.get(request.profile)
            if dispatcher is None:
                raise BadRequest(
                    f"unknown profile {request.profile!r}; serving "
                    f"{sorted(self.dispatchers)}"
                )
            future = dispatcher.submit(request)
        except ServiceReject as reject:
            self.telemetry.emit(
                "service.rejected", trace_id=trace.trace_id, kernel=kernel,
                reason=reject.error,
            )
            response = reject_response(request, reject)
        else:
            # The request is now *accepted*: journal the intent before
            # execution so a crash from here on is recoverable. Rejects
            # above are deliberately not journalled — the client should
            # retry those, not have the refusal replayed back.
            if self.journal is not None and journal_key is not None:
                self.journal.record_intent(journal_key, kernel, body)
            response = await future
            if self.journal is not None and journal_key is not None:
                self.journal.record_ack(
                    journal_key, response.http_status, response.body
                )
        self.telemetry.tracer.finish(span, status=response.status)
        self.slo_engine.record(response.status, self._clock() - started)
        return response

    def _parse(
        self,
        kernel: str,
        body: Dict[str, Any],
        request_id: int,
        trace: Optional[TraceContext] = None,
    ) -> KernelRequest:
        if isinstance(body, dict):
            raw_key = body.get("idempotency_key")
            if raw_key is not None and (
                not isinstance(raw_key, str) or not raw_key
            ):
                raise BadRequest("'idempotency_key' must be a non-empty string")
        if kernel not in KERNELS:
            raise BadRequest(
                f"unknown kernel {kernel!r}; serving {list(KERNELS)}"
            )
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        payload = body.get("payload", {})
        if not isinstance(payload, dict):
            raise BadRequest("'payload' must be a JSON object")
        budget = body.get("budget_s", self.default_budget_s)
        if isinstance(budget, bool) or not isinstance(
            budget, (int, float)
        ):
            raise BadRequest("'budget_s' must be a number")
        if not 0 < budget <= sys.float_info.max:
            raise BadRequest(
                f"'budget_s' must be finite and > 0, got {budget}"
            )
        # Chaos: clock skew on the deadline budget. A skewed gateway
        # clock mis-sizes the monotonic budget the deadline is minted
        # from; a tiny scale collapses it to an immediate 504.
        skew = chaos_hooks.fire(
            chaos_hooks.SITE_GATEWAY_BUDGET, kernel=kernel
        )
        if skew is not None:
            budget = float(budget) * float(skew)
        priority = body.get("priority", PRIORITY_INTERACTIVE)
        if priority not in PRIORITIES:
            raise BadRequest(
                f"priority must be one of {list(PRIORITIES)}, "
                f"got {priority!r}"
            )
        profile = body.get("profile", "default")
        if not isinstance(profile, str):
            raise BadRequest("'profile' must be a string")
        return KernelRequest(
            kernel=kernel,
            payload=payload,
            deadline=Deadline(float(budget)),
            priority=priority,
            profile=profile,
            retry_key=request_id,
            request_id=request_id,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # health

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        body: Dict[str, Any] = {
            "status": "draining" if self.draining else "ok",
            "profiles": {
                name: dispatcher.snapshot()
                for name, dispatcher in self.dispatchers.items()
            },
        }
        if self.journal is not None:
            body["journal"] = self.journal.counts()
        return 200, body

    def readyz(self) -> Tuple[int, Dict[str, Any]]:
        breakers = {
            name: dispatcher.breaker.snapshot()
            for name, dispatcher in self.dispatchers.items()
        }
        all_open = all(
            snap["state"] == OPEN for snap in breakers.values()
        )
        ready = not self.draining and not all_open
        body = {
            "ready": ready,
            "draining": self.draining,
            "breakers": breakers,
            "systems": {
                name: dispatcher.profile.as_dict()
                for name, dispatcher in self.dispatchers.items()
            },
            "slo": self.slo_report(),
        }
        return (200 if ready else 503), body

    def slo_report(self) -> Dict[str, Any]:
        """Snapshot the SLO counts, evaluate, and publish the gauges.

        Called on every ``/readyz`` and ``/metrics`` hit: the engine,
        which :meth:`_handle_core` feeds one record per answer, gets
        one snapshot per scrape on the gateway's monotonic clock, and
        the resulting burn-rate / compliance values land in the
        registry as ``slo.*`` gauges so both metric forms expose them.
        """
        self.slo_engine.observe(self._clock() - self._epoch)
        report = self.slo_engine.evaluate()
        publish_gauges(self.telemetry.metrics, report)
        return report

    # ------------------------------------------------------------------
    # debug profiling endpoints

    def profile_start(self, body: Any) -> _Reply:
        if not self.enable_profiling:
            return _rejected(
                403, "profiling_disabled",
                message="start the gateway with --enable-profiling",
            )
        if self._profiler is not None:
            return _rejected(409, "profiler_running")
        from repro.telemetry.profiler import SamplingProfiler

        if not isinstance(body, dict):
            return _rejected(
                400, "bad_request", message="body must be a JSON object"
            )
        interval_ms = body.get("interval_ms", 5.0)
        floor_ms = 1000 * SamplingProfiler.MIN_INTERVAL_S
        limit_ms = 1000 * SamplingProfiler.MAX_INTERVAL_S
        if (
            isinstance(interval_ms, bool)
            or not isinstance(interval_ms, (int, float))
            or not floor_ms <= interval_ms <= limit_ms
        ):
            return _rejected(
                400, "bad_request",
                message=(
                    f"'interval_ms' must be a number in "
                    f"[{floor_ms:g}, {limit_ms:g}]"
                ),
            )
        self._profiler = SamplingProfiler(
            interval_s=float(interval_ms) / 1000.0,
            tracer=self.telemetry.tracer,
        )
        self._profiler.start()
        reply = {"status": "ok", "profiling": "started",
                 "interval_ms": float(interval_ms)}
        return 200, reply, {}

    def profile_stop(self) -> _Reply:
        if not self.enable_profiling:
            return _rejected(403, "profiling_disabled")
        if self._profiler is None:
            return _rejected(409, "profiler_not_running")
        from repro.telemetry.profiler import speedscope_document

        profiler = self._profiler
        self._profiler = None
        profiler.stop()
        document = profiler.document(mode="wall")
        document["speedscope"] = speedscope_document(
            profiler.folded(),
            name="coruscant-gateway",
            interval_s=profiler.interval_s,
        )
        return 200, {"status": "ok", "profiling": "stopped",
                     "profile": document}, {}

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        try:
            status, body, headers = await self._handle_http(reader)
        except _BadHttp as exc:
            status, body, headers = _rejected(
                400, "bad_http", message=str(exc)
            )
        except Exception:  # noqa: BLE001 - a server fault gets an answer
            traceback.print_exc()
            status, headers = 500, {}
            body = {"status": "error", "error": "internal"}
        headers = dict(headers)
        if isinstance(body, str):
            # Pre-rendered text bodies (OpenMetrics exposition) name
            # their own content type via the handler's headers.
            payload = body.encode()
            content_type = headers.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            payload = json.dumps(body).encode()
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in headers.items())
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode() + payload
        )
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    async def _handle_http(self, reader: asyncio.StreamReader) -> _Reply:
        try:
            request = await asyncio.wait_for(
                _read_request(reader), _READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            return _rejected(408, "request_timeout")
        if request is None:
            return _rejected(413, "payload_too_large")
        method, path, accept, raw = request
        if method == "GET":
            return self._handle_get(path, accept)
        if method != "POST":
            return _rejected(405, "method_not_allowed")
        if not path.startswith("/v1/") and not path.startswith(
            "/debug/profile/"
        ):
            return _rejected(404, "not_found")
        try:
            body = json.loads(raw.decode() or "{}")
        except (ValueError, UnicodeDecodeError):
            return _rejected(
                400, "bad_request", message="body is not valid JSON"
            )
        if path == "/debug/profile/start":
            return self.profile_start(body)
        if path == "/debug/profile/stop":
            return self.profile_stop()
        if path.startswith("/debug/profile/"):
            return _rejected(404, "not_found")
        kernel = path[len("/v1/"):]
        response = await self.handle(kernel, body)
        return response.http_status, response.body, response.headers

    def _handle_get(self, path: str, accept: Optional[str] = None) -> _Reply:
        if path == "/healthz":
            status, body = self.healthz()
            return status, body, {}
        if path == "/readyz":
            status, body = self.readyz()
            return status, body, {}
        if path == "/metrics":
            # Refresh the slo.* gauges first so both exposition forms
            # carry current burn rates.
            self.slo_report()
            # Content negotiation: explicit openmetrics-text (or
            # text/plain) Accept headers get the OpenMetrics form;
            # everything else keeps the historical JSON byte-for-byte.
            if negotiates_openmetrics(accept):
                return (
                    200,
                    render_openmetrics(self.telemetry.metrics),
                    {"Content-Type": _OPENMETRICS_CONTENT_TYPE},
                )
            return 200, self.telemetry.metrics_dict(), {}
        return _rejected(404, "not_found")


def _rejected(status: int, error: str, **extra: str) -> _Reply:
    """An HTTP-level refusal: no kernel ran, so no envelope."""
    return status, {"status": "rejected", "error": error, **extra}, {}


class _BadHttp(Exception):
    """Malformed wire input; answered ``400 bad_http``."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Optional[str], bytes]]:
    """(method, path, Accept, body); None for a body over ``_MAX_BODY``."""
    parts = (await _read_line(reader)).split()
    if len(parts) != 3:
        raise _BadHttp("request line must be METHOD PATH VERSION")
    method, path, _version = parts
    content_length = 0
    accept: Optional[str] = None
    while True:
        line = (await _read_line(reader)).strip()
        if not line:
            break
        name, _, value = line.partition(":")
        header = name.strip().lower()
        value = value.strip()
        if header == "content-length":
            # isdecimal() on latin-1 text admits only ASCII digits.
            if not value.isdecimal():
                raise _BadHttp(
                    "Content-Length must be a non-negative integer, "
                    f"got {value!r}"
                )
            content_length = int(value)
        elif header == "accept":
            accept = value
    if content_length > _MAX_BODY:
        return None
    try:
        raw = await reader.readexactly(content_length)
    except asyncio.IncompleteReadError as exc:
        raise _BadHttp(
            f"body ended after {len(exc.partial)} of "
            f"{content_length} bytes"
        ) from None
    return method, path, accept, raw


async def _read_line(reader: asyncio.StreamReader) -> str:
    try:
        line = await reader.readline()
    except ValueError:  # the line outgrew the stream's buffer limit
        raise _BadHttp("request line or header too long") from None
    return line.decode("latin-1")


_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def run_gateway(
    gateway: Gateway,
    announce=None,
) -> int:
    """Start, announce, serve until drained. Returns the exit code."""
    await gateway.start()
    gateway.install_signal_handlers()
    if announce is not None:
        announce(gateway.host, gateway.port)
    await gateway.serve_until_drained()
    return 0


def parse_profile_specs(
    specs: Optional[List[str]],
) -> Dict[str, DeviceProfile]:
    """CLI ``--profile`` values into the gateway's profile table."""
    extra: Dict[str, DeviceProfile] = {}
    for spec in specs or []:
        profile = DeviceProfile.parse(spec)
        extra[profile.name] = profile
    return default_profiles(extra)


__all__ = ["Gateway", "parse_profile_specs", "run_gateway"]
