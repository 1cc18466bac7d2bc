"""Wire contract of the kernel gateway: requests, responses, rejections.

Everything HTTP-shaped lives here — priority classes,
the response envelope, and the typed rejection exceptions the admission
controller and breaker raise — so the transport
(:mod:`repro.service.gateway`), the dispatcher
(:mod:`repro.service.dispatch`), and the in-process client
(:mod:`repro.service.client`) all speak exactly one schema.

Response envelope (JSON body)::

    {"schema": "coruscant-service/1",
     "status": "ok" | "degraded" | "rejected" | "expired" | "error",
     "kernel": "...", "profile": "...", "request_id": N,
     "result": ... | "results": [...],          # ok / degraded
     "incomplete": [{"index": i, "reason": ...}],  # batch, items missing
     "retries": [{"attempt": k, "delay_s": d, "error": ...}],
     "error": "...", "retry_after_s": S}        # rejected / error

The ``incomplete`` list deliberately mirrors the sharded campaign's
``incomplete_shards`` contract: partial results are delivered, and what
is missing is named, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.telemetry.context import TraceContext
from repro.utils.deadline import Deadline

SCHEMA = "coruscant-service/1"

PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BATCH = "batch"
PRIORITIES = (PRIORITY_INTERACTIVE, PRIORITY_BATCH)

#: Statuses a terminal response can carry.
STATUSES = ("ok", "degraded", "rejected", "expired", "error")


class ServiceReject(Exception):
    """A request refused before (or instead of) execution.

    Attributes:
        http_status: status code the transport must send.
        error: machine-readable reason (``queue_full``, ``breaker_open``,
            ``draining``, ``deadline_exceeded``, ``bad_request``).
        retry_after: backpressure hint in seconds (429/503 responses
            carry it as a ``Retry-After`` header too), or None.
    """

    def __init__(
        self,
        http_status: int,
        error: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.http_status = http_status
        self.error = error
        self.retry_after = retry_after


class BadRequest(ServiceReject):
    """Malformed payload: never retried, never counted by the breaker."""

    def __init__(self, message: str) -> None:
        super().__init__(400, "bad_request", message)


class KernelFault(Exception):
    """A retryable kernel failure observed at the service layer.

    ``verdict`` names what was seen — ``corrupted`` (golden mismatch:
    a silent fault escaped the device ladder), ``uncorrectable`` (the
    resilient executor gave up), ``misread`` (a TR level or carry that
    no fault-free run can produce), or ``data_loss`` (a faulty
    over-shift ejected operand bits). All of them are worth a retry on
    a restored system; none of them are the caller's fault.
    """

    def __init__(self, verdict: str, message: str) -> None:
        super().__init__(message)
        self.verdict = verdict


@dataclass
class KernelRequest:
    """One admitted unit of work, transport-independent.

    ``trace`` is the request's root :class:`TraceContext`, minted at
    the gateway and carried *explicitly* on the request because the
    dispatcher's coroutines interleave on one event-loop thread —
    ambient (contextvar) propagation cannot be trusted across that
    boundary.
    """

    kernel: str
    payload: Dict[str, Any]
    deadline: Deadline
    priority: str = PRIORITY_INTERACTIVE
    profile: str = "default"
    retry_key: int = 0
    request_id: int = 0
    trace: Optional[TraceContext] = None

    @property
    def trace_id(self) -> Optional[str]:
        return self.trace.trace_id if self.trace is not None else None


@dataclass
class ServiceResponse:
    """A terminal response: HTTP status plus the JSON envelope."""

    http_status: int
    body: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return self.body.get("status", "error")


def envelope(request: KernelRequest, status: str, **fields: Any) -> Dict:
    """The common response body every terminal answer shares."""
    body: Dict[str, Any] = {
        "schema": SCHEMA,
        "status": status,
        "kernel": request.kernel,
        "profile": request.profile,
        "request_id": request.request_id,
    }
    if request.trace is not None:
        body["trace_id"] = request.trace.trace_id
    body.update(fields)
    return body


def reject_response(
    request: KernelRequest, reject: ServiceReject
) -> ServiceResponse:
    """Render a :class:`ServiceReject` as its wire form.

    429/503 rejections carry ``Retry-After`` (integer seconds, rounded
    up, as the header grammar requires) so well-behaved clients back
    off instead of hammering a saturated queue.
    """
    body = envelope(
        request,
        "expired" if reject.error == "deadline_exceeded" else "rejected",
        error=reject.error,
        message=str(reject),
    )
    headers: Dict[str, str] = {}
    if reject.retry_after is not None:
        body["retry_after_s"] = round(reject.retry_after, 3)
        headers["Retry-After"] = str(max(1, int(-(-reject.retry_after // 1))))
    return ServiceResponse(reject.http_status, body, headers)


__all__ = [
    "BadRequest",
    "KernelFault",
    "KernelRequest",
    "PRIORITIES",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "SCHEMA",
    "STATUSES",
    "ServiceReject",
    "ServiceResponse",
    "envelope",
    "reject_response",
]
