"""Per-profile dispatch: worker pool, retries, deadlines, degradation.

One :class:`ProfileDispatcher` per device profile owns the profile's
bounded queues, its request breaker, and ``workers`` asyncio tasks.
Each worker holds its own :class:`CoruscantSystem` (the simulator is
not thread-safe, so a system never leaves its worker) and its own
kernel thread, started with the worker and joined when it drains.
Each kernel attempt is one hand-off: onto that thread's queue, back
through a loop future the thread settles. The interpreter lock gives
the kernel no parallelism, but a long kernel (a CNN inference takes
tens of milliseconds) or a chaos ``kernel-latency`` sleep still must
not hold the event loop, which stays free to admit, refuse, and shed.

Lifecycle of one admitted request:

* shed at dequeue if its deadline already expired (504, no execution);
* run with per-attempt retry on :class:`KernelFault` — backoff delays
  come from :func:`repro.utils.streams.backoff_delay`, a pure function
  of (seed, profile, kernel, retry_key, attempt), so a request's whole
  retry timeline is deterministic and testable;
* retries stop the moment the deadline cannot absorb the next backoff
  (shed, 504) — partial work is never silently discarded: batch
  requests return what completed plus an ``incomplete`` list, exactly
  the sharded campaign's degraded contract;
* the terminal outcome is recorded with the breaker — device faults
  count against the window, sheds and bad requests release the slot
  without a verdict.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.chaos import hooks as chaos_hooks
from repro.chaos.hooks import ChaosWorkerCrash
from repro.resilience.errors import BudgetExhaustedError
from repro.service.admission import AdmissionPolicy, ProfileQueues
from repro.service.breaker import RequestBreaker, RequestBreakerConfig
from repro.service.kernels import run_traced
from repro.service.profiles import DeviceProfile
from repro.telemetry.context import TraceContext
from repro.telemetry.hub import TelemetryHub
from repro.service.protocol import (
    BadRequest,
    KernelFault,
    KernelRequest,
    ServiceReject,
    ServiceResponse,
    envelope,
    reject_response,
)
from repro.utils.streams import backoff_delay


@dataclass(frozen=True)
class RetryConfig:
    """Service-layer retry shape (on top of the device ladder).

    Attributes:
        attempts: total tries per work item (1 = no retry).
        base / cap / factor / jitter: backoff curve, see
            :func:`repro.utils.streams.backoff_delay`.
        seed: root of the deterministic jitter stream.
    """

    attempts: int = 3
    base: float = 0.02
    cap: float = 0.5
    factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(
                f"attempts must be >= 1, got {self.attempts}"
            )

    def delay(self, purpose: str, attempt: int) -> float:
        return backoff_delay(
            self.seed,
            purpose,
            attempt,
            base=self.base,
            cap=self.cap,
            factor=self.factor,
            jitter=self.jitter,
        )


class _Job:
    """One admitted request plus the future its response resolves."""

    __slots__ = ("request", "future", "admitted_at")

    def __init__(
        self, request: KernelRequest, future: "asyncio.Future",
        admitted_at: float,
    ) -> None:
        self.request = request
        self.future = future
        self.admitted_at = admitted_at

    # ProfileQueues routes on these two attributes.
    @property
    def kernel(self) -> str:
        return self.request.kernel

    @property
    def priority(self) -> str:
        return self.request.priority


def _settle(
    future: "asyncio.Future", result: Any, error: Optional[BaseException]
) -> None:
    if future.cancelled():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


class _KernelThread:
    """One worker's own thread: runs its calls one at a time, in order."""

    def __init__(self, name: str) -> None:
        self._calls: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            call = self._calls.get()
            if call is None:
                return
            loop, future, fn, args = call
            result, error = None, None
            try:
                result = fn(*args)
            except BaseException as exc:  # noqa: BLE001 - settled below
                error = exc
            try:
                loop.call_soon_threadsafe(_settle, future, result, error)
            except RuntimeError:
                pass  # the loop has closed: nobody awaits this result

    def call(self, fn, *args: Any) -> "asyncio.Future":
        """Run ``fn(*args)`` on this thread; a future of its outcome."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._calls.put((loop, future, fn, args))
        return future

    def stop(self) -> None:
        """Let the thread finish its call in hand, then join it."""
        self._calls.put(None)
        self._thread.join()


class ProfileDispatcher:
    """Queues + breaker + worker pool for one device profile."""

    def __init__(
        self,
        profile: DeviceProfile,
        telemetry: TelemetryHub,
        admission: Optional[AdmissionPolicy] = None,
        breaker: Optional[RequestBreakerConfig] = None,
        retry: Optional[RetryConfig] = None,
        workers: int = 2,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.profile = profile
        self.queues = ProfileQueues(admission)
        self.breaker = RequestBreaker(
            profile.name, breaker, clock=clock, telemetry=telemetry
        )
        self.retry = retry or RetryConfig()
        self.workers = workers
        self.telemetry = telemetry
        self._clock = clock
        self._tasks: List[asyncio.Task] = []
        self.completed = 0
        self.worker_crashes = 0
        telemetry.metrics.add_collector(self._collect_depths)

    def _collect_depths(self) -> None:
        """Registry collector: each kernel queue's depth at this read."""
        prefix = f"service.queue_depth.{self.profile.name}."
        for kernel, depth in self.queues.depths().items():
            self.telemetry.metrics.gauge(prefix + kernel).set(depth)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Spawn the worker tasks (call from inside the event loop)."""
        if self._tasks:
            raise RuntimeError("dispatcher already started")
        for index in range(self.workers):
            self._tasks.append(
                asyncio.ensure_future(self._worker(index))
            )

    async def drain(self) -> None:
        """Refuse new work, then finish everything already admitted."""
        self.queues.close()
        if self._tasks:
            await asyncio.gather(*self._tasks)
        self.telemetry.emit("service.drained", completed=self.completed)

    # ------------------------------------------------------------------
    # admission

    def submit(self, request: KernelRequest) -> "asyncio.Future":
        """Admit ``request`` or raise :class:`ServiceReject` (429/503).

        Admission is all-or-nothing and synchronous: breaker gate
        first (fail fast costs no queue slot), then the bounded queue.
        The returned future resolves to a :class:`ServiceResponse`.
        """
        if request.deadline.expired:
            raise ServiceReject(
                504, "deadline_exceeded", "budget expired before admission"
            )
        # Chaos: induced admission-queue saturation. Fires before the
        # breaker gate so the synthetic 429 costs no breaker slot,
        # exactly like a real queue_full from ``queues.offer``.
        chaos_hooks.fire(
            chaos_hooks.SITE_DISPATCH_SUBMIT,
            profile=self.profile.name,
            kernel=request.kernel,
        )
        self.breaker.allow()
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        job = _Job(request, future, self._clock())
        try:
            self.queues.offer(job)  # type: ignore[arg-type]
        except ServiceReject:
            self.breaker.release()
            raise
        self.telemetry.emit(
            "service.admitted", trace_id=request.trace_id,
            kernel=request.kernel, priority=request.priority,
        )
        return future

    # ------------------------------------------------------------------
    # workers

    async def _worker(self, index: int) -> None:
        thread = _KernelThread(f"kernels-{self.profile.name}-{index}")
        try:
            await self._serve_jobs(index, thread)
        finally:
            thread.stop()

    async def _serve_jobs(self, index: int, thread: _KernelThread) -> None:
        # The worker's private system shares the dispatcher's hub, so
        # device metrics and resilience.op spans land in the same
        # tracer/registry the gateway exports — the tracer is thread-
        # aware, so concurrent workers each keep their own span stack.
        system = self.profile.build_system(telemetry=self.telemetry)
        while True:
            job = await self.queues.next()
            if job is None:
                return
            span = self.telemetry.tracer.begin(
                "service.dispatch",
                category="service",
                parent=job.request.trace,
                kernel=job.kernel,
                profile=self.profile.name,
                worker=index,
            )
            try:
                action = chaos_hooks.fire(
                    chaos_hooks.SITE_DISPATCH_WORKER,
                    profile=self.profile.name,
                    worker=index,
                )
                if isinstance(action, dict):
                    if action.get("action") == "crash":
                        raise ChaosWorkerCrash(
                            f"worker {index} "
                            f"({self.profile.name}) killed by chaos"
                        )
                    if action.get("action") == "stall":
                        # Hang/slowdown: the worker goes dark for a
                        # while with the job in flight; deadlines and
                        # queue depth absorb the stall.
                        await asyncio.sleep(
                            float(action.get("delay_s", 0.0))
                        )
                response = await self._process(
                    system, thread, job.request, context=span.context
                )
            except ChaosWorkerCrash as exc:
                # Worker supervision: an injected death escapes per-job
                # fault handling and lands here. Fail the in-flight
                # request honestly (500 worker_crashed), release the
                # breaker slot without a verdict (process death is not
                # device-fault evidence), and respawn the worker by
                # rebuilding its private system — exactly what a real
                # supervisor restart would produce.
                self.worker_crashes += 1
                self.breaker.release()
                self.telemetry.emit(
                    "service.worker.crashed", trace_id=job.request.trace_id,
                    profile=self.profile.name, worker=index,
                )
                response = ServiceResponse(
                    500,
                    envelope(
                        job.request, "error", error="worker_crashed",
                        message=str(exc),
                    ),
                )
                system = self.profile.build_system(
                    telemetry=self.telemetry
                )
            except Exception as exc:  # noqa: BLE001 - worker must live
                self.breaker.record(True)
                response = ServiceResponse(
                    500,
                    envelope(
                        job.request, "error", error="internal",
                        message=str(exc),
                    ),
                )
            self.telemetry.tracer.finish(span, status=response.status)
            self.completed += 1
            if not job.future.cancelled():
                job.future.set_result(response)
            self.telemetry.emit(
                "service.request",
                trace_id=job.request.trace_id,
                kernel=job.kernel,
                status=response.status,
                seconds=self._clock() - job.admitted_at,
            )

    async def _process(
        self,
        system,
        thread: _KernelThread,
        request: KernelRequest,
        context: Optional[TraceContext] = None,
    ) -> ServiceResponse:
        if request.deadline.expired:
            self.breaker.release()
            self.telemetry.emit(
                "service.shed", trace_id=request.trace_id,
                kernel=request.kernel, stage="queue",
            )
            return reject_response(
                request,
                ServiceReject(
                    504, "deadline_exceeded",
                    "budget expired while queued",
                ),
            )
        items = request.payload.get("items")
        if items is not None:
            if (
                not isinstance(items, list)
                or not items
                or not all(isinstance(item, dict) for item in items)
            ):
                self.breaker.release()
                return reject_response(
                    request,
                    BadRequest(
                        "'items' must be a non-empty list of payload "
                        "objects"
                    ),
                )
            return await self._process_batch(
                system, thread, request, items, context=context
            )
        outcome = await self._run_item(
            system, thread, request, request.payload, item_index=None,
            context=context,
        )
        return self._single_response(request, outcome)

    def _single_response(
        self, request: KernelRequest, outcome: Dict[str, Any]
    ) -> ServiceResponse:
        kind = outcome["kind"]
        if kind == "ok":
            self.breaker.record(False)
            return ServiceResponse(
                200,
                envelope(
                    request, "ok",
                    result=outcome["result"],
                    retries=outcome["retries"],
                ),
            )
        if kind == "bad_request":
            self.breaker.release()
            return reject_response(request, outcome["reject"])
        if kind == "expired":
            self.breaker.release()
            return reject_response(
                request,
                ServiceReject(
                    504, "deadline_exceeded", outcome["message"]
                ),
            )
        # kind == "fault": retries exhausted on a device-side failure.
        self.breaker.record(True)
        return ServiceResponse(
            500,
            envelope(
                request, "error",
                error="kernel_fault",
                verdict=outcome["verdict"],
                message=outcome["message"],
                retries=outcome["retries"],
            ),
        )

    async def _process_batch(
        self,
        system,
        thread: _KernelThread,
        request: KernelRequest,
        items,
        context: Optional[TraceContext] = None,
    ) -> ServiceResponse:
        """Batch payloads degrade gracefully instead of failing whole.

        Mirrors the sharded campaign: every item either lands in
        ``results`` or is *named* in ``incomplete`` with its reason;
        nothing is silently dropped. Any success + any incompletion =
        ``degraded``; no success is ``500`` if an item faulted, else
        ``504`` if a deadline ran out, else ``400``.
        """
        results: List[Optional[Dict[str, Any]]] = []
        incomplete: List[Dict[str, Any]] = []
        retries: List[Dict[str, Any]] = []
        faults = 0
        for index, item in enumerate(items):
            if request.deadline.expired:
                incomplete.append(
                    {"index": index, "reason": "deadline_exceeded"}
                )
                results.append(None)
                self.telemetry.emit(
                    "service.shed", trace_id=request.trace_id,
                    kernel=request.kernel, stage="batch",
                )
                continue
            outcome = await self._run_item(
                system, thread, request, item, item_index=index,
                context=context,
            )
            retries.extend(outcome["retries"])
            if outcome["kind"] == "ok":
                results.append(outcome["result"])
            else:
                results.append(None)
                reason = {
                    "bad_request": "bad_request",
                    "expired": "deadline_exceeded",
                    "fault": outcome.get("verdict", "fault"),
                }[outcome["kind"]]
                incomplete.append({"index": index, "reason": reason})
                if outcome["kind"] == "fault":
                    faults += 1
        done = sum(1 for r in results if r is not None)
        if faults or done:
            # Any item that faulted through all its retries is device
            # evidence, even when siblings succeeded.
            self.breaker.record(faults > 0)
        else:
            self.breaker.release()
        if not incomplete:
            return ServiceResponse(
                200,
                envelope(request, "ok", results=results, retries=retries),
            )
        if done == 0:
            if faults:
                http_status, status = 500, "error"
            elif any(
                item["reason"] == "deadline_exceeded" for item in incomplete
            ):
                http_status, status = 504, "expired"
            else:
                http_status, status = 400, "rejected"
            return ServiceResponse(
                http_status,
                envelope(
                    request, status,
                    error="all_items_incomplete",
                    results=results,
                    incomplete=incomplete,
                    retries=retries,
                ),
            )
        return ServiceResponse(
            200,
            envelope(
                request, "degraded",
                results=results,
                incomplete=incomplete,
                retries=retries,
            ),
        )

    async def _run_item(
        self,
        system,
        thread: _KernelThread,
        request: KernelRequest,
        payload: Dict[str, Any],
        item_index: Optional[int],
        context: Optional[TraceContext] = None,
    ) -> Dict[str, Any]:
        """One payload through the retry loop; never raises KernelFault."""
        purpose = (
            f"service|{self.profile.name}|{request.kernel}"
            f"|{request.retry_key}"
            + (f"|{item_index}" if item_index is not None else "")
        )
        retries: List[Dict[str, Any]] = []
        attempt = 0
        while True:
            attempt += 1
            try:
                result = await thread.call(
                    run_traced,
                    system,
                    request.kernel,
                    payload,
                    request.deadline,
                    self.telemetry,
                    context,
                    self.profile.name,
                )
                return {
                    "kind": "ok", "result": result, "retries": retries,
                }
            except BadRequest as exc:
                return {
                    "kind": "bad_request", "reject": exc,
                    "retries": retries,
                }
            except KernelFault as exc:
                fault = exc
            except BudgetExhaustedError as exc:
                self.telemetry.emit(
                    "service.shed", trace_id=request.trace_id,
                    kernel=request.kernel, stage="execute",
                )
                return {
                    "kind": "expired", "message": str(exc),
                    "retries": retries,
                }
            if attempt >= self.retry.attempts:
                return {
                    "kind": "fault",
                    "verdict": fault.verdict,
                    "message": str(fault),
                    "retries": retries,
                }
            delay = self.retry.delay(purpose, attempt)
            if not request.deadline.allows(delay):
                self.telemetry.emit(
                    "service.shed", trace_id=request.trace_id,
                    kernel=request.kernel, stage="backoff",
                )
                return {
                    "kind": "expired",
                    "message": (
                        f"budget cannot absorb the {delay:.3f}s "
                        f"backoff before attempt {attempt + 1}"
                    ),
                    "retries": retries,
                }
            retries.append(
                {
                    "attempt": attempt,
                    "delay_s": round(delay, 6),
                    "error": fault.verdict,
                }
            )
            self.telemetry.emit(
                "service.retry", trace_id=request.trace_id,
                kernel=request.kernel,
            )
            if delay:
                await asyncio.sleep(delay)

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "profile": self.profile.as_dict(),
            "breaker": self.breaker.snapshot(),
            "queued": len(self.queues),
            "queue_depths": self.queues.depths(),
            "workers": self.workers,
            "completed": self.completed,
            "worker_crashes": self.worker_crashes,
            "draining": self.queues.closed,
        }


__all__ = ["ProfileDispatcher", "RetryConfig"]
