"""Synchronous in-process client for the kernel gateway.

Runs a :class:`~repro.service.gateway.Gateway` core (dispatchers,
queues, breakers — no TCP listener) on a background event-loop thread
and exposes a blocking :meth:`request`. Scripts, notebooks, and tests
get the full admission/deadline/retry/breaker pipeline without sockets:

    with ServiceClient() as client:
        response = client.request(
            "add", {"words": [1, 2, 3], "n_bits": 8}, budget_s=2.0
        )
        assert response.status == "ok"

The client is a well-behaved citizen under backpressure: a 429
``queue_full`` is retried after honouring the server's ``Retry-After``
hint, with deterministic-jitter backoff from
:func:`repro.utils.streams.backoff_delay` layered on top so a herd of
clients spreads out instead of re-colliding. Other rejections (503
``breaker_open``, 504 deadlines, 400s) surface immediately — those are
signals to the caller, not transient congestion.

Closing the client drains the gateway, so every admitted request has
resolved by the time ``close()`` returns.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, Optional

from repro.service.gateway import Gateway
from repro.service.protocol import (
    PRIORITY_INTERACTIVE,
    ServiceResponse,
)
from repro.utils.streams import backoff_delay


class ServiceClient:
    """Blocking facade over an in-process gateway."""

    def __init__(
        self,
        gateway: Optional[Gateway] = None,
        rejection_retries: int = 2,
        retry_seed: int = 0,
        **gateway_kwargs: Any,
    ) -> None:
        if gateway is not None and gateway_kwargs:
            raise ValueError(
                "pass either a gateway or constructor kwargs, not both"
            )
        if rejection_retries < 0:
            raise ValueError(
                f"rejection_retries must be >= 0, got {rejection_retries}"
            )
        self.gateway = gateway or Gateway(**gateway_kwargs)
        self.rejection_retries = rejection_retries
        self.retry_seed = retry_seed
        self.rejection_retry_count = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._request_seq = 0
        self._seq_lock = threading.Lock()

    # ------------------------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        self.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("client already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="service-client", daemon=True
        )
        self._thread.start()
        # With a journal attached, this also replays what a previous
        # process accepted but never acked, before the first request.
        asyncio.run_coroutine_threadsafe(
            self.gateway.start_core(), self._loop
        ).result(timeout=30)

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def close(self) -> None:
        """Drain the gateway, then stop the background loop."""
        if self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self.gateway.shutdown(), self._loop
        ).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------

    def request(
        self,
        kernel: str,
        payload: Optional[Dict[str, Any]] = None,
        budget_s: Optional[float] = None,
        priority: str = PRIORITY_INTERACTIVE,
        profile: str = "default",
        idempotency_key: Optional[str] = None,
    ) -> ServiceResponse:
        """One kernel request, blocking until its terminal response.

        429 ``queue_full`` responses are retried up to
        ``rejection_retries`` times: each retry sleeps the server's
        ``Retry-After`` hint or the deterministic-jitter backoff for
        this (client, request, attempt), whichever is longer.
        """
        if self._loop is None:
            raise RuntimeError("client is not started")
        body: Dict[str, Any] = {
            "payload": payload or {},
            "priority": priority,
            "profile": profile,
        }
        if budget_s is not None:
            body["budget_s"] = budget_s
        if idempotency_key is not None:
            body["idempotency_key"] = idempotency_key
        wait = (
            budget_s
            if budget_s is not None
            else self.gateway.default_budget_s
        )
        with self._seq_lock:
            self._request_seq += 1
            purpose = f"client|{kernel}|{self._request_seq}"
        attempt = 0
        while True:
            future = asyncio.run_coroutine_threadsafe(
                self.gateway.handle(kernel, body), self._loop
            )
            # The gateway itself sheds on the budget; the extra margin
            # only guards against a wedged loop.
            response = future.result(timeout=wait + 60)
            if (
                response.http_status != 429
                or attempt >= self.rejection_retries
            ):
                return response
            attempt += 1
            self.rejection_retry_count += 1
            hint = response.body.get("retry_after_s", 0.0)
            if isinstance(hint, bool) or not isinstance(
                hint, (int, float)
            ):
                hint = 0.0
            delay = max(
                float(hint),
                backoff_delay(
                    self.retry_seed, purpose, attempt,
                    base=0.05, cap=2.0, factor=2.0, jitter=0.5,
                ),
            )
            if delay > 0:
                time.sleep(delay)

    def healthz(self) -> Dict[str, Any]:
        status, body = self.gateway.healthz()
        assert status == 200
        return body

    def readyz(self) -> Dict[str, Any]:
        _status, body = self.gateway.readyz()
        return body


__all__ = ["ServiceClient"]
