"""Per-profile request circuit breaker: CLOSED -> OPEN -> HALF_OPEN.

Built on the same sliding-window trip test and probe gate as the
device-level adaptive ladder (:mod:`repro.resilience.window`), but with
request semantics: while OPEN no outcomes flow at all — requests fail
fast at admission — so recovery cannot be outcome-counted the way the
device breaker's cooldown is. Instead OPEN holds for ``open_seconds``
of wall-clock time, then HALF_OPEN lets a limited number of probe
requests through; the probe gate decides whether to close again or
snap back to OPEN.

The clock is injectable so tests drive transitions deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.resilience.window import (
    ErrorWindow,
    ProbeGate,
    ProbeVerdict,
    WindowPolicy,
)
from repro.service.protocol import ServiceReject

CLOSED = "CLOSED"
OPEN = "OPEN"
HALF_OPEN = "HALF_OPEN"


@dataclass(frozen=True)
class RequestBreakerConfig:
    """Tuning for one profile's request breaker.

    Attributes:
        window: sliding window of terminal request outcomes.
        min_samples: outcomes required before the trip test can fire.
        trip_threshold: failure fraction that opens the breaker.
        open_seconds: wall-clock time OPEN holds before probing.
        probe_requests: clean probe requests HALF_OPEN needs to close;
            any failed probe snaps back to OPEN.
    """

    window: int = 16
    min_samples: int = 6
    trip_threshold: float = 0.5
    open_seconds: float = 5.0
    probe_requests: int = 2

    def __post_init__(self) -> None:
        # Window geometry is validated by the shared policy; only the
        # wall-clock cooldown is this breaker's own knob.
        self.window_policy()
        if self.open_seconds <= 0:
            raise ValueError(
                f"open_seconds must be > 0, got {self.open_seconds}"
            )

    def window_policy(self) -> WindowPolicy:
        return WindowPolicy(
            window=self.window,
            min_samples=self.min_samples,
            trip_threshold=self.trip_threshold,
            probe_ops=self.probe_requests,
        )


class RequestBreaker:
    """Fail-fast guard in front of one profile's worker pool."""

    def __init__(
        self,
        profile: str,
        config: Optional[RequestBreakerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        telemetry=None,
    ) -> None:
        self.profile = profile
        self.config = config or RequestBreakerConfig()
        self._clock = clock
        self._telemetry = telemetry
        self.state = CLOSED
        self.errors = ErrorWindow(self.config.window_policy())
        self.gate = ProbeGate()
        self.opened_at: Optional[float] = None
        self.open_count = 0
        # Probes admitted but not yet recorded; HALF_OPEN never lets
        # more requests in flight than clean outcomes it still needs.
        self._probe_inflight = 0

    # ------------------------------------------------------------------

    def _transition(self, dst: str) -> None:
        src, self.state = self.state, dst
        hub = self._telemetry
        if hub is not None:
            # Pinned on the trace timeline as well as counted.
            hub.tracer.instant(
                "service.breaker.transition", category="service",
                profile=self.profile, src=src, dst=dst,
            )
            hub.emit(
                "service.breaker.transition", profile=self.profile, src=src,
                dst=dst, to=dst.lower(),
            )

    def _open(self) -> None:
        self._transition(OPEN)
        self.opened_at = self._clock()
        self.open_count += 1
        self.errors.clear()
        self.gate.cancel()
        self._probe_inflight = 0

    def _retry_after(self) -> float:
        assert self.opened_at is not None
        elapsed = self._clock() - self.opened_at
        return max(0.05, self.config.open_seconds - elapsed)

    def allow(self) -> None:
        """Gate one request; raises 503 ``breaker_open`` when refusing.

        In OPEN, checks whether the cooldown elapsed and, if so, moves
        to HALF_OPEN and arms the probe gate. In HALF_OPEN only the
        outstanding probe budget is admitted — everything past it
        fails fast.
        """
        if self.state == OPEN:
            if self._clock() - self.opened_at < self.config.open_seconds:
                raise ServiceReject(
                    503,
                    "breaker_open",
                    f"profile {self.profile!r} breaker is open",
                    retry_after=self._retry_after(),
                )
            self._transition(HALF_OPEN)
            self.gate.start(self.config.probe_requests)
            self._probe_inflight = 0
        if self.state == HALF_OPEN:
            if self._probe_inflight >= self.gate.remaining:
                raise ServiceReject(
                    503,
                    "breaker_open",
                    f"profile {self.profile!r} is half-open and its "
                    "probe budget is in flight",
                    retry_after=self.config.open_seconds,
                )
            self._probe_inflight += 1

    def release(self) -> None:
        """Return an admitted slot without an outcome (shed requests).

        Deadline sheds and malformed payloads carry no device-health
        signal, but a HALF_OPEN probe slot they occupied must be freed
        or the probe budget would leak and the breaker could never
        close again.
        """
        if self.state == HALF_OPEN:
            self._probe_inflight = max(0, self._probe_inflight - 1)

    def record(self, faulty: bool) -> None:
        """One terminal outcome for a request this breaker admitted."""
        if self.state == HALF_OPEN:
            self._probe_inflight = max(0, self._probe_inflight - 1)
            verdict = self.gate.record(faulty)
            if verdict is ProbeVerdict.SNAP_BACK:
                self._open()
            elif verdict is ProbeVerdict.COMMIT:
                self.errors.clear()
                self._probe_inflight = 0
                self._transition(CLOSED)
            return
        if self.state == OPEN:
            # A straggler finishing after the trip: OPEN already fails
            # fast, so a late outcome carries no new signal.
            return
        self.errors.record(faulty)
        if self.errors.tripped():
            self._open()

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Breaker state for ``/healthz`` and ``/readyz``."""
        snap: Dict[str, object] = {
            "state": self.state,
            "error_rate": round(self.errors.rate, 4),
            "samples": self.errors.samples,
            "open_count": self.open_count,
        }
        if self.state == OPEN and self.opened_at is not None:
            snap["retry_after_s"] = round(self._retry_after(), 3)
        if self.state == HALF_OPEN:
            snap["probes_remaining"] = self.gate.remaining
        return snap


__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "RequestBreaker",
    "RequestBreakerConfig",
]
