"""Deterministic closed-loop load generator for the kernel gateway.

``python -m repro loadbench`` drives the in-process
:class:`~repro.service.client.ServiceClient` with a seeded request
schedule and reports sustained throughput plus latency quantiles in a
``coruscant-loadbench/1`` document shaped for the same
:class:`~repro.obs.history.BenchHistory` /
:class:`~repro.obs.regression.RegressionDetector` pipeline the micro
bench uses — so service-level latency regressions gate CI exactly like
kernel-level wall-clock regressions do.

Determinism contract: :func:`build_schedule` derives every request
(kernel choice, payload, priority) from ``derive_stream(seed,
"loadbench.<profile>")`` — two runs with the same seed and profile
produce byte-identical schedules. Only the measured latencies differ,
and those are judged through the detector's noise band.

Closed loop means each of the ``concurrency`` generator threads issues
its next request only after the previous one resolved, so the offered
load tracks service capacity instead of overrunning the admission
queue; worker ``k`` owns the schedule slice ``schedule[k::concurrency]``
to keep the partition deterministic too.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.slo import GOOD_STATUSES, SloEngine
from repro.service.kernels import CATALOGUE
from repro.service.profiles import DeviceProfile
from repro.service.protocol import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
)
from repro.utils.streams import derive_stream

LOADBENCH_SCHEMA = "coruscant-loadbench/1"

#: Fraction of requests tagged batch priority (the rest interactive).
_BATCH_FRACTION = 0.2


#: Named load mixes: (kernel, weight) pairs. Weights need not sum to 1.
LOAD_PROFILES: Dict[str, Tuple[Tuple[str, float], ...]] = {
    "mixed": (
        ("add", 0.35),
        ("multiply", 0.25),
        ("popcount", 0.25),
        ("bulk-op", 0.15),
    ),
    "arithmetic": (("add", 0.6), ("multiply", 0.4)),
    "analytics": (("popcount", 0.5), ("bitmap-query", 0.5)),
}


@dataclass(frozen=True)
class ScheduledRequest:
    """One pre-generated request of the deterministic schedule."""

    index: int
    kernel: str
    payload: Dict[str, Any]
    priority: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kernel": self.kernel,
            "payload": self.payload,
            "priority": self.priority,
        }


def build_schedule(
    profile: str, requests: int, seed: int
) -> List[ScheduledRequest]:
    """The full request list, derived entirely from (profile, seed).

    Everything random — kernel choice, payload contents, priority — is
    drawn in request order from one ``loadbench.<profile>`` stream, so
    the schedule is reproducible independent of concurrency, wall
    clock, or how far a duration-capped run actually got.
    """
    if profile not in LOAD_PROFILES:
        raise ValueError(
            f"unknown load profile {profile!r}; "
            f"pick one of {', '.join(sorted(LOAD_PROFILES))}"
        )
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    mix = LOAD_PROFILES[profile]
    kernels = [k for k, _w in mix]
    weights = [w for _k, w in mix]
    device = DeviceProfile()
    rng = derive_stream(seed, f"loadbench.{profile}")
    schedule: List[ScheduledRequest] = []
    for index in range(requests):
        kernel = rng.choices(kernels, weights=weights, k=1)[0]
        payload = CATALOGUE[kernel].payload(rng, device.trd, device.tracks)
        priority = (
            PRIORITY_BATCH
            if rng.random() < _BATCH_FRACTION
            else PRIORITY_INTERACTIVE
        )
        schedule.append(
            ScheduledRequest(
                index=index,
                kernel=kernel,
                payload=payload,
                priority=priority,
            )
        )
    return schedule


# ----------------------------------------------------------------------
# closed-loop execution


@dataclass
class _Sample:
    """One completed request: what ran and how long it took."""

    index: int
    kernel: str
    status: str
    seconds: float


@dataclass
class _WorkerState:
    """Per-thread accumulator (no sharing until join)."""

    samples: List[_Sample] = field(default_factory=list)
    skipped: int = 0


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile over an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


def _latency_entry(name: str, latencies: List[float]) -> Dict[str, Any]:
    """One detector-shaped kernel record from a latency sample.

    ``wall_seconds_min`` / ``wall_seconds_median`` are the two fields
    :class:`RegressionDetector` bands on; p90/p99 ride along for the
    report and history trajectory.
    """
    ordered = sorted(latencies)
    return {
        "name": name,
        "requests": len(ordered),
        "wall_seconds_min": ordered[0] if ordered else 0.0,
        "wall_seconds_median": _quantile(ordered, 0.50),
        "wall_seconds_p90": _quantile(ordered, 0.90),
        "wall_seconds_p99": _quantile(ordered, 0.99),
    }


def run_loadbench(
    profile: str = "mixed",
    requests: int = 50,
    seed: int = 0,
    concurrency: int = 2,
    duration: Optional[float] = None,
    budget_s: float = 10.0,
    client=None,
    clock: Callable[[], float] = time.perf_counter,
    slo_engine=None,
    slo_step: float = 6.0,
) -> Dict[str, Any]:
    """Run the closed-loop bench and return the loadbench document.

    Args:
        profile: a :data:`LOAD_PROFILES` mix name.
        requests: schedule length (the run's upper bound).
        seed: root seed for :func:`build_schedule`.
        concurrency: closed-loop generator threads (each waits for its
            previous response before issuing the next request).
        duration: optional wall-clock cap in seconds; requests still
            unissued when it expires are counted as ``skipped``, never
            silently dropped.
        budget_s: per-request deadline budget handed to the gateway.
        client: a started :class:`ServiceClient` to drive; when None an
            in-process one is created (and closed) for the run.
        clock: injectable monotonic clock (tests).
        slo_engine: the :class:`~repro.obs.slo.SloEngine` each
            completed request is recorded in (a fresh default one when
            None), on the *virtual* request clock: request ``i``
            completes at ``(i + 1) * slo_step`` virtual seconds, so the
            burn-rate verdict depends only on statuses and latencies,
            not host speed. The document's ``"slo"`` block holds the
            engine's good/total counts and its report.
        slo_step: virtual seconds credited per completed request.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if duration is not None and duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    schedule = build_schedule(profile, requests, seed)

    owned_client = None
    if client is None:
        from repro.service.client import ServiceClient

        owned_client = ServiceClient(workers=concurrency)
        owned_client.start()
        client = owned_client

    states = [_WorkerState() for _ in range(concurrency)]
    start = clock()
    stop_at = start + duration if duration is not None else None

    def worker(slot: int) -> None:
        state = states[slot]
        for item in schedule[slot::concurrency]:
            if stop_at is not None and clock() >= stop_at:
                state.skipped += 1
                continue
            began = clock()
            response = client.request(
                item.kernel,
                item.payload,
                budget_s=budget_s,
                priority=item.priority,
            )
            state.samples.append(
                _Sample(
                    index=item.index,
                    kernel=item.kernel,
                    status=response.status,
                    seconds=clock() - began,
                )
            )

    try:
        threads = [
            threading.Thread(
                target=worker, args=(slot,), name=f"loadgen-{slot}"
            )
            for slot in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = clock() - start
    finally:
        if owned_client is not None:
            owned_client.close()

    samples = sorted(
        (s for state in states for s in state.samples),
        key=lambda s: s.index,
    )
    skipped = sum(state.skipped for state in states)
    statuses: Dict[str, int] = {}
    for sample in samples:
        statuses[sample.status] = statuses.get(sample.status, 0) + 1
    completed = len(samples)
    failed = completed - sum(statuses.get(s, 0) for s in GOOD_STATUSES)

    kernels: List[Dict[str, Any]] = [
        _latency_entry(
            "loadbench.overall", [s.seconds for s in samples]
        )
    ]
    for kernel in sorted({s.kernel for s in samples}):
        kernels.append(
            _latency_entry(
                f"loadbench.{kernel}",
                [s.seconds for s in samples if s.kernel == kernel],
            )
        )
    # Throughput as seconds-per-request so the detector's "bigger wall
    # time = slower" convention reads sustained req/s regressions too.
    if completed:
        per_request = elapsed / completed
        kernels.append(
            {
                "name": "loadbench.throughput",
                "requests": completed,
                "wall_seconds_min": per_request,
                "wall_seconds_median": per_request,
            }
        )

    document = {
        "schema": LOADBENCH_SCHEMA,
        "profile": profile,
        "seed": seed,
        "concurrency": concurrency,
        "budget_s": budget_s,
        "requests_scheduled": len(schedule),
        "requests_completed": completed,
        "requests_skipped": skipped,
        "requests_failed": failed,
        "statuses": statuses,
        "elapsed_seconds": elapsed,
        "throughput_rps": (completed / elapsed) if elapsed > 0 else 0.0,
        "kernels": kernels,
    }

    if slo_engine is None:
        slo_engine = SloEngine()
    for position, sample in enumerate(samples):
        slo_engine.record(sample.status, sample.seconds)
        slo_engine.observe((position + 1) * slo_step)
    document["slo"] = {
        "step_seconds": slo_step,
        "counts": slo_engine.counts(),
        "report": slo_engine.evaluate(),
    }

    return document


__all__ = [
    "LOADBENCH_SCHEMA",
    "LOAD_PROFILES",
    "ScheduledRequest",
    "build_schedule",
    "run_loadbench",
]
