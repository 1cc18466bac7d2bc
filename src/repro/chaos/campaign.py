"""The chaos campaign runner behind ``repro chaos``.

One campaign is three phases against a real (in-process) gateway:

1. **Attack** — the deterministic loadgen mix runs sequentially while
   the compiled fault timeline fires: workers crash and hang, kernels
   fault and stall, admission saturates, breakers storm, deadline
   budgets skew, and the request journal's appends tear and fail. One
   request is outstanding at a time, so every op's terminal status is a
   pure function of (seed, faults, duration_ops) — two runs produce
   byte-identical reports.
2. **Crash + recover** — the gateway is torn down, a *new* gateway
   reopens the same journal (chaos off), and startup replay re-submits
   every intent whose ack never reached disk — exactly what a process
   death would have left behind.
3. **Prove durability** — every key whose ack *did* reach disk is
   idempotently resubmitted; each must come back ``replayed: true``
   with a digest matching the stored response.

The steady-state invariant checkers (:mod:`repro.chaos.invariants`)
then validate the whole story; any red invariant drives exit 3.

Result digests strip the per-run volatile fields (``request_id``,
``trace_id``, simulator ``cycles``/``tr_passes``) so the report — and
therefore the CLI's canonical ``json.dumps(report, sort_keys=True)``
byte form — is identical across runs of the same seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos import hooks
from repro.chaos.faults import (
    ChaosInjector,
    FaultSpec,
    compile_timeline,
)
from repro.chaos.invariants import (
    check_accounting,
    check_breaker_isolation,
    check_events_consistency,
    check_no_acked_lost,
)
from repro.obs.loadgen import build_schedule
from repro.service.breaker import CLOSED, RequestBreakerConfig
from repro.service.client import ServiceClient
from repro.service.dispatch import RetryConfig
from repro.service.gateway import Gateway
from repro.service.journal import RequestJournal
from repro.service.profiles import DeviceProfile, default_profiles
from repro.service.protocol import ServiceReject
from repro.telemetry.events import EventLog, MemorySink
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.spans import Tracer

CHAOS_SCHEMA = "coruscant-chaos/1"

#: Device profile the breaker storms attack; ``default`` must keep
#: serving while this one's breaker is open (the isolation invariant).
VICTIM_PROFILE = "victim"

#: Response-body keys that vary run-to-run (ids, simulator state
#: accumulated across a worker's lifetime, and retry backoff delays —
#: jittered off ``retry_key``, which the gateway mints from the salted
#: per-run request id) — stripped before digesting.
_VOLATILE_KEYS = frozenset(
    {"request_id", "trace_id", "cycles", "tr_passes", "replayed", "delay_s"}
)

#: Counter prefixes that are pure functions of the fault schedule;
#: everything else (latency histograms, depth gauges) is wall-clock
#: shaped and stays out of the report.
_STABLE_PREFIXES = ("service.", "journal.", "events.", "resilience.")


def _scrub(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            key: _scrub(item)
            for key, item in sorted(value.items())
            if key not in _VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def response_digest(body: Dict[str, Any]) -> str:
    """Stable identity of a response body, volatile fields excluded."""
    canonical = json.dumps(_scrub(body), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _stable_counters(metrics: Dict[str, Any]) -> Dict[str, int]:
    return {
        name: value
        for name, value in sorted(
            metrics.get("counters", {}).items()
        )
        if name.startswith(_STABLE_PREFIXES)
    }


def _breaker_view(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: snapshot[key]
        for key in ("state", "error_rate", "samples", "open_count")
        if key in snapshot
    }


def _storm(breaker) -> None:
    """Drive one profile's breaker OPEN with failure verdicts."""
    for _ in range(4 * breaker.config.window):
        if breaker.state != CLOSED:
            break
        try:
            breaker.allow()
        except ServiceReject:
            break
        breaker.record(True)


def _build_stack(seed: int, journal: RequestJournal) -> tuple:
    hub = TelemetryHub(
        tracer=Tracer(max_roots=8192),
        events=EventLog(MemorySink(capacity=65536)),
    )
    profiles = default_profiles(
        {VICTIM_PROFILE: DeviceProfile(name=VICTIM_PROFILE)}
    )
    gateway = Gateway(
        profiles=profiles,
        workers=1,
        telemetry=hub,
        # Storms must hold the victim OPEN through the end-of-phase
        # probes, whatever the wall clock does.
        breaker=RequestBreakerConfig(open_seconds=3600.0),
        # Real but near-zero backoff sleeps: the retry *timeline*
        # (attempt counts, deterministic jitter) is exercised without
        # making the campaign's wall time depend on it.
        retry=RetryConfig(
            attempts=2, base=1e-4, cap=1e-3, jitter=0.5, seed=seed
        ),
        default_budget_s=30.0,
        journal=journal,
    )
    # rejection_retries=0: injected 429s must surface in the op record,
    # not be quietly absorbed by the client's good citizenship.
    client = ServiceClient(gateway=gateway, rejection_retries=0)
    return hub, gateway, client


def run_campaign(
    seed: int,
    fault_specs: List[FaultSpec],
    duration_ops: int,
    journal_dir: Optional[str] = None,
    load_profile: str = "mixed",
    inject_violation: bool = False,
) -> Dict[str, Any]:
    """Run one full attack/recover/verify campaign; returns the report.

    ``inject_violation`` deliberately breaks the no-acked-request-lost
    evidence (a ghost acked key that nothing ever answers) so CI can
    prove a red invariant actually turns into exit 3.
    """
    if journal_dir is None:
        journal_dir = tempfile.mkdtemp(prefix="coruscant-chaos-")
    journal_path = os.path.join(journal_dir, "journal.jsonl")
    if os.path.exists(journal_path):
        os.remove(journal_path)
    timeline = compile_timeline(seed, fault_specs, duration_ops)
    schedule = build_schedule(load_profile, duration_ops, seed)
    injector = ChaosInjector(timeline)

    # ----------------------------------------------------------- phase 1
    hub_a, gateway_a, client_a = _build_stack(
        seed, RequestJournal(journal_path)
    )
    ops: List[Dict[str, Any]] = []
    acked_in_memory: Dict[str, str] = {}
    storms_fired = 0
    # The requests phase 3 may resubmit: key -> (kernel, request).
    sent: Dict[str, Tuple[str, Dict[str, Any]]] = {}

    def send(key: str, kernel: str, **request: Any):
        sent[key] = (kernel, request)
        response = client_a.request(kernel, idempotency_key=key, **request)
        if gateway_a.journal.get_ack(key) is not None:
            acked_in_memory[key] = response_digest(response.body)
        return response

    hooks.activate(injector)
    try:
        client_a.start()
        for entry in schedule:
            for event in injector.advance(entry.index):
                if event.kind == "breaker-storm":
                    storms_fired += 1
                    _storm(
                        gateway_a.dispatchers[VICTIM_PROFILE].breaker
                    )
            response = send(
                f"req-{entry.index:05d}",
                entry.kernel,
                payload=entry.payload,
                budget_s=30.0,
                priority=entry.priority,
            )
            record: Dict[str, Any] = {
                "op": entry.index,
                "kernel": entry.kernel,
                "http_status": response.http_status,
                "status": response.status,
                "digest": response_digest(response.body),
            }
            error = response.body.get("error")
            if error is not None:
                record["error"] = error
            ops.append(record)
        injector.sweep()
    finally:
        hooks.deactivate()

    # End-of-phase probes, chaos off: the victim must be refusing
    # (breaker OPEN after a storm), the default must still serve.
    probe = {"payload": {"words": [3, 4, 5], "n_bits": 8}, "budget_s": 30.0}
    probe_default = send("probe-default", "add", **probe)
    probe_victim = client_a.request(
        "add", profile=VICTIM_PROFILE, idempotency_key="probe-victim",
        **probe,
    )
    issued_a = len(schedule) + 2
    breakers = {
        name: _breaker_view(dispatcher.breaker.snapshot())
        for name, dispatcher in gateway_a.dispatchers.items()
    }
    journal_a_counts = gateway_a.journal.counts()
    client_a.close()
    metrics_a = hub_a.metrics_dict()
    counters_a = _stable_counters(metrics_a)
    done_trace_ids = [
        record.get("trace_id")
        for record in hub_a.events.sink.records
        if record.get("event") == "service.request.done"
    ]

    # ----------------------------------------------------------- phase 2
    # "Restart": a fresh gateway recovers the same journal file.
    # Construct the journal first to see the pre-replay disk state —
    # which acks actually survived the torn/failed writes.
    journal_b = RequestJournal(journal_path)
    recovery_counts = journal_b.counts()
    acked_on_disk = sorted(
        key for key in sent if journal_b.get_ack(key) is not None
    )
    hub_b, gateway_b, client_b = _build_stack(seed, journal_b)
    client_b.start()  # startup replay runs here, before any request
    replay_records: List[Dict[str, Any]] = []
    for replayed in gateway_b.last_replay:
        key = replayed["key"]
        ack = journal_b.get_ack(key)
        record = {
            "key": key,
            "kernel": replayed.get("kernel"),
            "http_status": replayed["http_status"],
            "status": replayed["status"],
        }
        if ack is not None and isinstance(ack.get("body"), dict):
            record["digest"] = response_digest(ack["body"])
            original = acked_in_memory.get(key)
            if original is not None:
                record["matches_original"] = original == record["digest"]
        replay_records.append(record)

    # ----------------------------------------------------------- phase 3
    # Idempotent resubmits: every durably-acked key must answer from
    # the journal with the original response.
    resubmit_records: List[Dict[str, Any]] = []
    resubmit_evidence: Dict[str, Dict[str, Any]] = {}
    for key in acked_on_disk:
        kernel, request = sent[key]
        resubmitted = client_b.request(
            kernel, idempotency_key=key, **request
        )
        disk_ack = journal_b.get_ack(key)
        disk_digest = (
            response_digest(disk_ack["body"])
            if disk_ack and isinstance(disk_ack.get("body"), dict)
            else None
        )
        got_digest = response_digest(resubmitted.body)
        evidence = {
            "replayed": bool(resubmitted.body.get("replayed")),
            "digest_matches": disk_digest == got_digest,
        }
        resubmit_evidence[key] = evidence
        resubmit_records.append(
            {
                "key": key,
                "http_status": resubmitted.http_status,
                "status": resubmitted.status,
                **evidence,
            }
        )
    client_b.close()
    counters_b = _stable_counters(hub_b.metrics_dict())

    # --------------------------------------------------------- invariants
    acked_claim = list(acked_on_disk)
    if inject_violation:
        acked_claim.append("ghost-acked-request")
    invariants = [
        check_no_acked_lost(acked_claim, resubmit_evidence),
        check_accounting(issued_a, counters_a),
        check_breaker_isolation(
            storms_fired,
            breakers.get(VICTIM_PROFILE, {}).get("state"),
            breakers.get("default", {}).get("state", "unknown"),
            probe_default.status,
        ),
        check_events_consistency(counters_a, done_trace_ids),
    ]
    ok = all(inv["ok"] for inv in invariants)

    return {
        "schema": CHAOS_SCHEMA,
        "seed": seed,
        "load_profile": load_profile,
        "duration_ops": duration_ops,
        "faults": [
            {
                "kind": spec.kind,
                "count": spec.count,
                "param": spec.effective_param,
            }
            for spec in fault_specs
        ],
        "inject_violation": inject_violation,
        "fault_timeline": [event.as_dict() for event in timeline],
        "fired": injector.fired,
        "unfired": injector.unfired,
        "ops": ops,
        "probes": {
            "default": {
                "status": probe_default.status,
                "http_status": probe_default.http_status,
            },
            "victim": {
                "status": probe_victim.status,
                "http_status": probe_victim.http_status,
                "error": probe_victim.body.get("error"),
            },
        },
        "breakers": breakers,
        "journal": {
            "phase_a": journal_a_counts,
            "recovered": recovery_counts,
            "acked_on_disk": len(acked_on_disk),
        },
        "replay": {
            "count": len(replay_records),
            "records": replay_records,
        },
        "resubmits": {
            "count": len(resubmit_records),
            "records": resubmit_records,
        },
        "counters": {"phase_a": counters_a, "phase_b": counters_b},
        "invariants": invariants,
        "ok": ok,
    }


__all__ = ["CHAOS_SCHEMA", "VICTIM_PROFILE", "response_digest", "run_campaign"]
