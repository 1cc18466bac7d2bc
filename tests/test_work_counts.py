"""Work-count ratchet: the work one kernel call or gateway request makes.

Wall-clock timings on a shared host swing by 1.6-2x between runs, but
the work a kernel asks of the device layer is exact for fixed inputs.
This module counts it for each kernel of the repository benchmark, at
the paper's geometry (512 tracks, TRD 7), on fixed inputs:

- calls of the :class:`DeviceStats` entry points that account device
  ops (:data:`STATS_ENTRY_POINTS`);
- calls of the public :class:`DomainBlockCluster` methods;
- ``tolist()`` round trips from arrays to Python lists, counted as the
  interpreter's ``c_call`` profile events of a C function of that name.

The faulted row counts the calls of the :class:`FaultInjector` methods
that draw (:data:`INJECTOR_ENTRY_POINTS`) in a 100-op faulted campaign
at the benchmark's ``campaign_faults`` settings
(:data:`FAULTED_CAMPAIGN_BUDGET`). The gateway half counts the fsyncs,
hub emits, event records and worker-thread hand-offs of keyed requests
(:data:`GATEWAY_BUDGETS`).

Each count must *equal* its budget. The ratchet rule:
a change that lowers a count lowers its budget in the same change; a
change that raises one raises the budget and says why in
``CHANGES.md``, since a higher budget loosens the check.
"""

import inspect
import random
import sys

import pytest

from repro import CoruscantSystem
from repro.arch.dbc import DomainBlockCluster
from repro.core.pim_logic import BulkOp
from repro.device.faults import FaultInjector
from repro.device.stats import DeviceStats

_RNG = random.Random(21)
_BITS = [_RNG.getrandbits(1) for _ in range(512)]
_ROWS = [[_RNG.getrandbits(1) for _ in range(512)] for _ in range(3)]
_WORDS = [173, 58, 99, 7, 255]

#: kernel -> (call on a fresh system, its answer).
KERNELS = {
    "add": (lambda s: s.add(_WORDS, 8, exact=False).value, sum(_WORDS) % 256),
    "multiply": (lambda s: s.multiply(173, 219, 8).value, 173 * 219),
    "maximum": (lambda s: s.maximum(_WORDS, 8).value, max(_WORDS)),
    "popcount": (lambda s: s.popcount(_BITS), sum(_BITS)),
    "bulk_xor": (
        lambda s: s.bulk_op(BulkOp.XOR, _ROWS).bits,
        [a ^ b ^ c for a, b, c in zip(*_ROWS)],
    ),
}

#: kernel -> (DeviceStats entry-point calls, DomainBlockCluster calls,
#: ``tolist()`` calls).
BUDGETS = {
    "add": (1, 2, 1),
    "multiply": (33, 37, 2),
    "maximum": (128, 142, 23),
    "popcount": (2, 3, 2),
    "bulk_xor": (2, 8, 2),
}

STATS_ENTRY_POINTS = ("record", "apply")


def _public_methods(cls):
    return [
        name for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]


def _count_calls(monkeypatch, cls, names, target, counts, key):
    """Wrap ``cls.<name>`` to count calls made on ``target``."""
    for name in names:
        method = getattr(cls, name)

        def counted(self, *args, _method=method, **kwargs):
            if self is target:
                counts[key] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def work_counts(monkeypatch, kernel):
    """(answer, stats calls, cluster calls, tolist calls) of one call of
    ``kernel``."""
    system = CoruscantSystem(trd=7)
    dbc = system.pim_dbc(0, 0)
    counts = {"stats": 0, "dbc": 0, "tolist": 0}
    _count_calls(
        monkeypatch, DomainBlockCluster, _public_methods(DomainBlockCluster),
        dbc, counts, "dbc",
    )
    _count_calls(
        monkeypatch, DeviceStats, STATS_ENTRY_POINTS, dbc.stats, counts, "stats"
    )

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "tolist":
            counts["tolist"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        answer = KERNELS[kernel][0](system)
    finally:
        sys.setprofile(previous)
    return answer, counts["stats"], counts["dbc"], counts["tolist"]


def test_stats_entry_points_are_every_recording_method():
    # A recording method left off the list would count as no work.
    recording = {
        name for name in _public_methods(DeviceStats)
        if name not in ("merge", "reset", "count", "cycles_for",
                        "energy_for", "as_dict")
    }
    assert recording == set(STATS_ENTRY_POINTS)


def test_every_kernel_has_a_budget():
    assert set(BUDGETS) == set(KERNELS)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_work_equals_its_budget(monkeypatch, kernel):
    answer, *work = work_counts(monkeypatch, kernel)
    assert answer == KERNELS[kernel][1]
    assert tuple(work) == BUDGETS[kernel], (
        f"{kernel}: {work[0]} DeviceStats / {work[1]} cluster / {work[2]} "
        f"tolist calls against a budget of {BUDGETS[kernel]}; lower the "
        "budget with the count, or explain a rise in CHANGES.md"
    )



# ----------------------------------------------------------------------
# Faulted row: the fault draws of a campaign under TR and shift faults.
# A lockstep shift draws in one call, a sensed batch in one call, so
# the calls count the commands that draw, not the tracks or reads.

#: The FaultInjector methods that draw from its RNG.
INJECTOR_ENTRY_POINTS = (
    "perturb_tr_level", "perturb_shift", "sense_batch", "shift_command",
)

#: entry point -> calls in a 100-op campaign at ``campaign_faults``'
#: settings (TRD 7, 64 tracks, TR 1e-2, shift 1e-3, 16 storage rows,
#: scrub every 50 ops, recovery on, seed 7): 192 shift commands and
#: 1,600 sensed batches, 1,792 in all.
FAULTED_CAMPAIGN_BUDGET = {
    "perturb_tr_level": 0,
    "perturb_shift": 0,
    "sense_batch": 1600,
    "shift_command": 192,
}


def test_injector_entry_points_are_every_drawing_method():
    # A drawing method left off the list would count as no work.
    drawing = {
        name for name in _public_methods(FaultInjector)
        if name not in ("set_rates", "state", "restore_state")
    }
    assert drawing == set(INJECTOR_ENTRY_POINTS)


def test_faulted_campaign_draw_calls_equal_their_budget(monkeypatch):
    from repro.reliability.campaign import CampaignConfig, run_add_campaign

    counts = dict.fromkeys(INJECTOR_ENTRY_POINTS, 0)
    for name in INJECTOR_ENTRY_POINTS:
        _count(monkeypatch, FaultInjector, name, counts, name)
    result = run_add_campaign(CampaignConfig(
        ops=100, trd=7, tracks=64, tr_fault_rate=1e-2, shift_fault_rate=1e-3,
        storage_rows=16, scrub_interval=50, recovery=True, seed=7,
    ))
    assert result.completed and result.ops == 100
    assert counts == FAULTED_CAMPAIGN_BUDGET, (
        f"{counts} against a budget of {FAULTED_CAMPAIGN_BUDGET}; lower the "
        "budget with the count, or explain a rise in CHANGES.md"
    )


# ----------------------------------------------------------------------
# Gateway half: the work of keyed requests on a journalled gateway with
# an event log, counted after start-up over the seed-7 ``mixed``
# schedule, one request at a time, with no resubmits.

#: work -> calls for the 200 requests: one fsync per request (its ack
#: commits its intent too) and one hand-off to a worker's own kernel
#: thread per kernel attempt; nothing goes through ``run_in_executor``.
GATEWAY_BUDGETS = {
    "os.fsync": 200,
    "TelemetryHub.emit": 705,
    "EventLog.emit": 505,
    "_KernelThread.call": 200,
    "run_in_executor": 0,
}


def _count(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_gateway_work_equals_its_budget(monkeypatch, tmp_path):
    import asyncio
    import contextlib
    import os

    from repro.obs.loadgen import build_schedule
    from repro.service import dispatch
    from repro.service.client import ServiceClient
    from repro.service.gateway import Gateway
    from repro.service.journal import RequestJournal
    from repro.telemetry import EventLog, JsonlSink, TelemetryHub, Tracer

    schedule = build_schedule("mixed", 200, seed=7)
    events = EventLog(JsonlSink(str(tmp_path / "events.jsonl")))
    gateway = Gateway(
        workers=2,
        journal=RequestJournal(str(tmp_path / "journal.jsonl")),
        telemetry=TelemetryHub(tracer=Tracer(max_roots=4096), events=events),
    )
    counts = dict.fromkeys(GATEWAY_BUDGETS, 0)
    with contextlib.closing(events), ServiceClient(gateway=gateway) as client:
        with monkeypatch.context() as patch:
            _count(patch, os, "fsync", counts, "os.fsync")
            _count(patch, TelemetryHub, "emit", counts, "TelemetryHub.emit")
            _count(patch, EventLog, "emit", counts, "EventLog.emit")
            _count(
                patch, dispatch._KernelThread, "call", counts,
                "_KernelThread.call",
            )
            _count(
                patch, asyncio.BaseEventLoop, "run_in_executor", counts,
                "run_in_executor",
            )
            for item in schedule:
                response = client.request(
                    item.kernel, item.payload, priority=item.priority,
                    idempotency_key=f"k{item.index}",
                )
                assert response.status == "ok", response.body
    assert counts == GATEWAY_BUDGETS, (
        f"{counts} against a budget of {GATEWAY_BUDGETS}; lower the budget "
        "with the count, or explain a rise in CHANGES.md"
    )
