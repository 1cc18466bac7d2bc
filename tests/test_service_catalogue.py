"""Differential oracle over the kernel catalogue, at every TRD.

Each catalogue entry's generator draws payloads for every device of the
grid: TRD 3, 5 and 7, 8 and 64 tracks, the adaptive ladder off and on.
Each payload runs three ways, and the three must agree: the entry's
runner called directly on a fresh system, the in-process
``ServiceClient``, and HTTP. With device faults on, a 200 must carry
the fault-free answer and any other answer a typed error. After every
run the gateway's request accounting and event log hold
(:mod:`repro.chaos.invariants`). Hypothesis runs derandomized, so the
module is deterministic.
"""

import asyncio
import contextlib
import dataclasses
import http.client
import json
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service
from repro.arch.geometry import MemoryGeometry
from repro.chaos.invariants import check_accounting, check_events_consistency
from repro.core.pim_logic import InconsistentLevelError
from repro.device.nanowire import DataLossError
from repro.service.admission import ProfileQueues
from repro.service.breaker import RequestBreakerConfig
from repro.service.client import ServiceClient
from repro.service.dispatch import RetryConfig
from repro.service.gateway import Gateway
from repro.service.kernels import CATALOGUE, KERNELS
from repro.service.profiles import DeviceProfile
from repro.sim.system import CoruscantSystem
from repro.telemetry import EventLog, MemorySink, TelemetryHub
from repro.utils.deadline import Deadline
from repro.workloads import query
from repro.workloads.cnn import inference

GRID = [
    DeviceProfile(
        name=f"trd{trd}-x{tracks}" + ("-adaptive" if adaptive else ""),
        trd=trd, tracks=tracks, adaptive=adaptive,
    )
    for trd in (3, 5, 7)
    for tracks in (8, 64)
    for adaptive in (False, True)
]

#: Result fields that price the answer rather than give it.
COST_FIELDS = ("cycles", "tr_passes")

#: cnn-infer builds and runs a whole network per call (~25 ms), ten to
#: a hundred times any other kernel, so it gets fewer examples.
EXAMPLES = {kernel: 8 for kernel in KERNELS}
EXAMPLES["cnn-infer"] = 2

_FAST_RETRY = RetryConfig(attempts=2, base=1e-4, cap=1e-3)

#: Response fields that name the request rather than answer it.
_IDS = ("request_id", "trace_id")


def _values(result):
    return {k: v for k, v in result.items() if k not in COST_FIELDS}


def _without_ids(body):
    return {k: v for k, v in body.items() if k not in _IDS}


def _direct(kernel, profile, payload, resilience=True):
    """The entry's runner on a fresh, fault-free system of ``profile``."""
    system = CoruscantSystem(
        trd=profile.trd,
        geometry=MemoryGeometry(tracks_per_dbc=profile.tracks),
        resilience=resilience,
        adaptive=profile.adaptive and resilience,
    )
    return CATALOGUE[kernel].run(system, payload, Deadline.never())


def _post(port, kernel, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", f"/v1/{kernel}", body=json.dumps(body))
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        conn.close()


def _assert_invariants(hub, issued):
    counters = hub.metrics_dict()["counters"]
    done = [
        record.get("trace_id")
        for record in hub.events.sink.records
        if record.get("event") == "service.request.done"
    ]
    for check in (
        check_accounting(issued, counters),
        check_events_consistency(counters, done),
    ):
        assert check["ok"], check


def _assert_kernel_fault(answers, verdict):
    """Both ways answered ``500 kernel_fault`` with ``verdict``, retried."""
    response, status, body = answers
    for got_status, got in ((response.http_status, response.body),
                            (status, body)):
        assert got_status == 500, got
        assert (got["error"], got["verdict"]) == ("kernel_fault", verdict)
        assert [r["error"] for r in got["retries"]] == [verdict]


@contextlib.contextmanager
def serving(profiles, **gateway_kwargs):
    """``send(kernel, payload, profile)`` to two like gateways.

    One is driven in-process by a ``ServiceClient``, the other over HTTP
    on a loopback port; ``send`` returns the client's response and the
    HTTP status and body. On a clean exit both gateways' invariants are
    checked.
    """

    def gateway(**kwargs):
        return Gateway(
            profiles={p.name: p for p in profiles}, workers=1,
            telemetry=TelemetryHub(events=EventLog(MemorySink(1 << 16))),
            **gateway_kwargs, **kwargs,
        )

    inproc, served = gateway(), gateway(port=0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    issued = 0

    def send(kernel, payload, profile):
        nonlocal issued
        issued += 1
        response = client.request(kernel, payload, profile=profile)
        status, body = _post(served.port, kernel, {
            "payload": payload, "priority": "interactive", "profile": profile,
        })
        return response, status, body

    try:
        asyncio.run_coroutine_threadsafe(served.start(), loop).result(30)
        with ServiceClient(gateway=inproc) as client:
            yield send
    finally:
        asyncio.run_coroutine_threadsafe(served.shutdown(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()
    for hub in (inproc.telemetry, served.telemetry):
        _assert_invariants(hub, issued)


def test_catalogue_order_is_the_served_order():
    assert repro.service.KERNELS == (
        "add", "multiply", "bulk-op", "popcount", "bitmap-query", "cnn-infer",
    )
    assert list(ProfileQueues().depths()) == list(KERNELS)


@pytest.mark.parametrize("kernel", KERNELS)
def test_direct_client_and_http_agree(kernel):
    entry = CATALOGUE[kernel]
    with serving(GRID) as send:

        @settings(max_examples=EXAMPLES[kernel], derandomize=True,
                  deadline=None, database=None)
        @given(seed=st.integers(0, 2 ** 32 - 1))
        def check(seed):
            for profile in GRID:
                payload = entry.payload(
                    random.Random(seed), profile.trd, profile.tracks
                )
                direct = _direct(kernel, profile, payload)
                # Resilience checks cost cycles, never change an answer.
                bare = _direct(kernel, profile, payload, resilience=False)
                assert _values(bare) == _values(direct)
                response, status, body = send(kernel, payload, profile.name)
                assert (response.http_status, status) == (200, 200), body
                assert response.body["result"] == direct, (profile, payload)
                assert _without_ids(response.body) == _without_ids(body)

        check()


@pytest.mark.parametrize("trd", (3, 5, 7))
def test_answers_do_not_depend_on_earlier_requests(trd):
    # One worker system serves 200 mixed requests; each answer, cycles
    # included, is what a fresh system gives. cnn-infer builds its own
    # engine per call, so the worker's system holds nothing it reads.
    profile = next(p for p in GRID if p.trd == trd and p.tracks == 64)
    kernels = [k for k in KERNELS if k != "cnn-infer"]
    rng = random.Random(trd)
    hub = TelemetryHub(events=EventLog(MemorySink(1 << 16)))
    with ServiceClient(
        profiles={profile.name: profile}, workers=1, telemetry=hub
    ) as client:
        for _ in range(200):
            kernel = rng.choice(kernels)
            payload = CATALOGUE[kernel].payload(rng, trd, profile.tracks)
            response = client.request(kernel, payload, profile=profile.name)
            assert response.status == "ok", response.body
            assert response.body["result"] == _direct(kernel, profile, payload)
    _assert_invariants(hub, 200)


#: kernel -> (owner, name, spoil): the facade or engine call its runner
#: checks, and a wrong answer to hand back in place of the right one.
CORRUPTIONS = {
    "add": (CoruscantSystem, "execute", lambda out: dataclasses.replace(
        out, values=[out.values[0] + 1, *out.values[1:]])),
    "multiply": (CoruscantSystem, "multiply",
                 lambda out: dataclasses.replace(out, value=out.value + 1)),
    "bulk-op": (CoruscantSystem, "execute", lambda out: dataclasses.replace(
        out, bits=[1 - out.bits[0], *out.bits[1:]])),
    "popcount": (CoruscantSystem, "popcount", lambda count: count + 1),
    "bitmap-query": (query.QueryEngine, "run", lambda out: dataclasses.replace(
        out, count=out.count + 1)),
    "cnn-infer": (inference, "run_tiny_cnn",
                  lambda out: (out[0] + 1, out[1])),
}


def test_every_kernel_has_a_corruption():
    assert set(CORRUPTIONS) == set(KERNELS)


@pytest.mark.parametrize("kernel", KERNELS)
def test_golden_check_turns_a_wrong_answer_into_a_fault(kernel, monkeypatch):
    owner, name, spoil = CORRUPTIONS[kernel]
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: spoil(original(*a, **k)))
    profile = DeviceProfile()
    payload = CATALOGUE[kernel].payload(random.Random(0), 7, 64)
    with serving([profile], retry=_FAST_RETRY) as send:
        _assert_kernel_fault(send(kernel, payload, profile.name), "corrupted")


@pytest.mark.parametrize("error, verdict", [
    (InconsistentLevelError("TR level 0 inconsistent with 2 operands"),
     "misread"),
    (OverflowError("carry of weight 2**1 fell off the top track"),
     "misread"),
    (DataLossError("a shift pushed a data domain off the wire"), "data_loss"),
])
def test_detected_device_errors_are_retried_faults(
    monkeypatch, error, verdict
):
    def fails(system, payload, deadline):
        raise error

    monkeypatch.setitem(CATALOGUE, "add", CATALOGUE["add"]._replace(run=fails))
    profile = DeviceProfile()
    with serving([profile], retry=_FAST_RETRY) as send:
        answers = send("add", {"words": [1, 2], "n_bits": 8}, profile.name)
        _assert_kernel_fault(answers, verdict)


#: The grid with TR faults, the only device faults a served kernel can
#: meet: none shifts the cluster (staging writes whole blocks). At this
#: rate every fault verdict shows and most answers are 200.
FAULTY = [
    dataclasses.replace(profile, tr_fault_rate=0.2, seed=3)
    for profile in GRID
]


@pytest.mark.parametrize("kernel", KERNELS)
def test_faulted_answers_are_right_or_typed(kernel):
    entry = CATALOGUE[kernel]
    # Trips only when a whole window of requests fails, so faults keep
    # reaching the kernels instead of a breaker refusing them all.
    breaker = RequestBreakerConfig(min_samples=16, trip_threshold=1.0)
    with serving(FAULTY, breaker=breaker, retry=_FAST_RETRY) as send:

        @settings(max_examples=max(1, EXAMPLES[kernel] // 2),
                  derandomize=True, deadline=None, database=None)
        @given(seed=st.integers(0, 2 ** 32 - 1))
        def check(seed):
            for profile in FAULTY:
                payload = entry.payload(
                    random.Random(seed), profile.trd, profile.tracks
                )
                clean = _direct(kernel, profile, payload)
                response, status, body = send(kernel, payload, profile.name)
                if kernel == "cnn-infer":
                    # The runner builds its own fault-free engine at the
                    # profile's TRD: the profile's faults never reach it.
                    assert (response.http_status, status) == (200, 200)
                for got_status, got in ((response.http_status, response.body),
                                        (status, body)):
                    if got_status == 200:
                        assert _values(got["result"]) == _values(clean)
                    else:
                        assert got["error"] not in (None, "internal"), got

        check()
