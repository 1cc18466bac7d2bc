"""Chaos behaviour of the service stack itself.

Covers the seams the campaign exercises, in isolation: worker-crash
supervision in the dispatcher, gateway idempotency + journal replay,
the client's 429 ``Retry-After`` discipline, and the hardened event
log that degrades instead of failing requests.
"""

import threading
import time

import pytest

from repro.chaos import hooks
from repro.chaos.faults import ChaosInjector, FaultEvent
from repro.service.client import ServiceClient
from repro.service.gateway import Gateway
from repro.service.journal import RequestJournal
from repro.telemetry import EventLog, JsonlSink, MemorySink, TelemetryHub, Tracer


@pytest.fixture(autouse=True)
def chaos_off():
    yield
    hooks.deactivate()


def chaos_client(journal_path=None, **gateway_kwargs):
    journal = (
        RequestJournal(str(journal_path)) if journal_path else None
    )
    gateway = Gateway(workers=1, journal=journal, **gateway_kwargs)
    return ServiceClient(gateway=gateway, rejection_retries=0)


PAYLOAD = {"words": [4, 5], "n_bits": 8}


class TestWorkerCrashSupervision:
    def test_crash_is_answered_and_worker_respawns(self):
        injector = ChaosInjector(
            [FaultEvent(op=0, kind="worker-crash", param=0.0)]
        )
        with chaos_client() as client:
            hooks.activate(injector)
            try:
                injector.advance(0)
                crashed = client.request("add", PAYLOAD)
            finally:
                hooks.deactivate()
            assert crashed.http_status == 500
            assert crashed.body["error"] == "worker_crashed"
            # The pool respawned: the next request lands normally.
            after = client.request("add", PAYLOAD)
            assert after.status == "ok"
            assert after.body["result"]["sum"] == 9

            dispatcher = client.gateway.dispatchers["default"]
            snapshot = dispatcher.snapshot()
            assert snapshot["worker_crashes"] == 1
            # A process death is not device-fault evidence: the
            # breaker must not have consumed a failure sample.
            assert dispatcher.breaker.snapshot()["state"] == "CLOSED"

    def test_accounting_conserved_across_crash(self):
        injector = ChaosInjector(
            [FaultEvent(op=0, kind="worker-crash", param=0.0)]
        )
        with chaos_client() as client:
            hooks.activate(injector)
            try:
                injector.advance(0)
                client.request("add", PAYLOAD)
            finally:
                hooks.deactivate()
            client.request("add", PAYLOAD)
            metrics = (
                client.gateway.telemetry.metrics.as_dict()["counters"]
            )
            # Both requests terminal: the crash reclassified one, lost
            # none.
            assert metrics["service.requests"] == 2
            assert metrics["service.admitted"] == 2


class TestGatewayIdempotency:
    def test_duplicate_key_replays_original(self, tmp_path):
        with chaos_client(tmp_path / "journal.jsonl") as client:
            first = client.request(
                "add", PAYLOAD, idempotency_key="dup-1"
            )
            assert first.status == "ok"
            assert "replayed" not in first.body
            second = client.request(
                "add", PAYLOAD, idempotency_key="dup-1"
            )
            assert second.body["replayed"] is True
            assert (
                second.body["result"] == first.body["result"]
            )
            assert (
                second.body["request_id"] == first.body["request_id"]
            )
            counters = (
                client.gateway.telemetry.metrics.as_dict()["counters"]
            )
            assert counters["journal.dedup_hits"] == 1
            # Only one execution happened.
            assert counters["service.requests"] == 1

    def test_invalid_idempotency_key_rejected(self, tmp_path):
        with chaos_client(tmp_path / "journal.jsonl") as client:
            for bad in ("", 7):
                body = dict(PAYLOAD)
                response = client.request(
                    "add", body, idempotency_key=bad
                )
                assert response.http_status == 400

    def test_admission_rejects_are_not_journalled(self, tmp_path):
        with chaos_client(tmp_path / "journal.jsonl") as client:
            response = client.request(
                "transmogrify", {}, idempotency_key="bad-req"
            )
            assert response.http_status == 400
            # Refused before acceptance: nothing to replay or dedup —
            # the client should fix and retry, not get the refusal
            # replayed back forever.
            journal = client.gateway.journal
            assert not journal.has_intent("bad-req")
            assert journal.get_ack("bad-req") is None

    def test_execution_rejects_are_acked(self, tmp_path):
        # A payload that passes admission but fails validation in the
        # kernel runner is an *accepted* request: its 400 is acked and
        # dedups like any other terminal response.
        with chaos_client(tmp_path / "journal.jsonl") as client:
            first = client.request(
                "add", {"words": "nope"}, idempotency_key="bad-pay"
            )
            assert first.http_status == 400
            journal = client.gateway.journal
            assert journal.get_ack("bad-pay")["http_status"] == 400
            again = client.request(
                "add", {"words": "nope"}, idempotency_key="bad-pay"
            )
            assert again.body["replayed"] is True

    def test_restart_replays_unacked_intents(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        injector = ChaosInjector(
            [FaultEvent(op=0, kind="ack-suppress", param=0.0)]
        )
        with chaos_client(journal_path) as client:
            hooks.activate(injector)
            try:
                injector.advance(0)
                original = client.request(
                    "add", PAYLOAD, idempotency_key="lost-ack"
                )
            finally:
                hooks.deactivate()
            assert original.status == "ok"

        # New process: the ack never reached disk, so starting the
        # client replays the intent before serving traffic.
        with chaos_client(journal_path) as client:
            replayed = client.gateway.last_replay
            assert [r["key"] for r in replayed] == ["lost-ack"]
            assert replayed[0]["status"] == "ok"
            # A duplicate submission now hits the replayed ack.
            again = client.request(
                "add", PAYLOAD, idempotency_key="lost-ack"
            )
            assert again.body["replayed"] is True
            assert (
                again.body["result"]["sum"]
                == original.body["result"]["sum"]
            )


class TestClientRetryAfter:
    def test_429_retried_after_hint(self):
        injector = ChaosInjector(
            [FaultEvent(op=0, kind="queue-saturation", param=0.001)]
        )
        gateway = Gateway(workers=1)
        with ServiceClient(
            gateway=gateway, rejection_retries=2
        ) as client:
            hooks.activate(injector)
            try:
                injector.advance(0)
                response = client.request("add", PAYLOAD)
            finally:
                hooks.deactivate()
            assert response.status == "ok"
            assert client.rejection_retry_count == 1

    def test_retry_after_hint_is_honoured(self):
        injector = ChaosInjector(
            [FaultEvent(op=0, kind="queue-saturation", param=0.4)]
        )
        gateway = Gateway(workers=1)
        with ServiceClient(
            gateway=gateway, rejection_retries=1
        ) as client:
            hooks.activate(injector)
            try:
                injector.advance(0)
                started = time.monotonic()
                response = client.request("add", PAYLOAD)
                elapsed = time.monotonic() - started
            finally:
                hooks.deactivate()
            assert response.status == "ok"
            # Slept at least the server's Retry-After hint.
            assert elapsed >= 0.4

    def test_retries_exhausted_surfaces_429(self):
        injector = ChaosInjector(
            [
                FaultEvent(op=0, kind="queue-saturation", param=0.001),
                FaultEvent(op=0, kind="queue-saturation", param=0.001),
            ]
        )
        gateway = Gateway(workers=1)
        with ServiceClient(
            gateway=gateway, rejection_retries=1
        ) as client:
            hooks.activate(injector)
            try:
                injector.advance(0)
                response = client.request("add", PAYLOAD)
            finally:
                hooks.deactivate()
            assert response.http_status == 429
            assert client.rejection_retry_count == 1

    def test_503_draining_is_not_retried(self):
        gateway = Gateway(workers=1)
        with ServiceClient(
            gateway=gateway, rejection_retries=3
        ) as client:
            gateway.draining = True
            response = client.request("add", PAYLOAD)
            assert response.http_status == 503
            assert response.body["error"] == "draining"
            assert client.rejection_retry_count == 0


class BrokenSink:
    enabled = True

    def __init__(self, fail_times=10**9):
        self.fail_times = fail_times
        self.emitted = []

    def emit(self, record):
        if self.fail_times > 0:
            self.fail_times -= 1
            raise OSError(28, "No space left on device")
        self.emitted.append(record)

    def close(self):
        return None


class TestEventLogHardening:
    def test_sink_failure_never_propagates(self):
        log = EventLog(BrokenSink())
        assert log.emit("service.request.done", trace_id="t1") is None
        assert log.write_errors == 1

    def test_on_write_error_callback_fires(self):
        seen = []
        log = EventLog(
            BrokenSink(), on_write_error=lambda: seen.append(1)
        )
        log.emit("a")
        log.emit("b")
        assert log.write_errors == 2
        assert len(seen) == 2

    def test_recovers_when_disk_comes_back(self):
        sink = BrokenSink(fail_times=2)
        log = EventLog(sink)
        log.emit("drop-1")
        log.emit("drop-2")
        record = log.emit("lands")
        assert log.write_errors == 2
        assert record is not None
        assert [r["event"] for r in sink.emitted] == ["lands"]

    def test_hub_exposes_write_errors_counter(self):
        hub = TelemetryHub(
            tracer=Tracer(), events=EventLog(BrokenSink())
        )
        hub.emit(
            "service.admitted", kernel="add", priority="interactive"
        )
        counters = hub.metrics.as_dict()["counters"]
        assert counters["events.write_errors"] == 1

    def test_jsonl_sink_reopens_closed_handle(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "events.jsonl"))
        log = EventLog(sink)
        assert log.emit("before") is not None
        sink.close()
        # A closed handle (failed rotation, prior error) comes back on
        # the next emit instead of poisoning the log forever.
        assert log.emit("after") is not None
        log.close()
        assert log.write_errors == 0
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_chaos_event_io_error_counted(self):
        sink = MemorySink()
        log = EventLog(sink)
        injector = ChaosInjector(
            [FaultEvent(op=0, kind="event-io-error", param=0.0)]
        )
        injector.advance(0)
        hooks.activate(injector)
        try:
            log.emit("victim")
            log.emit("survivor")
        finally:
            hooks.deactivate()
        assert log.write_errors == 1
        assert [r["event"] for r in sink.records] == ["survivor"]
