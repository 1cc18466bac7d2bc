"""Every TelemetryHub service_*/shard_* hook: metrics, events, threads."""

import threading

import pytest

from repro.telemetry import EventLog, MemorySink, TelemetryHub


@pytest.fixture
def hub():
    return TelemetryHub(events=EventLog(MemorySink()))


def events_named(hub, name):
    return [e for e in hub.events.sink.records if e["event"] == name]


class TestServiceHooks:
    def test_service_admitted(self, hub):
        hub.service_admitted("add", "interactive", trace_id="t1")
        counters = hub.metrics_dict()["counters"]
        assert counters["service.admitted"] == 1
        assert counters["service.admitted.interactive"] == 1
        assert counters["service.add.admitted"] == 1
        (event,) = events_named(hub, "service.admitted")
        assert event["kernel"] == "add"
        assert event["priority"] == "interactive"
        assert event["trace_id"] == "t1"

    def test_service_rejected(self, hub):
        hub.service_rejected("add", "queue_full", trace_id="t2")
        counters = hub.metrics_dict()["counters"]
        assert counters["service.rejected"] == 1
        assert counters["service.rejected.queue_full"] == 1
        (event,) = events_named(hub, "service.rejected")
        assert event["reason"] == "queue_full"
        assert event["trace_id"] == "t2"

    def test_service_shed(self, hub):
        hub.service_shed("multiply", "queue", trace_id="t3")
        counters = hub.metrics_dict()["counters"]
        assert counters["service.shed"] == 1
        assert counters["service.shed.queue"] == 1
        (event,) = events_named(hub, "service.shed")
        assert event["stage"] == "queue"

    def test_service_retry(self, hub):
        hub.service_retry("popcount", trace_id="t4")
        counters = hub.metrics_dict()["counters"]
        assert counters["service.retries"] == 1
        assert counters["service.popcount.retries"] == 1
        (event,) = events_named(hub, "service.retry")
        assert event["kernel"] == "popcount"

    def test_service_request(self, hub):
        hub.service_request("add", "ok", 0.012, trace_id="t5")
        snapshot = hub.metrics_dict()
        assert snapshot["counters"]["service.requests"] == 1
        assert snapshot["counters"]["service.status.ok"] == 1
        overall = snapshot["histograms"]["service.request_seconds"]
        per_kernel = snapshot["histograms"]["service.add.request_seconds"]
        assert overall["count"] == 1 and per_kernel["count"] == 1
        assert overall["sum"] == pytest.approx(0.012)
        (event,) = events_named(hub, "service.request.done")
        assert event["status"] == "ok"
        assert event["seconds"] == pytest.approx(0.012)
        assert event["trace_id"] == "t5"

    def test_service_breaker_transition(self, hub):
        hub.service_breaker_transition("storm", "CLOSED", "OPEN")
        counters = hub.metrics_dict()["counters"]
        assert counters["service.breaker.transitions"] == 1
        assert counters["service.breaker.to_open"] == 1
        (event,) = events_named(hub, "service.breaker.transition")
        assert event["src"] == "CLOSED" and event["dst"] == "OPEN"
        # The transition is also pinned on the trace timeline.
        assert any(
            i["name"] == "service.breaker.transition"
            for i in hub.tracer.instants
        )

    def test_service_drained(self, hub):
        hub.service_drained(completed=9)
        counters = hub.metrics_dict()["counters"]
        assert counters["service.drain.completed"] == 9
        assert "service.drain.dropped" not in counters
        (event,) = events_named(hub, "service.drained")
        assert event["completed"] == 9 and "dropped" not in event


class TestCampaignAndResilienceHooks:
    def test_shard_attempt_completed(self, hub):
        hub.shard_attempt(0, 1.5, "completed")
        snapshot = hub.metrics_dict()
        counters = snapshot["counters"]
        assert counters["campaign.shard_attempts"] == 1
        assert counters["campaign.shard_completed"] == 1
        assert "campaign.shard_retries" not in counters
        hist = snapshot["histograms"]["campaign.shard_wall_seconds"]
        assert hist["count"] == 1
        (event,) = events_named(hub, "campaign.shard_attempt")
        assert event["shard"] == 0 and event["status"] == "completed"

    def test_shard_attempt_failure_counts_retry(self, hub):
        hub.shard_attempt(2, 0.2, "crashed")
        counters = hub.metrics_dict()["counters"]
        assert counters["campaign.shard_crashed"] == 1
        assert counters["campaign.shard_retries"] == 1

    def test_shard_incomplete(self, hub):
        hub.shard_incomplete(3)
        counters = hub.metrics_dict()["counters"]
        assert counters["campaign.incomplete_shards"] == 1
        (event,) = events_named(hub, "campaign.shard_incomplete")
        assert event["shard"] == 3

    def test_resilient_op(self, hub):
        hub.resilient_op(2, "recovered")
        snapshot = hub.metrics_dict()
        assert snapshot["counters"]["resilience.ops"] == 1
        assert snapshot["counters"]["resilience.verdict.recovered"] == 1
        assert snapshot["histograms"]["resilience.retry_depth"]["count"] == 1
        (event,) = events_named(hub, "resilience.op")
        assert event["attempts"] == 2 and event["verdict"] == "recovered"

    def test_breaker_transition(self, hub):
        hub.breaker_transition("CLOSED", "OPEN")
        counters = hub.metrics_dict()["counters"]
        assert counters["breaker.transitions"] == 1
        assert counters["breaker.to_open"] == 1
        (event,) = events_named(hub, "breaker.transition")
        assert event["src"] == "CLOSED" and event["dst"] == "OPEN"

    def test_null_event_log_short_circuits(self):
        hub = TelemetryHub()  # NullSink default
        hub.service_admitted("add", "interactive")
        hub.resilient_op(1, "clean")
        assert hub.events.enabled is False
        assert hub.metrics_dict()["counters"]["service.admitted"] == 1


class TestConcurrentRecording:
    def test_metrics_dict_schema_stable_under_concurrent_hooks(self):
        hub = TelemetryHub(events=EventLog(MemorySink(capacity=100000)))
        threads_n, per_thread = 8, 200
        start = threading.Barrier(threads_n)

        def pound(worker):
            start.wait()
            for i in range(per_thread):
                hub.service_admitted("add", "interactive", trace_id=f"t{worker}")
                hub.service_request("add", "ok", 0.001, trace_id=f"t{worker}")
                hub.service_retry("add")
                hub.shard_attempt(worker, 0.01, "completed")
                hub.resilient_op(1, "clean")

        threads = [
            threading.Thread(target=pound, args=(w,))
            for w in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = threads_n * per_thread
        snapshot = hub.metrics_dict()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        counters = snapshot["counters"]
        assert counters["service.admitted"] == total
        assert counters["service.requests"] == total
        assert counters["service.retries"] == total
        assert counters["campaign.shard_attempts"] == total
        assert counters["resilience.ops"] == total
        hist = snapshot["histograms"]["service.request_seconds"]
        assert hist["count"] == total
        assert hist["cumulative"][-1] == total
        assert sum(hist["counts"]) == total
        # The event log saw every hook too, in one gapless sequence.
        records = hub.events.sink.records
        assert len(records) == total * 5
        assert {e["seq"] for e in records} == set(range(1, total * 5 + 1))
