"""Every TelemetryHub kind: metrics, events, threads."""

import sys
import threading

import pytest

from repro.reliability.sharded import ShardSupervisor
from repro.service.breaker import OPEN, RequestBreaker, RequestBreakerConfig
from repro.telemetry import KINDS, EventLog, MemorySink, TelemetryHub


@pytest.fixture
def hub():
    return TelemetryHub(events=EventLog(MemorySink()))


def events_named(hub, name):
    return [e for e in hub.events.sink.records if e["event"] == name]


class TestServiceHooks:
    def test_service_admitted(self, hub):
        hub.emit(
            "service.admitted", trace_id="t1", kernel="add",
            priority="interactive",
        )
        counters = hub.metrics_dict()["counters"]
        assert counters["service.admitted"] == 1
        assert counters["service.admitted.interactive"] == 1
        assert counters["service.add.admitted"] == 1
        (event,) = events_named(hub, "service.admitted")
        assert event["kernel"] == "add"
        assert event["priority"] == "interactive"
        assert event["trace_id"] == "t1"

    def test_service_rejected(self, hub):
        hub.emit(
            "service.rejected", trace_id="t2", kernel="add",
            reason="queue_full",
        )
        counters = hub.metrics_dict()["counters"]
        assert counters["service.rejected"] == 1
        assert counters["service.rejected.queue_full"] == 1
        (event,) = events_named(hub, "service.rejected")
        assert event["reason"] == "queue_full"
        assert event["trace_id"] == "t2"

    def test_service_shed(self, hub):
        hub.emit(
            "service.shed", trace_id="t3", kernel="multiply", stage="queue"
        )
        counters = hub.metrics_dict()["counters"]
        assert counters["service.shed"] == 1
        assert counters["service.shed.queue"] == 1
        (event,) = events_named(hub, "service.shed")
        assert event["stage"] == "queue"

    def test_service_retry(self, hub):
        hub.emit("service.retry", trace_id="t4", kernel="popcount")
        counters = hub.metrics_dict()["counters"]
        assert counters["service.retries"] == 1
        assert counters["service.popcount.retries"] == 1
        (event,) = events_named(hub, "service.retry")
        assert event["kernel"] == "popcount"

    def test_service_request(self, hub):
        hub.emit(
            "service.request", trace_id="t5", kernel="add", status="ok",
            seconds=0.012,
        )
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
        breaker = RequestBreaker(
            "storm", RequestBreakerConfig(window=4, min_samples=2),
            telemetry=hub,
        )
        for _ in range(2):
            breaker.allow()
            breaker.record(True)
        assert breaker.state == OPEN
        counters = hub.metrics_dict()["counters"]
        assert counters["service.breaker.transitions"] == 1
        assert counters["service.breaker.to_open"] == 1
        (event,) = events_named(hub, "service.breaker.transition")
        assert event["src"] == "CLOSED" and event["dst"] == "OPEN"
        assert event["profile"] == "storm"
        # The breaker also pins the transition on the trace timeline.
        (instant,) = hub.tracer.instants
        assert instant["name"] == "service.breaker.transition"
        assert instant["attrs"] == {
            "profile": "storm", "src": "CLOSED", "dst": "OPEN",
        }

    def test_service_drained(self, hub):
        hub.emit("service.drained", completed=9)
        counters = hub.metrics_dict()["counters"]
        assert counters["service.drain.completed"] == 9
        assert "service.drain.dropped" not in counters
        (event,) = events_named(hub, "service.drained")
        assert event["completed"] == 9 and "dropped" not in event


class TestCampaignAndResilienceHooks:
    def test_shard_attempt_completed(self, hub):
        hub.emit(
            "campaign.shard_attempt", shard=0, shard_id=0,
            status="completed", wall_seconds=1.5,
        )
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
        calls = []

        def fails_once(spec):
            calls.append(spec["shard"])
            if len(calls) == 1:
                raise RuntimeError("worker died")
            return {"shard": spec["shard"], "wall_seconds": 0.2}

        outcome = ShardSupervisor(
            fails_once, [{"shard": 2}], workers=0, telemetry=hub
        ).run()
        assert [a.status for a in outcome.attempts] == ["failed", "completed"]
        counters = hub.metrics_dict()["counters"]
        assert counters["campaign.shard_attempts"] == 2
        assert counters["campaign.shard_failed"] == 1
        assert counters["campaign.shard_retries"] == 1
        statuses = [
            e["status"] for e in events_named(hub, "campaign.shard_attempt")
        ]
        assert statuses == ["failed", "completed"]

    def test_shard_incomplete(self, hub):
        hub.emit("campaign.shard_incomplete", shard=3, shard_id=3)
        counters = hub.metrics_dict()["counters"]
        assert counters["campaign.incomplete_shards"] == 1
        (event,) = events_named(hub, "campaign.shard_incomplete")
        assert event["shard"] == 3

    def test_resilient_op(self, hub):
        hub.emit("resilience.op", attempts=2, verdict="recovered")
        snapshot = hub.metrics_dict()
        assert snapshot["counters"]["resilience.ops"] == 1
        assert snapshot["counters"]["resilience.verdict.recovered"] == 1
        assert snapshot["histograms"]["resilience.retry_depth"]["count"] == 1
        (event,) = events_named(hub, "resilience.op")
        assert event["attempts"] == 2 and event["verdict"] == "recovered"

    def test_breaker_transition(self, hub):
        hub.emit("breaker.transition", src="CLOSED", dst="OPEN", to="open")
        counters = hub.metrics_dict()["counters"]
        assert counters["breaker.transitions"] == 1
        assert counters["breaker.to_open"] == 1
        (event,) = events_named(hub, "breaker.transition")
        assert event["src"] == "CLOSED" and event["dst"] == "OPEN"

    def test_null_event_log_short_circuits(self):
        hub = TelemetryHub()  # NullSink default
        hub.emit("service.admitted", kernel="add", priority="interactive")
        hub.emit("resilience.op", attempts=1, verdict="clean")
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
                hub.emit(
                    "service.admitted", trace_id=f"t{worker}", kernel="add",
                    priority="interactive",
                )
                hub.emit(
                    "service.request", trace_id=f"t{worker}", kernel="add",
                    status="ok", seconds=0.001,
                )
                hub.emit("service.retry", kernel="add")
                hub.emit(
                    "campaign.shard_attempt", shard=worker, shard_id=worker,
                    status="completed", wall_seconds=0.01,
                )
                hub.emit("resilience.op", attempts=1, verdict="clean")

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


#: One sample emit per kind and everything it must publish: its fields,
#: the counters it adds to, the histograms it observes (name -> value),
#: the gauges a read shows, and its event record (None: count-only).
SAMPLES = {
    "device.op": (
        dict(op="shift", count=3, cycles=6, energy_pj=1.5),
        {"device.ops": 3, "device.shift.count": 3, "device.shift.cycles": 6,
         "device.shift.energy_pj": 1.5, "device.cycles": 6,
         "device.energy_pj": 1.5},
        {}, {}, None,
    ),
    "mem.access": (
        dict(access="reads", row="hits"),
        {"mem.reads": 1, "mem.row_hits": 1, "mem.row_misses": 0},
        {}, {"mem.row_buffer_hit_rate": 1.0}, None,
    ),
    "cpim.op": (
        dict(op="add", cycles=40, energy_pj=9.5, trs=7),
        {"cpim.ops": 1, "cpim.add.count": 1, "cpim.cycles": 40,
         "cpim.energy_pj": 9.5},
        {"cpim.tr_per_op": 7, "cpim.op_cycles": 40}, {}, None,
    ),
    "sched.request": (
        dict(queue_cycles=5),
        {"sched.requests": 1}, {"sched.queue_cycles": 5}, {}, None,
    ),
    "sched.replay": (
        dict(hit_rate=0.75, queue_fraction=0.25),
        {}, {}, {"sched.row_hit_rate": 0.75, "sched.queue_fraction": 0.25},
        None,
    ),
    "pim.op": (
        dict(op="mult", cycles=64, energy_pj=30.5),
        {"pim.ops": 1, "pim.mult.count": 1, "pim.cycles": 64,
         "pim.energy_pj": 30.5},
        {}, {}, None,
    ),
    "resilience.op": (
        dict(attempts=2, verdict="retried"),
        {"resilience.ops": 1, "resilience.verdict.retried": 1},
        {"resilience.retry_depth": 2}, {},
        {"event": "resilience.op", "attempts": 2, "verdict": "retried"},
    ),
    "scrub.pass": (
        dict(dbcs_checked=8, misaligned=1, repaired=3, cycles=20),
        {"scrub.passes": 1, "scrub.dbcs_checked": 8,
         "scrub.misaligned_dbcs": 1, "scrub.repaired_tracks": 3,
         "scrub.cycles": 20},
        {}, {}, None,
    ),
    "breaker.transition": (
        dict(src="BARE", dst="VOTED", to="voted"),
        {"breaker.transitions": 1, "breaker.to_voted": 1}, {}, {},
        {"event": "breaker.transition", "src": "BARE", "dst": "VOTED"},
    ),
    "campaign.shard_attempt": (
        dict(shard=1, shard_id=1, status="timeout", wall_seconds=3.0),
        {"campaign.shard_attempts": 1, "campaign.shard_timeout": 1},
        {"campaign.shard_wall_seconds": 3.0}, {},
        {"event": "campaign.shard_attempt", "shard": 1, "shard_id": 1,
         "status": "timeout", "wall_seconds": 3.0},
    ),
    "campaign.shard_retry": (
        {}, {"campaign.shard_retries": 1}, {}, {}, None,
    ),
    "campaign.shard_incomplete": (
        dict(shard=4, shard_id=4),
        {"campaign.incomplete_shards": 1}, {}, {},
        {"event": "campaign.shard_incomplete", "shard": 4, "shard_id": 4},
    ),
    "service.admitted": (
        dict(kernel="add", priority="batch"),
        {"service.admitted": 1, "service.admitted.batch": 1,
         "service.add.admitted": 1},
        {}, {},
        {"event": "service.admitted", "kernel": "add", "priority": "batch"},
    ),
    "service.rejected": (
        dict(kernel="add", reason="draining"),
        {"service.rejected": 1, "service.rejected.draining": 1}, {}, {},
        {"event": "service.rejected", "kernel": "add", "reason": "draining"},
    ),
    "service.shed": (
        dict(kernel="popcount", stage="backoff"),
        {"service.shed": 1, "service.shed.backoff": 1}, {}, {},
        {"event": "service.shed", "kernel": "popcount", "stage": "backoff"},
    ),
    "service.retry": (
        dict(kernel="multiply"),
        {"service.retries": 1, "service.multiply.retries": 1}, {}, {},
        {"event": "service.retry", "kernel": "multiply"},
    ),
    "service.request": (
        dict(kernel="add", status="error", seconds=0.5),
        {"service.requests": 1, "service.status.error": 1},
        {"service.request_seconds": 0.5, "service.add.request_seconds": 0.5},
        {},
        {"event": "service.request.done", "kernel": "add", "status": "error",
         "seconds": 0.5},
    ),
    "service.breaker.transition": (
        dict(profile="storm", src="OPEN", dst="HALF_OPEN", to="half_open"),
        {"service.breaker.transitions": 1, "service.breaker.to_half_open": 1},
        {}, {},
        {"event": "service.breaker.transition", "profile": "storm",
         "src": "OPEN", "dst": "HALF_OPEN"},
    ),
    "service.worker.crashed": (
        dict(profile="storm", worker=1),
        {"service.worker_crashes": 1, "service.worker_crashes.storm": 1},
        {}, {},
        {"event": "service.worker.crashed", "profile": "storm", "worker": 1},
    ),
    "journal.dedup_hit": ({}, {"journal.dedup_hits": 1}, {}, {}, None),
    "journal.replayed": (
        dict(count=3), {"journal.replays": 3}, {}, {},
        {"event": "journal.replayed", "count": 3},
    ),
    "service.drained": (
        dict(completed=9), {"service.drain.completed": 9}, {}, {},
        {"event": "service.drained", "completed": 9},
    ),
    "events.write_error": ({}, {"events.write_errors": 1}, {}, {}, None),
}


class TestKindsTable:
    def test_every_kind_has_a_sample(self):
        assert set(SAMPLES) == set(KINDS)

    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_emit_publishes_exactly_the_kind(self, kind, hub):
        fields, counters, observed, gauges, event = SAMPLES[kind]
        hub.emit(kind, trace_id="t9", **fields)
        snapshot = hub.metrics_dict()
        assert snapshot["counters"] == counters
        assert snapshot["gauges"] == gauges
        assert set(snapshot["histograms"]) == set(observed)
        for name, value in observed.items():
            hist = snapshot["histograms"][name]
            assert (hist["count"], hist["sum"]) == (1, value)
        records = [
            {k: v for k, v in r.items() if k not in ("schema", "seq", "ts_us")}
            for r in hub.events.sink.records
        ]
        assert records == (
            [] if event is None else [{**event, "trace_id": "t9"}]
        )

    def test_unknown_kind_raises_key_error(self, hub):
        with pytest.raises(KeyError):
            hub.emit("service.teleported", kernel="add")

    def test_missing_field_raises_key_error(self, hub):
        # ``kernel`` only rides the event, and the event log is on.
        with pytest.raises(KeyError, match="kernel"):
            hub.emit("service.rejected", reason="queue_full")
        # Also with no event log: the check does not depend on it.
        with pytest.raises(KeyError, match="kernel"):
            TelemetryHub().emit("service.rejected", reason="queue_full")
        assert "service.rejected" not in hub.metrics_dict()["counters"]

    def test_unexpected_field_raises_key_error(self, hub):
        with pytest.raises(KeyError, match="colour"):
            hub.emit("journal.dedup_hit", colour="red")


class TestEmitUnderContention:
    def test_fresh_templated_names_lose_no_counts(self):
        # Threads racing to create the same new instruments once lost
        # counts: the get-or-create ran outside the hub lock. A tiny
        # switch interval makes the interleaving near-certain.
        threads_n, ops, rounds = 4, 50, 200
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                hub = TelemetryHub()
                start = threading.Barrier(threads_n)

                def publish():
                    start.wait()
                    for i in range(ops):
                        hub.emit(
                            "pim.op", op=f"op{i}", cycles=2, energy_pj=0.5
                        )
                        hub.emit(
                            "cpim.op", op=f"op{i}", cycles=8, energy_pj=1.0,
                            trs=3,
                        )

                threads = [
                    threading.Thread(target=publish)
                    for _ in range(threads_n)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                snapshot = hub.metrics_dict()
                counters = snapshot["counters"]
                total = threads_n * ops
                for i in range(ops):
                    assert counters[f"pim.op{i}.count"] == threads_n
                    assert counters[f"cpim.op{i}.count"] == threads_n
                assert counters["pim.ops"] == counters["cpim.ops"] == total
                assert counters["pim.cycles"] == 2 * total
                assert counters["cpim.cycles"] == 8 * total
                for name in ("cpim.tr_per_op", "cpim.op_cycles"):
                    assert snapshot["histograms"][name]["count"] == total
        finally:
            sys.setswitchinterval(previous)
