"""The structured event log: sinks, schema stamping, rotation."""

import json
import os
import threading

import pytest

from repro.telemetry import (
    EVENTS_SCHEMA,
    EventLog,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceContext,
    use_context,
)


class TestEventLogCore:
    def test_null_sink_is_the_default_and_disabled(self):
        log = EventLog()
        assert isinstance(log.sink, NullSink)
        assert log.enabled is False
        # Emitting into the void is a cheap no-op, never an error.
        log.emit("service.admitted", kernel="add")

    def test_events_carry_schema_seq_ts_and_name(self):
        sink = MemorySink()
        log = EventLog(sink)
        log.emit("resilience.op", attempts=2, verdict="recovered")
        log.emit("breaker.transition", src="CLOSED", dst="OPEN")
        first, second = sink.records
        assert first["schema"] == EVENTS_SCHEMA == "coruscant-events/1"
        assert first["event"] == "resilience.op"
        assert first["attempts"] == 2 and first["verdict"] == "recovered"
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["ts_us"] > 0 and second["ts_us"] >= first["ts_us"]

    def test_explicit_trace_id_wins_over_ambient(self):
        sink = MemorySink()
        log = EventLog(sink)
        ctx = TraceContext.root()
        with use_context(ctx):
            log.emit("service.retry", kernel="add")
            log.emit("service.shed", trace_id="explicit", kernel="add")
        ambient, explicit = sink.records
        assert ambient["trace_id"] == ctx.trace_id
        assert explicit["trace_id"] == "explicit"

    def test_none_fields_are_dropped(self):
        sink = MemorySink()
        log = EventLog(sink)
        log.emit("service.rejected", trace_id=None, kernel="add", reason=None)
        (event,) = sink.records
        assert "trace_id" not in event
        assert "reason" not in event

    def test_seq_is_monotonic_under_concurrency(self):
        sink = MemorySink(capacity=4096)
        log = EventLog(sink)

        def emit():
            for _ in range(100):
                log.emit("service.retry", kernel="add")

        threads = [threading.Thread(target=emit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = sorted(e["seq"] for e in sink.records)
        assert seqs == list(range(1, 401))


class TestMemorySink:
    def test_ring_drops_oldest(self):
        sink = MemorySink(capacity=3)
        log = EventLog(sink)
        for i in range(5):
            log.emit("service.retry", kernel=f"k{i}")
        kernels = [e["kernel"] for e in sink.records]
        assert kernels == ["k2", "k3", "k4"]


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(JsonlSink(str(path)))
        log.emit("service.admitted", kernel="add", priority="batch")
        log.emit("service.request.done", kernel="add", status="ok")
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert all(d["schema"] == EVENTS_SCHEMA for d in docs)
        assert docs[1]["status"] == "ok"

    def test_rotation_keeps_backups_and_bounds_size(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(JsonlSink(str(path), max_bytes=1024, backups=2))
        for i in range(64):
            log.emit("service.retry", kernel="add", padding="x" * 64)
        log.close()
        assert os.path.exists(path)
        assert os.path.getsize(path) <= 1024
        rotated = [p for p in os.listdir(tmp_path) if ".jsonl." in p]
        assert sorted(rotated) == ["events.jsonl.1", "events.jsonl.2"]
        # Every surviving file still parses line by line.
        for name in ["events.jsonl"] + rotated:
            for line in (tmp_path / name).read_text().splitlines():
                json.loads(line)

    def test_zero_backups_truncates_in_place(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(JsonlSink(str(path), max_bytes=1024, backups=0))
        for _ in range(64):
            log.emit("service.retry", kernel="add", padding="x" * 64)
        log.close()
        assert os.path.getsize(path) <= 1024
        assert not [p for p in os.listdir(tmp_path) if ".jsonl." in p]


class TestJsonlSinkTornTail:
    """A process killed mid-record, then a new sink on the same file."""

    TAILS = {
        "parses": '{"event": "torn", "schema": "coruscant-events/1"}',
        "cut": '{"event": "torn", "sch',
    }

    @pytest.mark.parametrize("tail", sorted(TAILS))
    def test_records_around_a_torn_tail_survive(self, tmp_path, tail):
        path = tmp_path / "events.jsonl"
        log = EventLog(JsonlSink(str(path)))
        for name in ("a", "b"):
            log.emit(name)
        log.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(self.TAILS[tail])

        log = EventLog(JsonlSink(str(path)))
        for name in ("c", "d"):
            log.emit(name)
        log.close()
        events = [
            json.loads(line)["event"]
            for line in path.read_text().splitlines()
        ]
        middle = ["torn"] if tail == "parses" else []
        assert events == ["a", "b"] + middle + ["c", "d"]

    def test_size_check_reads_the_handle_not_the_disk(
        self, tmp_path, monkeypatch
    ):
        sink = JsonlSink(str(tmp_path / "events.jsonl"))
        log = EventLog(sink)
        stats = []
        real_stat = os.stat
        monkeypatch.setattr(
            os, "stat", lambda *a, **k: stats.append(a) or real_stat(*a, **k)
        )
        for _ in range(20):
            log.emit("service.retry", kernel="add")
        monkeypatch.undo()
        log.close()
        assert stats == []
