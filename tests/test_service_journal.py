"""Unit tests for the crash-durable request journal.

The contract under test: an ack's fsync commits it and every record
before it, ``close()`` commits whatever is left, every append is
torn-write scoped, recovery tolerates a corrupt final record, acks
answer duplicates with the original body, and disk failure degrades
into counters instead of reaching the request path.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import hooks
from repro.chaos.faults import ChaosInjector, FaultEvent
from repro.service.journal import JOURNAL_SCHEMA, RequestJournal


def make(tmp_path, name="journal.jsonl"):
    return RequestJournal(str(tmp_path / name))


class TestJournalBasics:
    def test_intent_then_ack_round_trip(self, tmp_path):
        journal = make(tmp_path)
        journal.record_intent("k1", "add", {"payload": {"words": [1]}})
        assert journal.has_intent("k1")
        assert journal.get_ack("k1") is None
        assert [p["key"] for p in journal.pending()] == ["k1"]

        journal.record_ack("k1", 200, {"status": "ok", "result": 7})
        assert journal.pending() == []
        ack = journal.get_ack("k1")
        assert ack == {
            "http_status": 200,
            "body": {"status": "ok", "result": 7},
        }
        journal.close()

    def test_pending_preserves_acceptance_order(self, tmp_path):
        journal = make(tmp_path)
        for key in ("b", "a", "c"):
            journal.record_intent(key, "add", {})
        journal.record_ack("a", 200, {})
        assert [p["key"] for p in journal.pending()] == ["b", "c"]
        journal.close()

    def test_records_carry_schema(self, tmp_path):
        journal = make(tmp_path)
        journal.record_intent("k", "add", {})
        journal.record_ack("k", 200, {})
        journal.close()
        lines = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert [r["type"] for r in lines] == ["intent", "ack"]
        assert all(r["schema"] == JOURNAL_SCHEMA for r in lines)


class TestJournalRecovery:
    def test_restart_recovers_state(self, tmp_path):
        journal = make(tmp_path)
        journal.record_intent("done", "add", {"payload": 1})
        journal.record_ack("done", 200, {"status": "ok"})
        journal.record_intent("lost", "multiply", {"payload": 2})
        journal.close()

        recovered = make(tmp_path)
        assert recovered.get_ack("done")["body"] == {"status": "ok"}
        assert [p["key"] for p in recovered.pending()] == ["lost"]
        assert recovered.pending()[0]["kernel"] == "multiply"
        recovered.close()

    def test_torn_final_record_is_skipped_not_fatal(self, tmp_path):
        journal = make(tmp_path)
        journal.record_intent("ok", "add", {})
        journal.record_ack("ok", 200, {})
        journal.close()
        path = tmp_path / "journal.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "coruscant-journal/1", "type": "ack"')

        recovered = make(tmp_path)
        assert recovered.torn_records == 1
        assert recovered.get_ack("ok") is not None
        recovered.close()

    def test_ack_authoritative_without_intent(self, tmp_path):
        # The intent line was the torn one; the ack must still dedup.
        path = tmp_path / "journal.jsonl"
        ack = {
            "schema": JOURNAL_SCHEMA,
            "type": "ack",
            "key": "orphan",
            "http_status": 200,
            "body": {"status": "ok"},
        }
        path.write_text("{garbage\n" + json.dumps(ack) + "\n")
        journal = make(tmp_path)
        assert journal.torn_records == 1
        assert journal.get_ack("orphan")["http_status"] == 200
        assert journal.pending() == []
        journal.close()


def intent(key, kernel="add"):
    return {"schema": JOURNAL_SCHEMA, "type": "intent", "key": key,
            "kernel": kernel, "body": {"k": key}}


def ack(key, status=200):
    return {"schema": JOURNAL_SCHEMA, "type": "ack", "key": key,
            "http_status": status, "body": {"status": "ok"}}


class TestJournalTornTail:
    """A crash that cuts the last append short, then a restart."""

    # An unterminated final line: a whole record missing only its
    # newline, and a record cut partway through.
    TAILS = {
        "parses": json.dumps(intent("c"), sort_keys=True),
        "cut": json.dumps(intent("c"), sort_keys=True)[:40],
    }

    @pytest.mark.parametrize("tail", sorted(TAILS))
    def test_records_around_a_torn_tail_survive(self, tmp_path, tail):
        journal = make(tmp_path)
        journal.record_intent("a", "add", {"k": "a"})
        journal.record_intent("b", "add", {"k": "b"})
        journal.record_ack("a", 200, {"status": "ok"})
        journal.close()
        path = tmp_path / "journal.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(self.TAILS[tail])

        restarted = make(tmp_path)
        assert restarted.torn_records == (0 if tail == "parses" else 1)
        restarted.record_intent("d", "add", {"k": "d"})
        restarted.close()

        recovered = make(tmp_path)
        expected = ["b", "c", "d"] if tail == "parses" else ["b", "d"]
        assert [p["key"] for p in recovered.pending()] == expected
        assert recovered.get_ack("a") is not None
        assert recovered.torn_records == 0
        recovered.close()
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_regression_intent_synced_after_restart_survives_next(
        self, tmp_path
    ):
        # A crash tore the last record; the restarted gateway journals
        # (and fsyncs) a new intent, then dies too. The next restart
        # must still see that intent: it is not glued onto the torn
        # line.
        journal = make(tmp_path)
        journal.record_intent("old", "add", {})
        journal.close()
        with open(tmp_path / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"schema": "coruscant-journal/1", "type": "ack"')

        restarted = make(tmp_path)
        restarted.record_intent("new", "multiply", {"payload": 1})
        restarted.close()

        recovered = make(tmp_path)
        assert recovered.has_intent("new")
        assert [p["key"] for p in recovered.pending()] == ["old", "new"]
        recovered.close()


class TestJournalMalformedRecords:
    """Records that parse but cannot be used count as torn."""

    CASES = {
        "ack-status-null": [intent("k"), {**ack("k"), "http_status": None}],
        "ack-status-text": [intent("k"), ack("k", status="200")],
        "ack-body-not-object": [intent("k"), {**ack("k"), "body": [1]}],
        "intent-body-not-object": [{**intent("k"), "body": "x"}],
        "intent-kernel-not-string": [{**intent("k"), "kernel": 7}],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counted_in_torn_records(self, tmp_path, case):
        path = tmp_path / "journal.jsonl"
        records = self.CASES[case]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        journal = make(tmp_path)
        assert journal.torn_records == 1
        assert journal.get_ack("k") is None
        if case.startswith("ack"):
            # The ack is unusable, so its intent replays on restart.
            assert [p["key"] for p in journal.pending()] == ["k"]
        else:
            assert not journal.has_intent("k")
        journal.close()

    def test_resubmit_after_a_bad_ack_runs_again(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.gateway import Gateway

        path = tmp_path / "journal.jsonl"
        bad_ack = {**ack("k"), "http_status": "200"}
        path.write_text(json.dumps(bad_ack) + "\n")
        gateway = Gateway(workers=1, journal=make(tmp_path))
        with ServiceClient(gateway=gateway, rejection_retries=0) as client:
            response = client.request(
                "add", {"words": [4, 5], "n_bits": 8}, idempotency_key="k"
            )
        assert response.http_status == 200
        assert response.body["result"]["sum"] == 9
        assert "replayed" not in response.body


class TestJournalFaults:
    def run_with_chaos(self, timeline, body):
        injector = ChaosInjector(timeline)
        injector.advance(0)
        hooks.activate(injector)
        try:
            body(injector)
        finally:
            hooks.deactivate()
        return injector

    def test_torn_ack_forces_replay_on_restart(self, tmp_path):
        journal = make(tmp_path)

        def scenario(_injector):
            journal.record_intent("k", "add", {"payload": 5})
            journal.record_ack("k", 200, {"status": "ok"})

        self.run_with_chaos(
            [FaultEvent(op=0, kind="torn-wal", param=0.5)], scenario
        )
        assert journal.torn_writes == 1
        # In-memory state is unaffected for the running process…
        assert journal.get_ack("k") is not None
        journal.close()
        # …but the restarted journal sees a torn ack and replays.
        recovered = make(tmp_path)
        assert recovered.torn_records == 1
        assert recovered.get_ack("k") is None
        assert [p["key"] for p in recovered.pending()] == ["k"]
        recovered.close()

    def test_io_error_degrades_into_counter(self, tmp_path):
        journal = make(tmp_path)

        def scenario(_injector):
            journal.record_intent("k", "add", {})

        self.run_with_chaos(
            [FaultEvent(op=0, kind="wal-io-error", param=0.0)], scenario
        )
        assert journal.write_errors == 1
        assert journal.has_intent("k")  # in-memory state advanced
        journal.close()
        recovered = make(tmp_path)
        assert not recovered.has_intent("k")  # disk never got it
        recovered.close()

    def test_suppressed_ack_keeps_intent_pending_on_disk(self, tmp_path):
        journal = make(tmp_path)

        def scenario(_injector):
            journal.record_intent("k", "add", {})
            journal.record_ack("k", 200, {"status": "ok"})

        self.run_with_chaos(
            [FaultEvent(op=0, kind="ack-suppress", param=0.0)], scenario
        )
        assert journal.suppressed_acks == 1
        assert journal.get_ack("k") is not None
        journal.close()
        recovered = make(tmp_path)
        assert recovered.get_ack("k") is None
        assert [p["key"] for p in recovered.pending()] == ["k"]
        recovered.close()


class TestJournalCompaction:
    def test_compact_drops_acked_intents_keeps_history(self, tmp_path):
        journal = make(tmp_path)
        for i in range(5):
            journal.record_intent(f"k{i}", "add", {"i": i})
        for i in range(3):
            journal.record_ack(f"k{i}", 200, {"i": i})
        journal.compact()
        # Live state unchanged through the rewrite.
        assert sorted(p["key"] for p in journal.pending()) == ["k3", "k4"]
        assert journal.get_ack("k2")["body"] == {"i": 2}
        # Appends still work on the swapped file handle.
        journal.record_ack("k3", 200, {"i": 3})
        journal.close()

        recovered = make(tmp_path)
        assert [p["key"] for p in recovered.pending()] == ["k4"]
        assert recovered.get_ack("k0") is not None
        assert recovered.get_ack("k3") is not None
        recovered.close()
        # Acked intents dropped by the rewrite: 2 pending intents +
        # 3 acks survive the compact, then one more ack is appended.
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 6
        assert not os.path.exists(str(tmp_path / "journal.jsonl.tmp"))


class _SuppressAcks:
    """A chaos injector that suppresses every ack it sees."""

    def fire(self, site, **_context):
        if site == hooks.SITE_JOURNAL_ACK:
            return {"action": "suppress"}
        return None


class _Model:
    """The journal's state by brute force, in the order records arrive."""

    def __init__(self):
        self.order = []  # intent keys, first intent first
        self.bodies = {}  # key -> its latest intent body
        self.acks = {}  # key -> its latest ack body, first ack first

    def intent(self, key, body):
        if key not in self.bodies:
            self.order.append(key)
        self.bodies[key] = body

    def ack(self, key, body):
        self.acks[key] = body

    def pending(self):
        return [
            {"schema": JOURNAL_SCHEMA, "type": "intent", "key": key,
             "kernel": "add", "body": self.bodies[key]}
            for key in self.order
            if key not in self.acks
        ]

    def compacted(self):
        """The bytes ``compact()`` writes: pending intents, then acks."""
        records = self.pending() + [
            {"schema": JOURNAL_SCHEMA, "type": "ack", "key": key,
             "http_status": 200, "body": body}
            for key, body in self.acks.items()
        ]
        return "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ).encode()


def recount(path):
    """The model of a journal file, rebuilt from its records."""
    model = _Model()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["type"] == "intent":
                model.intent(record["key"], record["body"])
            elif record["type"] == "ack":
                model.ack(record["key"], record["body"])
    return model


def intent_records_held(journal):
    """How many intent records the journal's own state references."""
    return sum(
        1
        for value in vars(journal).values()
        if isinstance(value, dict)
        for item in value.values()
        if isinstance(item, dict) and item.get("type") == "intent"
    )


_KEYS = st.sampled_from(["a", "b", "c", "d", "e"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("intent"), _KEYS),
        st.tuples(st.just("ack"), _KEYS),
        st.tuples(st.just("suppressed_ack"), _KEYS),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("reopen"), st.none()),
    ),
    max_size=40,
)


class TestJournalPendingCount:
    """``counts()`` keeps pending incrementally; check it by recounting.

    The journal keeps an intent's record only while it is pending, so
    once every intent is acked it holds none; every query and the
    compacted file must still match the brute-force model.
    """

    @staticmethod
    def assert_matches(journal, model):
        pending = model.pending()
        counts = journal.counts()
        assert counts["intents"] == len(model.order)
        assert counts["acks"] == len(model.acks)
        assert counts["pending"] == len(pending)
        assert journal.pending() == pending
        for key in ("a", "b", "c", "d", "e"):
            assert journal.has_intent(key) == (key in model.bodies)
        assert intent_records_held(journal) == len(pending)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_STEPS)
    def test_counts_match_a_brute_force_recount(self, steps):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "journal.jsonl")
            journal = RequestJournal(path)
            model = _Model()
            try:
                for index, (step, key) in enumerate(steps):
                    body = {"k": key, "step": index}
                    if step == "intent":
                        journal.record_intent(key, "add", body)
                        model.intent(key, body)
                    elif step == "ack":
                        journal.record_ack(key, 200, body)
                        model.ack(key, body)
                    elif step == "suppressed_ack":
                        hooks.activate(_SuppressAcks())
                        try:
                            journal.record_ack(key, 200, body)
                        finally:
                            hooks.deactivate()
                        model.ack(key, body)
                    elif step == "compact":
                        journal.compact()
                        with open(path, "rb") as handle:
                            assert handle.read() == model.compacted()
                    else:
                        journal.close()
                        journal = RequestJournal(path)
                        model = recount(path)
                    self.assert_matches(journal, model)
                    recovered = RequestJournal(path)
                    try:
                        self.assert_matches(recovered, recount(path))
                    finally:
                        recovered.close()
            finally:
                journal.close()


class TestJournalCommitPoint:
    """One fsync per ack; ``close()`` fsyncs only what is unsynced."""

    @staticmethod
    def count_fsyncs(monkeypatch):
        calls = []
        fsync = os.fsync

        def counted(fd):
            calls.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counted)
        return calls

    def test_the_ack_fsyncs_and_the_intent_does_not(
        self, tmp_path, monkeypatch
    ):
        journal = make(tmp_path)
        fsyncs = self.count_fsyncs(monkeypatch)
        journal.record_intent("k", "add", {})
        assert fsyncs == []
        journal.record_ack("k", 200, {"status": "ok"})
        assert len(fsyncs) == 1
        journal.close()
        assert len(fsyncs) == 1  # nothing written since the ack's fsync

    def test_close_commits_after_a_suppressed_ack(self, tmp_path, monkeypatch):
        journal = make(tmp_path)
        fsyncs = self.count_fsyncs(monkeypatch)
        journal.record_intent("k", "add", {})
        hooks.activate(_SuppressAcks())
        try:
            journal.record_ack("k", 200, {"status": "ok"})
        finally:
            hooks.deactivate()
        assert fsyncs == []
        journal.close()
        assert len(fsyncs) == 1
        recovered = make(tmp_path)
        assert [p["key"] for p in recovered.pending()] == ["k"]
        recovered.close()

    def test_close_without_writes_makes_no_fsync(self, tmp_path, monkeypatch):
        journal = make(tmp_path)
        journal.record_intent("k", "add", {})
        journal.close()
        fsyncs = self.count_fsyncs(monkeypatch)
        for _ in range(2):
            reopened = make(tmp_path)
            assert [p["key"] for p in reopened.pending()] == ["k"]
            reopened.close()
        assert fsyncs == []
