"""Crash-durable request journal: the gateway's write-ahead intent/ack log.

The gateway appends an *intent* record after it accepts a request (post
admission, pre execution) and an *ack* record — carrying the full
response envelope — once a terminal response exists. On restart the
gateway replays every intent without a matching ack (the requests that
were accepted but died with the process) and answers duplicate
submissions of an acked idempotency key with the original response.

The commit point is the ack's fsync. Every append is flushed to the
OS; an ack is also fsynced, and that one fsync makes the ack and every
record before it durable, this request's intent included. The gateway
answers only after :meth:`RequestJournal.record_ack` returns, so when
a response leaves the gateway its ack and all earlier records are on
disk. Until then an intent sits in the OS page cache: a process crash
keeps it, and the restart replays it; an OS crash or a power cut can
lose it, but its client never got an answer and re-sends under its
key. :meth:`RequestJournal.close` fsyncs whatever was written since
the last fsync (an intent whose ack was suppressed, say), so a clean
drain leaves nothing unsynced.

The file is a :class:`repro.utils.durable.JsonlLog`, so a crash
mid-append tears at most the last record and the next append never
merges with it. Recovery skips every record it cannot use, counting it
in ``torn_records``, and :meth:`RequestJournal.compact` rewrites the
live state atomically.

Disk trouble never reaches the request path: an ``OSError`` on append
is swallowed into ``write_errors`` and the in-memory state still
advances — durability degrades, the request proceeds. Chaos campaigns
attack exactly these seams via the ``journal.append`` (torn/failed
write) and ``journal.ack`` (suppressed ack, a stand-in for crashing
between responding and journalling) hook sites.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set

from repro.chaos import hooks
from repro.utils.durable import JsonlLog, encode

JOURNAL_SCHEMA = "coruscant-journal/1"


class RequestJournal:
    """Write-ahead intent/ack log keyed by idempotency key.

    Thread-safe; one instance owns one journal file. Constructing the
    journal *is* recovery: an existing file is read (tolerating a torn
    final record), and the intent/ack state it encodes becomes the
    starting in-memory state.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        # Every key that ever had an intent. Only a pending intent's
        # record is kept: once acked it is never read again.
        self._intent_keys: Set[str] = set()
        self._acks: Dict[str, Dict[str, Any]] = {}
        # Key -> intent record for keys with an intent and no ack, in
        # acceptance order. Acks are never dropped, so an acked key
        # never becomes pending again.
        self._pending: Dict[str, Dict[str, Any]] = {}
        # Observability counters (read into hub gauges by the gateway's
        # registry collector).
        self.write_errors = 0
        self.torn_writes = 0
        self.suppressed_acks = 0
        self.torn_records = 0
        # Whether a record may have reached the file since its last fsync.
        self._unsynced = False
        self._log = JsonlLog(path)
        # A torn append (crash or injected fault mid-write) loses its
        # record; everything before it is intact.
        for _lineno, record in self._log.read():
            if not self._absorb(record):
                self.torn_records += 1
        self.torn_records += self._log.torn_tail
        self._log.open()

    # -- recovery ------------------------------------------------------

    def _absorb(self, record: Optional[Dict[str, Any]]) -> bool:
        """Apply one recovered record; False when it is unusable."""
        if (
            record is None
            or not isinstance(record.get("key"), str)
            or not isinstance(record.get("body"), dict)
        ):
            return False
        kind = record.get("type")
        if kind == "intent" and isinstance(record.get("kernel"), str):
            self._intent(record["key"], record)
        elif kind == "ack" and type(record.get("http_status")) is int:
            # Acks are authoritative even without a surviving intent
            # (the intent line may have been the torn one).
            self._ack(record["key"], record)
        else:
            return False
        return True

    def _intent(self, key: str, record: Dict[str, Any]) -> None:
        self._intent_keys.add(key)
        if key not in self._acks:
            # A repeated intent replaces the pending record but keeps
            # its place in acceptance order.
            self._pending[key] = record

    def _ack(self, key: str, record: Dict[str, Any]) -> None:
        self._acks[key] = record
        self._pending.pop(key, None)

    # -- appends -------------------------------------------------------

    def _append(self, record: Dict[str, Any], commit: bool) -> None:
        """Append one record, and fsync it and all before it if ``commit``.

        Disk failure degrades, never raises.
        """
        line = encode(record)
        try:
            action = hooks.fire(
                hooks.SITE_JOURNAL_APPEND,
                record_type=record.get("type"),
                key=record.get("key"),
            )
            if isinstance(action, dict) and action.get("action") == "tear":
                # Model a write interrupted partway: persist a prefix of
                # the record. The trailing newline scopes the damage to
                # exactly this record on recovery.
                fraction = float(action.get("fraction", 0.5))
                line = line[: max(1, int(len(line) * fraction))]
                self.torn_writes += 1
            self._unsynced = True
            self._log.write(line)
            if commit:
                self._sync()
        except OSError:
            self.write_errors += 1

    def _sync(self) -> None:
        self._log.sync()
        self._unsynced = False

    def record_intent(
        self, key: str, kernel: str, body: Dict[str, Any]
    ) -> None:
        """Journal an accepted request before it executes.

        Flushed, not fsynced: the request's ack commits it.
        """
        record = {
            "schema": JOURNAL_SCHEMA,
            "type": "intent",
            "key": key,
            "kernel": kernel,
            "body": body,
        }
        with self._lock:
            self._intent(key, record)
            self._append(record, commit=False)

    def record_ack(
        self, key: str, http_status: int, body: Dict[str, Any]
    ) -> None:
        """Journal and commit a terminal response; replayed on dedup.

        Its fsync makes every earlier record durable too.
        """
        record = {
            "schema": JOURNAL_SCHEMA,
            "type": "ack",
            "key": key,
            "http_status": http_status,
            "body": body,
        }
        with self._lock:
            self._ack(key, record)
            action = hooks.fire(hooks.SITE_JOURNAL_ACK, key=key)
            if isinstance(action, dict) and action.get("action") == "suppress":
                # The process "died" between responding and journalling
                # the ack: the in-memory ack stands for this run, but
                # disk never learns of it, so restart replays the
                # intent. At-least-once, never lost.
                self.suppressed_acks += 1
                return
            self._append(record, commit=True)

    # -- queries -------------------------------------------------------

    def get_ack(self, key: str) -> Optional[Dict[str, Any]]:
        """The acked response for ``key``: {"http_status", "body"} or None."""
        with self._lock:
            record = self._acks.get(key)
        if record is None:
            return None
        return {"http_status": record["http_status"], "body": record["body"]}

    def has_intent(self, key: str) -> bool:
        with self._lock:
            return key in self._intent_keys

    def pending(self) -> List[Dict[str, Any]]:
        """Intents without an ack, in original acceptance order."""
        with self._lock:
            return [dict(record) for record in self._pending.values()]

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {
                "intents": len(self._intent_keys),
                "acks": len(self._acks),
                "pending": len(self._pending),
                "write_errors": self.write_errors,
                "torn_writes": self.torn_writes,
                "suppressed_acks": self.suppressed_acks,
                "torn_records": self.torn_records,
            }

    # -- maintenance ---------------------------------------------------

    def compact(self) -> None:
        """Atomically rewrite the journal to its live state.

        Keeps every ack (the idempotency history) and only un-acked
        intents. The swap is atomic, so a crash at any point leaves a
        valid journal.
        """
        with self._lock:
            records = list(self._pending.values())
            records.extend(self._acks.values())
            try:
                self._log.rewrite(records)
            except OSError:
                self.write_errors += 1
            else:
                self._unsynced = False

    def close(self) -> None:
        """Fsync what was written since the last fsync, then close."""
        with self._lock:
            if self._unsynced:
                try:
                    self._sync()
                except OSError:
                    self.write_errors += 1
            self._log.close()


__all__ = ["JOURNAL_SCHEMA", "RequestJournal"]
