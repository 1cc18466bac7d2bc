"""Crash-durable request journal: the gateway's write-ahead intent/ack log.

The gateway appends an *intent* record after it accepts a request (post
admission, pre execution) and an *ack* record — carrying the full
response envelope — once a terminal response exists. Every append is
``flush`` + ``fsync``, so the journal survives the process: on restart
the gateway replays every intent without a matching ack (the requests
that were accepted but died with the process) and answers duplicate
submissions of an acked idempotency key with the original response.

Torn-write discipline follows checkpoint v2
(:mod:`repro.resilience.checkpoint`): appends are single JSONL lines so
a crash mid-write corrupts at most the last record; recovery skips
unparseable lines (counting them in ``torn_records``) rather than
failing; :meth:`RequestJournal.compact` rewrites the live state through
:func:`repro.utils.durable.atomic_write` so the swap is atomic and a
crash mid-compaction leaves the old journal intact.

Disk trouble never reaches the request path: an ``OSError`` on append
is swallowed into ``write_errors`` and the in-memory state still
advances — durability degrades, the request proceeds. Chaos campaigns
attack exactly these seams via the ``journal.append`` (torn/failed
write) and ``journal.ack`` (suppressed ack, a stand-in for crashing
between responding and journalling) hook sites.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional, Set

from repro.chaos import hooks
from repro.utils.durable import atomic_write

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
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._recover()
        self._fh = open(path, "a", encoding="utf-8")

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A torn append (crash or injected fault mid-write).
                    # The record is lost; everything before it is intact.
                    self.torn_records += 1
                    continue
                if not isinstance(record, dict):
                    self.torn_records += 1
                    continue
                self._absorb(record)

    def _absorb(self, record: Dict[str, Any]) -> None:
        kind = record.get("type")
        key = record.get("key")
        if not isinstance(key, str):
            self.torn_records += 1
            return
        if kind == "intent":
            self._intent(key, record)
        elif kind == "ack":
            # Acks are authoritative even without a surviving intent
            # (the intent line may have been the torn one).
            self._ack(key, record)
        else:
            self.torn_records += 1

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

    def _append(self, record: Dict[str, Any]) -> None:
        """Durably append one record; disk failure degrades, never raises."""
        line = json.dumps(record, sort_keys=True)
        payload = line + "\n"
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
                cut = max(1, int(len(line) * fraction))
                payload = line[:cut] + "\n"
                self.torn_writes += 1
            self._fh.write(payload)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except (OSError, ValueError):
            # ValueError: write on a handle an earlier failure closed.
            self.write_errors += 1

    def record_intent(
        self, key: str, kernel: str, body: Dict[str, Any]
    ) -> None:
        """Journal an accepted request before it executes."""
        record = {
            "schema": JOURNAL_SCHEMA,
            "type": "intent",
            "key": key,
            "kernel": kernel,
            "body": body,
        }
        with self._lock:
            self._intent(key, record)
            self._append(record)

    def record_ack(
        self, key: str, http_status: int, body: Dict[str, Any]
    ) -> None:
        """Journal a terminal response; the body is replayed on dedup."""
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
            self._append(record)

    # -- queries -------------------------------------------------------

    def get_ack(self, key: str) -> Optional[Dict[str, Any]]:
        """The acked response for ``key``: {"http_status", "body"} or None."""
        with self._lock:
            record = self._acks.get(key)
            if record is None:
                return None
            return {
                "http_status": record.get("http_status"),
                "body": record.get("body"),
            }

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
            data = "".join(
                json.dumps(record, sort_keys=True) + "\n"
                for record in records
            ).encode("utf-8")
            try:
                if not self._fh.closed:
                    self._fh.close()
                atomic_write(self.path, data)
            except OSError:
                self.write_errors += 1
            finally:
                self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


__all__ = ["JOURNAL_SCHEMA", "RequestJournal"]
