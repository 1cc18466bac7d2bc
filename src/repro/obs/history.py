"""Bench-history store: an append-only JSONL trajectory of bench runs.

Every ``repro bench`` invocation appends one line to
``BENCH_history.jsonl`` — the full benchmark document wrapped in a
schema-versioned envelope with a monotonically increasing sequence
number — so the repo accumulates a comparable performance record across
commits. The file is a :class:`~repro.utils.durable.JsonlLog`, so a run
killed mid-append leaves a torn last line that the next load skips and
the next append cuts off. :func:`load_baseline` accepts either such a
history file (the last entry wins) or a bare ``BENCH_pim_ops.json``
document, so CI can gate against whichever artifact survived.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.utils.durable import JsonlLog

HISTORY_SCHEMA = "coruscant-bench-history/1"


class BenchHistory:
    """Append-only JSONL store of benchmark documents."""

    def __init__(self, path: str) -> None:
        self.path = path

    def load(self) -> List[Dict[str, Any]]:
        """Every entry, oldest first; missing file means no history.

        Raises :class:`ValueError` naming ``path:line`` for a complete
        line that is not a history envelope.
        """
        entries: List[Dict[str, Any]] = []
        for lineno, entry in JsonlLog(self.path).read():
            if entry is None:
                problem = "corrupt history line: not a JSON object"
            elif entry.get("schema") != HISTORY_SCHEMA:
                problem = (f"unexpected schema {entry.get('schema')!r} "
                           f"(want {HISTORY_SCHEMA})")
            elif type(entry.get("seq")) is not int or not isinstance(
                entry.get("bench"), dict
            ):
                problem = "entry needs an integer 'seq' and an object 'bench'"
            else:
                entries.append(entry)
                continue
            raise ValueError(f"{self.path}:{lineno}: {problem}")
        return entries

    def last(self) -> Optional[Dict[str, Any]]:
        """The most recent entry's benchmark document, or None."""
        entries = self.load()
        return entries[-1]["bench"] if entries else None

    def append(
        self,
        bench: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Wrap ``bench`` in an envelope and append it; returns the envelope."""
        entries = self.load()
        envelope: Dict[str, Any] = {
            "schema": HISTORY_SCHEMA,
            "seq": entries[-1]["seq"] + 1 if entries else 1,
            "bench": bench,
        }
        if meta:
            envelope["meta"] = dict(meta)
        with JsonlLog(self.path) as log:
            log.append(envelope)
        return envelope

    def __len__(self) -> int:
        return len(self.load())


def load_baseline(path: str) -> Optional[Dict[str, Any]]:
    """A benchmark document from ``path``, history or bare format.

    ``path`` may be a ``BENCH_history.jsonl`` written by
    :class:`BenchHistory` (the newest entry is returned) or one
    ``BENCH_pim_ops.json`` document. Returns None when the file does not
    exist or is empty; raises :class:`ValueError` on unrecognisable
    content.
    """
    if not os.path.exists(path) or not os.path.getsize(path):
        return None
    _lineno, first = next(JsonlLog(path).read(), (0, None))
    if first is not None and first.get("schema") == HISTORY_SCHEMA:
        return BenchHistory(path).last()
    # A bare document is one JSON value, usually spread over many lines.
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict) or "kernels" not in document:
        raise ValueError(
            f"{path}: neither a bench history nor a bench document"
        )
    return document


__all__ = ["BenchHistory", "HISTORY_SCHEMA", "load_baseline"]
