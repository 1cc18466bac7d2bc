"""Crash-safe files: whole-file replacement and append-only JSON lines.

:func:`atomic_write` puts the new contents in ``<path>.tmp``, fsyncs
it, renames it over ``path`` and fsyncs the directory. A crash at any
instant leaves either the old file or the new one, and once the call
returns the rename survives a power cut. A crash can leave a torn
``<path>.tmp`` beside an intact file; :func:`discard_torn_temp` removes
it before a resume reads ``path``.

:class:`JsonlLog` is the one reader and writer of JSON-lines files:
the request journal, the event log, the bench histories and profile
records.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, BinaryIO, Dict, Iterable, Iterator, Optional, Tuple

TMP_SUFFIX = ".tmp"
_TAIL_BLOCK = 4096  # bytes per step of the backwards scan for a newline


def atomic_write(path: str, data: bytes) -> None:
    """Replace the file at ``path`` with ``data``, atomically and durably."""
    tmp_path = path + TMP_SUFFIX
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError:
        discard_torn_temp(path)
        raise
    # The rename is a change to the directory; until the directory is
    # synced a power cut can bring the old file back.
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def discard_torn_temp(path: str) -> bool:
    """Remove a ``<path>.tmp`` an interrupted :func:`atomic_write` left.

    Its contents can never be trusted: the rename never happened.
    Returns True when a leftover temp file was removed.
    """
    try:
        os.remove(path + TMP_SUFFIX)
    except FileNotFoundError:
        return False
    return True


def encode(record: Dict[str, Any]) -> str:
    """``record`` as one JSON line without its newline, keys sorted."""
    return json.dumps(record, sort_keys=True)


def _decode(line: bytes) -> Optional[Dict[str, Any]]:
    try:
        record = json.loads(line)
    except ValueError:  # also covers bytes that are not UTF-8
        return None
    return record if isinstance(record, dict) else None


class JsonlLog:
    """An append-only file of JSON objects, one per line.

    A crash can leave a last line with no newline: a *torn tail*.
    :meth:`read` skips it unless it is a JSON object (and sets
    :attr:`torn_tail`). The first write after opening finishes it, with
    a newline if it is an object and by cutting it off if not, so it
    never merges with the next record; only the last line is read to
    find it. Writes are flushed to the OS and :meth:`sync` fsyncs. The
    handle reopens as needed after a close, a rewrite or a failed
    write. Not thread-safe: callers that share a log hold a lock.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.torn_tail = False
        self._fh: Optional[BinaryIO] = None

    def read(self) -> Iterator[Tuple[int, Optional[Dict[str, Any]]]]:
        """``(line number, record)`` per non-blank line; None if no object."""
        self.torn_tail = False
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            for lineno, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                record = _decode(line)
                if record is None and not line.endswith(b"\n"):
                    self.torn_tail = True
                else:
                    yield lineno, record

    def open(self) -> "JsonlLog":
        """Open for appending now (creating the file), finishing its tail."""
        if self._fh is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            with open(self.path, "a+b") as handle:
                _finish_tail(handle)
            self._fh = open(self.path, "ab")
        return self

    def append(self, record: Dict[str, Any]) -> None:
        self.write(encode(record))

    def write(self, line: str) -> None:
        """Append an encoded line and its newline, and flush them.

        After an ``OSError`` the next write reopens the file, so the
        torn-tail rule covers whatever part of the line reached disk.
        """
        handle = self.open()._fh
        try:
            handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
        except OSError:
            self._fh = None
            with contextlib.suppress(OSError):
                handle.close()
            raise

    def tell(self) -> int:
        """The file's size, from the open handle's position."""
        return self.open()._fh.tell()

    def sync(self) -> None:
        os.fsync(self.open()._fh.fileno())

    def rewrite(self, records: Iterable[Dict[str, Any]]) -> None:
        """Replace the whole file with ``records`` via :func:`atomic_write`."""
        data = "".join(encode(record) + "\n" for record in records)
        self.close()
        atomic_write(self.path, data.encode("utf-8"))

    def close(self) -> None:
        handle, self._fh = self._fh, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def _finish_tail(handle: BinaryIO) -> None:
    """Newline-terminate or cut off an unterminated last line."""
    end = start = handle.seek(0, os.SEEK_END)
    newline = -1
    while start > 0 and newline < 0:
        block = max(0, start - _TAIL_BLOCK)
        handle.seek(block)
        newline = handle.read(start - block).rfind(b"\n")
        start = block + newline + 1 if newline >= 0 else block
    if start < end:
        handle.seek(start)
        if _decode(handle.read()) is None:
            handle.truncate(start)
        else:
            handle.write(b"\n")


__all__ = [
    "JsonlLog",
    "TMP_SUFFIX",
    "atomic_write",
    "discard_torn_temp",
    "encode",
]
