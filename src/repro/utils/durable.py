"""Crash-safe whole-file replacement.

:func:`atomic_write` puts the new contents in ``<path>.tmp``, fsyncs
it, renames it over ``path`` and fsyncs the directory. A crash at any
instant leaves either the old file or the new one, and once the call
returns the rename survives a power cut. A crash can leave a torn
``<path>.tmp`` beside an intact file; :func:`discard_torn_temp` removes
it before a resume reads ``path``.
"""

from __future__ import annotations

import os

TMP_SUFFIX = ".tmp"


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


__all__ = ["TMP_SUFFIX", "atomic_write", "discard_torn_temp"]
