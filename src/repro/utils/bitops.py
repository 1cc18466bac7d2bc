"""Bit-level helpers used throughout the simulator.

Operand bits are little-endian (bit 0 first), mirroring the way operand
bits are laid out along consecutive nanowires in a DBC (Section III-C of
the paper). A word is a list of 0/1 integers; a row spanning every track
of a DBC is a ``uint8`` array with one element per track.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def bits_from_int(value: int, width: int) -> List[int]:
    """Little-endian bit decomposition of a non-negative integer.

    >>> bits_from_int(6, 4)
    [0, 1, 1, 0]
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Inverse of :func:`bits_from_int`.

    >>> bits_to_int([0, 1, 1, 0])
    6
    """
    out = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        if bit:
            out |= 1 << i
    return out


def as_bit_row(bits: Sequence[int]) -> np.ndarray:
    """``bits`` as a ``uint8`` row, every element checked to be 0 or 1.

    A ``uint8`` array passes through uncopied (and may be read-only); a
    list or tuple of ints converts through ``bytes``, several times
    faster than ``np.asarray``. Raises ValueError naming the first
    element that is not a bit.

    >>> as_bit_row([1, 0, 1]).tolist()
    [1, 0, 1]
    """
    raw = None
    if isinstance(bits, np.ndarray):
        if bits.dtype == np.uint8:
            raw = bits.tobytes()
    elif isinstance(bits, (list, tuple)):
        try:
            raw = bytes(bits)
        except (TypeError, ValueError):
            pass
    # Deleting every 0 and 1 byte leaves nothing exactly when all are bits.
    if raw is not None and not raw.translate(None, b"\x00\x01"):
        if isinstance(bits, np.ndarray):
            return bits
        return np.frombuffer(raw, dtype=np.uint8)
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"expected bit 0 or 1, got {bit!r}")
    return np.array([int(bit) for bit in bits], dtype=np.uint8)


def as_level_row(levels: Sequence[int]) -> np.ndarray:
    """TR levels (ints in ``[0, 256)``) as a read-only ``uint8`` row.

    >>> as_level_row([3, 0, 7]).tolist()
    [3, 0, 7]
    """
    return np.frombuffer(bytes(levels), dtype=np.uint8)


def word_row(value: int, width: int, tracks: int) -> np.ndarray:
    """A ``tracks``-wide row holding ``value`` transposed on its first
    ``width`` tracks (bit ``i`` on track ``i``) and zeros above.

    >>> word_row(6, 4, 6).tolist()
    [0, 1, 1, 0, 0, 0]
    """
    if width > tracks:
        raise ValueError(f"width {width} exceeds the {tracks}-track row")
    row = np.zeros(tracks, dtype=np.uint8)
    row[:width] = bits_from_int(value, width)
    return row


def popcount(bits: Sequence[int]) -> int:
    """Number of '1' bits — what a fault-free transverse read senses."""
    return sum(1 for b in bits if b)


def twos_complement(value: int, width: int) -> int:
    """Encode a (possibly negative) integer into ``width``-bit two's complement."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= value <= (1 << width) - 1:
        raise ValueError(f"value {value} not representable in {width} bits")
    if value > hi and value >= 0:
        # Caller passed an already-encoded unsigned pattern; keep it.
        return value & ((1 << width) - 1)
    return value & ((1 << width) - 1)


def int_from_twos_complement(pattern: int, width: int) -> int:
    """Decode a ``width``-bit two's-complement pattern into a signed integer."""
    pattern &= (1 << width) - 1
    if pattern >> (width - 1):
        return pattern - (1 << width)
    return pattern


def csd_encode(value: int) -> List[int]:
    """Canonical signed-digit (Booth/NAF) recoding of a non-negative integer.

    Returns little-endian digits in {-1, 0, 1} such that
    ``sum(d * 2**i) == value`` and no two adjacent digits are non-zero.
    This is the "0, N, P" representation the paper uses for constant
    multiplication (Section III-D1).

    >>> csd_encode(7)
    [-1, 0, 0, 1]
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    digits: List[int] = []
    v = value
    while v:
        if v & 1:
            # Choose digit so the remainder is divisible by 4 (NAF rule).
            digit = 2 - (v & 3)  # 1 if v % 4 == 1, -1 if v % 4 == 3
            digits.append(digit)
            v -= digit
        else:
            digits.append(0)
        v >>= 1
    return digits or [0]
