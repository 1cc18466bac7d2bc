"""Fault injection for the DWM device model.

Two fault classes matter for CORUSCANT (Sections II-A and V-F):

* **Shift faults** — a lateral current pulse over/under-shifts the domain
  walls, misaligning the nanowire by one position. The paper assumes the
  alignment-fault literature (TAPestry, Hi-Fi, PIETT, ...) handles these
  with <1% overhead, so by default we inject none; they remain available
  for failure-injection tests.
* **TR level faults** — process variation makes a transverse read report
  one level higher or lower than the true count of ones. The paper derives
  an intrinsic rate of circa 1e-6 per TR; faults off by two or more levels
  are negligible and we do not model them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np


# A run of at least this many shift steps draws in one bulk call; below
# it, a draw per step costs less than the bulk call's fixed cost.
_BULK_STEPS = 64


@dataclass(frozen=True)
class FaultConfig:
    """Probabilities of the modeled fault mechanisms.

    Attributes:
        tr_fault_rate: chance one TR misreads by exactly one level.
        shift_fault_rate: chance one shift over- or under-shifts by one.
        seed: RNG seed so experiments are reproducible.
    """

    tr_fault_rate: float = 0.0
    shift_fault_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("tr_fault_rate", "shift_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability, got {rate}")

    @classmethod
    def intrinsic(cls, seed: int = 0) -> "FaultConfig":
        """The paper's intrinsic TR misread rate, no shift faults.

        The rate itself lives in :mod:`repro.reliability.tr_faults`
        (where Section V-F derives it); this constructor is the single
        way to ask for "the device as the paper models it" without
        restating the number.
        """
        # Imported lazily: reliability sits above device in the layering
        # and tr_faults has no repro imports, so there is no cycle.
        from repro.reliability.tr_faults import TR_FAULT_RATE

        return cls(tr_fault_rate=TR_FAULT_RATE, seed=seed)


class FaultInjector:
    """Draws fault events according to a :class:`FaultConfig`.

    A single injector is shared by all nanowires of a DBC so one seed
    controls the whole experiment. A wire draws per step and per read
    (:meth:`perturb_shift`, :meth:`perturb_tr_level`); a lockstep cluster
    draws per command (:meth:`shift_command`, :meth:`sense_batch`), with
    exactly the draws of those per-step and per-read calls, in their
    order. Every draw comes from the one seeded :class:`random.Random`.
    """

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config or FaultConfig()
        self._rng = random.Random(self.config.seed)
        self.tr_faults_injected = 0
        self.shift_faults_injected = 0

    def perturb_tr_level(self, level: int, max_level: int) -> int:
        """Possibly misread a TR level by +/-1, clamped to [0, max_level]."""
        rate = self.config.tr_fault_rate
        if rate == 0.0 or self._rng.random() >= rate:
            return level
        return self._misread(level, max_level)

    def perturb_shift(self, amount: int) -> int:
        """Possibly over/under-shift a one-position shift by one.

        ``amount`` is +1 or -1; a fault turns it into 0 (under-shift) or
        +/-2 (over-shift) with equal probability.
        """
        rate = self.config.shift_fault_rate
        if rate == 0.0 or self._rng.random() >= rate:
            return amount
        return self._misshift(amount, self._rng.random())

    def sense_batch(
        self, levels: Sequence[int], max_level: int, votes: int = 1
    ) -> Dict[int, List[int]]:
        """The draws of one sensed batch: ``votes`` reads of each level.

        The levels are read in turn, all ``votes`` reads of one before
        the next, each read with exactly the draws of one
        :meth:`perturb_tr_level` call (an overriding subclass's own is
        called once per read): a clamped level (0 or ``max_level``)
        draws no coin. Returns the reads of each level that misread at
        least once, keyed by its index in ``levels``; every read of the
        other levels is the level itself.
        """
        hook = type(self).perturb_tr_level is not FaultInjector.perturb_tr_level
        rate = self.config.tr_fault_rate
        misread: Dict[int, List[int]] = {}
        if rate == 0.0 and not hook:
            return misread
        random = self._rng.random
        for index, level in enumerate(levels):
            for vote in range(votes):
                if hook:
                    read = self.perturb_tr_level(level, max_level)
                elif random() >= rate:
                    continue
                else:
                    read = self._misread(level, max_level)
                if read != level:
                    misread.setdefault(index, [level] * votes)[vote] = read
        return misread

    def shift_command(
        self,
        offsets: Sequence[int],
        direction: int,
        count: int,
        low: int,
        high: int,
    ) -> List[int]:
        """Where one lockstep command of ``count`` shifts takes each track.

        Track after track, the track at ``offsets[t]`` takes its
        ``count`` one-position steps, each with exactly the draws of one
        :meth:`perturb_shift` call (an overriding subclass's own is
        called once per step). The command stops after the first step
        that leaves ``[low, high]``: the positions returned then end
        with that track's, outside the range, and leave out the tracks
        after it, which drew nothing.

        A run of tracks whose steps cannot leave the range even if every
        one over-shifts draws in bulk, once it has :data:`_BULK_STEPS`
        steps or more; a shorter run, and a track that might stop the
        command, draw step by step, so no draw past the stop is taken.
        """
        hook = type(self).perturb_shift is not FaultInjector.perturb_shift
        # The furthest ``count`` steps can take a track either way.
        reach = 2 * direction * count
        near, far = min(0, reach), max(0, reach)
        tracks = len(offsets)
        # The common command, far from both edges, is one run.
        whole = (
            tracks
            and not hook
            and low <= min(offsets) + near
            and max(offsets) + far <= high
        )
        reached: List[int] = []
        start = 0
        while start < tracks:
            end = tracks if whole else start
            while (
                not hook
                and end < tracks
                and low <= offsets[end] + near
                and offsets[end] + far <= high
            ):
                end += 1
            if (end - start) * count >= _BULK_STEPS:
                reached += self._run_steps(offsets[start:end], direction, count)
                start = end
                continue
            # A short run, then the track that might stop the command.
            for position in offsets[start : end + 1]:
                position = self._track_steps(
                    position, direction, count, low, high, hook
                )
                reached.append(position)
                if not low <= position <= high:
                    return reached
            start = end + 1
        return reached

    # ------------------------------------------------------------------
    # draws

    def _misread(self, level: int, max_level: int) -> int:
        """A faulted TR read: one level off, clamped (a coin picks the side)."""
        self.tr_faults_injected += 1
        if level == 0:
            return 1
        if level == max_level:
            return max_level - 1
        return level + self._rng.choice((-1, 1))

    def _misshift(self, amount: int, coin: float) -> int:
        """A faulted step: an under-shift on a coin below one half, else
        an over-shift."""
        self.shift_faults_injected += 1
        return 0 if coin < 0.5 else 2 * amount

    def _track_steps(
        self, position: int, direction: int, count: int, low: int, high: int,
        hook: bool,
    ) -> int:
        """One track's steps, one draw at a time, stopping outside the range."""
        rate = self.config.shift_fault_rate
        random = self._rng.random
        for _ in range(count):
            if hook:
                position += self.perturb_shift(direction)
            elif rate == 0.0 or random() >= rate:
                position += direction
            else:
                position += self._misshift(direction, random())
            if not low <= position <= high:
                break
        return position

    def _run_steps(
        self, offsets: Sequence[int], direction: int, count: int
    ) -> List[int]:
        """Where ``count`` steps take each track of a run that stays in range.

        Every step of the run draws, so one bulk draw serves one draw per
        step; each fault's coin is the draw after its own, and the steps
        the coins push past the bulk draw take theirs one at a time.
        """
        distance = direction * count
        reached = [offset + distance for offset in offsets]
        rate = self.config.shift_fault_rate
        if rate == 0.0:
            return reached
        steps = len(offsets) * count
        draws = self._doubles(steps)
        random = self._rng.random
        done = taken = 0
        for hit in (draws < rate).nonzero()[0].tolist():
            if hit < taken:
                continue  # the coin of the fault before
            done += hit - taken
            taken = hit + 2
            coin = draws[hit + 1] if taken <= steps else random()
            reached[done // count] += self._misshift(direction, coin) - direction
            done += 1
        done += max(0, steps - taken)
        for step in range(done, steps):
            if random() < rate:
                reached[step // count] += (
                    self._misshift(direction, random()) - direction
                )
        return reached

    def _doubles(self, n: int) -> np.ndarray:
        """The next ``n`` draws of ``random()``, taken in one call.

        ``random()`` makes a double of two 32-bit words, 27 bits of the
        first and 26 of the second; ``getrandbits(64 * n)`` takes the
        same ``2 * n`` words, the first as its least significant. So the
        doubles, and the state left behind, are those of ``n``
        ``random()`` calls.
        """
        words = np.frombuffer(
            self._rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4"
        )
        return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
            1.0 / 9007199254740992.0
        )

    # ------------------------------------------------------------------
    # rate switching & checkpoint support

    def set_rates(
        self,
        tr_fault_rate: Optional[float] = None,
        shift_fault_rate: Optional[float] = None,
    ) -> FaultConfig:
        """Swap fault rates mid-run without disturbing the RNG stream.

        Used for storm/calm fault profiles: the draw sequence continues
        from where it is, only the thresholds change, so a run with a
        rate switch is still a pure function of the seed.
        """
        updates: Dict[str, float] = {}
        if tr_fault_rate is not None:
            updates["tr_fault_rate"] = tr_fault_rate
        if shift_fault_rate is not None:
            updates["shift_fault_rate"] = shift_fault_rate
        if updates:
            self.config = replace(self.config, **updates)
        return self.config

    def state(self) -> Dict[str, Any]:
        """Serializable injector state (RNG position + fault counters)."""
        version, internal, gauss_next = self._rng.getstate()
        return {
            "rng": [version, list(internal), gauss_next],
            "tr_faults_injected": self.tr_faults_injected,
            "shift_faults_injected": self.shift_faults_injected,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        version, internal, gauss_next = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss_next))
        self.tr_faults_injected = int(state["tr_faults_injected"])
        self.shift_faults_injected = int(state["shift_faults_injected"])
