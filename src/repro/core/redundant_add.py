"""Redundant addition with per-step or per-result voting (Section III-F).

"Voting during an add operation can either occur after each nanowire
computes S, C, C' for a particular bit, or after the entire result is
determined. Since the add operation is computed sequentially, this
choice about fault tolerance creates a performance versus fault
tolerance trade-off."

Per-result voting lets a corrupted carry poison every later bit of its
replica; per-step voting scrubs S/C/C' majority values back into all
replicas each bit, so faults cannot accumulate — circa two orders of
magnitude lower error at the cost of a vote every step. Both modes are
implemented here over N replica DBCs walking in lockstep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.arch.dbc import DomainBlockCluster, carry_outputs
from repro.core.addition import MultiOperandAdder
from repro.core.pim_logic import adder_outputs
from repro.device.faults import FaultConfig, FaultInjector
from repro.device.parameters import DeviceParameters
from repro.utils.bitops import bits_to_int
from repro.utils.streams import derive_seed


class VotingMode(enum.Enum):
    """When the majority vote happens."""

    PER_RESULT = "per_result"  # vote once over the finished sums
    PER_STEP = "per_step"  # vote S/C/C' after every bit position


@dataclass(frozen=True)
class RedundantAddResult:
    """Outcome of one N-modular-redundant addition.

    Attributes:
        value: the voted sum.
        cycles: lockstep cycles (replicas run in parallel DBCs).
        votes: majority votes performed.
    """

    value: int
    cycles: int
    votes: int


class RedundantAdder:
    """N replicated multi-operand adders with configurable voting."""

    def __init__(
        self,
        n: int = 3,
        trd: int = 7,
        tracks: int = 32,
        fault_config: Optional[FaultConfig] = None,
    ) -> None:
        if n not in (3, 5, 7):
            raise ValueError(f"n must be 3, 5 or 7, got {n}")
        self.n = n
        params = DeviceParameters(trd=trd)
        # Each replica gets its own injector stream so faults are
        # independent across replicas (same physical arrays, different
        # nanowires).
        self.replicas: List[DomainBlockCluster] = []
        for i in range(n):
            injector = None
            if fault_config is not None:
                injector = FaultInjector(
                    FaultConfig(
                        tr_fault_rate=fault_config.tr_fault_rate,
                        shift_fault_rate=fault_config.shift_fault_rate,
                        seed=derive_seed(
                            fault_config.seed, "nmr.replica", i
                        ),
                    )
                )
            self.replicas.append(
                DomainBlockCluster(
                    tracks=tracks,
                    domains=32,
                    params=params,
                    injector=injector,
                )
            )
        self.adders = [MultiOperandAdder(dbc) for dbc in self.replicas]

    # ------------------------------------------------------------------

    def add_words(
        self,
        words: Sequence[int],
        n_bits: int,
        mode: VotingMode = VotingMode.PER_RESULT,
    ) -> RedundantAddResult:
        """Redundant addition of up to TRD-2 words, mod 2**n_bits."""
        for adder in self.adders:
            adder.stage_words(words, n_bits, zero_extend_to=n_bits)
        if mode is VotingMode.PER_RESULT:
            return self._per_result(len(words), n_bits)
        return self._per_step(len(words), n_bits)

    def _per_result(self, k: int, n_bits: int) -> RedundantAddResult:
        values = [
            adder.run(k, result_bits=n_bits).value for adder in self.adders
        ]
        voted = self._vote_value(values, n_bits)
        # Replicas walk in parallel; one walk + one vote pass.
        cycles = 2 * n_bits + 1
        return RedundantAddResult(value=voted, cycles=cycles, votes=1)

    def _per_step(self, k: int, n_bits: int) -> RedundantAddResult:
        """Walk all replicas bit by bit, scrubbing S/C/C' majorities."""
        votes = 0
        super_carry = self.replicas[0].super_carry
        for step in range(n_bits):
            outputs = []
            for dbc in self.replicas:
                level = dbc.transverse_read_track(step)
                outputs.append(adder_outputs(level))
            s = self._majority([o[0] for o in outputs])
            c = self._majority([o[1] for o in outputs])
            cp = self._majority([o[2] for o in outputs])
            votes += 1
            # The voted digits, written as the PIM block writes a level's.
            writes = carry_outputs(step, n_bits, s | c << 1 | cp << 2, super_carry)
            for dbc in self.replicas:
                for track, port, bit in writes:
                    dbc.write_bit(track, port, bit)
                dbc.tick(1, "carry_write")
            # The vote itself costs one extra cycle per step.
            for dbc in self.replicas:
                dbc.tick(1, "step_vote")
        sums = []
        for dbc in self.replicas:
            bits = [
                dbc.peek_window_slot(0)[i] for i in range(n_bits)
            ]
            sums.append(bits_to_int(bits))
        # All replicas hold the same scrubbed value; majority anyway.
        voted = self._vote_value(sums, n_bits)
        cycles = 3 * n_bits  # TR + write + vote per bit, lockstep
        return RedundantAddResult(value=voted, cycles=cycles, votes=votes)

    # ------------------------------------------------------------------

    def _majority(self, bits: Sequence[int]) -> int:
        return 1 if sum(bits) * 2 > len(bits) else 0

    def _vote_value(self, values: Sequence[int], n_bits: int) -> int:
        out = 0
        for bit in range(n_bits):
            ones = sum((v >> bit) & 1 for v in values)
            if ones * 2 > len(values):
                out |= 1 << bit
        return out
