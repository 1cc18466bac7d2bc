"""Monte Carlo fault-injection experiments.

The analytic Table V models are validated by actually running the PIM
operations with injected TR faults at inflated rates (so errors are
observable in a reasonable trial count) and extrapolating linearly to
the intrinsic 1e-6 rate — the same methodology the paper applies with
its LLG-derived fault model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.arch.dbc import DomainBlockCluster
from repro.core.addition import MultiOperandAdder
from repro.core.multiplication import Multiplier
from repro.core.nmr import ModularRedundancy
from repro.device.faults import FaultConfig, FaultInjector
from repro.device.parameters import DeviceParameters
from repro.reliability.campaign import shard_bounds
from repro.resilience import checkpoint as ckpt
from repro.utils.bitops import bits_from_int, bits_to_int
from repro.utils.streams import derive_seed


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of one fault-injection campaign.

    Attributes:
        trials: operations executed (the target count when resumable).
        errors: operations that produced a wrong result.
        injected_rate: the per-TR fault rate used.
        completed: False when the run stopped early (``stop_after``).
    """

    trials: int
    errors: int
    injected_rate: float
    completed: bool = True

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials if self.trials else 0.0

    def extrapolate(self, target_rate: float, trs_per_op: int) -> float:
        """Linear extrapolation of the per-op error to ``target_rate``.

        Valid while the per-op error is small (faults rarely co-occur):
        error ~= trs_per_op * p, so scale by the rate ratio.
        """
        if self.injected_rate <= 0:
            raise ValueError("cannot extrapolate from a zero fault rate")
        return self.error_rate * (target_rate / self.injected_rate)


class FaultCampaign:
    """Runs PIM operations repeatedly under TR fault injection."""

    def __init__(
        self,
        trd: int = 7,
        fault_rate: float = 0.01,
        seed: int = 0,
        tracks: int = 32,
        shard: int = 0,
        shards: int = 1,
    ) -> None:
        if not 0.0 < fault_rate <= 1.0:
            raise ValueError("fault_rate must be in (0, 1]")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 0 <= shard < shards:
            raise ValueError(f"shard must be in [0, {shards}), got {shard}")
        self.trd = trd
        self.fault_rate = fault_rate
        self.seed = seed
        self.tracks = tracks
        self.shard = shard
        self.shards = shards
        # Shard substreams are derived, never seed+k arithmetic: shard 0
        # of a 1-shard campaign is by construction the unsharded stream.
        self._injector = FaultInjector(
            FaultConfig(
                tr_fault_rate=fault_rate,
                seed=derive_seed(seed, "mc.faults", shard),
            )
        )

    def _dbc(self) -> DomainBlockCluster:
        return DomainBlockCluster(
            tracks=self.tracks,
            domains=32,
            params=DeviceParameters(trd=self.trd),
            injector=self._injector,
        )

    # ------------------------------------------------------------------
    # checkpointable trial loop

    def _run_trials(
        self,
        kind: str,
        trials: int,
        trial: Callable[[int], bool],
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        stop_after: Optional[int] = None,
    ) -> MonteCarloResult:
        """Run ``trial(t) -> was_wrong`` for each t, with optional journal.

        Trials are a pure function of the trial index and the shared
        injector's RNG stream, so the journal only needs the trial
        index, the error count, and the injector state to resume a run
        bit-identically. A sharded campaign (``shards > 1``) runs the
        global trial slice ``shard_bounds(trials, shard, shards)``.
        """
        lo, hi = shard_bounds(trials, self.shard, self.shards)
        fingerprint = {
            "kind": kind,
            "trd": self.trd,
            "fault_rate": self.fault_rate,
            "seed": self.seed,
            "tracks": self.tracks,
            "trials": trials,
            "shard": self.shard,
            "shards": self.shards,
        }
        start, errors = lo, 0
        if checkpoint_path:
            ckpt.discard_torn_temp(checkpoint_path)
        if checkpoint_path and os.path.exists(checkpoint_path):
            document = ckpt.load_checkpoint(checkpoint_path)
            try:
                ckpt.verify_resume(
                    document, fingerprint, checkpoint_path,
                    shard=self.shard, shards=self.shards,
                )
                start = int(document["trial"])
                errors = int(document["errors"])
                self._injector.restore_state(document["injector"])
            except ckpt.MALFORMED as exc:
                raise ckpt.CheckpointError(
                    f"checkpoint {checkpoint_path} is malformed: {exc!r}"
                ) from exc

        def save(done: int) -> None:
            ckpt.save_checkpoint(
                checkpoint_path,
                {
                    "fingerprint": fingerprint,
                    "config_hash": ckpt.config_hash(fingerprint),
                    "shard": self.shard,
                    "shards": self.shards,
                    "trial": done,
                    "errors": errors,
                    "injector": self._injector.state(),
                },
            )

        completed = True
        done = start
        for t in range(start, hi):
            if stop_after is not None and t - start >= stop_after:
                completed = False
                break
            if trial(t):
                errors += 1
            done = t + 1
            if (
                checkpoint_path
                and checkpoint_every
                and done % checkpoint_every == 0
            ):
                save(done)
        if checkpoint_path:
            save(done)
        return MonteCarloResult(hi - lo, errors, self.fault_rate, completed)

    # ------------------------------------------------------------------

    def run_additions(
        self,
        trials: int,
        n_bits: int = 8,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        stop_after: Optional[int] = None,
    ) -> MonteCarloResult:
        """8-bit multi-operand additions with data-dependent operands."""
        k = 2 if self.trd == 3 else 5

        def trial(t: int) -> bool:
            words = [((t + 1) * 31 + i * 57) % (1 << n_bits) for i in range(k)]
            adder = MultiOperandAdder(self._dbc())
            got = adder.add_words(words, n_bits, result_bits=n_bits).value
            return got != sum(words) % (1 << n_bits)

        return self._run_trials(
            "additions", trials, trial,
            checkpoint_path, checkpoint_every, stop_after,
        )

    def run_multiplies(
        self,
        trials: int,
        n_bits: int = 8,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        stop_after: Optional[int] = None,
    ) -> MonteCarloResult:
        """8-bit optimized multiplications."""
        mask = (1 << (2 * n_bits)) - 1

        def trial(t: int) -> bool:
            a = ((t + 3) * 37) % (1 << n_bits)
            b = ((t + 7) * 53) % (1 << n_bits)
            mult = Multiplier(self._dbc())
            return mult.multiply(a, b, n_bits).value != (a * b) & mask

        return self._run_trials(
            "multiplies", trials, trial,
            checkpoint_path, checkpoint_every, stop_after,
        )

    def run_tmr_additions(
        self,
        trials: int,
        n_bits: int = 8,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        stop_after: Optional[int] = None,
    ) -> MonteCarloResult:
        """TMR-protected additions: replicate, vote, compare."""
        k = 2 if self.trd == 3 else 5
        voter = ModularRedundancy(
            DomainBlockCluster(
                tracks=self.tracks,
                domains=32,
                params=DeviceParameters(trd=self.trd),
            )
        )

        def trial(t: int) -> bool:
            words = [((t + 1) * 29 + i * 43) % (1 << n_bits) for i in range(k)]
            want = sum(words) % (1 << n_bits)
            replicas = []
            for _ in range(3):
                adder = MultiOperandAdder(self._dbc())
                value = adder.add_words(
                    words, n_bits, result_bits=n_bits
                ).value
                replicas.append(
                    bits_from_int(value, n_bits)
                    + [0] * (self.tracks - n_bits)
                )
            voted = bits_to_int(voter.vote(replicas).bits[:n_bits])
            return voted != want

        return self._run_trials(
            "tmr_additions", trials, trial,
            checkpoint_path, checkpoint_every, stop_after,
        )
