"""Adaptive protection ladder: a circuit breaker whose open state is NMR.

The paper's answer to persistent error pressure is N-modular-redundancy
voting through the majority (C') circuit; its answer to the common case
is the cheap bare pipeline. This module arbitrates between them at run
time: a sliding-window error-rate tracker per DBC escalates protection

    BARE  ->  VOTED (TR re-read voting)  ->  NMR (redundant execution)

when the observed per-operation fault rate crosses a threshold, and
de-escalates through a half-open probe after a cool-down of clean
operations — classic circuit-breaker mechanics, except the "open" state
buys correctness with redundancy instead of refusing service.

The window/probe mechanics themselves live in
:mod:`repro.resilience.window` and are shared with the kernel gateway's
request-level breaker (:mod:`repro.service.breaker`); this module keeps
only what is ladder-specific — the BARE/VOTED/NMR rungs and the
clean-operation cool-down.

The executor consults :meth:`AdaptiveProtection.level` before each
operation (choosing vote reads and whether to run proactively redundant)
and feeds the outcome back through :meth:`record`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.resilience.health import DBCKey
from repro.resilience.window import (
    ErrorWindow,
    ProbeGate,
    ProbeVerdict,
    WindowPolicy,
)


class ProtectionLevel(enum.IntEnum):
    """Rungs of the adaptive protection ladder, cheapest first."""

    BARE = 0
    VOTED = 1
    NMR = 2


@dataclass(frozen=True)
class BreakerConfig:
    """Escalation/de-escalation thresholds of the protection ladder.

    Attributes:
        window: sliding window of per-op fault outcomes per DBC.
        min_samples: outcomes required before the rate is trusted.
        escalate_threshold: windowed fault rate that climbs one rung.
        cooldown: consecutive clean ops at an elevated rung before a
            half-open probe of the rung below is attempted.
        probe_ops: clean probe ops required to commit a de-escalation;
            one faulty probe op snaps back to the elevated rung.
        initial: rung new DBCs start at.
    """

    window: int = 32
    min_samples: int = 8
    escalate_threshold: float = 0.5
    cooldown: int = 16
    probe_ops: int = 4
    initial: ProtectionLevel = ProtectionLevel.VOTED

    def __post_init__(self) -> None:
        self.window_policy()  # validates window/min_samples/threshold/probe
        if self.cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {self.cooldown}")

    def window_policy(self) -> WindowPolicy:
        """The generic window/probe mechanics this ladder runs on."""
        return WindowPolicy(
            window=self.window,
            min_samples=self.min_samples,
            trip_threshold=self.escalate_threshold,
            probe_ops=self.probe_ops,
        )


class BreakerState:
    """Per-DBC ladder position over the shared window/probe core.

    The historical field names (``window``, ``probing``,
    ``probe_remaining``, ``probes``, ``probe_failures``) are preserved
    as views onto the :class:`ErrorWindow` / :class:`ProbeGate` pair so
    checkpoints and callers see the same shape as before the
    extraction.
    """

    __slots__ = (
        "level",
        "errors",
        "gate",
        "clean_streak",
        "escalations",
        "deescalations",
    )

    def __init__(
        self,
        level: ProtectionLevel,
        errors: ErrorWindow,
        clean_streak: int = 0,
        escalations: int = 0,
        deescalations: int = 0,
    ) -> None:
        self.level = level
        self.errors = errors
        self.gate = ProbeGate()
        self.clean_streak = clean_streak
        self.escalations = escalations
        self.deescalations = deescalations

    @property
    def window(self) -> Deque[int]:
        return self.errors.outcomes

    @property
    def probing(self) -> bool:
        return self.gate.active

    @property
    def probe_remaining(self) -> int:
        return self.gate.remaining

    @property
    def probes(self) -> int:
        return self.gate.probes

    @property
    def probe_failures(self) -> int:
        return self.gate.failures

    @property
    def effective_level(self) -> ProtectionLevel:
        """The rung ops actually run at (one below while probing)."""
        if self.probing:
            return ProtectionLevel(self.level - 1)
        return self.level


class AdaptiveProtection:
    """Sliding-window escalation ladder over all DBCs.

    The transition log (:attr:`transitions`) records every committed
    level change as ``(op_index, key, from_level, to_level)`` so a
    campaign report can show the escalation/de-escalation cycles.
    """

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self._policy = self.config.window_policy()
        self._states: Dict[DBCKey, BreakerState] = {}
        self.transitions: List[Tuple[int, DBCKey, str, str]] = []
        self._ops = 0
        # Optional TelemetryHub; when set, committed level changes emit
        # a ``breaker.transition`` instant and count transitions.
        self.telemetry = None

    def attach_telemetry(self, hub) -> None:
        """Publish level transitions into ``hub`` from now on."""
        self.telemetry = hub

    # ------------------------------------------------------------------

    def state(self, key: DBCKey) -> BreakerState:
        key = tuple(key)
        existing = self._states.get(key)
        if existing is None:
            existing = BreakerState(
                level=self.config.initial,
                errors=ErrorWindow(self._policy),
            )
            self._states[key] = existing
        return existing

    def level(self, key: DBCKey) -> ProtectionLevel:
        """The protection rung the next op on ``key`` must run at."""
        return self.state(key).effective_level

    def record(self, key: DBCKey, faulty: bool) -> Optional[ProtectionLevel]:
        """Feed one op outcome back; returns the new level on a change.

        ``faulty`` means the op saw any detected fault: a vote
        disagreement, a misaligned track, a rolled-back attempt, or NMR
        replica divergence.
        """
        self._ops += 1
        state = self.state(key)
        cfg = self.config
        if state.gate.active:
            return self._record_probe(key, state, faulty)
        state.errors.record(faulty)
        state.clean_streak = 0 if faulty else state.clean_streak + 1
        if state.level < ProtectionLevel.NMR and state.errors.tripped():
            return self._move(key, state, ProtectionLevel(state.level + 1))
        if (
            state.level > ProtectionLevel.BARE
            and state.clean_streak >= cfg.cooldown
        ):
            # Half-open: trial the rung below for the next probe_ops.
            state.gate.start(cfg.probe_ops)
        return None

    def _record_probe(
        self, key: DBCKey, state: BreakerState, faulty: bool
    ) -> Optional[ProtectionLevel]:
        verdict = state.gate.record(faulty)
        if verdict is ProbeVerdict.SNAP_BACK:
            # The rung below can't hold the line yet: snap back.
            state.clean_streak = 0
            state.errors.clear()
            return None
        if verdict is ProbeVerdict.COMMIT:
            return self._move(key, state, ProtectionLevel(state.level - 1))
        return None

    def _move(
        self, key: DBCKey, state: BreakerState, to: ProtectionLevel
    ) -> ProtectionLevel:
        if to > state.level:
            state.escalations += 1
        else:
            state.deescalations += 1
        self.transitions.append((self._ops, key, state.level.name, to.name))
        hub = self.telemetry
        if hub is not None:
            hub.tracer.instant(
                "breaker.transition",
                category="resilience",
                dbc=str(list(key)),
                src=state.level.name,
                dst=to.name,
            )
            hub.emit(
                "breaker.transition", src=state.level.name, dst=to.name,
                to=to.name.lower(),
            )
        state.level = to
        state.errors.clear()
        state.clean_streak = 0
        return to

    # ------------------------------------------------------------------
    # reporting / checkpoint support

    def summary(self) -> Dict[str, object]:
        """Aggregate counters plus the per-DBC final levels."""
        return {
            "escalations": sum(s.escalations for s in self._states.values()),
            "deescalations": sum(
                s.deescalations for s in self._states.values()
            ),
            "probes": sum(s.probes for s in self._states.values()),
            "probe_failures": sum(
                s.probe_failures for s in self._states.values()
            ),
            "levels": {
                str(list(k)): s.level.name for k, s in self._states.items()
            },
            "transitions": [
                [op, str(list(k)), src, dst]
                for op, k, src, dst in self.transitions
            ],
        }

    def serialize(self) -> Dict[str, object]:
        return {
            "ops": self._ops,
            "states": [
                {
                    "key": list(key),
                    "level": state.level.name,
                    "window": list(state.window),
                    "clean_streak": state.clean_streak,
                    "probing": state.probing,
                    "probe_remaining": state.probe_remaining,
                    "escalations": state.escalations,
                    "deescalations": state.deescalations,
                    "probes": state.probes,
                    "probe_failures": state.probe_failures,
                }
                for key, state in self._states.items()
            ],
            "transitions": [
                [op, list(key), src, dst]
                for op, key, src, dst in self.transitions
            ],
        }

    def restore(self, data: Dict[str, object]) -> None:
        self._ops = int(data["ops"])
        self._states = {}
        for entry in data["states"]:
            state = self._restore_state(entry)
            self._states[tuple(entry["key"])] = state
        self.transitions = [
            (op, tuple(key), src, dst)
            for op, key, src, dst in data["transitions"]
        ]

    def _restore_state(self, entry: Dict[str, object]) -> BreakerState:
        state = BreakerState(
            level=ProtectionLevel[entry["level"]],
            errors=ErrorWindow(self._policy, entry["window"]),
            clean_streak=int(entry["clean_streak"]),
            escalations=int(entry["escalations"]),
            deescalations=int(entry["deescalations"]),
        )
        state.gate.remaining = (
            int(entry["probe_remaining"]) if bool(entry["probing"]) else 0
        )
        state.gate.probes = int(entry["probes"])
        state.gate.failures = int(entry["probe_failures"])
        return state


__all__ = [
    "AdaptiveProtection",
    "BreakerConfig",
    "BreakerState",
    "ProtectionLevel",
]
