"""Background alignment scrubbing across the whole memory.

The executor's detection is *reactive*: a misaligned DBC is only found
when a PIM transaction touches it. PIRM-style racetrack systems instead
run alignment-fault repair continuously in the background, so storage
clusters that regular reads and writes shift around get repaired before
an application read ever lands on a wrong row.

:class:`ScrubEngine` subscribes to the memory controller's operation
hooks and, every ``interval`` memory operations, walks every
materialised DBC running the guard-row position check — realigning (or
only reporting, with ``repair=False``) whatever it finds. Its stats
count *proactively* caught faults; the executor's
``misalignments_repaired`` counts the *reactively* caught ones, so a
campaign report can attribute every repair to one of the two layers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.arch.memory import MainMemory
from repro.resilience.health import DBCHealthRegistry, DBCKey


@dataclass
class ScrubStats:
    """What the background scrubber has seen and done.

    Attributes:
        passes: full walks over the materialised DBCs.
        dbcs_checked: position checks performed (one per DBC per pass).
        misaligned_dbcs: checks that found at least one track off.
        proactive_catches: misaligned tracks found by scrubbing — faults
            caught before any transaction (reactive path) saw them.
        repaired_tracks: tracks realigned by the scrubber.
        scrub_cycles: DBC cycles the checks and repairs consumed.
    """

    passes: int = 0
    dbcs_checked: int = 0
    misaligned_dbcs: int = 0
    proactive_catches: int = 0
    repaired_tracks: int = 0
    scrub_cycles: int = 0

    def copy(self) -> "ScrubStats":
        return replace(self)

    def as_dict(self) -> Dict[str, int]:
        return {
            "passes": self.passes,
            "dbcs_checked": self.dbcs_checked,
            "misaligned_dbcs": self.misaligned_dbcs,
            "proactive_catches": self.proactive_catches,
            "repaired_tracks": self.repaired_tracks,
            "scrub_cycles": self.scrub_cycles,
        }


class ScrubEngine:
    """Walks all materialised DBCs every ``interval`` memory operations.

    Args:
        memory: the main memory whose clusters are scrubbed.
        interval: memory operations between scrub passes (>= 1).
        registry: optional health registry; proactively repaired faults
            are recorded as transients (they never degrade a DBC).
        repair: realign what the check finds (``False`` = report only,
            for external-repair studies).
    """

    def __init__(
        self,
        memory: MainMemory,
        interval: int = 128,
        registry: Optional[DBCHealthRegistry] = None,
        repair: bool = True,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.memory = memory
        self.interval = interval
        self.registry = registry
        self.repair = repair
        self.stats = ScrubStats()
        # Optional TelemetryHub; when set, each pass runs inside a
        # ``scrub.pass`` span and feeds the scrub.* counters.
        self.telemetry = None
        self._since = 0

    def attach_telemetry(self, hub) -> None:
        """Trace/measure every scrub pass through ``hub`` from now on."""
        self.telemetry = hub

    # ------------------------------------------------------------------

    def on_ops(self, count: int = 1) -> None:
        """Controller hook: advance the op clock, scrub when it's time."""
        self._since += count
        if self._since >= self.interval:
            self._since = 0
            self.run_pass()

    def run_pass(self) -> List[Tuple[DBCKey, List[int]]]:
        """One full scrub walk; returns ``[(key, misaligned_tracks)]``.

        Only DBCs that were actually misaligned appear in the report.
        The position check's TR cost and any realignment shifts land in
        each DBC's own stats (the memory pays for its scrubbing) and are
        mirrored into :attr:`stats` for attribution.
        """
        hub = self.telemetry
        if hub is None:
            return self._run_pass_inner()
        checked = self.stats.dbcs_checked
        misaligned = self.stats.misaligned_dbcs
        repaired = self.stats.repaired_tracks
        cycles = self.stats.scrub_cycles
        with hub.tracer.span("scrub.pass", category="scrub") as span:
            found = self._run_pass_inner()
            d_checked = self.stats.dbcs_checked - checked
            d_misaligned = self.stats.misaligned_dbcs - misaligned
            d_repaired = self.stats.repaired_tracks - repaired
            d_cycles = self.stats.scrub_cycles - cycles
            span.annotate(
                dbcs_checked=d_checked,
                misaligned=d_misaligned,
                repaired=d_repaired,
                cycles=d_cycles,
            )
            hub.emit(
                "scrub.pass", dbcs_checked=d_checked, misaligned=d_misaligned,
                repaired=d_repaired, cycles=d_cycles,
            )
        return found

    def _run_pass_inner(self) -> List[Tuple[DBCKey, List[int]]]:
        found: List[Tuple[DBCKey, List[int]]] = []
        self.stats.passes += 1
        for key, dbc in self.memory.iter_materialized_dbcs():
            before = dbc.stats.cycles
            misaligned = dbc.position_error_check()
            self.stats.dbcs_checked += 1
            if misaligned:
                found.append((key, misaligned))
                self.stats.misaligned_dbcs += 1
                self.stats.proactive_catches += len(misaligned)
                if self.repair:
                    dbc.realign()
                    self.stats.repaired_tracks += len(misaligned)
                if self.registry is not None:
                    self.registry.record_transient(key)
            self.stats.scrub_cycles += dbc.stats.cycles - before
        return found

    # ------------------------------------------------------------------
    # checkpoint support

    def state(self) -> Dict[str, object]:
        """Serializable scrub state (op clock + counters)."""
        return {"since": self._since, "stats": self.stats.as_dict()}

    def restore_state(self, state: Dict[str, object]) -> None:
        self._since = int(state["since"])
        self.stats = ScrubStats(**state["stats"])


__all__ = ["ScrubEngine", "ScrubStats"]
