"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloDefinition` states an objective over the answers the
service gives:

* ``availability`` — fraction of answers whose status is in
  :data:`GOOD_STATUSES` (``ok`` or ``degraded``);
* ``latency`` — fraction of answers given within ``threshold_s``.

:meth:`SloEngine.record` is the one place that rule is applied. The
gateway records every answer it gives, refused or completed; loadbench
records each sample of its run and embeds the resulting counts in its
document; ``repro slo`` adds those embedded counts back up.

Health is judged the SRE way, by **burn rate**: the bad-request rate
over a window divided by the error budget (``1 - objective``). Burn
rate 1.0 spends the budget exactly at the sustainable pace; the engine
alerts only when *both* a fast window (5-minute equivalent, catches
cliffs) and a slow window (1-hour equivalent, filters blips) burn past
the threshold — the classic multi-window rule, with 14.4 (the fast-page
threshold) as the default.

Time here is **virtual**: loadbench advances a request clock
(:data:`VIRTUAL_SECONDS_PER_REQUEST` per completed request) so window
arithmetic is deterministic and CI-friendly; the gateway snapshots its
engine at wall-clock seconds, once per scrape. Either way the windows
are judged over ``observe(t)`` snapshots of the running counts.

Surfaces: ``repro slo`` (md/json report, exit 3 while burning), the
``slo`` block in ``/readyz``, the ``slo.<name>.*`` gauges published
into the metrics registry (JSON ``/metrics`` and the OpenMetrics
``coruscant_slo_burn_rate`` / ``coruscant_slo_compliance`` families),
and the ``loadbench --slo`` gate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

SLO_SCHEMA = "coruscant-slo/1"

KIND_AVAILABILITY = "availability"
KIND_LATENCY = "latency"

#: Window lengths in virtual seconds: the 5m/1h multi-window pair.
FAST_WINDOW_S = 300.0
SLOW_WINDOW_S = 3600.0

#: Default burn-rate alert threshold (the SRE fast-page value: burning
#: the whole monthly budget in ~2 days).
BURN_ALERT_THRESHOLD = 14.4

#: How far the virtual request clock advances per completed loadbench
#: request — 50 requests span one fast window exactly.
VIRTUAL_SECONDS_PER_REQUEST = 6.0

STATUS_OK = "ok"
STATUS_BURNING = "burning"
STATUS_NO_DATA = "no_data"

#: Request statuses that count as "good" for availability.
GOOD_STATUSES = ("ok", "degraded")


@dataclass(frozen=True)
class SloDefinition:
    """One declarative objective over the service metrics."""

    name: str
    kind: str
    objective: float
    threshold_s: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_AVAILABILITY, KIND_LATENCY):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.kind == KIND_LATENCY and (
            self.threshold_s is None or self.threshold_s <= 0
        ):
            raise ValueError(
                "latency SLOs need a positive threshold_s"
            )

    @property
    def budget(self) -> float:
        """The error budget: the tolerable bad-request fraction."""
        return 1.0 - self.objective

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
        }
        if self.threshold_s is not None:
            out["threshold_s"] = self.threshold_s
        if self.description:
            out["description"] = self.description
        return out


DEFAULT_SLOS: Tuple[SloDefinition, ...] = (
    SloDefinition(
        name="availability",
        kind=KIND_AVAILABILITY,
        objective=0.99,
        description="99% of requests end ok or degraded",
    ),
    SloDefinition(
        name="latency",
        kind=KIND_LATENCY,
        objective=0.99,
        threshold_s=0.5,
        description="99% of requests complete within 500 ms",
    ),
)


# ----------------------------------------------------------------------
# the burn-rate engine


@dataclass(frozen=True)
class _Point:
    t: float
    good: float
    total: float


class SloEngine:
    """Running (good, total) counts per SLO, and their burn rates.

    :meth:`record` counts one answer against every SLO and :meth:`add`
    adds a history entry's increments; :meth:`observe` snapshots the
    running counts at a time, and :meth:`evaluate` reports on those
    snapshots. The baseline for a window is the most recent snapshot at
    or before the window start (the implicit zero origin when none is
    old enough), so burn rates are well-defined from the very first
    snapshot. One lock covers all of it: the gateway records on its
    event loop while a caller's thread may evaluate.
    """

    def __init__(
        self,
        slos: Sequence[SloDefinition] = DEFAULT_SLOS,
        burn_threshold: float = BURN_ALERT_THRESHOLD,
    ) -> None:
        if burn_threshold <= 0:
            raise ValueError("burn_threshold must be > 0")
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.slos: Tuple[SloDefinition, ...] = tuple(slos)
        self.burn_threshold = burn_threshold
        self._lock = threading.RLock()
        self._counts: Dict[str, List[float]] = {
            slo.name: [0, 0] for slo in self.slos
        }
        self._points: Dict[str, List[_Point]] = {
            slo.name: [] for slo in self.slos
        }

    def record(self, status: str, seconds: float) -> None:
        """Count one answer: good for availability when its status is in
        :data:`GOOD_STATUSES`, good for latency within ``threshold_s``."""
        with self._lock:
            for slo in self.slos:
                if slo.kind == KIND_AVAILABILITY:
                    good = status in GOOD_STATUSES
                else:
                    good = seconds <= slo.threshold_s
                counts = self._counts[slo.name]
                counts[0] += good
                counts[1] += 1

    def add(self, counts: Any) -> None:
        """Add one loadbench document's ``{slo: [good, total]}`` counts."""
        if not isinstance(counts, dict):
            raise ValueError("carries no slo.counts")
        for slo in self.slos:
            pair = counts.get(slo.name)
            if not (
                isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(
                    type(value) in (int, float) and 0 <= value < math.inf
                    for value in pair
                )
            ):
                raise ValueError(
                    f"has no [good, total] slo.counts pair for {slo.name!r}"
                )
        with self._lock:
            for slo in self.slos:
                good, total = counts[slo.name]
                running = self._counts[slo.name]
                running[0] += good
                running[1] += total

    def counts(self) -> Dict[str, List[float]]:
        """The running ``[good, total]`` per SLO."""
        with self._lock:
            return {name: list(pair) for name, pair in self._counts.items()}

    def observe(self, t: float) -> None:
        """Snapshot the running counts at time t."""
        with self._lock:
            for slo in self.slos:
                points = self._points[slo.name]
                if points and t < points[-1].t:
                    raise ValueError(
                        f"time went backwards for {slo.name!r}: "
                        f"{t} < {points[-1].t}"
                    )
                good, total = self._counts[slo.name]
                points.append(_Point(t, float(good), float(total)))
                # Retain one point older than the slow window as the
                # boundary baseline; drop everything before it.
                horizon = t - SLOW_WINDOW_S
                keep = 0
                for index, point in enumerate(points):
                    if point.t < horizon:
                        keep = index
                if keep:
                    del points[:keep]

    def burn_rate(
        self, slo: SloDefinition, window_s: float,
        now: Optional[float] = None,
    ) -> float:
        """Bad-request rate over the trailing window / error budget."""
        with self._lock:
            points = self._points[slo.name]
            if not points:
                return 0.0
            last = points[-1]
            at = last.t if now is None else now
            boundary = at - window_s
            baseline = _Point(min(0.0, boundary), 0.0, 0.0)
            for point in points:
                if point.t <= boundary:
                    baseline = point
                else:
                    break
        delta_total = last.total - baseline.total
        if delta_total <= 0:
            return 0.0
        delta_bad = (last.total - last.good) - (
            baseline.total - baseline.good
        )
        bad_rate = max(0.0, delta_bad) / delta_total
        return bad_rate / slo.budget

    def compliance(self, slo: SloDefinition) -> Optional[float]:
        """Lifetime good fraction at the last snapshot, or None before
        any data."""
        with self._lock:
            points = self._points[slo.name]
            if not points or points[-1].total <= 0:
                return None
            return points[-1].good / points[-1].total

    def evaluate(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The full report: per-SLO burn rates, compliance, status."""
        results: List[Dict[str, Any]] = []
        burning = False
        with self._lock:
            for slo in self.slos:
                fast = self.burn_rate(slo, FAST_WINDOW_S, now)
                slow = self.burn_rate(slo, SLOW_WINDOW_S, now)
                compliance = self.compliance(slo)
                if compliance is None:
                    status = STATUS_NO_DATA
                elif (
                    fast >= self.burn_threshold
                    and slow >= self.burn_threshold
                ):
                    status = STATUS_BURNING
                    burning = True
                else:
                    status = STATUS_OK
                entry = slo.as_dict()
                entry.update(
                    burn_rate_fast=round(fast, 6),
                    burn_rate_slow=round(slow, 6),
                    compliance=(
                        round(compliance, 6)
                        if compliance is not None
                        else None
                    ),
                    status=status,
                )
                results.append(entry)
        return {
            "schema": SLO_SCHEMA,
            "burn_threshold": self.burn_threshold,
            "fast_window_s": FAST_WINDOW_S,
            "slow_window_s": SLOW_WINDOW_S,
            "burning": burning,
            "slos": results,
        }


def publish_gauges(metrics, report: Dict[str, Any]) -> None:
    """Mirror a report into ``slo.*`` gauges for /metrics exposition."""
    for entry in report["slos"]:
        name = entry["name"]
        metrics.gauge(f"slo.{name}.burn_rate.fast").set(
            entry["burn_rate_fast"]
        )
        metrics.gauge(f"slo.{name}.burn_rate.slow").set(
            entry["burn_rate_slow"]
        )
        metrics.gauge(f"slo.{name}.objective").set(entry["objective"])
        compliance = entry["compliance"]
        metrics.gauge(f"slo.{name}.compliance").set(
            compliance if compliance is not None else 1.0
        )


# ----------------------------------------------------------------------
# loadbench-history evaluation (the `repro slo` data source)


def evaluate_history(
    documents: Sequence[Dict[str, Any]],
    slos: Sequence[SloDefinition] = DEFAULT_SLOS,
    burn_threshold: float = BURN_ALERT_THRESHOLD,
    virtual_step_s: float = VIRTUAL_SECONDS_PER_REQUEST,
) -> Dict[str, Any]:
    """Replay loadbench documents through the engine on a virtual clock.

    Each document advances the clock by ``requests_completed`` x
    ``virtual_step_s`` and adds its embedded ``slo.counts``, so the
    most recent entries dominate the fast window and the whole recent
    history shapes the slow one. Raises :class:`ValueError` naming the
    1-based entry whose document carries no counts, or no count of
    completed requests.
    """
    engine = SloEngine(slos=slos, burn_threshold=burn_threshold)
    clock = 0.0
    for number, doc in enumerate(documents, start=1):
        slo = doc.get("slo")
        completed = doc.get("requests_completed", 0)
        try:
            if not (type(completed) in (int, float)
                    and 0 <= completed < math.inf):
                raise ValueError(f"has requests_completed {completed!r}")
            engine.add(slo.get("counts") if isinstance(slo, dict) else None)
        except ValueError as exc:
            raise ValueError(f"entry {number} {exc}") from None
        clock += float(completed) * virtual_step_s
        engine.observe(clock)
    report = engine.evaluate()
    report["entries"] = len(documents)
    report["virtual_seconds"] = clock
    return report


# ----------------------------------------------------------------------
# renderers


def render_slo_markdown(report: Dict[str, Any]) -> str:
    """The report as a Markdown table plus a verdict line."""
    lines = [
        "# SLO report",
        "",
        f"- burn threshold: {report['burn_threshold']}",
        f"- windows: fast {report['fast_window_s']:.0f}s / "
        f"slow {report['slow_window_s']:.0f}s (virtual)",
    ]
    if "entries" in report:
        lines.append(
            f"- history: {report['entries']} entries, "
            f"{report['virtual_seconds']:.0f} virtual seconds"
        )
    lines += [
        "",
        "| SLO | kind | objective | compliance | burn (fast) | "
        "burn (slow) | status |",
        "|---|---|---|---|---|---|---|",
    ]
    for entry in report["slos"]:
        compliance = entry["compliance"]
        lines.append(
            "| {name} | {kind} | {objective:.4f} | {compliance} | "
            "{fast:.3f} | {slow:.3f} | {status} |".format(
                name=entry["name"],
                kind=entry["kind"],
                objective=entry["objective"],
                compliance=(
                    f"{compliance:.4f}"
                    if compliance is not None
                    else "n/a"
                ),
                fast=entry["burn_rate_fast"],
                slow=entry["burn_rate_slow"],
                status=entry["status"],
            )
        )
    lines.append("")
    lines.append(
        "**BURNING** — error budget is being spent too fast."
        if report["burning"]
        else "All objectives healthy."
    )
    return "\n".join(lines) + "\n"


def slo_exit_code(report: Dict[str, Any]) -> int:
    """0 when healthy, 3 (degraded) while any SLO is burning."""
    from repro.exitcodes import EXIT_DEGRADED, EXIT_OK

    return EXIT_DEGRADED if report["burning"] else EXIT_OK


__all__ = [
    "BURN_ALERT_THRESHOLD",
    "DEFAULT_SLOS",
    "FAST_WINDOW_S",
    "GOOD_STATUSES",
    "KIND_AVAILABILITY",
    "KIND_LATENCY",
    "SLOW_WINDOW_S",
    "SLO_SCHEMA",
    "STATUS_BURNING",
    "STATUS_NO_DATA",
    "STATUS_OK",
    "SloDefinition",
    "SloEngine",
    "VIRTUAL_SECONDS_PER_REQUEST",
    "evaluate_history",
    "publish_gauges",
    "render_slo_markdown",
    "slo_exit_code",
]
