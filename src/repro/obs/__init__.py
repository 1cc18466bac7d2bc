"""Observability layer: reproduction fidelity, bench history, regression.

Built on top of :mod:`repro.telemetry`, this package turns raw spans and
counters into answers:

* :class:`FidelitySuite` — regenerates every paper table/figure through
  the instrumented simulator and scores each measured value against the
  :data:`PAPER_REFERENCES` registry (one record per published number).
* :class:`BenchHistory` — an append-only ``BENCH_history.jsonl``
  trajectory of benchmark runs, one envelope per run.
* :class:`RegressionDetector` — typed improved / unchanged / regressed /
  new verdicts between two bench documents: exact comparison for
  deterministic sim metrics, min/median noise thresholds for wall-clock.
* :func:`render_markdown` / :func:`render_html` / :func:`render_json` —
  the scoreboard (paper-vs-measured deltas + device-phase hotspots +
  bench verdicts) for ``python -m repro report``.

CLI surface: ``python -m repro report [--format md|html|json]`` and
``python -m repro bench --compare <baseline>`` (nonzero exit on
regression — the CI gate).
"""

from repro.obs.bench import (
    BENCH_SCHEMA,
    DeterminismError,
    bench_kernel,
    default_kernels,
    run_benchmarks,
)
from repro.obs.fidelity import (
    FidelityReport,
    FidelitySuite,
    HotspotRow,
    extract_hotspots,
)
from repro.obs.history import BenchHistory, HISTORY_SCHEMA, load_baseline
from repro.obs.loadgen import (
    LOADBENCH_SCHEMA,
    LOAD_PROFILES,
    ScheduledRequest,
    build_schedule,
    run_loadbench,
)
from repro.obs.registry import (
    FIDELITY_SCHEMA,
    FidelityRecord,
    PAPER_REFERENCES,
    PaperRef,
    REFERENCES_BY_NAME,
    SECTION_TITLES,
    record_for,
)
from repro.obs.regression import (
    Comparison,
    RegressionDetector,
    RegressionReport,
    Verdict,
)
from repro.obs.render import (
    FORMATS,
    RENDERERS,
    render_html,
    render_json,
    render_markdown,
)
from repro.obs.slo import (
    BURN_ALERT_THRESHOLD,
    DEFAULT_SLOS,
    SLO_SCHEMA,
    SloDefinition,
    SloEngine,
    evaluate_history,
    publish_gauges,
    render_slo_markdown,
    slo_exit_code,
)

__all__ = [
    "BENCH_SCHEMA",
    "BURN_ALERT_THRESHOLD",
    "BenchHistory",
    "Comparison",
    "DEFAULT_SLOS",
    "DeterminismError",
    "FIDELITY_SCHEMA",
    "FORMATS",
    "FidelityRecord",
    "FidelityReport",
    "FidelitySuite",
    "HISTORY_SCHEMA",
    "HotspotRow",
    "LOADBENCH_SCHEMA",
    "LOAD_PROFILES",
    "PAPER_REFERENCES",
    "PaperRef",
    "REFERENCES_BY_NAME",
    "RENDERERS",
    "RegressionDetector",
    "RegressionReport",
    "SECTION_TITLES",
    "SLO_SCHEMA",
    "ScheduledRequest",
    "SloDefinition",
    "SloEngine",
    "Verdict",
    "bench_kernel",
    "build_schedule",
    "default_kernels",
    "evaluate_history",
    "extract_hotspots",
    "load_baseline",
    "publish_gauges",
    "record_for",
    "render_html",
    "render_json",
    "render_markdown",
    "render_slo_markdown",
    "run_benchmarks",
    "run_loadbench",
    "slo_exit_code",
]
