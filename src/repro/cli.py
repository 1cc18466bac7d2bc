"""Command-line interface: ``python -m repro <command> [flags]``.

Commands regenerate the paper's tables and figures (``table1`` ...
``fig12``, ``all``, ``report``), run one-off PIM operations (``add``,
``mult``, ``trace``), fault campaigns (``campaign``, ``mc``, ``chaos``),
the kernel gateway (``serve``) and the benches (``bench``,
``loadbench``, ``slo``), or wrap any of them in the sampling profiler
(``profile``). Each command is a subparser that declares only the flags
its handler reads; ``python -m repro <command> --help`` lists them.

Exit codes follow the stack-wide contract in :mod:`repro.exitcodes`:
0 ok, 1 error, 2 usage, 3 degraded-but-usable.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from typing import Any, Dict, List, Optional

from repro.exitcodes import EXIT_DEGRADED, EXIT_ERROR, EXIT_OK


class OutputWriter:
    """Routes command output to text (stdout) or one JSON document.

    Text mode prints the familiar ``== title ==`` tables immediately;
    JSON mode accumulates every section into a single payload that
    :meth:`close` dumps to the stream. All ``_run_*`` helpers write
    through this so ``--json`` works uniformly across subcommands.
    """

    def __init__(self, json_mode: bool = False, stream=None) -> None:
        self.json_mode = json_mode
        self.stream = stream if stream is not None else sys.stdout
        self.payload: Dict[str, Any] = {}

    def section(self, title: str, data: Dict[str, Any]) -> None:
        """One titled key/value table."""
        if self.json_mode:
            self.payload[title] = data
            return
        print(f"\n== {title} ==", file=self.stream)
        for key, value in data.items():
            if isinstance(value, dict):
                print(f"  {key}:", file=self.stream)
                for k2, v2 in value.items():
                    print(f"    {k2}: {v2}", file=self.stream)
            else:
                print(f"  {key}: {value}", file=self.stream)

    def rows(
        self,
        title: str,
        records: List[Dict[str, Any]],
        lines: List[str],
    ) -> None:
        """One titled list: preformatted lines (text) or records (JSON)."""
        if self.json_mode:
            self.payload[title] = records
            return
        print(f"\n== {title} ==", file=self.stream)
        for line in lines:
            print(line, file=self.stream)

    def text(self, title: str, body: str) -> None:
        """Free-form text block (the report); stored verbatim in JSON."""
        if self.json_mode:
            self.payload[title] = body
            return
        print(body, file=self.stream)

    def line(self, text: str, **record: Any) -> None:
        """One standalone result line (the add/mult one-off commands)."""
        if self.json_mode:
            self.payload.update(record)
            return
        print(text, file=self.stream)

    def meta(self, **record: Any) -> None:
        """Top-level JSON payload fields (schema ids etc.); silent in text."""
        if self.json_mode:
            self.payload.update(record)

    def close(self, exit_status: int = 0) -> None:
        """Flush JSON output; the document always records the exit status."""
        if self.json_mode:
            self.payload["exit_status"] = exit_status
            json.dump(self.payload, self.stream, indent=2, sort_keys=False)
            self.stream.write("\n")


def _writes(run):
    """Adapt ``run(writer, args) -> code`` into a command handler.

    The handler owns one :class:`OutputWriter` (``--json`` picks its
    mode) and closes it with the exit code the run returned.
    """

    @functools.wraps(run)
    def handler(args) -> int:
        writer = OutputWriter(json_mode=args.json)
        code = run(writer, args)
        writer.close(code)
        return code

    return handler


def _run_table1(writer: OutputWriter) -> None:
    from repro.sim.experiments import area_table

    writer.section("Table I: area overhead (%)", area_table())


def _run_table3(writer: OutputWriter) -> None:
    from repro.sim.experiments import operation_comparison, operation_speedups

    writer.section("Table III: operations", operation_comparison())
    writer.section(
        "Table III: headline ratios vs SPIM", operation_speedups()
    )


def _run_table4(writer: OutputWriter) -> None:
    from repro.sim.experiments import cnn_experiment

    writer.section("Table IV: CNN inference (FPS)", cnn_experiment())


def _run_table5(writer: OutputWriter) -> None:
    from repro.sim.experiments import reliability_table

    writer.section("Table V: reliability", reliability_table())


def _run_table6(writer: OutputWriter) -> None:
    from repro.sim.experiments import cnn_nmr_experiment

    writer.section("Table VI: CNN with NMR (FPS)", cnn_nmr_experiment())


def _run_fig10(writer: OutputWriter) -> None:
    from repro.sim.experiments import polybench_experiment, polybench_summary

    results = polybench_experiment()
    writer.rows(
        "Fig. 10: Polybench normalized latency",
        [
            {
                "name": r.name,
                "latency_dram_cpu": r.latency_dram_cpu,
                "latency_dwm": 1.0,
                "latency_pim": r.latency_pim,
                "speedup_vs_dwm": r.speedup_vs_dwm,
            }
            for r in results
        ],
        [
            f"  {r.name:10s} DRAM {r.latency_dram_cpu:5.2f}  DWM 1.00  "
            f"PIM {r.latency_pim:5.2f}  (speedup {r.speedup_vs_dwm:.2f}x)"
            for r in results
        ],
    )
    writer.section("summary", polybench_summary(results))


def _run_fig11(writer: OutputWriter) -> None:
    from repro.sim.experiments import polybench_experiment

    results = polybench_experiment()
    writer.rows(
        "Fig. 11: Polybench energy reduction",
        [
            {"name": r.name, "energy_reduction": r.energy_reduction}
            for r in results
        ],
        [f"  {r.name:10s} {r.energy_reduction:6.1f}x" for r in results],
    )


def _run_fig12(writer: OutputWriter) -> None:
    from repro.sim.experiments import bitmap_experiment

    results = bitmap_experiment()
    writer.rows(
        "Fig. 12: bitmap query speedups",
        [
            {
                "weeks": r.weeks,
                "speedup_ambit": r.speedup_ambit,
                "speedup_elp2im": r.speedup_elp2im,
                "speedup_coruscant": r.speedup_coruscant,
            }
            for r in results
        ],
        [
            f"  w={r.weeks}: Ambit {r.speedup_ambit:6.1f}x  "
            f"ELP2IM {r.speedup_elp2im:6.1f}x  "
            f"CORUSCANT {r.speedup_coruscant:6.1f}x"
            for r in results
        ],
    )


def _run_report(writer: OutputWriter) -> None:
    from repro.sim.report import generate_report

    writer.text("report", generate_report())


# ----------------------------------------------------------------------
# observability commands (report scoreboard + bench regression gate)


def _run_report_command(args) -> int:
    """Fidelity scoreboard: paper-vs-measured records + hotspots."""
    from repro.obs import RENDERERS, FidelitySuite

    fmt = args.format or ("json" if args.json else "md")
    suite = FidelitySuite()
    report = suite.run()
    if fmt == "json":
        document = report.as_dict()
        document["exit_status"] = 0
        json.dump(document, sys.stdout, indent=2, sort_keys=False)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(RENDERERS[fmt](report))
    if args.metrics_json:
        _write_json(args.metrics_json, report.metrics)
    return 0


def _gate(
    writer: OutputWriter, args, current: Dict[str, Any], label: str,
    width: int,
) -> int:
    """Compare a bench document with its baseline, then record it.

    The baseline is ``--compare`` (a regression against it exits 1) or,
    without it, the last ``--history`` entry (drift is reported, never
    gated). Unless ``--no-history`` the run is then appended to the
    history; ``--bench-out`` also writes it on its own.
    """
    import time

    from repro.obs import BenchHistory, RegressionDetector, load_baseline

    try:
        if args.compare:
            baseline = load_baseline(args.compare)
            if baseline is None:
                raise SystemExit(
                    f"--compare baseline {args.compare!r} does not exist"
                )
            baseline_source = args.compare
        else:
            baseline = (
                BenchHistory(args.history).last()
                if not args.no_history
                else None
            )
            baseline_source = args.history if baseline is not None else None
    except ValueError as exc:  # a corrupt history line names path:line
        raise SystemExit(str(exc)) from None

    code = EXIT_OK
    if baseline is not None:
        detector = RegressionDetector(wall_tolerance=args.wall_tolerance)
        comparison = detector.compare(current, baseline)
        writer.rows(
            f"{label} comparison",
            [c.as_dict() for c in comparison.comparisons],
            [
                f"  {c.kernel:{width}s} {c.metric:18s} "
                f"{c.verdict.value:9s} {c.note}"
                for c in comparison.comparisons
                if c.verdict.value != "unchanged"
            ]
            or ["  all metrics unchanged"],
        )
        summary = comparison.summary()
        summary["baseline"] = baseline_source
        writer.section(f"{label} verdicts", summary)
        if args.compare and comparison.has_regression:
            code = EXIT_ERROR
            writer.line(
                f"\n{label} regressed vs baseline", regressed=True
            )

    if not args.no_history:
        try:
            BenchHistory(args.history).append(
                current, meta={"recorded_unix": int(time.time())}
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    if args.bench_out:
        _write_json(args.bench_out, current)
    return code


@_writes
def _run_bench(writer: OutputWriter, args) -> int:
    """Run the bench kernels, extend the history, gate on regressions."""
    from repro.obs import run_benchmarks

    current = run_benchmarks(args.repeats)
    writer.rows(
        "bench kernels",
        current["kernels"],
        [
            f"  {k['name']:12s} {k['sim_cycles']:5d} cycles  "
            f"{k['sim_energy_pj']:10.1f} pJ  "
            f"{k['wall_seconds_min'] * 1e3:7.2f} ms"
            for k in current["kernels"]
        ],
    )
    return _gate(writer, args, current, "bench", 12)


@_writes
def _run_loadbench(writer: OutputWriter, args) -> int:
    """Closed-loop service load bench + latency regression gate.

    Shares :func:`_run_bench`'s history/compare contract, but the
    document under test is the ``coruscant-loadbench/1`` service-level
    one: sustained req/s plus p50/p90/p99 request latency, produced by
    a deterministic seeded schedule against the in-process gateway.
    """
    from repro.obs import SloEngine, run_loadbench

    client = None
    event_log = None
    if args.event_log:
        from repro.service.client import ServiceClient
        from repro.service.gateway import Gateway

        telemetry, event_log = _event_logged_hub(args.event_log)
        client = ServiceClient(
            gateway=Gateway(workers=args.concurrency, telemetry=telemetry)
        )
        client.start()
    try:
        current = run_loadbench(
            profile=args.profile,
            requests=args.requests,
            seed=args.seed,
            concurrency=args.concurrency,
            duration=args.duration,
            budget_s=args.default_budget_s,
            client=client,
            slo_engine=SloEngine(burn_threshold=args.slo_burn_threshold),
            slo_step=args.slo_step,
        )
    finally:
        if client is not None:
            client.close()
        if event_log is not None:
            event_log.close()

    writer.meta(schema=current["schema"])
    writer.section(
        "loadbench",
        {
            "profile": current["profile"],
            "seed": current["seed"],
            "concurrency": current["concurrency"],
            "requests_scheduled": current["requests_scheduled"],
            "requests_completed": current["requests_completed"],
            "requests_skipped": current["requests_skipped"],
            "requests_failed": current["requests_failed"],
            "statuses": current["statuses"],
            "elapsed_seconds": round(current["elapsed_seconds"], 3),
            "throughput_rps": round(current["throughput_rps"], 2),
        },
    )
    writer.rows(
        "loadbench latency",
        current["kernels"],
        [
            f"  {k['name']:22s} n={k.get('requests', 0):4d}  "
            f"min {k['wall_seconds_min'] * 1e3:7.2f} ms  "
            f"p50 {k['wall_seconds_median'] * 1e3:7.2f} ms  "
            f"p90 {k.get('wall_seconds_p90', 0.0) * 1e3:7.2f} ms  "
            f"p99 {k.get('wall_seconds_p99', 0.0) * 1e3:7.2f} ms"
            for k in current["kernels"]
        ],
    )
    code = _gate(writer, args, current, "loadbench", 22)
    if current["requests_failed"]:
        writer.line(
            f"\n{current['requests_failed']} request(s) failed "
            "(status not ok/degraded)",
            failed=current["requests_failed"],
        )
        if code == EXIT_OK:
            code = EXIT_DEGRADED

    if args.slo:
        report = current["slo"]["report"]
        writer.rows(
            "slo",
            report["slos"],
            [
                "  {name:14s} compliance {compliance}  "
                "burn fast {fast:.3f} / slow {slow:.3f}  {status}".format(
                    name=entry["name"],
                    compliance=(
                        f"{entry['compliance']:.4f}"
                        if entry["compliance"] is not None
                        else "n/a"
                    ),
                    fast=entry["burn_rate_fast"],
                    slow=entry["burn_rate_slow"],
                    status=entry["status"],
                )
                for entry in report["slos"]
            ],
        )
        violated = report["burning"] or any(
            entry["compliance"] is not None
            and entry["compliance"] < entry["objective"]
            for entry in report["slos"]
        )
        if violated:
            writer.line(
                "\nSLO violated (error budget burning or compliance "
                "below objective)",
                slo_violated=True,
            )
            if code == EXIT_OK:
                code = EXIT_DEGRADED
    return code


_EXPERIMENTS = {
    "report": _run_report,
    "table1": _run_table1,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "table6": _run_table6,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
}


@_writes
def _run_experiment(writer: OutputWriter, args) -> int:
    run = _EXPERIMENTS[args.command]
    if not args.metrics_json:
        run(writer)
        return EXIT_OK
    # Experiment commands build DBCs internally; the process-wide
    # active hub catches their device-level stats.
    from repro.telemetry import TelemetryHub, runtime

    hub = TelemetryHub()
    with runtime.activated(hub):
        run(writer)
    _write_json(args.metrics_json, hub.metrics_dict())
    return EXIT_OK


@_writes
def _run_all(writer: OutputWriter, args) -> int:
    for run in _EXPERIMENTS.values():
        run(writer)
    return EXIT_OK


@_writes
def _run_add(writer: OutputWriter, args) -> int:
    from repro import CoruscantSystem, MemoryGeometry

    values = [args.first, *args.rest]
    system = CoruscantSystem(
        trd=args.trd, geometry=MemoryGeometry(tracks_per_dbc=64)
    )
    n_bits = max(8, max(values).bit_length())
    result = system.add(values, n_bits=n_bits)
    writer.line(
        f"{' + '.join(map(str, values))} = {result.value} "
        f"[{result.cycles} cycles, TRD={args.trd}]",
        operands=values,
        value=result.value,
        cycles=result.cycles,
        trd=args.trd,
    )
    return EXIT_OK


@_writes
def _run_mult(writer: OutputWriter, args) -> int:
    from repro import CoruscantSystem, MemoryGeometry

    a, b, trd = args.a, args.b, args.trd
    system = CoruscantSystem(
        trd=trd, geometry=MemoryGeometry(tracks_per_dbc=64)
    )
    n_bits = max(8, a.bit_length(), b.bit_length())
    result = system.multiply(a, b, n_bits=n_bits)
    writer.line(
        f"{a} * {b} = {result.value} "
        f"[{result.cycles} cycles, TRD={trd}, {result.breakdown}]",
        a=a,
        b=b,
        value=result.value,
        cycles=result.cycles,
        trd=trd,
        breakdown=result.breakdown,
    )
    return EXIT_OK


# The stack-wide exit-code contract lives in repro.exitcodes (0 ok,
# 1 error, 2 usage, 3 degraded). The campaign/mc names below are the
# command-specific readings of codes 1 and 3: EXIT_UNCORRECTABLE flags
# a completed campaign whose recovery ladder still let faults through;
# EXIT_INCOMPLETE_SHARDS flags a sharded run that had to degrade to a
# partial report (some shard exhausted its retries).
EXIT_UNCORRECTABLE = EXIT_ERROR
EXIT_INCOMPLETE_SHARDS = EXIT_DEGRADED


def _campaign_config(args):
    from repro.core.addition import max_addition_operands
    from repro.reliability.campaign import CampaignConfig

    return CampaignConfig(
        ops=args.ops,
        operands=max_addition_operands(args.trd),
        tr_fault_rate=args.fault_rate,
        shift_fault_rate=args.shift_fault_rate,
        trd=args.trd,
        seed=args.seed,
        recovery=args.resilience,
        scrub_interval=args.scrub_interval,
        adaptive=args.adaptive,
        storm_ops=args.storm_ops,
        calm_tr_fault_rate=args.calm_fault_rate,
        calm_shift_fault_rate=args.calm_shift_fault_rate,
        storage_rows=args.storage_rows,
    )


def _run_sharded_campaign(writer: OutputWriter, args, telemetry=None) -> int:
    from repro.reliability.sharded import (
        CAMPAIGN_SCHEMA,
        run_sharded_campaign,
    )

    config = _campaign_config(args)
    result = run_sharded_campaign(
        config,
        shards=args.shards or 1,
        journal_dir=args.journal,
        workers=args.workers,
        shard_timeout=args.shard_timeout,
        max_shard_retries=args.max_shard_retries,
        checkpoint_every=args.checkpoint_every,
        telemetry=telemetry,
        crash=args.inject_worker_crash,
    )
    summaries = result.shard_summaries()
    writer.meta(schema=CAMPAIGN_SCHEMA, config=result.report["config"])
    writer.section("Sharded campaign (merged)", result.report["merged"])
    writer.rows(
        "shards",
        summaries,
        [
            f"  shard {s['shard']}: ops [{s['start']},{s['stop']})  "
            f"injected {s['injected']}  escaped {s['escaped']}  "
            f"retries {s['retries']}  "
            f"attempts {s['supervisor_attempts']}  "
            f"{s['wall_seconds']:.2f}s"
            for s in summaries
        ],
    )
    writer.rows(
        "supervisor attempts",
        [a.as_dict() for a in result.attempts],
        [
            f"  shard {a.shard} attempt {a.attempt}: {a.status} "
            f"({a.wall_seconds:.2f}s)"
            for a in result.attempts
        ],
    )
    exit_code = 0
    if not result.complete:
        _incomplete_shard_rows(writer, result.report)
        writer.line(
            "\ncampaign degraded to a partial report "
            f"(incomplete shards: {result.incomplete_shards})",
            incomplete_shards=result.incomplete_shards,
        )
        exit_code = EXIT_INCOMPLETE_SHARDS
    elif (
        config.recovery
        and result.report["merged"].get("uncorrectable", 0) > 0
    ):
        writer.line(
            "\ncampaign ended with uncorrectable faults",
            uncorrectable_exit=True,
        )
        exit_code = EXIT_UNCORRECTABLE
    if args.journal:
        writer.line(
            f"\nmerged report -> {args.journal}/report.json",
            report_path=f"{args.journal}/report.json",
        )
    return exit_code


def _incomplete_shard_rows(writer: OutputWriter, report) -> None:
    incomplete = report["incomplete_shards"]
    writer.rows(
        "incomplete shards",
        incomplete,
        [f"  shard {e['shard']}: {e['reason']}" for e in incomplete],
    )


def _run_instrumented(writer: OutputWriter, args, run, sharded: bool) -> int:
    """``run(writer, args, telemetry=hub)`` under the telemetry flags.

    The hub exists only when ``--metrics-json`` or ``--event-log`` asks
    for instrumentation. Unsharded runs stamp ``shard_id: 0`` onto every
    event record via the log's common fields; sharded supervisors emit
    shard lifecycle records that already carry their ``shard_id``.
    """
    if not (args.metrics_json or args.event_log):
        return run(writer, args)
    from repro.telemetry import EventLog, JsonlSink, TelemetryHub

    event_log = None
    if args.event_log:
        event_log = EventLog(
            JsonlSink(args.event_log),
            common=None if sharded else {"shard_id": 0},
        )
    hub = TelemetryHub(events=event_log)
    try:
        code = run(writer, args, telemetry=hub)
    finally:
        if event_log is not None:
            event_log.close()
    if args.metrics_json:
        _write_json(args.metrics_json, hub.metrics_dict())
    return code


def _run_mc(writer: OutputWriter, args, telemetry=None) -> int:
    from repro.reliability.sharded import MC_SCHEMA, run_sharded_mc

    result = run_sharded_mc(
        args.kind,
        trials=args.trials,
        shards=args.shards or 1,
        fault_rate=args.fault_rate,
        trd=args.trd,
        seed=args.seed,
        journal_dir=args.journal,
        workers=args.workers,
        shard_timeout=args.shard_timeout,
        max_shard_retries=args.max_shard_retries,
        checkpoint_every=args.checkpoint_every,
        telemetry=telemetry,
    )
    summaries = result.shard_summaries()
    writer.meta(schema=MC_SCHEMA, config=result.report["config"])
    writer.section(
        f"Monte Carlo ({args.kind}, merged)", result.report["merged"]
    )
    writer.rows(
        "shards",
        summaries,
        [
            f"  shard {s['shard']}: trials [{s['start']},{s['stop']})  "
            f"errors {s['errors']}  "
            f"attempts {s['supervisor_attempts']}  "
            f"{s['wall_seconds']:.2f}s"
            for s in summaries
        ],
    )
    if not result.complete:
        _incomplete_shard_rows(writer, result.report)
        return EXIT_INCOMPLETE_SHARDS
    return 0


def _run_campaign(writer: OutputWriter, args, telemetry=None) -> int:
    from repro.reliability.campaign import (
        run_add_campaign,
        run_recovery_comparison,
    )

    config = _campaign_config(args)
    if args.checkpoint:
        # Journaled (and resumable) runs are single-leg: a bare baseline
        # sharing the journal would corrupt the resume stream.
        name = "recovery_on" if config.recovery else "recovery_off"
        runs = {
            name: run_add_campaign(
                config,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                stop_after=args.stop_after,
                telemetry=telemetry,
            )
        }
    elif args.resilience:
        runs = run_recovery_comparison(config, telemetry=telemetry)
    else:
        runs = {
            "recovery_off": run_add_campaign(config, telemetry=telemetry)
        }
    from repro.reliability.sharded import CAMPAIGN_SCHEMA

    writer.meta(schema=CAMPAIGN_SCHEMA)
    exit_code = 0
    for name, result in runs.items():
        writer.section(f"Fault campaign ({name})", result.summary())
        if result.recovery and result.uncorrectable > 0:
            exit_code = EXIT_UNCORRECTABLE
    if exit_code:
        writer.line(
            "\ncampaign ended with uncorrectable faults",
            uncorrectable_exit=True,
        )
    return exit_code


@_writes
def _run_campaign_command(writer: OutputWriter, args) -> int:
    """A fault campaign: single-process, or sharded with ``--shards`` /
    ``--journal``."""
    sharded = args.shards is not None or bool(args.journal)
    if args.adaptive and not args.resilience:
        args.error(
            "--adaptive requires the resilient layer (drop --no-resilience)"
        )
    if sharded and (args.checkpoint or args.stop_after is not None):
        args.error(
            "sharded campaigns journal per shard (--journal DIR); "
            "--checkpoint and --stop-after are for single-process runs"
        )
    if args.inject_worker_crash and (not sharded or args.workers == 0):
        args.error(
            "--inject-worker-crash needs worker processes: a sharded run "
            "(--shards N) with --workers >= 1"
        )
    from repro.resilience.checkpoint import CheckpointError

    run = _run_sharded_campaign if sharded else _run_campaign
    try:
        return _run_instrumented(writer, args, run, sharded)
    except CheckpointError as exc:  # a mismatched or malformed journal
        raise SystemExit(str(exc)) from None


@_writes
def _run_mc_command(writer: OutputWriter, args) -> int:
    return _run_instrumented(writer, args, _run_mc, sharded=True)


# ----------------------------------------------------------------------
# trace command

_TRACE_KERNELS = ("add", "mult", "max", "bulk")


@_writes
def _run_trace(writer: OutputWriter, args) -> int:
    """Trace one kernel end to end and write a Chrome trace file."""
    from repro import CoruscantSystem, MemoryGeometry
    from repro.core.addition import MultiOperandAdder
    from repro.core.isa import Address, CpimInstruction, CpimOp
    from repro.core.pim_logic import BulkOp
    from repro.telemetry import TelemetryHub, write_chrome_trace

    kernel = args.kernel
    hub = TelemetryHub()
    system = CoruscantSystem(
        trd=args.trd,
        geometry=MemoryGeometry(tracks_per_dbc=64),
        resilience=True,
        telemetry=hub,
    )
    if kernel == "mult":
        result = system.multiply(173, 219, n_bits=8)
        outcome = {"value": result.value, "cycles": result.cycles}
    elif kernel == "add":
        # Dispatch through the controller so the trace shows the full
        # resilience.op > cpim.add > add.walk nesting.
        dbc = system.pim_dbc()
        adder = MultiOperandAdder(dbc)
        words = [13, 200, 7, 31, 42][: adder.max_operands]
        adder.stage_words(words, 8, zero_extend_to=16)
        address = Address(bank=0, subarray=0, tile=0, dbc=0, row=0)
        result = system.execute(
            CpimInstruction(
                op=CpimOp.ADD,
                blocksize=16,
                src=address,
                dest=address,
                operands=len(words),
            )
        )
        outcome = {"value": result.values[0], "cycles": result.cycles}
    elif kernel == "max":
        result = system.maximum([13, 200, 7, 31, 42], n_bits=8)
        outcome = {"value": result.value, "cycles": result.cycles}
    else:  # bulk
        rows = [[1, 0, 1, 1, 0, 0, 1, 0], [1, 1, 0, 1, 0, 1, 1, 0]]
        result = system.bulk_op(BulkOp.AND, rows)
        outcome = {"cycles": result.cycles}
    document = write_chrome_trace(hub.tracer, args.out)
    writer.line(
        f"traced kernel {kernel!r}: {hub.tracer.span_count()} spans "
        f"-> {args.out} ({len(document['traceEvents'])} events)",
        kernel=kernel,
        out=args.out,
        spans=hub.tracer.span_count(),
        events=len(document["traceEvents"]),
        **outcome,
    )
    if args.metrics_json:
        _write_json(args.metrics_json, hub.metrics_dict())
        writer.line(
            f"metrics -> {args.metrics_json}", metrics_json=args.metrics_json
        )
    return 0


def _event_logged_hub(path: str):
    """(hub, event log) for a gateway streaming its events to ``path``."""
    from repro.telemetry import EventLog, JsonlSink, TelemetryHub, Tracer

    event_log = EventLog(JsonlSink(path))
    hub = TelemetryHub(tracer=Tracer(max_roots=4096), events=event_log)
    return hub, event_log


def _write_json(path: str, document: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_serve(args) -> int:
    """The resilient kernel gateway: serve until a signal drains us.

    Exit codes follow :mod:`repro.exitcodes`: 0 after a clean drain
    (SIGTERM/SIGINT landed every admitted request), 1 on a hard
    failure, 2 for bad flags (argparse).
    """
    import asyncio

    from repro.service.admission import AdmissionPolicy
    from repro.service.breaker import RequestBreakerConfig
    from repro.service.dispatch import RetryConfig
    from repro.service.gateway import (
        Gateway,
        parse_profile_specs,
        run_gateway,
    )

    telemetry = None
    event_log = None
    if args.event_log:
        telemetry, event_log = _event_logged_hub(args.event_log)
    gateway = Gateway(
        profiles=parse_profile_specs(args.profile),
        host=args.host,
        port=args.port,
        admission=AdmissionPolicy(
            capacity=args.queue_capacity,
            high_reserve=args.high_reserve,
        ),
        breaker=RequestBreakerConfig(
            open_seconds=args.breaker_open_seconds
        ),
        retry=RetryConfig(attempts=args.retry_attempts, seed=args.seed),
        workers=args.workers,
        default_budget_s=args.default_budget_s,
        telemetry=telemetry,
        enable_profiling=args.enable_profiling,
    )

    def announce(host: str, port: int) -> None:
        print(f"serving on http://{host}:{port}", flush=True)
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write(f"{port}\n")

    try:
        asyncio.run(run_gateway(gateway, announce))
    except OSError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if event_log is not None:
            event_log.close()
    print("drained clean", flush=True)
    return EXIT_OK


# ----------------------------------------------------------------------
# continuous profiling + SLO commands


def _run_profile(args) -> int:
    """``repro profile <command> ...``: run a command under the profiler.

    Wall mode samples every ``--profile-interval-ms`` milliseconds via
    the background :class:`SamplingProfiler`; ``--virtual-clock``
    instead derives deterministic folded stacks from the simulated span
    tree plus the ``device.<op>.cycles`` counters after the wrapped
    command finishes, so two identical invocations produce bit-identical
    folded output. The wrapped command's exit code passes through.
    """
    from repro.telemetry import TelemetryHub, runtime
    from repro.telemetry.profiler import (
        SamplingProfiler,
        fold_tracer,
        profile_document,
        render_collapsed,
        speedscope_document,
        top_frames,
    )
    from repro.utils.durable import JsonlLog

    wrapped = args.command
    hub = TelemetryHub()
    interval_s = args.profile_interval_ms / 1000.0
    with runtime.activated(hub):
        if args.virtual_clock:
            code = args.profiled(args)
            folded = fold_tracer(hub.tracer, hub.metrics)
            document = profile_document(folded, mode="virtual")
            speedscope = speedscope_document(
                folded, name=f"repro {wrapped} (virtual)"
            )
        else:
            profiler = SamplingProfiler(
                interval_s=interval_s, tracer=hub.tracer
            )
            profiler.start()
            try:
                code = args.profiled(args)
            finally:
                profiler.stop()
            folded = profiler.folded()
            document = profiler.document(mode="wall")
            speedscope = speedscope_document(
                folded, name=f"repro {wrapped}", interval_s=interval_s
            )

    _write_json(args.profile_out, speedscope)
    if args.folded_out:
        with open(args.folded_out, "w", encoding="utf-8") as fh:
            fh.write(render_collapsed(folded))
    if args.profile_record:
        with JsonlLog(args.profile_record) as log:
            log.append(document)

    mode = "virtual" if args.virtual_clock else "wall"
    print(
        f"profile ({mode}): {document['samples']} samples over "
        f"{len(folded)} stacks -> {args.profile_out}",
        file=sys.stderr,
    )
    for frame, weight in top_frames(folded, limit=5):
        print(f"  {weight:>12d}  {frame}", file=sys.stderr)
    return code


def _run_slo(args) -> int:
    """``repro slo``: burn-rate report over the loadbench history.

    Replays every history entry's ``slo.counts`` through the SLO engine
    on the virtual request clock and exits 3 (degraded) while any
    objective is burning, 0 otherwise; an entry without counts exits 1.
    """
    from repro.obs import BenchHistory
    from repro.obs.slo import (
        evaluate_history,
        render_slo_markdown,
        slo_exit_code,
    )

    fmt = args.format or ("json" if args.json else "md")
    try:
        documents = [
            entry["bench"] for entry in BenchHistory(args.history).load()
        ]
    except ValueError as exc:  # a corrupt history line names path:line
        raise SystemExit(str(exc)) from None
    try:
        report = evaluate_history(
            documents,
            burn_threshold=args.slo_burn_threshold,
            virtual_step_s=args.slo_step,
        )
    except ValueError as exc:  # an entry without slo.counts
        raise SystemExit(f"{args.history}: {exc}") from None
    report["history"] = args.history
    code = slo_exit_code(report)
    if fmt == "json":
        report["exit_status"] = code
        json.dump(report, sys.stdout, indent=2, sort_keys=False)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_slo_markdown(report))
    return code


def _run_chaos(args) -> int:
    """``repro chaos``: seed-reproducible service-stack fault campaign.

    Compiles a deterministic fault timeline, drives the loadgen mix
    against an in-process gateway while the faults fire, then crashes,
    recovers, and replays the request journal. Exits 3 the moment any
    steady-state invariant is red, 0 when all are green. The report
    (schema ``coruscant-chaos/1``) is byte-identical across runs of the
    same seed/flags.
    """
    from repro.chaos.campaign import run_campaign

    report = run_campaign(
        seed=args.seed,
        fault_specs=args.faults,
        duration_ops=args.duration_ops,
        journal_dir=args.journal,
        load_profile=args.profile,
        inject_violation=args.inject_invariant_violation,
    )
    code = EXIT_OK if report["ok"] else EXIT_DEGRADED
    if args.report_out:
        # The canonical byte form: two runs of the same seed/flags
        # write identical files (CI compares them with cmp).
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True) + "\n")
    if args.json:
        report["exit_status"] = code
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return code
    fired = len(report["fired"])
    print(
        f"chaos campaign: seed={args.seed} "
        f"ops={args.duration_ops} mix={args.profile} "
        f"faults={fired} fired / {len(report['unfired'])} unfired"
    )
    journal = report["journal"]
    print(
        f"journal: {journal['phase_a']['intents']} intents, "
        f"{journal['acked_on_disk']} acks on disk, "
        f"{journal['recovered']['torn_records']} torn records, "
        f"{report['replay']['count']} replayed after restart, "
        f"{report['resubmits']['count']} idempotent resubmits"
    )
    for invariant in report["invariants"]:
        mark = "PASS" if invariant["ok"] else "FAIL"
        print(f"  [{mark}] {invariant['name']}")
        if not invariant["ok"]:
            print(f"         {invariant['detail']}")
    print("all invariants green" if report["ok"]
          else "INVARIANT VIOLATION — exiting 3")
    return code


# ----------------------------------------------------------------------
# flag value types: argparse applies them while parsing, so a bad value
# is a usage error (exit 2) before any handler runs


def _checked(cast, ok, need: str):
    """A ``type=`` that casts the text, then insists on ``ok(value)``."""

    def convert(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    # argparse names the type in its "invalid int value" message.
    convert.__name__ = cast.__name__
    return convert


_AT_LEAST_1 = _checked(int, lambda v: v >= 1, ">= 1")
_AT_LEAST_0 = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(float, lambda v: v > 0, "> 0")
_NON_NEGATIVE = _checked(float, lambda v: v >= 0, ">= 0")
_PROBABILITY = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_NONZERO_PROBABILITY = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


def _sampling_ms(text: str) -> float:
    """Milliseconds no shorter than the sampling profiler's floor."""
    from repro.telemetry.profiler import SamplingProfiler

    floor_ms = 1000 * SamplingProfiler.MIN_INTERVAL_S
    return _checked(float, lambda v: v >= floor_ms, f">= {floor_ms:g}")(text)


_sampling_ms.__name__ = "float"  # as _checked names it for argparse


# The names and specs below are checked by the modules that use them,
# imported on first use: building the parser imports no command's code.


def _reports_value_errors(parse):
    """A ``type=`` that turns ``parse``'s ValueError into a usage error."""

    @functools.wraps(parse)
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@_reports_value_errors
def _fault_specs(text: str):
    from repro.chaos.faults import parse_fault_specs

    return parse_fault_specs(text)


@_reports_value_errors
def _device_profile(spec: str) -> str:
    from repro.service.profiles import DeviceProfile

    DeviceProfile.parse(spec)
    return spec


def _crash_spec(spec: str) -> Dict[str, Any]:
    """``SHARD:OP[:MODE]`` -> the sharded runner's crash dict."""
    parts = spec.split(":")
    usage = argparse.ArgumentTypeError(
        f"wants SHARD:OP[:MODE], got {spec!r}"
    )
    if len(parts) not in (2, 3):
        raise usage
    try:
        crash: Dict[str, Any] = {
            "shard": int(parts[0]), "at_op": int(parts[1]),
        }
    except ValueError:
        raise usage from None
    if len(parts) == 3:
        if parts[2] not in ("kill", "hang", "kill-always"):
            raise argparse.ArgumentTypeError(
                f"unknown crash mode {parts[2]!r} (kill, hang, kill-always)"
            )
        crash["mode"] = parts[2]
    return crash


def _name_in(module: str, table: str, what: str):
    """A ``type=`` accepting the keys of ``module.table``."""

    def convert(name: str) -> str:
        names = getattr(importlib.import_module(module), table)
        if name not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; "
                f"pick one of {', '.join(sorted(names))}"
            )
        return name

    return convert


_LOAD_MIX = _name_in("repro.obs.loadgen", "LOAD_PROFILES", "load mix")
_MC_KIND = _name_in("repro.reliability.sharded", "MC_KINDS", "mc kind")


# ----------------------------------------------------------------------
# flags, in the groups the commands share


def _json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json", action="store_true",
        help="emit the result as one JSON document, with its exit_status",
    )


def _metrics_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics-json", metavar="PATH",
        help="dump the telemetry metrics gathered during the run to PATH",
    )


def _trd_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trd", type=int, default=7, choices=(3, 5, 7),
        help="transverse read distance (default 7)",
    )


def _seed_flag(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument("--seed", type=int, default=0, help=f"{what} (default 0)")


def _event_log_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--event-log", metavar="PATH",
        help="write the coruscant-events/1 JSONL event stream to PATH",
    )


def _budget_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--default-budget-s", type=_POSITIVE, default=10.0,
        metavar="SECONDS",
        help="deadline for requests that carry none (default 10)",
    )


def _load_mix_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile", type=_LOAD_MIX, default="mixed", metavar="MIX",
        help="load mix: mixed (default), arithmetic or analytics",
    )


def _slo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--slo-burn-threshold", type=_POSITIVE, default=14.4, metavar="X",
        help="multi-window burn-rate alert threshold (default 14.4)",
    )
    p.add_argument(
        "--slo-step", type=_POSITIVE, default=6.0, metavar="SECONDS",
        help="virtual seconds per completed request (default 6)",
    )


def _gate_flags(p: argparse.ArgumentParser, history: str) -> None:
    p.add_argument(
        "--history", metavar="PATH", default=history,
        help=f"history JSONL to append to and, without --compare, report "
             f"drift against (default {history})",
    )
    p.add_argument(
        "--no-history", action="store_true",
        help="neither read nor extend the history",
    )
    p.add_argument(
        "--compare", metavar="BASELINE",
        help="gate against BASELINE (a history JSONL or one bench "
             "document); exit 1 on any regression",
    )
    p.add_argument(
        "--bench-out", metavar="PATH",
        help="also write the bench document to PATH",
    )
    p.add_argument(
        "--wall-tolerance", type=_NON_NEGATIVE, default=0.25,
        metavar="FRAC",
        help="relative wall-clock noise band (default 0.25)",
    )


def _shard_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--shards", type=_AT_LEAST_1, metavar="N",
        help="split the run into N supervised shards whose merged report "
             "is bit-identical to the single-process run",
    )
    p.add_argument(
        "--workers", type=_AT_LEAST_0, metavar="N",
        help="worker processes per wave (default one per shard; 0 runs "
             "the shards in-process)",
    )
    p.add_argument(
        "--journal", metavar="DIR",
        help="directory for the per-shard journals and the merged "
             "report.json; shards resume from it",
    )
    p.add_argument(
        "--shard-timeout", type=_POSITIVE, metavar="SECONDS",
        help="kill and retry a shard worker that runs longer than this",
    )
    p.add_argument(
        "--max-shard-retries", type=_AT_LEAST_0, default=2, metavar="R",
        help="retries per shard before the run degrades to a partial "
             "report and exits 3 (default 2)",
    )
    p.add_argument(
        "--checkpoint-every", type=_AT_LEAST_1, default=100, metavar="OPS",
        help="ops between journal writes (default 100)",
    )


# ----------------------------------------------------------------------
# each command's flags


def _experiment_flags(p: argparse.ArgumentParser) -> None:
    _json_flag(p)
    _metrics_flag(p)


def _add_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("first", type=int, metavar="A", help="first operand")
    p.add_argument(
        "rest", type=int, nargs="+", metavar="B", help="the other operands"
    )
    _trd_flag(p)
    _json_flag(p)


def _mult_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("a", type=int, help="multiplicand")
    p.add_argument("b", type=int, help="multiplier")
    _trd_flag(p)
    _json_flag(p)


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("md", "html", "json"),
        help="scoreboard format (default md, or json with --json)",
    )
    _json_flag(p)
    _metrics_flag(p)


def _campaign_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--ops", type=_AT_LEAST_1, default=1000,
        help="operations per campaign (default 1000)",
    )
    p.add_argument(
        "--fault-rate", type=_PROBABILITY, default=1e-3,
        help="injected per-TR fault probability (default 1e-3)",
    )
    p.add_argument(
        "--shift-fault-rate", type=_PROBABILITY, default=0.0,
        help="injected per-shift fault probability (default 0)",
    )
    _trd_flag(p)
    _seed_flag(p, "campaign RNG seed")
    p.add_argument(
        "--resilience", dest="resilience", action="store_true",
        default=True,
        help="run under the resilient execution layer, beside the bare "
             "baseline (default)",
    )
    p.add_argument(
        "--no-resilience", dest="resilience", action="store_false",
        help="run bare only: faults silently corrupt results",
    )
    p.add_argument(
        "--scrub-interval", type=_AT_LEAST_1, metavar="OPS",
        help="proactively scrub every N memory operations",
    )
    p.add_argument(
        "--adaptive", action="store_true",
        help="adaptive BARE->VOTED->NMR protection ladder per DBC",
    )
    p.add_argument(
        "--storm-ops", type=int, metavar="OPS",
        help="after N ops drop the injected rates to the calm rates",
    )
    p.add_argument(
        "--calm-fault-rate", type=_PROBABILITY, default=0.0,
        help="per-TR fault probability after the storm (default 0)",
    )
    p.add_argument(
        "--calm-shift-fault-rate", type=_PROBABILITY, default=0.0,
        help="per-shift fault probability after the storm (default 0)",
    )
    p.add_argument(
        "--storage-rows", type=_AT_LEAST_0, default=0, metavar="N",
        help="also drive validated reads/writes over N storage rows",
    )
    p.add_argument(
        "--checkpoint", metavar="PATH",
        help="journal a single-process run to PATH; resume from it if "
             "present",
    )
    p.add_argument(
        "--stop-after", type=_AT_LEAST_0, metavar="OPS",
        help="run at most N ops this invocation (resume from the "
             "--checkpoint journal)",
    )
    _shard_flags(p)
    p.add_argument(
        "--inject-worker-crash", type=_crash_spec, metavar="SHARD:OP[:MODE]",
        help="test hook: kill, hang or kill-always the worker of SHARD "
             "at global op OP",
    )
    _metrics_flag(p)
    _event_log_flag(p)
    _json_flag(p)
    # The checks between this command's own flags report through it.
    p.set_defaults(error=p.error)


def _mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "kind", nargs="?", default="additions", type=_MC_KIND,
        help="additions (default), multiplies or tmr_additions",
    )
    p.add_argument(
        "--trials", type=_AT_LEAST_1, default=1000, metavar="N",
        help="Monte Carlo trials (default 1000)",
    )
    p.add_argument(
        "--fault-rate", type=_NONZERO_PROBABILITY, default=1e-3,
        help="injected per-TR fault probability (default 1e-3)",
    )
    _trd_flag(p)
    _seed_flag(p, "trial RNG seed")
    _shard_flags(p)
    _metrics_flag(p)
    _event_log_flag(p)
    _json_flag(p)


def _chaos_flags(p: argparse.ArgumentParser) -> None:
    _seed_flag(p, "fault timeline and load schedule seed")
    p.add_argument(
        "--faults", type=_fault_specs, default="worker-crash:1,torn-wal:1",
        metavar="SPEC",
        help="comma-joined kind:count[@param] fault specs "
             "(default worker-crash:1,torn-wal:1)",
    )
    p.add_argument(
        "--duration-ops", type=_AT_LEAST_1, default=40, metavar="N",
        help="operations in the load schedule (default 40)",
    )
    _load_mix_flag(p)
    p.add_argument(
        "--journal", metavar="DIR",
        help="keep the request journal in DIR (default a temporary one)",
    )
    p.add_argument(
        "--report-out", metavar="PATH",
        help="write the canonical, byte-reproducible report to PATH",
    )
    p.add_argument(
        "--inject-invariant-violation", action="store_true",
        help="CI hook: fake a lost acked request so the run exits 3",
    )
    _json_flag(p)


def _trace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "kernel", nargs="?", default="mult", choices=_TRACE_KERNELS,
        help="kernel to trace (default mult)",
    )
    p.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="Chrome trace output path (default trace.json)",
    )
    _trd_flag(p)
    _metrics_flag(p)
    _json_flag(p)


def _bench_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--repeats", type=_AT_LEAST_1, default=3, metavar="N",
        help="wall-clock repeats per bench kernel (default 3)",
    )
    _gate_flags(p, "BENCH_history.jsonl")
    _json_flag(p)


def _loadbench_flags(p: argparse.ArgumentParser) -> None:
    _load_mix_flag(p)
    p.add_argument(
        "--requests", type=_AT_LEAST_1, default=50, metavar="N",
        help="schedule length (default 50)",
    )
    _seed_flag(p, "schedule seed")
    p.add_argument(
        "--concurrency", type=_AT_LEAST_1, default=2, metavar="N",
        help="closed-loop generator threads (default 2)",
    )
    p.add_argument(
        "--duration", type=_POSITIVE, metavar="SECONDS",
        help="wall-clock cap; requests not issued by then count as "
             "skipped",
    )
    _budget_flag(p)
    _event_log_flag(p)
    p.add_argument(
        "--slo", action="store_true",
        help="print the run's SLO burn-rate rows; exit 3 on a violated "
             "objective",
    )
    _slo_flags(p)
    _gate_flags(p, "LOADBENCH_history.jsonl")
    _json_flag(p)


def _serve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free one)",
    )
    p.add_argument(
        "--port-file", metavar="PATH",
        help="write the bound port to PATH once listening",
    )
    p.add_argument(
        "--profile", action="append", type=_device_profile,
        metavar="NAME[:k=v,...]",
        help="add a device profile, e.g. storm:tr_fault_rate=0.4; keys "
             "are DeviceProfile fields; repeatable; default:trd=3 "
             "reconfigures the default profile",
    )
    p.add_argument(
        "--workers", type=_AT_LEAST_1, default=2, metavar="N",
        help="worker threads, one system each, per profile (default 2)",
    )
    _seed_flag(p, "retry backoff jitter seed")
    p.add_argument(
        "--queue-capacity", type=_AT_LEAST_1, default=16, metavar="N",
        help="per-kernel queue slots batch traffic may fill (default 16)",
    )
    p.add_argument(
        "--high-reserve", type=_AT_LEAST_0, default=4, metavar="N",
        help="extra slots only interactive requests may use (default 4)",
    )
    p.add_argument(
        "--retry-attempts", type=_AT_LEAST_1, default=3, metavar="N",
        help="tries per work item, 1 = no retry (default 3)",
    )
    p.add_argument(
        "--breaker-open-seconds", type=_POSITIVE, default=5.0,
        metavar="SECONDS",
        help="cooldown before an open breaker half-opens (default 5)",
    )
    _budget_flag(p)
    _event_log_flag(p)
    p.add_argument(
        "--enable-profiling", action="store_true",
        help="allow POST /debug/profile/start|stop (403 otherwise)",
    )


def _slo_command_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--history", metavar="PATH", default="LOADBENCH_history.jsonl",
        help="loadbench history to evaluate (default "
             "LOADBENCH_history.jsonl)",
    )
    p.add_argument(
        "--format", choices=("md", "json"),
        help="report format (default md, or json with --json)",
    )
    _json_flag(p)
    _slo_flags(p)


def _profile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile-out", metavar="PATH", default="profile.speedscope.json",
        help="speedscope JSON path (default profile.speedscope.json)",
    )
    p.add_argument(
        "--folded-out", metavar="PATH",
        help="also write collapsed-stack (flamegraph) text to PATH",
    )
    p.add_argument(
        "--profile-record", metavar="PATH",
        help="append the coruscant-profile/1 JSONL record to PATH",
    )
    p.add_argument(
        "--profile-interval-ms", type=_sampling_ms, default=5.0, metavar="MS",
        help="wall sampling interval in milliseconds, no shorter than the "
             "profiler's floor (default 5)",
    )
    p.add_argument(
        "--virtual-clock", action="store_true",
        help="fold the simulated span tree and cycle counters instead of "
             "sampling wall time (bit-identical across runs)",
    )


# name -> (help, flags, handler) for every command ``profile`` can wrap.
_COMMANDS = {
    "table1": ("Table I: area overhead", _experiment_flags, _run_experiment),
    "table3": ("Table III: operations", _experiment_flags, _run_experiment),
    "table4": ("Table IV: CNN FPS", _experiment_flags, _run_experiment),
    "table5": ("Table V: reliability", _experiment_flags, _run_experiment),
    "table6": ("Table VI: CNN FPS with NMR", _experiment_flags,
               _run_experiment),
    "fig10": ("Fig. 10: Polybench latency", _experiment_flags,
              _run_experiment),
    "fig11": ("Fig. 11: Polybench energy", _experiment_flags,
              _run_experiment),
    "fig12": ("Fig. 12: bitmap queries", _experiment_flags, _run_experiment),
    "report": ("reproduction-fidelity scoreboard", _report_flags,
               _run_report_command),
    "all": ("every table and figure, and the text report", _json_flag,
            _run_all),
    "add": ("one PIM addition with its cycle cost", _add_flags, _run_add),
    "mult": ("one PIM multiplication with its cycle cost", _mult_flags,
             _run_mult),
    "campaign": ("fault campaign, recovery on vs off", _campaign_flags,
                 _run_campaign_command),
    "mc": ("Monte Carlo fault-injection trials", _mc_flags,
           _run_mc_command),
    "chaos": ("seeded service-stack chaos campaign", _chaos_flags,
              _run_chaos),
    "trace": ("Chrome-trace one kernel", _trace_flags, _run_trace),
    "bench": ("bench kernels and regression gate", _bench_flags,
              _run_bench),
    "loadbench": ("closed-loop load bench of the in-process gateway",
                  _loadbench_flags, _run_loadbench),
    "serve": ("the resilient kernel gateway", _serve_flags, _run_serve),
    "slo": ("SLO burn-rate report over the loadbench history",
            _slo_command_flags, _run_slo),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subparser per command, owning its flags.

    Abbreviated flags are off, so a flag that only another command
    reads is a usage error, never a prefix of one of this command's.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CORUSCANT processing-in-racetrack-memory simulator",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )
    for name, (help_text, add_flags, run) in _COMMANDS.items():
        sub = commands.add_parser(
            name, help=help_text, description=help_text, allow_abbrev=False
        )
        add_flags(sub)
        sub.set_defaults(run=run)
    profile = commands.add_parser(
        "profile",
        help="run another command under the sampling profiler",
        description="Run a command under the sampling profiler. The "
                    "profiler's flags follow the command's own; "
                    "'repro profile <command> --help' lists both.",
        allow_abbrev=False,
    )
    # The wrapped command's name lands in args.command, as if unwrapped.
    wrapped = profile.add_subparsers(
        dest="command", metavar="command", required=True
    )
    for name, (help_text, add_flags, run) in _COMMANDS.items():
        sub = wrapped.add_parser(
            name, help=help_text, description=help_text, allow_abbrev=False
        )
        add_flags(sub)
        _profile_flags(sub)
        sub.set_defaults(run=_run_profile, profiled=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
