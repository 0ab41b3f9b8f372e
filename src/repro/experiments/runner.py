"""Run experiments — serially or in parallel — and print the paper's tables.

Usage::

    python -m repro.experiments.runner              # everything, serial
    python -m repro.experiments.runner fig1 fig3    # a subset
    repro-experiments --jobs 4                      # full battery, 4 workers
    repro-experiments --scale 16,32,64 fig1         # parameter sweep
    repro-experiments --jobs 2 --timeout 120 all    # per-experiment deadline

The runner is a thin consumer of the orchestrator: experiments return
structured :class:`~repro.experiments.result.ExperimentResult` records,
the tables are rendered from those records (so serial and parallel output
are bit-identical), and every run writes a JSON manifest under
``results/`` (``--no-manifest`` disables it; ``docs/result.schema.json``
describes the format).
"""

from __future__ import annotations

import argparse
import signal
import sys
import warnings
from typing import Any

from ..errors import ReproError
from .config import ExperimentConfig
from .orchestrator import (
    DEFAULT_RESULTS_DIR,
    OrchestratorOptions,
    RunStats,
    build_manifest,
    build_plan,
    drain_requested,
    request_drain,
    reset_drain,
    run_tasks,
    summary_table,
    write_manifest,
)
from .registry import EXPERIMENTS as _EXPERIMENTS
from .result import ExperimentResult

#: Default on-disk simulation-cache directory (kept for CLI help/back-compat).
DEFAULT_SIM_CACHE_DIR = ".repro_cache"


def __getattr__(name: str) -> Any:
    if name == "EXPERIMENTS":
        warnings.warn(
            "repro.experiments.runner.EXPERIMENTS moved to "
            "repro.experiments.registry.EXPERIMENTS",
            DeprecationWarning,
            stacklevel=2,
        )
        return _EXPERIMENTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_scales(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        scales = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--scale expects an integer or comma-separated integers, got {text!r}"
        ) from None
    if not scales or any(s <= 0 for s in scales):
        raise argparse.ArgumentTypeError(f"--scale values must be positive: {text!r}")
    return scales


def _sim_counters_suffix(result: ExperimentResult) -> str:
    hits = result.sim_cache.get("hits", 0)
    misses = result.sim_cache.get("misses", 0)
    disk = result.sim_cache.get("disk_hits", 0)
    if not (hits or misses):
        return ""
    suffix = f", sim {hits} cached / {misses} simulated"
    if disk:
        suffix += f" ({disk} from disk)"
    return suffix


def _sim_levels_suffix(result: ExperimentResult) -> str:
    """Engine names and aggregate simulated accesses/second, when any
    simulation actually ran (sim-cache hits leave this empty)."""
    accesses = sum(lv.get("accesses", 0) for lv in result.sim_levels)
    seconds = sum(lv.get("seconds", 0.0) for lv in result.sim_levels)
    if not accesses or seconds <= 0:
        return ""
    engines = sorted({lv["engine"] for lv in result.sim_levels})
    return f", {'+'.join(engines)} {accesses / seconds / 1e6:.1f} Macc/s"


def _shards_suffix(result: ExperimentResult) -> str:
    """Shard count, imbalance, or the serial-fallback note, when sharding
    was requested (sim-cache hits leave this empty, like sim_levels)."""
    sh = result.shards
    if not sh:
        return ""
    if sh.get("runs"):
        note = f", {sh.get('effective')} shards x {sh['runs']} sims"
        imbalance = sh.get("imbalance")
        if imbalance:
            note += f" (imbalance {imbalance:.2f})"
        return note
    return f", shards {sh.get('requested')} fell back to serial"


def _contention_suffix(result: ExperimentResult) -> str:
    """Contended-timing accounting, when a core count > 1 was in effect."""
    ct = result.contention
    if not ct:
        return ""
    if ct.get("runs"):
        note = f", {ct.get('cores')} cores"
        mem = next(
            (c for c in reversed(ct.get("channels", [])) if c.get("balance_gap", 1.0) > 1.0),
            None,
        )
        if mem:
            note += f" ({mem['name']} gap {mem['balance_gap']:.2f}x)"
        if ct.get("fallback_runs"):
            note += f", {ct['fallback_runs']} clamp(s)"
        return note
    return f", cores clamped: {ct.get('fallback_reason', '')}"


def _analytic_suffix(result: ExperimentResult) -> str:
    """Predict-then-verify accounting, when the analytic fast path ran."""
    an = result.analytic
    if not an:
        return ""
    note = (
        f", analytic {an.get('predicted', 0)}/{an.get('points', 0)} predicted"
        f" ({an.get('checked', 0)} checked"
    )
    if an.get("checked"):
        note += f", max err {an.get('max_error', 0.0):.1%}"
    note += ")"
    if an.get("fallbacks"):
        note += f", {an['fallbacks']} fallback(s) to exact"
    return note


def _plan_suffix(result: ExperimentResult) -> str:
    """Planner accounting, when the sweep query planner ran."""
    pl = result.plan
    if not pl:
        return ""
    rules = pl.get("by_rule", {})
    shared = ", ".join(
        f"{rules[r]} {r}" for r in ("cache", "capacity", "prefix", "trace", "fallback")
        if rules.get(r)
    )
    note = f", plan {pl.get('points', 0)} pts/{pl.get('groups', 0)} groups ({shared})"
    requested = pl.get("accesses_requested", 0)
    simulated = pl.get("accesses_simulated", 0)
    if requested and simulated:
        note += f", {requested / simulated:.1f}x fewer accesses"
    return note


def _memory_suffix(result: ExperimentResult) -> str:
    """Peak RSS and streaming-overlap accounting, when recorded."""
    parts = []
    rss = result.memory.get("peak_rss_bytes")
    if rss:
        parts.append(f"peak rss {rss / 2**20:.0f} MB")
    if result.stream:
        chunks = result.stream.get("chunks", 0)
        overlap = result.stream.get("overlap")
        note = f"stream {chunks} chunks"
        if overlap is not None:
            note += f", {overlap:.0%} gen hidden"
        parts.append(note)
    return ", " + ", ".join(parts) if parts else ""


def _print_result(result: ExperimentResult, label: str, charts: bool) -> None:
    if not result.ok:
        print(f"[{label}: {result.status.upper()} after {result.attempts} "
              f"attempt(s): {result.error}]")
        print()
        return
    print(result.table().render())
    if charts and result.experiment in ("fig1", "fig3"):
        if result.detail is None:
            print("(charts need the in-process detail: rerun with --jobs 1)")
        else:
            from .charts import balance_chart, fig3_chart

            print()
            chart = fig3_chart if result.experiment == "fig3" else balance_chart
            print(chart(result.detail))
    total = result.timings.get("total", 0.0)
    print(f"[{label}: {total:.1f}s{_sim_counters_suffix(result)}"
          f"{_sim_levels_suffix(result)}{_shards_suffix(result)}"
          f"{_contention_suffix(result)}{_analytic_suffix(result)}"
          f"{_plan_suffix(result)}{_memory_suffix(result)}]")
    print()


def main(argv: list[str] | None = None) -> int:
    from ..machine.engine import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce every table/figure of Ding & Kennedy (IPPS 2000).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*_EXPERIMENTS, "all"],
        default="all",
        help="which experiments to run (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=_parse_scales,
        default=None,
        metavar="N[,N...]",
        help="cache scale-down factor; a comma-separated list sweeps every "
        "experiment over each scale (default from config)",
    )
    parser.add_argument(
        "--charts",
        action="store_true",
        help="also render bar-chart views (the paper's Figure 3 presentation)",
    )
    parser.add_argument(
        "--engine",
        choices=["auto", *sorted(ENGINES)],
        default="auto",
        help="cache-simulation engine (default: auto = fastest exact engine per level)",
    )
    parser.add_argument(
        "--no-sim-cache",
        action="store_true",
        help="disable the content-keyed simulation cache (always re-simulate)",
    )
    parser.add_argument(
        "--sim-cache-dir",
        default=DEFAULT_SIM_CACHE_DIR,
        help="directory of the persistent simulation cache (default: %(default)s)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="stream traces: chunked generation fused with simulation and "
        "prefetched on a background thread (bounded memory, identical counters)",
    )
    parser.add_argument(
        "--chunk-accesses",
        type=int,
        default=None,
        metavar="N",
        help="accesses per streamed chunk (default: 4Mi; implies nothing "
        "unless --stream is given)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="set-sharded parallel simulation workers per experiment "
        "(default: 1 = serial; composes with --jobs and --stream; falls "
        "back to serial when the hierarchy's set counts cannot be "
        "partitioned exactly)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=1,
        metavar="N",
        help="contended timing across N cores sharing the machine's "
        "bandwidth ceilings (default: 1 = the paper's uncontended model, "
        "bit-identical to omitting the flag; requests above a machine's "
        "core count clamp with a telemetry flag)",
    )
    parser.add_argument(
        "--predict",
        action="store_true",
        help="analytic fast path: sweep points are predicted from the loop "
        "IR + cache geometry (no trace), with an exact-simulation spot "
        "check of a sample and automatic fallback to exact simulation "
        "when a check exceeds the error tolerance",
    )
    parser.add_argument(
        "--spot-check",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="fraction of predicted points also simulated exactly "
        "(default: %(default)s; only meaningful with --predict)",
    )
    parser.add_argument(
        "--predict-tolerance",
        type=float,
        default=0.10,
        metavar="ERROR",
        help="max per-channel relative byte error a spot check may show "
        "before the experiment falls back to exact simulation "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--plan",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="sweep query planner: batch an experiment's simulation "
        "requests and share work across points (one trace per distinct "
        "trace identity, one stack-distance profile per capacity ladder, "
        "shared-prefix levels simulated once); answers are bit-identical "
        "to pointwise runs, with per-point fallback otherwise",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1 = in-process serial run)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment deadline; a worker past it is terminated and "
        "the experiment recorded as timed out (implies worker processes)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts after a crash or timeout (default: %(default)s)",
    )
    parser.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        help="where run manifests are written (default: %(default)s)",
    )
    parser.add_argument(
        "--no-manifest",
        action="store_true",
        help="do not write the results/run-<id>.json manifest",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    wanted = list(_EXPERIMENTS) if "all" in args.experiments else args.experiments
    scales = args.scale
    try:
        base_cfg = ExperimentConfig(
            engine=args.engine,
            sim_cache=not args.no_sim_cache,
            sim_cache_dir=None if args.no_sim_cache else args.sim_cache_dir,
            stream=args.stream,
            chunk_accesses=args.chunk_accesses,
            shards=args.shards,
            predict=args.predict,
            spot_check=args.spot_check,
            predict_tolerance=args.predict_tolerance,
            plan=args.plan,
            cores=args.cores,
        )
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))

    tasks = build_plan(wanted, base_cfg, scales)
    options = OrchestratorOptions(
        jobs=args.jobs, timeout=args.timeout, retries=args.retries
    )

    shown = scales if scales else [base_cfg.scale]
    print("machine scale: " + ", ".join(f"1/{s}" for s in shown)
          + " of the paper's cache sizes")
    cache_desc = "off" if args.no_sim_cache else f"on ({args.sim_cache_dir})"
    mode = "in-process serial" if not options.use_processes else f"{args.jobs} worker(s)"
    pipeline = "streamed" if args.stream else "materialized"
    sharding = "serial" if args.shards == 1 else f"{args.shards} shard workers"
    timing = "1 core" if args.cores == 1 else f"contended, {args.cores} cores"
    predicting = (
        f"analytic ({args.spot_check:.0%} spot check, "
        f"tol {args.predict_tolerance:.0%})"
        if args.predict
        else "exact"
    )
    planning = "planned (shared-work batches)" if args.plan else "pointwise"
    print(f"engine: {args.engine}, sim cache: {cache_desc}, "
          f"trace pipeline: {pipeline}, simulation: {sharding}, "
          f"timing: {timing}, sweep points: {predicting}, "
          f"batches: {planning}, mode: {mode}\n")

    # Graceful drain: SIGTERM lets in-flight experiments finish, cancels
    # the rest, and still writes the manifest (exit code flags the gap).
    reset_drain()
    previous_handler: Any = None
    try:
        previous_handler = signal.signal(
            signal.SIGTERM, lambda _sig, _frame: request_drain()
        )
    except ValueError:
        pass  # not the main thread (embedded use): no handler, no drain

    stats = RunStats()
    results: list[ExperimentResult] = []
    try:
        for task, result in zip(tasks, run_tasks(tasks, options, stats)):
            results.append(result)
            _print_result(result, task.display(), args.charts)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)

    if len(results) > 1:
        print(summary_table(results).render())
        if stats.dedup_hits:
            print(f"(scheduler dedup: {stats.dedup_hits} duplicate task(s) "
                  "answered by one execution)")
        print()
    if not args.no_manifest:
        manifest = build_manifest(
            results,
            jobs=args.jobs,
            command=list(argv) if argv is not None else sys.argv[1:],
            dedup_hits=stats.dedup_hits,
        )
        path = write_manifest(manifest, args.results_dir)
        print(f"manifest: {path}")

    # Graceful degradation: failures are recorded in the manifest, they do
    # not fail the battery — except after a drain, where a partial run
    # must be visible to the caller (CI, service) via the exit code.
    if drain_requested():
        incomplete = sum(1 for r in results if not r.ok) + (len(tasks) - len(results))
        print(f"drained on SIGTERM: {incomplete} of {len(tasks)} task(s) incomplete")
        return 1 if incomplete else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
