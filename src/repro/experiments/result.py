"""Structured experiment results.

Every ``run_*`` experiment entry point returns an :class:`ExperimentResult`:
a machine-readable record of the run (figure id, config, the table rows the
paper's figure reports, paper-vs-measured deltas, per-phase timings and
sim-cache activity) that serializes to JSON.  The orchestrator ships these
across process boundaries and writes them into run manifests; the serial
runner renders its tables from the very same rows, so serial and parallel
output are bit-identical.

The refactor is applied by the :func:`experiment` decorator: the
experiment-specific result object (``Fig1Result`` & co.) is kept on
``result.detail`` in-process.  The decorator is also the one boundary
where an experiment's config becomes the active execution options
(:func:`repro.options.use_options`), so the inline orchestrator, its
pool workers, served experiment jobs and direct ``run_*(cfg)`` calls all
run under exactly the config they record.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from ..machine.contention import (
    collect_contention_telemetry,
    summarize_contention,
)
from ..machine.engine.sharded import collect_shard_telemetry, summarize_shards
from ..machine.engine.simcache import resolve_memo
from ..machine.engine.telemetry import collect_sim_telemetry, summarize_levels
from ..options import use_options
from ..phases import collect_phases
from ..trace.telemetry import (
    collect_trace_telemetry,
    summarize_memory,
    summarize_stream,
)
from .config import ExperimentConfig
from .plan import collect_plan_telemetry, summarize_plan
from .predict import collect_analytic_telemetry, summarize_analytic
from .report import Table

#: Manifest / result schema version (docs/result.schema.json tracks it).
#: v2 added ``sim_levels``: per-level engine names and simulated
#: accesses/second for every experiment.  v3 added ``memory`` (peak RSS
#: and generated trace bytes) and ``stream`` (producer/consumer overlap
#: accounting when the chunked trace pipeline ran).  v4 added ``shards``
#: (set-sharded simulation telemetry: per-worker accesses and busy
#: wall-clock, imbalance, serial-fallback reason) and the ``shards``
#: config knob.  v5 added ``analytic`` (predict-then-verify accounting:
#: points predicted vs spot-checked, max per-channel byte error, the
#: over-tolerance outlier list) and the ``predict``/``spot_check``/
#: ``predict_tolerance`` config knobs.  v6 added ``plan`` (sweep-planner
#: accounting: request groups, points answered per collapse rule,
#: accesses simulated vs requested, per-point fallback reasons), the
#: ``plan`` config knob, and the manifest-level ``dedup_hits`` counter.
#: v7 added the manifest-level ``service`` block (queue/batch/dedup and
#: latency telemetry when a battery ran under ``repro serve``), the
#: ``cancelled`` status (tasks drained by SIGTERM before starting), and
#: the cross-process claim counters in ``sim_cache``.  v8 added
#: ``contention`` (multicore contended-timing telemetry: cores,
#: per-channel saturation and balance-gap delta vs. one core, clamp
#: fallbacks) and the ``cores`` config knob.
SCHEMA_VERSION = 8

#: Result statuses the orchestrator can record.
STATUSES = ("ok", "failed", "timeout", "cancelled")


@dataclass
class ExperimentResult:
    """One experiment's structured outcome.

    ``rows``/``headers``/``title``/``note`` carry exactly what the paper's
    table reports; ``volatile_columns`` names columns whose cells are real
    wall-clock measurements (they differ run to run and are excluded from
    equivalence comparisons).  ``detail`` holds the experiment's legacy
    result object in-process; it is never serialized.
    """

    experiment: str
    status: str = "ok"
    error: str | None = None
    attempts: int = 1
    config: dict[str, Any] = field(default_factory=dict)
    title: str = ""
    headers: tuple[str, ...] = ()
    rows: list[list[Any]] = field(default_factory=list)
    note: str = ""
    volatile_columns: tuple[str, ...] = ()
    paper_deltas: list[dict[str, Any]] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    sim_cache: dict[str, int] = field(default_factory=dict)
    sim_levels: list[dict[str, Any]] = field(default_factory=list)
    memory: dict[str, int] = field(default_factory=dict)
    stream: dict[str, Any] = field(default_factory=dict)
    shards: dict[str, Any] = field(default_factory=dict)
    analytic: dict[str, Any] = field(default_factory=dict)
    plan: dict[str, Any] = field(default_factory=dict)
    contention: dict[str, Any] = field(default_factory=dict)
    detail: Any = None

    # -- rendering -----------------------------------------------------------

    def table(self) -> Table:
        """The printable table, reconstructed from the structured rows."""
        t = Table(
            self.title or self.experiment,
            tuple(self.headers),
            volatile=tuple(self.volatile_columns),
        )
        for row in self.rows:
            t.add(*row)
        t.note = self.note
        return t

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def describe_failure(self) -> str:
        return f"{self.experiment}: {self.status} after {self.attempts} attempt(s): {self.error}"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """A JSON-serializable dict (drops ``detail``)."""
        return {
            "experiment": self.experiment,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
            "config": dict(self.config),
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
            "note": self.note,
            "volatile_columns": list(self.volatile_columns),
            "paper_deltas": [dict(d) for d in self.paper_deltas],
            "timings": {k: float(v) for k, v in self.timings.items()},
            "sim_cache": {k: int(v) for k, v in self.sim_cache.items()},
            "sim_levels": [dict(lv) for lv in self.sim_levels],
            "memory": {k: int(v) for k, v in self.memory.items()},
            "stream": dict(self.stream),
            "shards": dict(self.shards),
            "analytic": dict(self.analytic),
            "plan": dict(self.plan),
            "contention": dict(self.contention),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        return cls(
            experiment=data["experiment"],
            status=data.get("status", "ok"),
            error=data.get("error"),
            attempts=int(data.get("attempts", 1)),
            config=dict(data.get("config", {})),
            title=data.get("title", ""),
            headers=tuple(data.get("headers", ())),
            rows=[list(r) for r in data.get("rows", [])],
            note=data.get("note", ""),
            volatile_columns=tuple(data.get("volatile_columns", ())),
            paper_deltas=[dict(d) for d in data.get("paper_deltas", [])],
            timings=dict(data.get("timings", {})),
            sim_cache=dict(data.get("sim_cache", {})),
            sim_levels=[dict(lv) for lv in data.get("sim_levels", [])],
            memory=dict(data.get("memory", {})),
            stream=dict(data.get("stream", {})),
            shards=dict(data.get("shards", {})),
            analytic=dict(data.get("analytic", {})),
            plan=dict(data.get("plan", {})),
            contention=dict(data.get("contention", {})),
        )

    def comparable_json(self) -> dict[str, Any]:
        """The deterministic portion: timings, sim-cache activity, attempt
        counts, and cells of volatile (wall-clock) columns are masked, so
        ``--jobs 1`` and ``--jobs 4`` runs compare equal."""
        data = self.to_json()
        data.pop("timings")
        data.pop("sim_cache")
        data.pop("sim_levels")  # wall-clock rates; sim-cache hits empty it
        data.pop("memory")  # peak RSS varies run to run
        data.pop("stream")  # overlap seconds are wall-clock
        data.pop("shards")  # worker busy seconds are wall-clock
        data.pop("analytic")  # predicted cells differ from simulated ones
        data.pop("plan")  # planned and pointwise runs must compare equal
        data.pop("contention")  # per-core splits differ sharded vs. cached
        data.pop("attempts")
        volatile = {
            i for i, h in enumerate(self.headers) if h in self.volatile_columns
        }
        if volatile:
            data["rows"] = [
                [None if i in volatile else cell for i, cell in enumerate(row)]
                for row in data["rows"]
            ]
        return data


def failed_result(
    experiment: str,
    config: ExperimentConfig,
    error: str,
    *,
    status: str = "failed",
    attempts: int = 1,
) -> ExperimentResult:
    """The record of an experiment that crashed or timed out."""
    return ExperimentResult(
        experiment=experiment,
        status=status,
        error=error,
        attempts=attempts,
        config=config.to_json(),
    )


def _jsonable(cell: Any) -> Any:
    """Coerce a table cell to a JSON scalar without changing how it renders."""
    if cell is None or isinstance(cell, (bool, int, str)):
        return cell
    if isinstance(cell, float):
        return float(cell)  # numpy floats included
    try:  # numpy integer types
        import numpy as np

        if isinstance(cell, np.integer):
            return int(cell)
        if isinstance(cell, np.floating):
            return float(cell)
    except ImportError:  # pragma: no cover
        pass
    return str(cell)


def _find_config(args: tuple, kwargs: dict) -> ExperimentConfig | None:
    for value in (*args, *kwargs.values()):
        if isinstance(value, ExperimentConfig):
            return value
    return None


def experiment(
    experiment_id: str,
    *,
    deltas: Callable[[Any], Sequence[Mapping[str, Any]]] | None = None,
) -> Callable:
    """Wrap a legacy ``run_*`` so it returns an :class:`ExperimentResult`.

    The wrapped function still computes its experiment-specific result
    object; the decorator measures it (total seconds, per-phase seconds,
    sim-cache counter deltas), snapshots its table into structured rows,
    evaluates the optional ``deltas`` extractor (paper-vs-measured
    comparisons) and returns the combined record.  The body runs with the
    config as the active execution options (defaults when no config is
    passed), reset on return.  ``ExperimentResult``
    arguments are unwrapped to their ``detail`` automatically, so
    experiments that consume other experiments' results (fig2 reuses
    fig1) keep their original signatures.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> ExperimentResult:
            args = tuple(
                a.detail if isinstance(a, ExperimentResult) and a.detail is not None else a
                for a in args
            )
            kwargs = {
                k: v.detail
                if isinstance(v, ExperimentResult) and v.detail is not None
                else v
                for k, v in kwargs.items()
            }
            config = _find_config(args, kwargs) or ExperimentConfig()
            memo = resolve_memo(config.sim_cache)
            before = memo.counters.snapshot() if memo is not None else None
            start = time.perf_counter()
            with (
                use_options(config),
                collect_phases() as phases,
                collect_sim_telemetry() as sim_tel,
                collect_trace_telemetry() as trace_tel,
                collect_shard_telemetry() as shard_tel,
                collect_analytic_telemetry() as predict_tel,
                collect_plan_telemetry() as plan_tel,
                collect_contention_telemetry() as contention_tel,
            ):
                detail = fn(*args, **kwargs)
            total = time.perf_counter() - start
            table = detail.table()
            timings = {"total": total}
            timings.update(sorted(phases.items()))
            counters: dict[str, int] = {}
            if memo is not None and before is not None:
                delta = memo.counters.since(before)
                counters = {
                    "hits": delta.hits,
                    "misses": delta.misses,
                    "puts": delta.puts,
                    "disk_hits": delta.disk_hits,
                }
                # Cross-process in-flight guard activity, only when it fired.
                for name in ("claims", "claim_waits", "takeovers"):
                    if getattr(delta, name):
                        counters[name] = getattr(delta, name)
            return ExperimentResult(
                experiment=experiment_id,
                status="ok",
                config=config.to_json(),
                title=table.title,
                headers=tuple(table.headers),
                rows=[[_jsonable(c) for c in row] for row in table.rows],
                note=table.note,
                volatile_columns=tuple(table.volatile),
                paper_deltas=[dict(d) for d in (deltas(detail) if deltas else ())],
                timings=timings,
                sim_cache=counters,
                sim_levels=summarize_levels(sim_tel),
                memory=summarize_memory(trace_tel),
                stream=summarize_stream(trace_tel),
                shards=summarize_shards(shard_tel),
                analytic=summarize_analytic(predict_tel),
                plan=summarize_plan(plan_tel),
                contention=summarize_contention(contention_tel),
                detail=detail,
            )

        wrapper.experiment_id = experiment_id
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate


def delta(row: str, metric: str, paper: float, measured: float) -> dict[str, Any]:
    """One paper-vs-measured comparison entry."""
    paper = float(paper)
    measured = float(measured)
    return {
        "row": row,
        "metric": metric,
        "paper": paper,
        "measured": measured,
        "ratio": measured / paper if paper else None,
    }


def merge_attempts(result: ExperimentResult, attempts: int) -> ExperimentResult:
    """Record how many tries the orchestrator needed."""
    return replace(result, attempts=attempts)
