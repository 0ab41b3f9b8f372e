"""Batch jobs the service runs on its worker executor.

Each job is a module-level function over picklable arguments and
wire-format results, so the same code runs on an in-process worker
thread (``jobs=0``, the 1-CPU default) or on a fork process pool
(``jobs>0``) without special cases.  Sweep points arrive parsed, as
:class:`~repro.service.protocol.WirePoint` objects.

A simulate job answers one coalesced micro-batch through the sweep
query planner (:func:`~repro.experiments.plan.run_batch`), so points
from different clients that share a trace identity are answered from
shared work.  When the planned batch fails as a whole, the job degrades
to a pointwise loop so one poisoned request cannot take down its
batch-mates (counted as a ``fallback`` in service telemetry).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..errors import ReproError
from ..experiments.config import ExperimentConfig
from ..experiments.plan import collect_plan_telemetry, run_batch, summarize_plan
from ..experiments.result import ExperimentResult, failed_result
from ..interp.executor import MachineRun
from ..machine.engine.simcache import SimulationResult, get_sim_cache
from ..machine.hierarchy import HierarchyResult
from .protocol import WirePoint


def wire_run(run: MachineRun) -> dict[str, Any]:
    """One executed point -> wire counters.

    Ships exactly what :func:`~repro.interp.executor.assemble_run` needs
    to rebuild the run: level stats, downstream bytes and the graduated
    totals.  Times are *not* shipped — the client recomputes them from
    these integers through the same timing-model arithmetic, which is
    what makes the reconstruction bit-identical.
    """
    c = run.counters
    return SimulationResult(
        HierarchyResult(c.level_stats, c.downstream_bytes),
        c.graduated_flops,
        c.loads,
        c.stores,
    ).to_json()


def _cache_delta(before) -> dict[str, int]:
    """Nonzero sim-cache counter movement since ``before`` (snapshot)."""
    cache = get_sim_cache()
    if cache is None or before is None:
        return {}
    delta = cache.counters.since(before)
    return {k: v for k, v in vars(delta).items() if v}


def run_simulate_job(points: Sequence[WirePoint], *, plan: bool = True) -> dict[str, Any]:
    """Execute one coalesced micro-batch of sweep points.

    Returns ``{"results": [point, ...], "plan": {...}, "sim_cache":
    {...}, "fallbacks": int}`` where each point is either wire counters
    or ``{"error": message}``.  Never raises for per-point failures.
    """
    requests = [p.request for p in points]
    cache = get_sim_cache()
    before = cache.counters.snapshot() if cache is not None else None
    fallbacks = 0
    errors: dict[int, str] = {}
    with collect_plan_telemetry() as session:
        try:
            runs: list[MachineRun | None] = list(run_batch(requests, plan=plan))
        except Exception:  # noqa: BLE001 — isolate the poisoned point below
            fallbacks = 1
            runs = []
            for i, request in enumerate(requests):
                try:
                    runs.extend(run_batch([request], plan=False))
                except Exception as exc:  # noqa: BLE001
                    runs.append(None)
                    errors[i] = f"{type(exc).__name__}: {exc}"
                    session.fallbacks.append(
                        {
                            "program": request.program.name,
                            "machine": request.machine.name,
                            "reason": errors[i],
                        }
                    )
    results: list[dict[str, Any]] = [
        {"error": errors.get(i, "execution failed")} if run is None else wire_run(run)
        for i, run in enumerate(runs)
    ]
    return {
        "results": results,
        "plan": summarize_plan(session),
        "sim_cache": _cache_delta(before),
        "fallbacks": fallbacks,
    }


def run_predict_job(points: Sequence[WirePoint]) -> dict[str, Any]:
    """Analytic estimates for a micro-batch (no trace, O(1) per point)."""
    from ..balance.analytic import predict_run

    results: list[dict[str, Any]] = []
    for request in [p.request for p in points]:
        try:
            run = predict_run(
                request.program,
                request.machine,
                request.params,
                layout_policy=request.layout_policy,
                passes=request.passes,
            )
            results.append(wire_run(run))
        except ReproError as exc:
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    return {"results": results, "plan": {}, "sim_cache": {}, "fallbacks": 0}


def run_experiment_job(name: str, config: ExperimentConfig) -> dict[str, Any]:
    """One registry experiment; the result is its manifest record.  The
    ``@experiment`` wrapper runs it under ``config`` as the active
    options and resets them on return, so the job changes nothing the
    daemon's next batch sees."""
    from ..experiments.registry import EXPERIMENTS

    if name not in EXPERIMENTS:
        result: ExperimentResult = failed_result(
            name, config, f"unknown experiment {name!r}"
        )
    else:
        try:
            result = EXPERIMENTS[name](config)
        except Exception as exc:  # noqa: BLE001 — degrade, never kill the server
            result = failed_result(name, config, f"{type(exc).__name__}: {exc}")
    return {"results": [result.to_json()], "plan": {}, "sim_cache": {}, "fallbacks": 0}


__all__ = [
    "run_experiment_job",
    "run_predict_job",
    "run_simulate_job",
    "wire_run",
]
