"""Which public functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Every name in :data:`PER_LAYER` is reported by every workload; a layer
that did no work on a workload reports 0 (the "no change" prediction for
that workload).  Times and counts are per operation (one battery, one
sweep batch, one predict ladder, one block of serve requests).
"""

from __future__ import annotations

import inspect
import statistics
from collections import defaultdict
from typing import Any, Iterable

from tracer import Span, Tracer

#: The battery's experiments (the registry minus ``ladder``), in
#: registry order.
EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "e9", "e10",
    "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "contention",
)

#: Cache levels reported by name: Origin's L1/L2 and the ladder's C.
LEVELS = ("L1", "L2", "C")

TIMING_FUNCTIONS = {
    "repro.machine.timing": ("bandwidth_bound_time", "latency_bound_time", "overlap_time"),
    "repro.machine.contention": (
        "contended_time", "contended_bound_time", "maybe_contended",
        "machine_balance_at", "contended_balance", "split_work",
    ),
}

PROTOCOL_FUNCTIONS = {
    "repro.service.protocol": (
        "encode", "decode", "sim_request_to_json", "sim_request_from_json",
    ),
    "repro.service.executor": ("wire_run",),
    "repro.service.client": ("_rebuild",),
}


def _metric(name: str, unit: str, better: str) -> dict[str, str]:
    return {"name": name, "unit": unit, "better": better}


def _per_layer() -> list[dict[str, str]]:
    out = [_metric(f"experiments.{n}.s", "s", "lower") for n in EXPERIMENTS]
    out.append(_metric("orchestrator.self_s", "s", "lower"))
    out += [
        _metric("plan.self_s", "s", "lower"),
        _metric("plan.groups", "count", "lower"),
        _metric("plan.rule.cache", "points", "higher"),
        _metric("plan.rule.capacity", "points", "higher"),
        _metric("plan.rule.prefix", "points", "higher"),
        _metric("plan.rule.trace", "points", "lower"),
        _metric("plan.rule.fallback", "points", "lower"),
        _metric("plan.access_reduction", "ratio", "higher"),
        _metric("analytic.calls", "count", "lower"),
        _metric("analytic.self_s", "s", "lower"),
        _metric("predict.checked", "points", "lower"),
        _metric("predict.fallbacks", "count", "lower"),
        _metric("predict.exact_share", "ratio", "lower"),
        _metric("predict.max_error", "ratio", "lower"),
        _metric("service.batches", "count", "lower"),
        _metric("service.batch_points_mean", "points", "higher"),
        _metric("service.run_batch_s", "s", "lower"),
        _metric("service.queue_wait_ms_p50", "ms", "lower"),
        _metric("service.protocol_s", "s", "lower"),
        _metric("service.dedup_ratio", "ratio", "higher"),
        _metric("service.rejects", "count", "lower"),
        _metric("execute.calls", "count", "lower"),
        _metric("execute.self_s", "s", "lower"),
        _metric("evaluator.self_s", "s", "lower"),
        _metric("transforms.calls", "count", "lower"),
        _metric("transforms.self_s", "s", "lower"),
        _metric("transforms.verify_s", "s", "lower"),
        _metric("fusion.self_s", "s", "lower"),
        _metric("lang.render_calls", "count", "lower"),
        _metric("lang.self_s", "s", "lower"),
        _metric("trace.self_s", "s", "lower"),
        _metric("trace.accesses", "count", "lower"),
        _metric("trace.maccess_per_s", "Macc/s", "higher"),
    ]
    for level in LEVELS:
        out += [
            _metric(f"engine.{level}.self_s", "s", "lower"),
            _metric(f"engine.{level}.accesses", "count", "lower"),
            _metric(f"engine.{level}.maccess_per_s", "Macc/s", "higher"),
        ]
    out += [
        _metric("engine.stack_profile.self_s", "s", "lower"),
        _metric("engine.reference.self_s", "s", "lower"),
        _metric("hierarchy.self_s", "s", "lower"),
        _metric("opt_cache.self_s", "s", "lower"),
        _metric("opt_cache.accesses", "count", "lower"),
        _metric("simcache.gets", "count", "lower"),
        _metric("simcache.hit_ratio", "ratio", "higher"),
        _metric("simcache.puts", "count", "lower"),
        _metric("simcache.wait_s", "s", "lower"),
        _metric("timing.calls", "count", "lower"),
        _metric("timing.self_s", "s", "lower"),
        _metric("tracing.overhead_s", "s", "lower"),
    ]
    return out


#: The ``per_layer`` list of BENCHMARK.json, in report order.
PER_LAYER = _per_layer()


# -- probes: counts recorded on a span ------------------------------------------
def _engine_run(args, kwargs):
    counts = {"accesses": len(args[1]), "engine": type(args[0]).__name__}
    return lambda result: counts


def _len_result(args, kwargs):
    return lambda result: {"accesses": len(result)}


def _hit(args, kwargs):
    return lambda result: {"hit": result is not None}


def _plan_counts(args, kwargs):
    """Planner accounting for one ``execute_plan`` call: a delta of the
    active session, or a session opened for the call when none is."""
    from repro.experiments import plan

    session = plan._session.get()
    token = None
    if session is None:
        session = plan.PlanSession()
        token = plan._session.set(session)
    before = (session.groups, session.accesses_requested,
              session.accesses_simulated, dict(session.by_rule))

    def finish(result):
        if token is not None:
            plan._session.reset(token)
        groups, requested, simulated, rules = before
        counts = {
            "groups": session.groups - groups,
            "requested": session.accesses_requested - requested,
            "simulated": session.accesses_simulated - simulated,
        }
        for rule, n in session.by_rule.items():
            counts[f"rule.{rule}"] = n - rules.get(rule, 0)
        return counts

    return finish


def _fingerprints(args, kwargs):
    import json

    keys = [json.dumps(p, sort_keys=True) for p in args[0]]
    return lambda result: {"points": keys}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions (all ``repro`` modules the
    workload uses must be imported before this runs)."""
    import repro.balance.analytic as analytic
    import repro.experiments.registry as registry
    import repro.fusion as fusion
    import repro.interp.evaluator  # noqa: F401 — bound by name below
    import repro.transforms as transforms
    from repro.machine.cache import Cache
    from repro.machine.engine.direct import DirectMappedEngine
    from repro.machine.engine.setassoc import SetAssociativeEngine
    from repro.machine.engine.simcache import SimulationCache
    from repro.machine.engine.stack import StackDistanceEngine
    from repro.machine.hierarchy import Hierarchy
    from repro.trace.generator import TraceGenerator

    wf = tracer.wrap_function
    tracer.wrap_entries(registry.EXPERIMENTS, lambda key: f"experiments.{key}", "experiments")
    wf("repro.api", "run_battery", "orchestrator", "orchestrator")
    wf("repro.experiments.plan", "execute_plan", "plan", "plan", _plan_counts)
    wf("repro.experiments.plan", "stack_profile", "engine.stack_profile", "engine")
    wf("repro.balance.analytic", "analyze", "analytic.analyze", "analytic")
    tracer.wrap_method(analytic.AnalyticEstimate, "run", "analytic.run", "analytic")
    wf("repro.interp.executor", "execute", "execute", "interp")
    wf("repro.interp.evaluator", "evaluate", "evaluator", "evaluator")
    for fn_name in transforms.__all__:
        if not inspect.isfunction(getattr(transforms, fn_name)):
            continue
        verify = fn_name in ("verify_equivalent", "is_equivalent")
        wf("repro.transforms", fn_name,
           "transforms.verify" if verify else f"transforms.{fn_name}", "transforms")
    for fn_name in fusion.__all__:
        if inspect.isfunction(getattr(fusion, fn_name)):
            wf("repro.fusion", fn_name, f"fusion.{fn_name}", "fusion")
    wf("repro.lang.printer", "render", "lang.render", "lang")
    wf("repro.lang.parser", "parse", "lang.parse", "lang")
    tracer.wrap_method(TraceGenerator, "generate", "trace.generate", "trace", _len_result)
    tracer.wrap_method(TraceGenerator, "chunks", "trace.chunk", "trace", _len_result)
    for cls in (Cache, DirectMappedEngine, SetAssociativeEngine, StackDistanceEngine):
        tracer.wrap_method(cls, "run", lambda cache: f"engine.{cache.name}",
                           "reference" if cls is Cache else "engine", _engine_run)
    for method in ("run_trace", "run_stream", "flush"):
        tracer.wrap_method(Hierarchy, method, f"hierarchy.{method}", "hierarchy")
    wf("repro.machine.opt_cache", "simulate_opt", "opt_cache", "opt_cache",
       lambda args, kwargs: (lambda result, n=len(args[0]): {"accesses": n}))
    tracer.wrap_method(SimulationCache, "get", "simcache.get", "simcache", _hit)
    tracer.wrap_method(SimulationCache, "put", "simcache.put", "simcache")
    tracer.wrap_method(SimulationCache, "wait_for", "simcache.wait_for", "simcache")
    for module, names in TIMING_FUNCTIONS.items():
        for fn_name in names:
            wf(module, fn_name, f"timing.{fn_name}", "timing")
    wf("repro.service.executor", "run_simulate_job", "service.run_batch", "service",
       _fingerprints)
    wf("repro.experiments.plan", "request_key", "service.request_key", "service")
    for module, names in PROTOCOL_FUNCTIONS.items():
        for fn_name in names:
            wf(module, fn_name, f"protocol.{fn_name}", "protocol")


# -- aggregation ---------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(spans: Iterable[Span], ops: int) -> dict[str, float]:
    """Per-operation per-layer metrics from the spans of ``ops`` traced
    operations (service and predict metrics are added by the workload)."""
    spans = list(spans)
    ops = max(1, ops)
    by_name: dict[str, list[Span]] = defaultdict(list)
    by_layer: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
        by_layer[sp.layer].append(sp)

    def total(items, attr="self_s"):
        return sum(getattr(sp, attr) for sp in items)

    def count(items, key):
        return sum(sp.attrs.get(key, 0) for sp in items)

    m: dict[str, float] = {metric["name"]: 0.0 for metric in PER_LAYER}
    for name in EXPERIMENTS:
        m[f"experiments.{name}.s"] = total(by_name[f"experiments.{name}"], "duration") / ops
    m["orchestrator.self_s"] = total(by_layer["orchestrator"]) / ops

    plans = by_name["plan"]
    m["plan.self_s"] = total(plans) / ops
    m["plan.groups"] = count(plans, "groups") / ops
    for rule in ("cache", "capacity", "prefix", "trace", "fallback"):
        m[f"plan.rule.{rule}"] = count(plans, f"rule.{rule}") / ops
    m["plan.access_reduction"] = _ratio(count(plans, "requested"), count(plans, "simulated"))

    m["analytic.calls"] = len(by_name["analytic.analyze"]) / ops
    m["analytic.self_s"] = total(by_layer["analytic"]) / ops

    m["execute.calls"] = len(by_name["execute"]) / ops
    m["execute.self_s"] = total(by_name["execute"]) / ops
    m["evaluator.self_s"] = total(by_layer["evaluator"]) / ops
    transforms = by_layer["transforms"]
    m["transforms.calls"] = sum(1 for sp in transforms if sp.name != "transforms.verify") / ops
    m["transforms.self_s"] = total(transforms) / ops
    # Verification is inclusive (outermost verify spans only): the
    # reference interpreter it runs is what gates every transform.
    by_id = {sp.id: sp for sp in spans}
    m["transforms.verify_s"] = sum(
        sp.duration for sp in by_name["transforms.verify"]
        if getattr(by_id.get(sp.parent), "name", None) != "transforms.verify"
    ) / ops
    m["fusion.self_s"] = total(by_layer["fusion"]) / ops
    m["lang.render_calls"] = len(by_name["lang.render"]) / ops
    m["lang.self_s"] = total(by_layer["lang"]) / ops

    traces = by_layer["trace"]
    trace_s = total(traces)
    trace_acc = count(traces, "accesses")
    m["trace.self_s"] = trace_s / ops
    m["trace.accesses"] = trace_acc / ops
    m["trace.maccess_per_s"] = _ratio(trace_acc, trace_s) / 1e6

    engines = by_layer["engine"] + by_layer["reference"]
    for level in LEVELS:
        runs = [sp for sp in engines if sp.name == f"engine.{level}"]
        s, acc = total(runs), count(runs, "accesses")
        m[f"engine.{level}.self_s"] = s / ops
        m[f"engine.{level}.accesses"] = acc / ops
        m[f"engine.{level}.maccess_per_s"] = _ratio(acc, s) / 1e6
    m["engine.stack_profile.self_s"] = total(by_name["engine.stack_profile"]) / ops
    m["engine.reference.self_s"] = total(by_layer["reference"]) / ops
    m["hierarchy.self_s"] = total(by_layer["hierarchy"]) / ops

    m["opt_cache.self_s"] = total(by_layer["opt_cache"]) / ops
    m["opt_cache.accesses"] = count(by_layer["opt_cache"], "accesses") / ops

    gets = by_name["simcache.get"]
    m["simcache.gets"] = len(gets) / ops
    m["simcache.hit_ratio"] = _ratio(sum(1 for sp in gets if sp.attrs.get("hit")), len(gets))
    m["simcache.puts"] = len(by_name["simcache.put"]) / ops
    m["simcache.wait_s"] = total(by_name["simcache.wait_for"], "duration") / ops

    m["timing.calls"] = len(by_layer["timing"]) / ops
    m["timing.self_s"] = total(by_layer["timing"]) / ops
    return m


def service_metrics(spans: Iterable[Span], requests: list[dict[str, Any]],
                    stats_delta: dict[str, float], ops: int) -> dict[str, float]:
    """The ``service.*`` metrics of the traced serve blocks.

    ``requests`` holds one record per client request: send and reply
    times on the tracer's clock and the fingerprints of its points.  A
    request's queue wait is its latency minus the part of the
    ``run_batch`` span that answered it (the last batch to finish inside
    the request's interval that carried one of its points)."""
    spans = list(spans)
    ops = max(1, ops)
    batches = [sp for sp in spans if sp.name == "service.run_batch"]
    waits = []
    for req in requests:
        best = None
        for sp in batches:
            if req["sent"] <= sp.end <= req["done"] and req["keys"] & set(sp.attrs["points"]):
                if best is None or sp.end > best.end:
                    best = sp
        if best is not None:
            overlap = best.end - max(best.start, req["sent"])
            waits.append((req["done"] - req["sent"] - overlap) * 1e3)
    protocol = sum(sp.self_s for sp in spans if sp.layer == "protocol")
    protocol += sum(sp.self_s for sp in spans if sp.name == "service.request_key")
    return {
        "service.batches": stats_delta.get("batches", 0) / ops,
        "service.batch_points_mean": _ratio(stats_delta.get("batch_points", 0),
                                            stats_delta.get("batches", 0)),
        "service.run_batch_s": _ratio(sum(sp.duration for sp in batches), len(batches)),
        "service.queue_wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "service.protocol_s": _ratio(protocol, len(requests)),
        "service.dedup_ratio": _ratio(stats_delta.get("dedup_hits", 0),
                                      stats_delta.get("points", 0)),
        "service.rejects": stats_delta.get("rejects", 0) / ops,
    }
