"""Sweep query planner: simulate each trace once, answer every point.

The paper's experiments are parameter sweeps: one program trace evaluated
against many cache configurations.  Pointwise execution costs
O(points x accesses); most of that work is shared.  This module takes a
*batch* of simulation requests and executes it as a shared-work plan.

Requests are keyed by trace identity — ``(program text, bound params,
layout placements)`` plus the run schedule ``(passes, warmup, flush)`` —
and each group is answered by the cheapest applicable collapse rule:

``cache``
    The content-keyed simcache already holds the point (full machine key
    or the name-independent prefix key below).  Zero simulation.
``capacity``
    Chosen per point: every single-level fully-associative LRU point of a
    single-pass group joins its line size's column, and one
    :func:`~repro.machine.engine.stack.stack_profile` pass per column of
    two or more answers every capacity with exact full counters.
    O(accesses) for the whole ladder instead of per point.  The group's
    other points take the rules below, on a trace of their own.
``prefix``
    Hierarchies that share a level prefix are merged into a simulation
    trie: each distinct level is one engine instance, chunks stream
    through the trie, and every level's ordered downstream event stream
    fans out to all of its children in memory — an L1 shared by ten
    machines is simulated once.  Leaf results are additionally persisted
    under a geometry-chain key (level names and layout-policy repr
    excluded), so later batches reuse them across machine renamings.
``trace``
    No structural sharing, but the trace is generated once and fanned to
    all hierarchies in a single pass (:meth:`Hierarchy.run_stream_multi`
    when sharding, the degenerate trie otherwise).  A lone point left
    after its group's capacity split runs here too, on a one-path trie.
``fallback``
    No rule applies (singleton group, unsupported schedule): the point
    runs through :func:`repro.interp.executor.execute` unchanged and the
    reason is recorded in the plan telemetry.

Planned output is bit-identical to pointwise execution: engines persist
chunked state, the trie replays :meth:`Hierarchy.flush` ordering per
path, results are assembled by the executor's own
:func:`~repro.interp.executor.assemble_run`, and every computed point is
written back to the simcache under its ordinary full key.

Telemetry follows the streaming/sharding collector pattern: the
``experiment`` decorator wraps each experiment in
:func:`collect_plan_telemetry` and :func:`summarize_plan` condenses the
session into the manifest's ``plan`` block (SCHEMA_VERSION 6).
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

from ..balance.analytic import analyze
from ..errors import AnalysisError, ExecutionError
from ..lang.printer import render
from ..lang.program import Program
from ..machine.cache import CacheGeometry, CacheStats
from ..machine.engine import make_cache, periodic, telemetry as engine_telemetry
from ..machine.engine.sharded import build_hierarchy
from ..machine.engine.simcache import SimulationCache, SimulationResult, resolve_memo
from ..machine.engine.stack import stack_profile
from ..machine.hierarchy import Hierarchy, HierarchyResult, StreamTotals
from ..machine.layout import LayoutPolicy
from ..machine.spec import MachineSpec
from ..interp.executor import (
    MachineRun,
    PointIdentity,
    _timed_chunks,
    assemble_run,
    execute,
    point_identity,
)
from ..options import ExecOptions, current_options
from ..phases import SIMULATE, TRACE_GEN, phase
from ..trace import telemetry as trace_telemetry
from ..trace.generator import TraceGenerator
from ..trace.stream import prefetch_chunks
from .predict import _session as _predict_session, _spot_check

#: Stable rule names, in the order the planner tries them.
RULES = ("cache", "capacity", "prefix", "trace", "fallback")


# -- requests -----------------------------------------------------------------
@dataclass(frozen=True)
class SimRequest:
    """One sweep point: everything :func:`execute` needs to run it.

    ``params`` is snapshotted (copied) at construction, so mutating the
    mapping a caller passed in cannot change the point afterwards.  The
    point's :attr:`identity` — bound params, layout, program text and
    sim-cache key — is derived on first use and cached on the request;
    its program text is the request's own :attr:`text`, which the wire
    form reads too, so a point is rendered once however often it is sent.
    """

    program: Program
    machine: MachineSpec
    params: Mapping[str, int] | None = None
    layout_policy: LayoutPolicy | None = None
    passes: int = 1
    warmup_passes: int = 0
    flush: bool = True
    validate: bool = True

    def __post_init__(self) -> None:
        if self.params is not None:
            object.__setattr__(self, "params", dict(self.params))

    @cached_property
    def text(self) -> str:
        """The program as mini-language text, rendered once."""
        return render(self.program)

    @cached_property
    def identity(self) -> PointIdentity:
        """The point's derived identity (:func:`point_identity`), once."""
        identity = point_identity(
            self.program,
            self.machine,
            self.params,
            self.layout_policy,
            passes=self.passes,
            warmup_passes=self.warmup_passes,
            flush=self.flush,
        )
        identity.__dict__["text"] = self.text  # seed its cached text: one render
        return identity


def request_key(request: SimRequest) -> str:
    """Content key identifying one request's exact simulation.

    The same ``(program text, bound params, placements, machine signature,
    schedule)`` key the planner and simcache use, read off the request's
    cached :attr:`~SimRequest.identity` (derived on the first call only).
    Two requests with equal keys are guaranteed bit-identical, which is
    what lets the service collapse them onto one in-flight future.
    """
    return request.identity.key


# -- telemetry ----------------------------------------------------------------
@dataclass
class PlanSession:
    """One experiment's planner accounting."""

    groups: int = 0
    points: int = 0
    by_rule: dict[str, int] = field(default_factory=lambda: {r: 0 for r in RULES})
    accesses_requested: int = 0  # accesses pointwise execution would simulate
    accesses_simulated: int = 0  # accesses actually fed to L1-level engines
    traces_generated: int = 0  # distinct trace streams generated
    fallbacks: list[dict[str, Any]] = field(default_factory=list)

    def record(self, rule: str, points: int = 1) -> None:
        self.points += points
        self.by_rule[rule] += points


_session: ContextVar[PlanSession | None] = ContextVar("plan_session", default=None)


@contextlib.contextmanager
def collect_plan_telemetry() -> Iterator[PlanSession]:
    """Collect planner telemetry for the enclosed experiment."""
    session = PlanSession()
    token = _session.set(session)
    try:
        yield session
    finally:
        _session.reset(token)


def summarize_plan(session: PlanSession | None) -> dict[str, Any]:
    """The manifest ``plan`` block (empty when the planner never ran,
    matching the stream/shards/analytic convention)."""
    if session is None or session.points == 0:
        return {}
    return {
        "groups": session.groups,
        "points": session.points,
        "by_rule": dict(session.by_rule),
        "accesses_requested": session.accesses_requested,
        "accesses_simulated": session.accesses_simulated,
        "traces_generated": session.traces_generated,
        "fallbacks": list(session.fallbacks),
    }


# -- the planner --------------------------------------------------------------
@dataclass
class _Point:
    """A request resolved against its layout and cache keys."""

    index: int
    request: SimRequest
    bound: Mapping[str, int]
    layout: Any
    key: str | None  # full simulation key (None when caching is off)
    prefix_key: str | None  # name-independent geometry-chain key


class _TrieNode:
    """One cache level shared by every hierarchy whose prefix reaches it."""

    __slots__ = ("name", "geometry", "children", "terminals", "cache")

    def __init__(self, name: str, geometry: CacheGeometry):
        self.name = name
        self.geometry = geometry
        self.children: dict[tuple[int, int, int], _TrieNode] = {}
        self.terminals = 0  # points whose last level this is
        self.cache = None  # instantiated once the shape is final

    @property
    def subscribers(self) -> int:
        return self.terminals + sum(c.subscribers for c in self.children.values())


def _chain(machine: MachineSpec) -> tuple[tuple[int, int, int], ...]:
    return tuple(
        (lvl.geometry.size_bytes, lvl.geometry.line_size, lvl.geometry.associativity)
        for lvl in machine.cache_levels
    )


def _prefix_signature(machine: MachineSpec) -> str:
    """Level-name- and policy-independent machine description.  The trace
    part of the key already pins the placements, so two machines with the
    same geometry chain are counter-identical on the same trace."""
    return "chain:" + ";".join(f"{s}/{ln}/{a}" for s, ln, a in _chain(machine))


def _finish_point(
    pt: _Point,
    result: HierarchyResult,
    totals: tuple[int, int, int],
    memo: SimulationCache | None,
    store_prefix: bool = True,
) -> MachineRun:
    flops, loads, stores = totals
    if memo is not None:
        value = SimulationResult(result, flops, loads, stores)
        if pt.key is not None:
            memo.put(pt.key, value)
        if store_prefix and pt.prefix_key is not None:
            memo.put(pt.prefix_key, value)
    return assemble_run(
        pt.request.program.name,
        pt.request.machine,
        pt.bound,
        result,
        flops,
        loads,
        stores,
        pt.request.passes,
    )


def _run_node(node: _TrieNode, addrs, writes, spans=()) -> None:
    # A root gets the trace's span hints, every child the hints its
    # parent derived for the events they share.
    collect = bool(node.children)
    hints: list = []
    if engine_telemetry.collecting():
        n = len(addrs)
        start = time.perf_counter()
        out = node.cache.run(addrs, writes, collect, spans, hints)
        engine_telemetry.record_level(
            node.cache.name, node.cache.engine, n, time.perf_counter() - start
        )
    else:
        out = node.cache.run(addrs, writes, collect, spans, hints)
    for child in node.children.values():
        _run_node(child, out[0], out[1], tuple(hints))


def _flush_node(node: _TrieNode) -> None:
    # Per root-to-leaf path this replays Hierarchy.flush exactly: level i
    # drains, its writebacks run through the levels below, then level i+1
    # drains.  Siblings hold independent state, so fan-out order between
    # them cannot change any counter.
    addrs, writes = node.cache.flush()
    for child in node.children.values():
        _run_node(child, addrs, writes)
    for child in node.children.values():
        _flush_node(child)


def execute_plan(
    requests: Sequence[SimRequest],
    *,
    sim_cache: SimulationCache | bool | None = None,
) -> list[MachineRun]:
    """Execute a batch of simulation requests as a shared-work plan.

    Returns one :class:`MachineRun` per request, in request order,
    bit-identical to calling :func:`execute` per point under the same
    active options; ``sim_cache`` means what it means for :func:`execute`.
    """
    requests = list(requests)
    if not requests:
        return []
    session = _session.get() or PlanSession()
    memo = resolve_memo(sim_cache)
    options = current_options()

    results: list[MachineRun | None] = [None] * len(requests)

    # Rule "cache": answer from the simcache (full key, then the
    # name-independent prefix key) before any grouping.
    groups: dict[tuple, list[_Point]] = {}
    for i, req in enumerate(requests):
        identity = req.identity
        bound, layout = identity.bound, identity.layout
        key = prefix_key = None
        if memo is not None:
            key = identity.key
            cached = memo.get(key)
            if cached is None:
                prefix_key = identity.key_for(_prefix_signature(req.machine))
                cached = memo.get(prefix_key)
                if cached is not None:
                    memo.put(key, cached)
            if cached is not None:
                results[i] = assemble_run(
                    req.program.name,
                    req.machine,
                    bound,
                    cached.result,
                    cached.flops,
                    cached.loads,
                    cached.stores,
                    req.passes,
                )
                session.record("cache")
                continue
        pt = _Point(i, req, bound, layout, key, prefix_key)
        gkey = (
            identity.text,
            tuple(sorted((k, int(v)) for k, v in bound.items())),
            tuple(
                sorted(
                    (name, p.base, tuple(p.extents), p.element_size)
                    for name, p in layout.placements.items()
                )
            ),
            req.passes,
            req.warmup_passes,
            req.flush,
            req.validate,
        )
        groups.setdefault(gkey, []).append(pt)

    for pts in groups.values():
        session.groups += 1
        _plan_group(pts, results, session, memo, options)
    return results  # type: ignore[return-value] — every slot is filled


def _fallback_point(
    pt: _Point,
    reason: str,
    results: list,
    session: PlanSession,
    memo: SimulationCache | None,
) -> None:
    req = pt.request
    run = execute(
        req.program,
        req.machine,
        params=req.params,
        layout=pt.layout,
        passes=req.passes,
        warmup_passes=req.warmup_passes,
        flush=req.flush,
        validate=req.validate,
        sim_cache=False,  # the planner owns the memo write (key in hand)
    )
    if memo is not None and pt.key is not None and req.passes >= 1:
        result = HierarchyResult(
            run.counters.level_stats, run.counters.downstream_bytes
        )
        totals = (
            run.counters.graduated_flops // req.passes,
            run.counters.loads // req.passes,
            run.counters.stores // req.passes,
        )
        memo.put(pt.key, SimulationResult(result, *totals))
        memo.put(pt.prefix_key, SimulationResult(result, *totals))
    results[pt.index] = run
    session.record("fallback")
    session.fallbacks.append(
        {"program": req.program.name, "machine": req.machine.name, "reason": reason}
    )


def _plan_group(
    pts: list[_Point],
    results: list,
    session: PlanSession,
    memo: SimulationCache | None,
    options: ExecOptions,
) -> None:
    req0 = pts[0].request
    passes, warmup, flush = req0.passes, req0.warmup_passes, req0.flush

    if passes < 1:
        for pt in pts:
            _fallback_point(pt, "passes < 1 is not plannable", results, session, memo)
        return
    if len(pts) == 1:
        _fallback_point(pts[0], "no shared work in group", results, session, memo)
        return

    # Rule "capacity", per point: every single-level fully-associative
    # point joins one stack-profile pass per line size, provided another
    # point shares that pass.  The rest of the group, even a lone point,
    # takes the trie (or trace fan-out under shards) on its own trace.
    by_line: dict[int, list[_Point]] = {}
    if passes == 1 and warmup == 0:
        for pt in pts:
            levels = pt.request.machine.cache_levels
            if len(levels) == 1 and levels[0].geometry.n_sets == 1:
                by_line.setdefault(levels[0].geometry.line_size, []).append(pt)
    columns = [col for col in by_line.values() if len(col) > 1]
    if columns:
        _capacity_group(columns, results, session, memo, flush)
        taken = {pt.index for col in columns for pt in col}
        pts = [pt for pt in pts if pt.index not in taken]
        if not pts:
            return

    group = _multi_group if options.shards > 1 else _trie_group
    group(pts, results, session, memo, options, passes, warmup, flush)


def _generator(pt: _Point) -> TraceGenerator:
    return TraceGenerator(
        pt.request.program, pt.bound, pt.layout, validate=pt.request.validate
    )


def _capacity_group(
    columns: list[list[_Point]],
    results: list,
    session: PlanSession,
    memo: SimulationCache | None,
    flush: bool,
) -> None:
    """One trace, one stack-distance profile per line size: each profile
    answers every capacity of its column exactly."""
    first = columns[0][0]
    with phase(TRACE_GEN):
        trace = _generator(first).generate()
    if len(trace) == 0 and trace.flops == 0:
        raise ExecutionError(
            f"program {first.request.program.name!r} generates no work"
        )
    trace_telemetry.record_trace_bytes(trace.nbytes)
    session.traces_generated += 1
    totals = (trace.flops, trace.loads, trace.stores)
    for col in columns:
        line_size = col[0].request.machine.cache_levels[0].geometry.line_size
        with phase(SIMULATE):
            profile = stack_profile(trace.addresses, trace.is_write, line_size)
        session.accesses_requested += len(trace) * len(col)
        session.accesses_simulated += len(trace)
        for pt in col:
            geo = pt.request.machine.cache_levels[0].geometry
            stats = profile.stats(geo.n_lines, flush=flush)
            result = HierarchyResult((stats,), (stats.events_out * geo.line_size,))
            results[pt.index] = _finish_point(pt, result, totals, memo)
            session.record("capacity")


def _feed_pass(
    roots: list[_TrieNode], gen: TraceGenerator, options: ExecOptions
) -> StreamTotals:
    chunks = _timed_chunks(gen, options.chunk_accesses)
    if options.stream in (True, "overlap"):
        chunks = prefetch_chunks(chunks)
    n_chunks = accesses = flops = loads = stores = 0
    with phase(SIMULATE):
        for chunk in chunks:
            for root in roots:
                _run_node(root, chunk.addresses, chunk.is_write, chunk.spans)
            n_chunks += 1
            accesses += len(chunk)
            flops += chunk.flops
            loads += chunk.loads
            stores += chunk.stores
    return StreamTotals(n_chunks, accesses, flops, loads, stores)


def _trie_group(
    pts: list[_Point],
    results: list,
    session: PlanSession,
    memo: SimulationCache | None,
    options: ExecOptions,
    passes: int,
    warmup: int,
    flush: bool,
) -> None:
    """Merge hierarchies into a level trie; shared prefixes simulate once."""
    roots: dict[tuple[int, int, int], _TrieNode] = {}
    paths: list[list[_TrieNode]] = []
    for pt in pts:
        level = roots
        path: list[_TrieNode] = []
        for spec_lvl in pt.request.machine.cache_levels:
            key = (
                spec_lvl.geometry.size_bytes,
                spec_lvl.geometry.line_size,
                spec_lvl.geometry.associativity,
            )
            node = level.get(key)
            if node is None:
                node = level[key] = _TrieNode(spec_lvl.name, spec_lvl.geometry)
            path.append(node)
            level = node.children
        path[-1].terminals += 1
        paths.append(path)

    def instantiate(node: _TrieNode) -> None:
        node.cache = make_cache(node.name, node.geometry, last_level=not node.children)
        for child in node.children.values():
            instantiate(child)
        periodic.link(node.cache, [c.cache for c in node.children.values()])

    root_list = list(roots.values())
    for root in root_list:
        instantiate(root)

    gen = _generator(pts[0])
    totals = None
    for _ in range(warmup):
        totals = _feed_pass(root_list, gen, options)
    if warmup:
        for path in paths:
            for node in path:
                node.cache.reset_stats()
    for _ in range(passes):
        totals = _feed_pass(root_list, gen, options)
    if totals.accesses == 0 and totals.flops == 0:
        raise ExecutionError(
            f"program {pts[0].request.program.name!r} generates no work"
        )
    if flush:
        with phase(SIMULATE):
            for root in root_list:
                _flush_node(root)
    trace_telemetry.record_trace_bytes(totals.accesses * 9)

    session.traces_generated += 1
    session.accesses_requested += totals.accesses * (passes + warmup) * len(pts)
    session.accesses_simulated += totals.accesses * (passes + warmup) * len(root_list)
    run_totals = (totals.flops, totals.loads, totals.stores)
    for pt, path in zip(pts, paths):
        level_stats = tuple(CacheStats(**vars(node.cache.stats)) for node in path)
        downstream = tuple(
            st.events_out * node.geometry.line_size
            for st, node in zip(level_stats, path)
        )
        result = HierarchyResult(level_stats, downstream)
        results[pt.index] = _finish_point(pt, result, run_totals, memo)
        shared = any(node.subscribers > 1 for node in path)
        session.record("prefix" if shared else "trace")


def _multi_group(
    pts: list[_Point],
    results: list,
    session: PlanSession,
    memo: SimulationCache | None,
    options: ExecOptions,
    passes: int,
    warmup: int,
    flush: bool,
) -> None:
    """Sharded hierarchies cannot share levels, but they can share the
    trace: generate once, fan chunks to every hierarchy."""
    gen = _generator(pts[0])
    hierarchies = [build_hierarchy(pt.request.machine) for pt in pts]

    def one_pass() -> StreamTotals:
        chunks = _timed_chunks(gen, options.chunk_accesses)
        if options.stream in (True, "overlap"):
            chunks = prefetch_chunks(chunks)
        with phase(SIMULATE):
            return Hierarchy.run_stream_multi(hierarchies, chunks)

    try:
        totals = None
        for _ in range(warmup):
            totals = one_pass()
        if warmup:
            for h in hierarchies:
                h.reset_stats()
        for _ in range(passes):
            totals = one_pass()
        if totals.accesses == 0 and totals.flops == 0:
            raise ExecutionError(
                f"program {pts[0].request.program.name!r} generates no work"
            )
        if flush:
            with phase(SIMULATE):
                for h in hierarchies:
                    h.flush()
        trace_telemetry.record_trace_bytes(totals.accesses * 9)
        session.traces_generated += 1
        session.accesses_requested += totals.accesses * (passes + warmup) * len(pts)
        session.accesses_simulated += totals.accesses * (passes + warmup) * len(pts)
        run_totals = (totals.flops, totals.loads, totals.stores)
        for pt, h in zip(pts, hierarchies):
            results[pt.index] = _finish_point(pt, h.result(), run_totals, memo)
            session.record("trace")
    finally:
        for h in hierarchies:
            h.close()


# -- batch entry point (predict-aware) ----------------------------------------
def run_batch(
    requests: Sequence[SimRequest],
    *,
    plan: bool | None = None,
    sim_cache: SimulationCache | bool | None = None,
) -> list[MachineRun]:
    """Run a batch of sweep points, planned or pointwise.

    ``plan=None`` follows the active options (``--plan``); ``sim_cache``
    means what it means for :func:`execute`.  When predict mode is
    active the planner serves exactly the points
    :func:`~repro.experiments.predict.run_or_predict` would have
    simulated — the deterministic spot-check sample, unanalyzable
    programs, and everything after a tripped fallback gate — with
    identical session accounting, so a planned predicted sweep matches a
    pointwise one row for row.
    """
    from .predict import run_or_predict

    requests = list(requests)
    if plan is None:
        plan = current_options().plan
    if not plan:
        return [
            run_or_predict(
                r.program,
                r.machine,
                r.params,
                layout_policy=r.layout_policy,
                passes=r.passes,
                warmup_passes=r.warmup_passes,
                flush=r.flush,
                validate=r.validate,
                sim_cache=sim_cache,
            )
            for r in requests
        ]

    session = _predict_session.get()
    enabled = session.enabled if session is not None else current_options().predict
    if not enabled:
        if session is not None:
            session.points += len(requests)
        return execute_plan(requests, sim_cache=sim_cache)

    # Predict mode: compute the analytic estimate per point (pure), then
    # batch the exact simulations the verification schedule needs.
    preds: list[MachineRun | AnalysisError] = []
    for r in requests:
        try:
            preds.append(
                analyze(
                    r.program,
                    r.machine,
                    r.params,
                    layout_policy=r.layout_policy,
                    passes=r.passes,
                ).run()
            )
        except AnalysisError as exc:
            preds.append(exc)

    if session is None:
        # No telemetry session: run_or_predict ships estimates unchecked;
        # only unanalyzable points simulate.
        exact_idx = [k for k, p in enumerate(preds) if isinstance(p, AnalysisError)]
        exact_runs = execute_plan([requests[k] for k in exact_idx], sim_cache=sim_cache)
        exact = dict(zip(exact_idx, exact_runs))
        return [exact.get(k, p) for k, p in enumerate(preds)]

    # Optimistic schedule: assuming no gate trip, the exact set is the
    # spot-check stride plus unanalyzable points (plus everything, if the
    # gate is already tripped).
    stride = session.stride
    exacts: dict[int, MachineRun] = {}
    need: list[int] = []
    virt_index = session.predicted + session.checked
    tripped = session.fallback_active
    for k, p in enumerate(preds):
        if tripped or isinstance(p, AnalysisError):
            need.append(k)
        elif virt_index % stride == 0:
            need.append(k)
            virt_index += 1
        else:
            virt_index += 1
    need_runs = execute_plan([requests[k] for k in need], sim_cache=sim_cache)
    exacts.update(zip(need, need_runs))

    results: list[MachineRun] = []
    for k, r in enumerate(requests):
        pred = preds[k]
        session.points += 1
        if session.fallback_active:
            if k not in exacts:
                # A spot check tripped the gate mid-batch: every remaining
                # unsimulated point now runs exactly, in one more plan.
                rest = [j for j in range(k, len(requests)) if j not in exacts]
                rest_runs = execute_plan([requests[j] for j in rest], sim_cache=sim_cache)
                exacts.update(zip(rest, rest_runs))
            results.append(exacts[k])
            continue
        if isinstance(pred, AnalysisError):
            session.fallbacks += 1
            session.outliers.append(
                {
                    "program": r.program.name,
                    "machine": r.machine.name,
                    "channel": None,
                    "error": None,
                    "reason": str(pred),
                }
            )
            results.append(exacts[k])
            continue
        index = session.predicted + session.checked
        if index % stride == 0:
            exact = exacts[k]
            _spot_check(session, pred, exact)
            results.append(exact)
            continue
        session.predicted += 1
        results.append(pred)
    return results


__all__ = [
    "PlanSession",
    "PointIdentity",
    "SimRequest",
    "collect_plan_telemetry",
    "execute_plan",
    "point_identity",
    "request_key",
    "run_batch",
    "summarize_plan",
]
