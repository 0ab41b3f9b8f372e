"""Analytic per-level traffic and time prediction (no trace generated).

Trace simulation is exact but O(accesses); this module predicts the same
counters in O(loop nest) by walking the IR.  The model is the working-set
("layer condition") approximation of the analytic loop-kernel literature
(Treibig & Hager's kernel model; the ECM family), grounded in the paper's
balance framework:

* every array reference under a loop nest is an affine byte function of
  the loop step variables — the coefficients come from the subscript
  affines times the layout strides (``machine.layout``);
* references with identical coefficient vectors form a *reference group*
  (a stencil's ``a[i]``/``a[i+1]``, or a read+write of one element);
* for each cache level, the *fit depth* d* is the outermost loop depth at
  which the nest's combined working set fits the cache.  Every group's
  distinct lines over loops ``d*-1 .. k`` are fetched once per iteration
  of the loops outside, which yields the per-level miss count directly:

      misses(g) = prod(trips[: e-1]) * lines_g(e),   e = max(1, d* - 1)

  (``e = d* - 1`` because line reuse between *adjacent* iterations of
  loop ``d*-1`` survives — its reuse distance is the fitting working set
  WS(d*) — while everything outside is evicted, WS(d) > C for d < d*);
* written groups write their lines back (the executor flushes dirty
  lines, so resident footprints pay the writeback too);
* on direct-mapped levels, groups that move in lockstep (identical
  coefficients) and whose placements collide modulo the cache size thrash
  each other: misses become access counts — the Exemplar footnote-3
  anomaly, computed from the same ``machine/layout.py`` placement math
  that creates it (and removed by the same padding that fixes it);
* on associative levels, a single-loop nest whose lockstep streams crowd
  one set window (more streams within a line of each other than the
  level has ways — arrays near a multiple of half a way apart) is
  *resonant*: whether a line survives depends on the exact interleaving
  of the traffic the level above lets through.  Its counts come from two
  short exact windows of its own access pattern, extrapolated over the
  trip count (the pattern repeats after every stream advances a whole
  line at every level), so the cost stays O(line size), not O(trip).

Flops, element loads and stores are counted exactly, in the same walk
that collects the nests, with guards honored by exact masks; per-level
misses/writebacks are estimates.  Only guards need NumPy iteration
grids, so only loops holding a guard build one: "O(loop nest)" holds for
memory as well as time.  ``analyze``
returns an :class:`AnalyticEstimate` whose :meth:`AnalyticEstimate.run`
is a drop-in :class:`~repro.interp.executor.MachineRun`, so everything
downstream — ``ProgramBalance``, ``predict_time``, the ECM-style
``overlap_time`` — consumes analytic numbers unchanged.

Model assumptions (documented error sources, quantified by the
differential suite and the predict-then-verify spot checks):

* inter-nest reuse is ignored — each top-level nest pays its compulsory
  misses (overestimates when consecutive nests share hot arrays);
* capacity is the full cache size ``C`` — near ``WS(d) = C`` boundaries
  the simulated LRU flips earlier or later than the model;
* guarded statements scale traffic by their exact active fraction but
  keep the unguarded footprint shape (``approximate`` is flagged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import AnalysisError
from ..interp.counters import HardwareCounters
from ..interp.executor import MachineRun
from ..lang.affine import Affine
from ..lang.expr import ArrayRef, array_refs, flop_count
from ..lang.program import Program
from ..lang.stmt import Assign, ExternalRead, If, Loop
from ..machine.cache import CacheStats
from ..machine.contention import maybe_contended
from ..machine.hierarchy import Hierarchy
from ..machine.layout import LayoutPolicy, MemoryLayout, build_layout
from ..machine.spec import MachineSpec
from ..machine.timing import (
    bandwidth_bound_time,
    latency_bound_time,
    overlap_time,
)
from .model import ProgramBalance


# ---------------------------------------------------------------------------
# Collected reference structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ref:
    """One array reference as an affine byte function of loop steps."""

    array: str
    coeffs: tuple[int, ...]  # bytes moved per step of each enclosing loop
    offset: int  # absolute byte address at the all-zero step
    width: int  # bytes touched per access (element size)
    is_write: bool


@dataclass
class _Nest:
    """All references of one leaf statement list under one loop chain."""

    trips: tuple[int, ...]  # outermost first
    refs: list[_Ref]
    fraction: float = 1.0  # active fraction under enclosing guards
    # ``refs`` in order are exactly one iteration's accesses: no guard
    # above and no loop or guard beside the statements.
    straight: bool = False

    @property
    def iterations(self) -> int:
        return math.prod(self.trips) if self.trips else 1


@dataclass
class _Group:
    """References of one array moving in lockstep (equal coefficients)."""

    array: str
    coeffs: tuple[int, ...]
    base: int  # smallest member offset
    width: int  # byte span of the members (incl. element width)
    members: int  # reference occurrences per iteration
    writes: int  # written occurrences per iteration
    extents: list[tuple[int, int]] = field(default_factory=list)  # (offset, width)
    thrash: bool = False  # direct-mapped conflict detected

    def iteration_lines(self, line: int) -> int:
        """Distinct lines one iteration touches.  The group's ``width``
        is the member *span*, which is the right footprint once loops
        sweep it — but a single iteration of e.g. a stencil pair
        ``phi[i][j]``/``phi[i+1][j]`` or an FFT butterfly touches only
        the members' own lines, not the rows between them."""
        touched = set()
        for off, w in self.extents:
            touched.update(range(off // line, (off + w - 1) // line + 1))
        return max(1, len(touched))

    def _merged_extents(self) -> list[tuple[int, int]]:
        """Member extents relative to ``base``, overlap/adjacency-merged."""
        exts: list[tuple[int, int]] = []
        for off, w in sorted((o - self.base, w) for o, w in self.extents):
            if exts and off <= exts[-1][0] + exts[-1][1]:
                po, pw = exts[-1]
                exts[-1] = (po, max(po + pw, off + w) - po)
            else:
                exts.append((off, w))
        return exts

    def depth_lines(self, d: int, trips: tuple[int, ...], line: int) -> int:
        """Distinct lines swept by loops ``d..k`` in one iteration of
        loop ``d-1``.

        Members are folded onto the iteration lattice first: an offset
        that is a whole number of steps ``q <= trip`` of a remaining
        loop walks the same translate family as the base member, merely
        extending that loop's effective trip (``rhs[j][i]``/
        ``rhs[j+1][i]`` under a row-stride loop add one row, not the
        dense span between the members).  Offsets that do not fold count
        their own lines as residuals; the pre-fold span stays the cap.
        """
        coeffs = self.coeffs[d:]
        sub_trips = trips[d:]
        if not any(c and t > 1 for c, t in zip(coeffs, sub_trips)):
            return self.iteration_lines(line)
        exts = self._merged_extents()
        ext_trips = list(sub_trips)
        folded_width = exts[0][1]
        residual: list[int] = []
        for off, w in exts[1:]:
            for idx, c in enumerate(coeffs):
                c = abs(c)
                if c and sub_trips[idx] > 1 and off % c == 0:
                    q = off // c
                    if 0 < q <= sub_trips[idx]:
                        ext_trips[idx] = max(ext_trips[idx], sub_trips[idx] + q)
                        folded_width = max(folded_width, w)
                        break
            else:
                residual.append(w)
        total = _lines(coeffs, ext_trips, folded_width, line) + sum(
            _lines(coeffs, sub_trips, w, line) for w in residual
        )
        return min(total, _lines(coeffs, sub_trips, self.width, line))


def _collect(
    program: Program, params: Mapping[str, int], layout: MemoryLayout
) -> tuple[list[_Nest], tuple[int, int, int], bool]:
    """Walk the body into per-nest reference lists and exact counts.

    Returns the nests, the executed (flops, loads, stores) and whether any
    guard forced an approximation.  A leaf executes ``prod(trips)`` times,
    or under a guard exactly as often as its mask is set.  Masks are the
    only readers of NumPy iteration grids, so a loop builds its grid only
    when its body holds a guard: an unguarded nest costs O(loop nest) time
    and memory whatever its trip counts.
    """
    nests: list[_Nest] = []
    counts = [0, 0, 0]  # flops, loads, stores
    approximate = False

    def resolve(
        ref: ArrayRef,
        is_write: bool,
        bindings: dict[str, Affine],
        steps: dict[str, int],
    ) -> _Ref:
        placement = layout[ref.array]
        size = placement.element_size
        coeffs = [0] * len(steps)
        offset = placement.base
        for sub, stride in zip(ref.index, placement.strides):
            # sub.substitute(bindings), accumulated straight into byte
            # coefficients.  Program validation binds every subscript
            # symbol to a parameter or an enclosing loop, so each image
            # is an affine of the loop steps alone.
            scale = stride * size
            offset += sub.const * scale
            for s, c in sub.terms.items():
                image = bindings[s]
                offset += image.const * c * scale
                for t, k in image.terms.items():
                    coeffs[steps[t]] += k * c * scale
        return _Ref(ref.array, tuple(coeffs), offset, size, is_write)

    def walk(
        stmts,
        trips: list[int],
        bindings: dict[str, Affine],
        steps: dict[str, int],
        active: int | None,
        grid: tuple[dict, tuple[int, ...], np.ndarray | None] | None,
    ) -> None:
        """``bindings`` map parameters and loop variables to affines of the
        loop steps (``steps`` numbers them outermost first); ``active`` is
        the executed iteration count under the enclosing guards (None when
        unguarded); ``grid`` is the ``(venv, shape, mask)`` a guard below
        evaluates over (None when no guard is below)."""
        nonlocal approximate
        iterations = math.prod(trips)
        executed = iterations if active is None else active
        fraction = 1.0 if active is None else active / iterations
        local = _Nest(tuple(trips), [], fraction)
        for stmt in stmts:
            if isinstance(stmt, (Assign, ExternalRead)):
                refs: list[tuple[ArrayRef, bool]] = []
                if isinstance(stmt, Assign):
                    refs = [(r, False) for r in array_refs(stmt.rhs)]
                    counts[0] += flop_count(stmt.rhs) * executed
                    counts[1] += len(refs) * executed
                if isinstance(stmt.lhs, ArrayRef):
                    refs.append((stmt.lhs, True))
                    counts[2] += executed
                for ref, is_write in refs:
                    local.refs.append(resolve(ref, is_write, bindings, steps))
            elif isinstance(stmt, Loop):
                trip = _trip(program, stmt, params)
                if trip == 0:
                    continue
                step = f"{stmt.var}.{len(steps)}"
                child = dict(bindings)
                child[stmt.var] = stmt.lower.substitute(bindings) + Affine.var(step)
                guarded = grid is not None and any(
                    isinstance(s, If) for s in stmt.walk()
                )
                walk(
                    stmt.body,
                    trips + [trip],
                    child,
                    {**steps, step: len(steps)},
                    None if active is None else active * trip,
                    _extend_grid(grid, stmt, trip) if guarded else None,
                )
            elif isinstance(stmt, If):
                approximate = True
                venv, shape, mask = grid
                cond = np.broadcast_to(
                    np.asarray(stmt.cond.evaluate_vec(venv), dtype=np.bool_), shape
                )
                for body, taken in ((stmt.then, cond), (stmt.orelse, ~cond)):
                    if body:
                        taken = taken if mask is None else (mask & taken)
                        grid_taken = (venv, shape, taken)
                        walk(body, trips, bindings, steps, int(taken.sum()), grid_taken)
            else:
                raise AnalysisError(
                    f"{program.name}: cannot analyze statement {type(stmt).__name__}"
                )
        if local.refs and local.fraction > 0:
            local.straight = active is None and not any(
                isinstance(s, (Loop, If)) for s in stmts
            )
            nests.append(local)

    param_bindings = {p: Affine.const_of(v) for p, v in params.items()}
    walk(program.body, [], param_bindings, {}, None, (dict(params), (), None))
    return nests, tuple(counts), approximate


def _extend_grid(grid, stmt: Loop, trip: int):
    """The iteration grid one level deeper: every enclosing loop variable
    gains an axis and ``stmt.var`` spans the new one."""
    venv, shape, mask = grid
    child_venv = {
        k: v[..., None] if isinstance(v, np.ndarray) else v for k, v in venv.items()
    }
    arange = np.arange(trip, dtype=np.int64).reshape((1,) * len(shape) + (trip,))
    child_venv[stmt.var] = np.asarray(stmt.lower.evaluate_vec(child_venv)) + arange
    child_shape = shape + (trip,)
    if mask is not None:
        mask = np.broadcast_to(mask[..., None], child_shape)
    return child_venv, child_shape, mask


def _trip(program: Program, stmt: Loop, params: Mapping[str, int]) -> int:
    span = stmt.upper - stmt.lower
    loose = span.symbols - set(params)
    if loose:
        raise AnalysisError(
            f"{program.name}: loop {stmt.var}: trip count depends on "
            f"{sorted(loose)}; only rectangular nests can be analyzed"
        )
    return max(0, span.evaluate(params))


# ---------------------------------------------------------------------------
# Footprint model
# ---------------------------------------------------------------------------


def _lines_dims(dims: list[tuple[int, int]], width: int, line: int) -> int:
    """Distinct lines of a block pattern given prepared (stride, trip) dims."""
    blocks, extent, span = 1, width, width
    for c, t in sorted(dims):
        if c <= extent:
            extent += c * (t - 1)
        else:
            blocks *= t
        span += c * (t - 1)
    per_block = -(-extent // line)  # ceil
    return max(1, min(blocks * per_block, -(-span // line)))


def _lines(coeffs, trips, width: int, line: int) -> int:
    """Distinct cache lines touched by ``{sum c_d*s_d + [0, width)}``.

    A block-merging sweep over the dimensions in ascending stride order:
    strides within the current block extent merge into a denser block,
    larger strides multiply the block count; the final count is capped by
    the total span (overlapping copies never exceed span/line lines).
    """
    dims = [(abs(c), t) for c, t in zip(coeffs, trips) if c != 0 and t > 1]
    return _lines_dims(dims, width, line)


def _covered_sets(coeffs, trips, width: int, line: int, n_sets: int) -> int:
    """Distinct cache *sets* a footprint lands in.

    The set index is periodic in the address with period ``line*n_sets``,
    so each stride folds to its gcd with the period and its trip count
    saturates at one period — a 4096-byte column stride in a 16 KiB way
    lands on 4 sets no matter how long the column is.
    """
    if n_sets <= 1:
        return 1
    period = line * n_sets
    dims = []
    for c, t in zip(coeffs, trips):
        if c == 0 or t <= 1:
            continue
        c = abs(c)
        if c * t <= period:
            dims.append((c, t))  # no wraparound: positions exact
        else:
            g = math.gcd(c, period)
            if t >= period // g:
                dims.append((g, period // g))  # full wrap: all multiples of g
            else:
                # Partial wrap: t distinct positions (t < period/gcd),
                # spread over the period — approximate as evenly spaced.
                dims.append((max(g, period // t), t))
    return min(n_sets, _lines_dims(dims, min(width, period), line))


def _group_refs(refs: list[_Ref]) -> list[_Group]:
    groups: dict[tuple[str, tuple[int, ...]], _Group] = {}
    for r in refs:
        key = (r.array, r.coeffs)
        g = groups.get(key)
        if g is None:
            groups[key] = _Group(
                r.array,
                r.coeffs,
                r.offset,
                r.width,
                1,
                int(r.is_write),
                extents=[(r.offset, r.width)],
            )
        else:
            lo = min(g.base, r.offset)
            hi = max(g.base + g.width, r.offset + r.width)
            g.base, g.width = lo, hi - lo
            g.members += 1
            g.writes += int(r.is_write)
            g.extents.append((r.offset, r.width))
    return list(groups.values())


def _mark_conflicts(groups: list[_Group], cache_bytes: int, line: int) -> None:
    """Direct-mapped conflict term: lockstep groups whose placements land
    in the same set (modulo the cache) thrash each other every iteration."""
    by_coeffs: dict[tuple[int, ...], list[_Group]] = {}
    for g in groups:
        if any(g.coeffs):
            by_coeffs.setdefault(g.coeffs, []).append(g)
    for cluster in by_coeffs.values():
        for i, g in enumerate(cluster):
            for h in cluster[i + 1 :]:
                delta = (h.base - g.base) % cache_bytes
                if min(delta, cache_bytes - delta) < line:
                    g.thrash = h.thrash = True


#: Window lengths, in periods, of the exact resonance sample.
_SAMPLE_PERIODS = (2, 4)


def _resonant_stride(nest: _Nest, machine: MachineSpec) -> int:
    """The byte stride shared by every reference of a single-loop nest
    whose streams crowd one set window at some associative level; 0
    when the working-set model may answer.

    Streams that advance in lockstep keep a constant set distance.  When
    more of them than the level has ways lie within one line of each
    other in set space, whether a line survives to its next touch
    depends on the exact interleaving of the fills and writebacks the
    level above lets through.  The working-set model cannot express
    that: it was off by up to 95% in these windows (array sizes near a
    multiple of half a way), in both directions.
    """
    if len(nest.trips) != 1 or not nest.straight:
        return 0
    strides = {r.coeffs[0] for r in nest.refs}
    if len(strides) != 1 or 0 in strides:
        return 0
    for lvl in machine.cache_levels:
        geom = lvl.geometry
        ways, line = geom.associativity, geom.line_size
        if ways < 2 or geom.n_sets < 2:
            continue
        period = geom.n_sets * line
        # One stream per array line: members sharing a line move as one.
        heads: dict[tuple[str, int], int] = {}
        for r in nest.refs:
            key = (r.array, r.offset // line)
            heads[key] = min(heads.get(key, r.offset), r.offset)
        pos = [off % period for off in heads.values()]
        for p in pos:
            if sum((q - p) % period <= line for q in pos) > ways:
                return strides.pop()
    return 0


def _sampled_traffic(
    nest: _Nest, machine: MachineSpec
) -> list[tuple[int, int]] | None:
    """Per-level (misses, writebacks) of a resonant nest, measured on
    short exact windows of its own access pattern; None when the nest is
    not resonant (see :func:`_resonant_stride`).

    After ``period`` iterations every stream has advanced a whole number
    of lines at every level, so past the cold start each period costs
    the same.  Two flushed windows give that per-iteration cost, which
    is extrapolated over the trip count.  Flushing both keeps the
    extrapolation linear whether dirty lines leave by eviction or stay
    resident until the end.
    """
    stride = _resonant_stride(nest, machine)
    if not stride:
        return None
    step = abs(stride)
    lines = [lvl.geometry.line_size for lvl in machine.cache_levels]
    period = math.lcm(*(math.lcm(line, step) // step for line in lines))
    trip = nest.trips[0]
    windows = [w * period for w in _SAMPLE_PERIODS]
    if trip <= 2 * windows[-1]:
        windows = [trip]
    offsets = np.array([r.offset for r in nest.refs], dtype=np.int64)
    writes = np.array([r.is_write for r in nest.refs])
    counts = []
    for w in windows:
        hierarchy = Hierarchy.from_spec(machine)
        addrs = offsets + stride * np.arange(w, dtype=np.int64)[:, None]
        hierarchy.run_trace(addrs.ravel(), np.tile(writes, w))
        hierarchy.flush()
        counts.append([(c.stats.misses, c.stats.writebacks) for c in hierarchy.caches])
    if len(windows) == 1:
        return counts[0]
    (short, long), (at_short, at_long) = windows, counts
    ratio = (trip - long) / (long - short)
    return [
        tuple(b + round((b - a) * ratio) for a, b in zip(lo, hi))
        for lo, hi in zip(at_short, at_long)
    ]


def _apportion(shares: dict[str, int], total: int) -> dict[str, int]:
    """Split ``total`` over the keys of ``shares`` in proportion."""
    weight = sum(shares.values())
    if not weight:
        return {}
    out = {a: w * total // weight for a, w in shares.items()}
    top = max(shares, key=shares.__getitem__)
    out[top] += total - sum(out.values())
    return out


@dataclass
class _NestTraffic:
    """One nest's predicted traffic at one cache level."""

    misses: int
    writebacks: int
    footprint: dict[str, int]  # per-array compulsory (distinct) lines
    wb_by_array: dict[str, int]
    conflict: bool  # set-conflict or DM thrash detected


def _nest_level_traffic(
    nest: _Nest,
    cache_bytes: int,
    line: int,
    associativity: int,
    sampled: tuple[int, int] | None = None,
) -> _NestTraffic:
    groups = _group_refs(nest.refs)
    if associativity == 1:
        _mark_conflicts(groups, cache_bytes, line)
    n_sets = max(1, cache_bytes // (line * associativity))
    k = len(nest.trips)
    # lines_by_depth[d-1] = distinct lines over loops d..k (1-indexed;
    # d=k+1 is the single-iteration footprint).  Member offsets fold
    # onto the iteration lattice (see _Group.depth_lines), so a stencil
    # pair rows apart costs one extra row, not the span between them.
    lines_by_depth = {
        g_id: [g.depth_lines(d, nest.trips, line) for d in range(k + 1)]
        for g_id, g in enumerate(groups)
    }
    ws_by_depth = [
        sum(lines_by_depth[i][d] * line for i in range(len(groups)))
        for d in range(k + 1)
    ]
    fit = k + 2  # sentinel: not even one iteration fits
    for d in range(1, k + 2):
        if ws_by_depth[d - 1] <= cache_bytes:
            fit = d
            break
    if associativity > 1 and n_sets > 1 and fit <= k + 1:
        # Co-moving stream collision — the associative generalization of
        # the direct-mapped conflict term.  Streams that advance in
        # lockstep (identical coefficients over the non-retained loops)
        # keep a constant set distance, so two of them compete for the
        # same set either always or never: exactly when their placements
        # coincide modulo the set period.  A residue class holding more
        # concurrent streams than the cache has ways evicts its members
        # between consecutive touches, costing a miss per touch — even
        # when the combined working set is far smaller than the cache.
        # (Footprints that merely *overlap* in set space are harmless:
        # their current lines sit at distinct residues at every instant,
        # which is why a load histogram over the whole iteration space
        # is the wrong model here.)
        d0 = fit - 1
        period = n_sets * line
        by_residue: dict[tuple, dict[tuple, _Group]] = {}
        for g in groups:
            inner = g.coeffs[d0:]
            if not any(inner):
                continue
            for off, _w in g.extents:
                # Members of one group inside the same line are a single
                # stream (one current line), not competitors.
                key = (inner, (off % period) // line)
                by_residue.setdefault(key, {})[(id(g), off // line)] = g
        for streams in by_residue.values():
            if len(streams) > associativity:
                for g in streams.values():
                    g.thrash = True
    iterations = nest.iterations
    misses = writebacks = 0
    conflict = any(g.thrash for g in groups)
    footprint: dict[str, int] = {}
    wb_by_array: dict[str, int] = {}
    for g_id, g in enumerate(groups):
        depths = lines_by_depth[g_id]
        footprint[g.array] = footprint.get(g.array, 0) + depths[0]
        if g.thrash or fit == k + 2:
            m = iterations * (g.members if g.thrash else depths[k])
        else:
            # Capacity says lines over loops gfit..k persist across
            # iterations of loop gfit-1 — but only if they spread over
            # enough sets.  A strided footprint that folds onto a few
            # sets (power-of-two column walks) cannot be retained no
            # matter how small it is; push the group's fit inward until
            # its retained footprint physically fits its sets.
            gfit = fit
            while gfit <= k:
                retained = depths[gfit - 1]
                covered = _covered_sets(
                    g.coeffs[gfit - 1 :],
                    nest.trips[gfit - 1 :],
                    g.width,
                    line,
                    n_sets,
                )
                if retained <= associativity * covered:
                    break
                conflict = True
                gfit += 1
            reuse = max(1, gfit - 1)
            m = math.prod(nest.trips[: reuse - 1]) * depths[reuse - 1]
        m = max(depths[0], min(m, iterations * g.members))
        wb = min(m, iterations * g.writes) if g.writes else 0
        misses += m
        writebacks += wb
        if wb:
            wb_by_array[g.array] = wb_by_array.get(g.array, 0) + wb
    if sampled is not None:
        # Resonant: the exact window's counts stand in for the model's.
        misses, writebacks = sampled
        wb_by_array = _apportion(wb_by_array, writebacks)
        conflict = True
    if nest.fraction < 1.0:
        misses = int(round(misses * nest.fraction)) or 1
        writebacks = int(round(writebacks * nest.fraction))
        wb_by_array = {
            a: int(round(w * nest.fraction)) for a, w in wb_by_array.items()
        }
    return _NestTraffic(misses, writebacks, footprint, wb_by_array, conflict)


def _program_level_traffic(
    records: list[_NestTraffic], cache_bytes: int, line: int, passes: int
) -> tuple[int, int]:
    """Total (misses, writebacks) of a nest sequence at one level.

    Inter-nest reuse: an array re-touched by a later nest hits if the
    distinct volume streamed since its last touch (plus the re-touching
    nest's own working set) fits the cache — the compulsory part of the
    later nest is then credited away, and its dirty lines merge with the
    earlier ones instead of writing back twice.  Multi-pass runs simulate
    two passes and extrapolate the steady state from the second, so a
    resident program pays its traffic once while an oversized one pays
    per pass.  Nests with detected conflicts grant no credit (thrashed
    lines do not linger).
    """
    sim_passes = min(passes, 2)
    pass_misses = [0] * sim_passes
    pass_flushed = [0] * sim_passes
    cum = 0  # distinct-line volume clock
    last: dict[str, int] = {}
    resident: dict[str, int] = {}  # lines of the array actually present
    pending_wb: dict[str, int] = {}
    for p in range(sim_passes):
        for rec in records:
            nest_lines = sum(rec.footprint.values())
            credit = 0
            for name, lines in rec.footprint.items():
                survives = (
                    not rec.conflict
                    and name in last
                    and (cum - last[name] + nest_lines) * line <= cache_bytes
                )
                if survives:
                    credit += min(lines, resident.get(name, 0))
                    resident[name] = max(resident.get(name, 0), lines)
                else:
                    resident[name] = lines
                    if name in pending_wb:
                        pass_flushed[p] += pending_wb.pop(name)
            pass_misses[p] += max(rec.misses - credit, 0)
            for name, wb in rec.wb_by_array.items():
                pending_wb[name] = max(pending_wb.get(name, 0), wb)
            # Only freshly fetched lines add eviction pressure; re-touched
            # resident data does not push other arrays out.
            cum += max(nest_lines - credit, 0)
            for name in rec.footprint:
                last[name] = cum
    misses = pass_misses[0] + (passes - 1) * pass_misses[-1]
    writebacks = (
        pass_flushed[0]
        + (passes - 1) * pass_flushed[-1]
        + sum(pending_wb.values())
    )
    return misses, writebacks


# ---------------------------------------------------------------------------
# Estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelEstimate:
    """Predicted counter block of one cache level."""

    name: str
    line_size: int
    accesses: int
    misses: int
    writebacks: int

    @property
    def events_out(self) -> int:
        """Miss fills plus writebacks — what the next level consumes."""
        return self.misses + self.writebacks

    @property
    def bytes_below(self) -> int:
        return self.events_out * self.line_size


@dataclass(frozen=True)
class AnalyticEstimate:
    """Per-level traffic and time predicted from the IR alone."""

    program: str
    machine: MachineSpec
    params: dict[str, int]
    flops: int
    loads: int
    stores: int
    levels: tuple[LevelEstimate, ...]
    approximate: bool  # guards (or other estimated constructs) present

    @property
    def register_bytes(self) -> int:
        return 8 * (self.loads + self.stores)

    @property
    def downstream_bytes(self) -> tuple[int, ...]:
        return tuple(lv.bytes_below for lv in self.levels)

    @property
    def channel_bytes(self) -> tuple[int, ...]:
        return (self.register_bytes, *self.downstream_bytes)

    def balance(self) -> ProgramBalance:
        if self.flops <= 0:
            raise AnalysisError(
                f"{self.program}: cannot compute balance without flops"
            )
        return ProgramBalance(
            program=self.program,
            channel_names=self.machine.level_names,
            bytes_per_flop=tuple(b / self.flops for b in self.channel_bytes),
            flops=self.flops,
            channel_bytes=self.channel_bytes,
        )

    def counters(self) -> HardwareCounters:
        stats = tuple(
            CacheStats(
                accesses=lv.accesses,
                hits=lv.accesses - lv.misses,
                misses=lv.misses,
                read_misses=max(0, lv.misses - lv.writebacks),
                write_misses=min(lv.misses, lv.writebacks),
                evictions=lv.misses,
                writebacks=lv.writebacks,
                events_out=lv.events_out,
            )
            for lv in self.levels
        )
        return HardwareCounters(
            machine=self.machine.name,
            graduated_flops=self.flops,
            loads=self.loads,
            stores=self.stores,
            level_stats=stats,
            downstream_bytes=self.downstream_bytes,
        )

    def run(self, cores: int | None = None) -> MachineRun:
        """A drop-in :class:`MachineRun` under the same timing models the
        executor applies to simulated counters — including the contended
        overlay (:mod:`repro.machine.contention`) when ``cores`` (or the
        active options' count) is > 1, so ``--predict`` sweeps price the shared
        channel through the identical arithmetic."""
        counters = self.counters()
        time = bandwidth_bound_time(
            self.machine, self.flops, counters.register_bytes, self.downstream_bytes
        )
        misses = [lv.misses for lv in self.levels]
        lat = latency_bound_time(self.machine, self.flops, misses)
        ov4 = overlap_time(
            self.machine,
            self.flops,
            counters.register_bytes,
            self.downstream_bytes,
            misses,
            4,
        )
        contended = maybe_contended(
            self.machine,
            self.flops,
            counters.register_bytes,
            self.downstream_bytes,
            cores,
        )
        return MachineRun(
            program=self.program,
            machine=self.machine,
            params=dict(self.params),
            counters=counters,
            time=time,
            latency_time=lat,
            overlap4_time=ov4,
            contended=contended,
        )


def analyze(
    program: Program,
    machine: MachineSpec,
    params: Mapping[str, int] | None = None,
    *,
    layout: MemoryLayout | None = None,
    layout_policy: LayoutPolicy | None = None,
    passes: int = 1,
) -> AnalyticEstimate:
    """Predict ``program``'s counters on ``machine`` without a trace.

    Mirrors :func:`repro.interp.executor.execute`'s layout handling so the
    estimate and the simulation see identical placements (the conflict
    term depends on them).
    """
    if passes < 1:
        raise AnalysisError("passes must be >= 1")
    bound = program.bind_params(params)
    if layout is None:
        layout = build_layout(
            program, bound, layout_policy or machine.default_layout
        )
    nests, (flops, loads, stores), approximate = _collect(program, bound, layout)

    samples = [_sampled_traffic(nest, machine) for nest in nests]
    levels: list[LevelEstimate] = []
    accesses = (loads + stores) * passes
    for depth, lvl in enumerate(machine.cache_levels):
        geom = lvl.geometry
        records = [
            _nest_level_traffic(
                nest,
                geom.size_bytes,
                geom.line_size,
                geom.associativity,
                None if sample is None else sample[depth],
            )
            for nest, sample in zip(nests, samples)
        ]
        misses, writebacks = _program_level_traffic(
            records, geom.size_bytes, geom.line_size, passes
        )
        misses = min(misses, accesses) if accesses else misses
        levels.append(
            LevelEstimate(lvl.name, geom.line_size, accesses, misses, writebacks)
        )
        accesses = levels[-1].events_out  # next level consumes our events

    return AnalyticEstimate(
        program=program.name,
        machine=machine,
        params=dict(bound),
        flops=flops * passes,
        loads=loads * passes,
        stores=stores * passes,
        levels=tuple(levels),
        approximate=approximate,
    )


def predict_run(
    program: Program,
    machine: MachineSpec,
    params: Mapping[str, int] | None = None,
    *,
    layout: MemoryLayout | None = None,
    layout_policy: LayoutPolicy | None = None,
    passes: int = 1,
    cores: int | None = None,
) -> MachineRun:
    """Convenience: :func:`analyze` materialized as a ``MachineRun``."""
    return analyze(
        program,
        machine,
        params,
        layout=layout,
        layout_policy=layout_policy,
        passes=passes,
    ).run(cores)
