"""Vectorized trace generation from IR programs.

The generator converts a program instance (program + parameter binding +
memory layout) into the exact ordered stream of element accesses the
program performs, without interpreting iterations one by one:

* every loop contributes an axis of the iteration grid, and its variable
  is an *open grid*: the loop's values along that axis, size 1 on every
  other, so a subscript evaluates to an array in its own broadcast shape
  (``a[i]`` inside an ``(i, j)`` nest is ``(n, 1)``), never the full grid;
* every leaf statement contributes fixed columns of a per-iteration "row"
  of accesses (RHS reads left-to-right, then the LHS write);
* a nested loop inside a body contributes ``trip x width`` columns, so
  imperfect nests (pre-statements, inner loop, post-statements) flatten to
  the exact execution order;
* guards contribute *masked* columns: the column layout is fixed and a
  boolean activity matrix selects which accesses execute.

Flattening the row matrix in C order yields the precise interleaving a
sequential execution produces.

**Destination passing.** The row matrix is never assembled from parts.
A statement list's columns are sized up front (:meth:`_body_width`) and
every leaf, guard and loop is handed its own column slice of one
destination block; a loop views its slice as ``(*grid, trip, width)``,
which is its body's block one grid axis deeper. A leaf broadcasts each
reference's open-grid subscripts straight into its column
(:meth:`MemoryLayout.element_addresses` with ``out=``), so every address
is computed once and written once. For a guard-free top-level statement
the destination *is* the statement's span of the output trace; a guarded
one builds, slab by slab along its outermost loop, into a scratch block
plus activity mask, and each slab's active accesses are compacted into
the span.

**Validation** (``validate=True``) checks every subscript against its
array extent on the same open-grid arrays: over a non-empty grid a
subscript's min and max equal those of its broadcast, so the check costs
O(subscript), not O(grid). Under a guard only active iterations count:
a subscript that leaves its extent somewhere on the grid is broadcast,
masked and checked again. An empty grid checks nothing.

Trip counts must be grid-invariant (parameters only); lower bounds may
use enclosing loop variables, which is what tiled loops produce.

Two generation modes share the machinery:

* :meth:`TraceGenerator.generate` materializes the whole trace into one
  output buffer, pre-sized by a counting pass (the same walk with no
  destination), so peak memory is the trace plus at most one guarded
  slab's scratch block;
* :meth:`TraceGenerator.chunks` *streams* the trace: the iteration grid
  is sliced along each top-level loop's outermost axis and the slices
  are yielded as :class:`Trace` chunks in exact execution order, so the
  full row matrix never exists — peak memory is O(chunk), not O(trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import ExecutionError, IRError
from ..lang.expr import ArrayRef, array_refs, flop_count
from ..lang.program import Program
from ..lang.stmt import Assign, ExternalRead, If, Loop, Stmt
from ..machine.layout import MemoryLayout, build_layout
from .events import EMPTY_TRACE, Trace

#: Default accesses per streamed chunk (~36 MB of trace at 9 B/access).
DEFAULT_CHUNK_ACCESSES = 4 << 20

#: Generated accesses per slab when :meth:`TraceGenerator.generate` builds a
#: guarded statement: its scratch block (addresses, write flags, activity
#: mask) stays cache-sized however large the statement.
_GUARDED_SLAB_ACCESSES = 1 << 17

#: Executed (flops, loads, stores) of a statement over its grid.
_Counts = tuple[int, int, int]


def _add(a: _Counts, b: _Counts) -> _Counts:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _guarded(stmt: Stmt) -> bool:
    return any(isinstance(s, If) for s in stmt.walk())


def _view(block: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``block`` viewed as ``shape``. A shape assignment, unlike
    ``reshape``, raises where a view is impossible instead of silently
    copying, which would send the writes to a temporary."""
    view = block.view()
    view.shape = shape
    return view


@dataclass(frozen=True)
class _Dest:
    """Where a statement list writes its generated access columns.

    ``addrs`` is ``(*grid, width)`` int64 and ``writes`` is ``(width,)``
    bool (a column's write flag is the same in every row). ``active`` is
    None when every generated access executes (no guard anywhere in the
    top-level statement), else ``(*grid, width)`` bool.
    """

    addrs: np.ndarray
    writes: np.ndarray
    active: np.ndarray | None

    def columns(self, start: int, stop: int) -> "_Dest":
        return _Dest(
            self.addrs[..., start:stop],
            self.writes[start:stop],
            None if self.active is None else self.active[..., start:stop],
        )

    def loop_body(self, count: int) -> "_Dest":
        """The ``(*grid, count * width)`` block of a loop as its body's
        ``(*grid, count, width)`` block. ``writes`` is the first
        iteration's; :meth:`repeat_writes` fills the rest afterwards."""
        grid, total = self.addrs.shape[:-1], self.addrs.shape[-1]
        shape = grid + (count, total // count)
        return _Dest(
            _view(self.addrs, shape),
            self.writes[: total // count],
            None if self.active is None else _view(self.active, shape),
        )

    def repeat_writes(self, count: int) -> None:
        rows = _view(self.writes, (count, self.writes.size // count))
        rows[1:] = rows[0]


class TraceGenerator:
    """Generates traces for one program instance."""

    def __init__(
        self,
        program: Program,
        params: Mapping[str, int] | None = None,
        layout: MemoryLayout | None = None,
        validate: bool = True,
    ):
        self.program = program
        self.params = program.bind_params(params)
        self.layout = layout or build_layout(program, self.params)
        self.validate = validate

    # -- public API ----------------------------------------------------------
    def generate(self) -> Trace:
        """The full program trace.

        A counting pass (the build walk without a destination) sizes
        each top-level statement's span of one output buffer. A
        guard-free statement then generates straight into its span; a
        guarded one is generated slab by slab along its outermost loop
        (as :meth:`chunks` does) and each compacted slab copied into the
        span, so its scratch stays O(slab). Peak memory is the final
        trace plus that slab.
        """
        body = self.program.body
        if not body:
            return EMPTY_TRACE
        counts = [self._build_one(stmt, (), dict(self.params), None, None) for stmt in body]
        flops, loads, stores = (sum(c) for c in zip(*counts))
        addrs = np.empty(loads + stores, dtype=np.int64)
        writes = np.empty(loads + stores, dtype=np.bool_)
        pos = 0
        for stmt in body:
            slabs = self._slabs(stmt, _GUARDED_SLAB_ACCESSES) if _guarded(stmt) else [None]
            for step_range in slabs:
                piece = self._statement(stmt, step_range, out=(addrs[pos:], writes[pos:]))
                pos += len(piece)
        assert pos == len(addrs), f"counting pass sized {len(addrs)}, emitted {pos}"
        return Trace(addrs, writes, flops, loads, stores)

    def chunks(self, max_accesses: int = DEFAULT_CHUNK_ACCESSES) -> Iterator[Trace]:
        """The program trace as a stream of execution-ordered chunks.

        Each top-level loop's iteration grid is sliced along its
        *outermost* axis so that a chunk holds at most ``max_accesses``
        generated accesses (a loop whose single outer iteration exceeds
        the budget yields one outer iteration per chunk — the slicing
        granularity). The full row matrix of a statement is never built;
        concatenating the chunks reproduces :meth:`generate` bit for bit,
        and chunk ``flops``/``loads``/``stores`` sum to the trace totals.
        """
        if max_accesses <= 0:
            raise ValueError("max_accesses must be positive")
        for stmt in self.program.body:
            for step_range in self._slabs(stmt, max_accesses):
                trace = self._statement(stmt, step_range)
                if len(trace) or trace.flops:
                    yield trace

    def statement_trace(self, index: int) -> Trace:
        """Trace of one top-level statement (used for per-subroutine
        measurements such as the NAS/SP utilization experiment)."""
        return self._statement(self.program.body[index])

    # -- top-level statements --------------------------------------------------
    def _slabs(self, stmt: Stmt, budget: int) -> Iterator[tuple[int, int] | None]:
        """Iteration ranges ``[start, stop)`` of a top-level loop's
        outermost axis, each generating at most ``budget`` accesses (one
        iteration at least: the slicing granularity); a single None (the
        whole statement) for anything else, and for a loop without array
        accesses, whose flops alone are emitted whole."""
        if isinstance(stmt, Loop):
            trip = self._trip(stmt)
            width = self._body_width(stmt.body)
            if trip and width:
                rows = max(1, budget // width)
                for start in range(0, trip, rows):
                    yield (start, min(trip, start + rows))
                return
        yield None

    def _statement(
        self,
        stmt: Stmt,
        step_range: tuple[int, int] | None = None,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> Trace:
        """Trace of one top-level statement, or of iterations ``[start,
        stop)`` of a top-level loop when ``step_range`` is given.

        With ``out`` (address and write-flag buffers at least that long)
        the trace is written into their prefix and views of it are
        returned. A guard-free statement generates straight there; a
        guarded one generates into a scratch block with an activity mask
        and compacts the active accesses there.
        """
        if step_range is None:
            width = self._width(stmt)
        else:
            width = (step_range[1] - step_range[0]) * self._body_width(stmt.body)
        guarded = _guarded(stmt)
        if out is None or guarded:
            dest = _Dest(
                np.empty(width, dtype=np.int64),
                np.empty(width, dtype=np.bool_),
                np.empty(width, dtype=np.bool_) if guarded else None,
            )
        else:
            dest = _Dest(out[0][:width], out[1][:width], None)
        env: dict[str, np.ndarray | int] = dict(self.params)
        if step_range is None:
            counts = self._build_one(stmt, (), env, None, dest)
        else:
            assert isinstance(stmt, Loop)
            counts = self._build_loop(stmt, (), env, None, dest, step_range)
        addrs, writes = dest.addrs, dest.writes
        if dest.active is not None:
            addrs, writes = addrs[dest.active], writes[dest.active]
            if out is not None:
                n = len(addrs)
                out[0][:n], out[1][:n] = addrs, writes
                addrs, writes = out[0][:n], out[1][:n]
        return Trace(addrs, writes, *counts)

    # -- shape ---------------------------------------------------------------------
    def _trip(self, stmt: Loop) -> int:
        """Grid-invariant trip count of a loop (the rectangularity check)."""
        span = stmt.upper - stmt.lower
        loose = span.symbols - set(self.params)
        if loose:
            raise IRError(
                f"loop {stmt.var}: trip count depends on {sorted(loose)}; only "
                "grid-invariant trip counts can be traced"
            )
        return max(0, span.evaluate(self.params))

    def _width(self, stmt: Stmt) -> int:
        """Generated access columns of one statement per iteration of the
        enclosing loop (guards keep their columns: inactive accesses are
        masked out at compaction, but they are generated — and memory is
        proportional to what is generated, which is what chunking must
        bound)."""
        if isinstance(stmt, Assign):
            return len(array_refs(stmt.rhs)) + isinstance(stmt.lhs, ArrayRef)
        if isinstance(stmt, ExternalRead):
            return int(isinstance(stmt.lhs, ArrayRef))
        if isinstance(stmt, If):
            return self._body_width(stmt.then) + self._body_width(stmt.orelse)
        if isinstance(stmt, Loop):
            return self._trip(stmt) * self._body_width(stmt.body)
        raise IRError(f"cannot trace statement {type(stmt).__name__}")

    def _body_width(self, stmts: Sequence[Stmt]) -> int:
        return sum(self._width(s) for s in stmts)

    # -- block construction ------------------------------------------------------
    #
    # Each builder writes its statement's columns into ``dest`` and returns
    # the executed counts. ``dest=None`` is the counting pass: the same walk
    # (guard masks, loop environments) without computing any address.

    def _build(
        self,
        stmts: Sequence[Stmt],
        grid_shape: tuple[int, ...],
        env: dict[str, np.ndarray | int],
        mask: np.ndarray | None,
        dest: _Dest | None,
    ) -> _Counts:
        counts: _Counts = (0, 0, 0)
        col = 0
        for s in stmts:
            part = None
            if dest is not None:
                width = self._width(s)
                part = dest.columns(col, col + width)
                col += width
            counts = _add(counts, self._build_one(s, grid_shape, env, mask, part))
        return counts

    def _build_one(
        self,
        stmt: Stmt,
        grid_shape: tuple[int, ...],
        env: dict[str, np.ndarray | int],
        mask: np.ndarray | None,
        dest: _Dest | None,
    ) -> _Counts:
        if isinstance(stmt, (Assign, ExternalRead)):
            return self._build_leaf(stmt, grid_shape, env, mask, dest)
        if isinstance(stmt, If):
            return self._build_if(stmt, grid_shape, env, mask, dest)
        if isinstance(stmt, Loop):
            return self._build_loop(stmt, grid_shape, env, mask, dest)
        raise IRError(f"cannot trace statement {type(stmt).__name__}")

    def _build_leaf(
        self,
        stmt: Assign | ExternalRead,
        grid_shape: tuple[int, ...],
        env: dict[str, np.ndarray | int],
        mask: np.ndarray | None,
        dest: _Dest | None,
    ) -> _Counts:
        if isinstance(stmt, Assign):
            refs = array_refs(stmt.rhs)
            flops_per_iter = flop_count(stmt.rhs)
        else:
            refs = []
            flops_per_iter = 0
        reads = len(refs)
        if isinstance(stmt.lhs, ArrayRef):
            refs.append(stmt.lhs)
        executed = math.prod(grid_shape) if mask is None else int(np.count_nonzero(mask))
        if dest is not None and refs:
            for k, ref in enumerate(refs):
                self._ref_addresses(ref, env, mask, dest.addrs[..., k])
            dest.writes[:reads] = False
            dest.writes[reads:] = True
            if dest.active is not None:
                dest.active[...] = True if mask is None else mask[..., None]
        return (
            flops_per_iter * executed,
            reads * executed,
            (len(refs) - reads) * executed,
        )

    def _ref_addresses(
        self,
        ref: ArrayRef,
        env: dict[str, np.ndarray | int],
        mask: np.ndarray | None,
        out: np.ndarray,
    ) -> None:
        """Write ``ref``'s address at every grid point into ``out`` (a
        grid-shaped column), validating its open-grid subscripts first."""
        subs = [sub.evaluate_vec(env) for sub in ref.index]
        if self.validate and out.size:
            placement = self.layout[ref.array]
            for dim, (sub, extent) in enumerate(zip(subs, placement.extents)):
                lo, hi = int(sub.min()), int(sub.max())
                if (lo < 0 or hi >= extent) and mask is not None:
                    # Out of range somewhere on the grid; under a guard
                    # only the active iterations decide.
                    vals = np.broadcast_to(sub, out.shape)[mask]
                    if not vals.size:
                        continue
                    lo, hi = int(vals.min()), int(vals.max())
                if lo < 0 or hi >= extent:
                    raise ExecutionError(
                        f"{self.program.name}: {ref} dimension {dim} ranges "
                        f"[{lo}, {hi}] outside extent {extent}"
                    )
        self.layout.element_addresses(ref.array, subs, out=out)

    def _build_if(
        self,
        stmt: If,
        grid_shape: tuple[int, ...],
        env: dict[str, np.ndarray | int],
        mask: np.ndarray | None,
        dest: _Dest | None,
    ) -> _Counts:
        cond = np.broadcast_to(np.asarray(stmt.cond.evaluate_vec(env), dtype=np.bool_), grid_shape)
        then_dest = else_dest = None
        if dest is not None:
            split = self._body_width(stmt.then)
            then_dest = dest.columns(0, split)
            else_dest = dest.columns(split, dest.writes.size)
        counts = self._build(
            stmt.then, grid_shape, env, cond if mask is None else (mask & cond), then_dest
        )
        if stmt.orelse:
            else_mask = ~cond if mask is None else (mask & ~cond)
            counts = _add(counts, self._build(stmt.orelse, grid_shape, env, else_mask, else_dest))
        return counts

    def _build_loop(
        self,
        stmt: Loop,
        grid_shape: tuple[int, ...],
        env: dict[str, np.ndarray | int],
        mask: np.ndarray | None,
        dest: _Dest | None,
        step_range: tuple[int, int] | None = None,
    ) -> _Counts:
        # The trip count must be grid-invariant (affine in parameters only);
        # the *lower bound* may depend on enclosing loop variables, which is
        # what tiled loops produce (inner bounds lo + T*tile_var).
        trip = self._trip(stmt)
        # ``step_range`` restricts the loop to iterations [lo, hi) — how the
        # streaming path slices a top-level loop's outermost axis.
        lo, hi = step_range if step_range is not None else (0, trip)
        count = hi - lo
        if count <= 0:
            return (0, 0, 0)
        child_shape = grid_shape + (count,)
        # Existing grids gain a trailing axis; the new variable varies on it.
        child_env = {k: v[..., None] if isinstance(v, np.ndarray) else v for k, v in env.items()}
        var = np.arange(lo, hi, dtype=np.int64).reshape((1,) * len(grid_shape) + (count,))
        lower = np.asarray(stmt.lower.evaluate_vec(child_env))
        if lower.size == 1:
            var += lower
        else:
            var = var + lower
        child_env[stmt.var] = var
        child_mask = None
        if mask is not None:
            child_mask = np.broadcast_to(mask[..., None], child_shape)
        if dest is None:
            return self._build(stmt.body, child_shape, child_env, child_mask, None)
        # The loop axis unfolds from the column axis: per outer iteration
        # the row is count * body-width accesses, in execution order.
        counts = self._build(stmt.body, child_shape, child_env, child_mask, dest.loop_body(count))
        dest.repeat_writes(count)
        return counts


def generate_trace(
    program: Program,
    params: Mapping[str, int] | None = None,
    layout: MemoryLayout | None = None,
    validate: bool = True,
) -> Trace:
    """Convenience wrapper: the full trace of one program instance."""
    return TraceGenerator(program, params, layout, validate).generate()
