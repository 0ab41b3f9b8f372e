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
the destination *is* the statement's buffer (or its first two rows); a
guarded one builds, slab by slab along its outermost loop, into a
scratch block plus activity mask, and each slab's active accesses are
compacted into the buffer.

**Validation** (``validate=True``) checks every subscript against its
array extent on the same open-grid arrays: over a non-empty grid a
subscript's min and max equal those of its broadcast, so the check costs
O(subscript), not O(grid). Under a guard only active iterations count:
a subscript that leaves its extent somewhere on the grid is broadcast,
masked and checked again. An empty grid checks nothing.

Trip counts must be grid-invariant (parameters only); lower bounds may
use enclosing loop variables, which is what tiled loops produce.

**Span hints.** Every trace of a guard-free top-level loop carries
``Trace.spans``: the loop's rows (start, trip, row width) and, one level
down, each row's inner loops of at least ``_DESCENT_ACCESSES`` accesses.
The widths come from the same sizing the counting pass does, so hints
cost no address work; the set-associative engine verifies them before
it extrapolates anything, except where a hint lies on rows of one level
of a lazy nest, which repeat by construction.

Two generation modes share the machinery:

* :meth:`TraceGenerator.generate` returns a *lazy* trace: every
  guard-free top-level loop nest with a loop of at least ``_LAZY_TRIP``
  trips on its spine (the loops down from it while a loop's body is one
  loop) is kept as one :class:`~repro.trace.events.Rows` part (the
  innermost spine loop's body as a base row, and a per-column byte step
  and trip count per loop; subscripts and lower bounds are affine and
  trip counts grid-invariant, so each iteration's row is the base plus
  its steps), built from its corner rows, whose generation validates
  the whole grid.  Short outer loops (fft's last stages, a tile loop of
  a few trips) are levels like any other; every other statement is
  generated into its own buffer, sized by a counting pass (the same
  walk with no destination).  The set-associative engine
  reads such a trace a block at a time and builds only the rows it
  simulates; reading ``Trace.addresses`` joins the parts once, so peak
  memory is then the trace plus at most one part;
* :meth:`TraceGenerator.chunks` *streams* the trace: the iteration grid
  is sliced along each top-level loop's outermost axis and the slices
  are yielded as plain :class:`Trace` chunks in exact execution order,
  so the full row matrix never exists — peak memory is O(chunk), not
  O(trace).
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
from .events import EMPTY_TRACE, LazyStream, Part, Rows, Span, Trace

#: Default accesses per streamed chunk (~36 MB of trace at 9 B/access).
DEFAULT_CHUNK_ACCESSES = 4 << 20

#: Generated accesses per slab when :meth:`TraceGenerator.generate` builds a
#: guarded statement: its scratch block (addresses, write flags, activity
#: mask) stays cache-sized however large the statement.
_GUARDED_SLAB_ACCESSES = 1 << 17

#: An inner loop of a top-level loop's body gets its own span hints (one
#: per outer row) only when it generates at least this many accesses:
#: shorter inner loops cost more to check than extrapolation can save.
_DESCENT_ACCESSES = 1 << 15

#: Fewest trips of some loop on a guard-free top-level nest's spine for
#: :meth:`TraceGenerator.generate` to keep the nest as :class:`Rows`.
#: Those hold a base row and a step per level, so a nest with a loop of
#: this many trips costs little more memory once joined into plain
#: arrays; one without is generated whole.
_LAZY_TRIP = 8

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
        # Every walk asks for the widths of the statements it visits; the
        # program's statements are immutable and outlive the generator's
        # walks, so each is sized once.
        self._widths: dict[int, int] = {}

    # -- public API ----------------------------------------------------------
    def generate(self) -> Trace:
        """The full program trace, lazily where loops repeat.

        A guard-free top-level loop nest with a loop of at least
        ``_LAZY_TRIP`` trips on its spine is kept as one :class:`Rows`
        part (:meth:`_nest`): its subscripts and lower bounds are affine
        and its trip counts grid-invariant, so every address is affine in
        the loop variables and each iteration's row is the base row plus
        one per-column step per level; only the nest's corner rows are
        generated, which validates the whole grid as generating every
        row would, and its hints are the ones generating it whole gives.
        Any other statement gets its own buffer, sized by a counting pass
        (the build walk without a destination): a guard-free one
        generates straight into it, a guarded one slab by slab along its
        outermost loop (as :meth:`chunks` does), each compacted slab
        copied in, so its scratch stays O(slab).  Reading the trace's
        arrays joins the parts once.
        """
        body = self.program.body
        if not body:
            return EMPTY_TRACE
        counts = [self._build_one(stmt, (), dict(self.params), None, None) for stmt in body]
        parts: list[Part] = []
        spans: list[Span] = []
        pos = 0
        for stmt, (_, loads, stores) in zip(body, counts):
            n = loads + stores
            guarded = _guarded(stmt)
            spine = self._spine(stmt) if n and not guarded else None
            if spine is not None:
                part: Part = self._nest(spine)
                piece_spans = self._spans(stmt, self._trip(stmt))
            else:
                part = (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.bool_))
                piece_spans = []
                at = 0
                for steps in self._slabs(stmt, _GUARDED_SLAB_ACCESSES) if guarded else [None]:
                    piece = self._statement(stmt, steps, out=(part[0][at:], part[1][at:]))
                    piece_spans += [(start + at, trip, width) for start, trip, width in piece.spans]
                    at += len(piece)
                assert at == n, f"counting pass sized {n}, emitted {at}"
            spans.extend((start + pos, trip, width) for start, trip, width in piece_spans)
            parts.append(part)
            pos += n
        flops, loads, stores = (sum(c) for c in zip(*counts))
        return Trace.lazy(LazyStream(parts), flops, loads, stores, tuple(spans))

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
            for steps in self._slabs(stmt, max_accesses):
                trace = self._statement(stmt, steps)
                if len(trace) or trace.flops:
                    yield trace

    def statement_trace(self, index: int) -> Trace:
        """Trace of one top-level statement (used for per-subroutine
        measurements such as the NAS/SP utilization experiment)."""
        return self._statement(self.program.body[index])

    # -- top-level statements --------------------------------------------------
    def _slabs(self, stmt: Stmt, budget: int) -> Iterator[range | None]:
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
                    yield range(start, min(trip, start + rows))
                return
        yield None

    def _statement(
        self,
        stmt: Stmt,
        steps: range | None = None,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> Trace:
        """Trace of one top-level statement, or of the iterations ``steps``
        of a top-level loop when given.

        With ``out`` (address and write-flag buffers at least that long)
        the trace is written into their prefix and views of it are
        returned. A guard-free statement generates straight there; a
        guarded one generates into a scratch block with an activity mask
        and compacts the active accesses there.
        """
        if steps is None:
            width = self._width(stmt)
        else:
            width = len(steps) * self._body_width(stmt.body)
        guarded = _guarded(stmt)
        spans: tuple[Span, ...] = ()
        if isinstance(stmt, Loop) and not guarded and width:
            rows = self._trip(stmt) if steps is None else len(steps)
            spans = self._spans(stmt, rows)
        if out is None or guarded:
            dest = _Dest(
                np.empty(width, dtype=np.int64),
                np.empty(width, dtype=np.bool_),
                np.empty(width, dtype=np.bool_) if guarded else None,
            )
        else:
            dest = _Dest(out[0][:width], out[1][:width], None)
        env: dict[str, np.ndarray | int] = dict(self.params)
        if steps is None:
            counts = self._build_one(stmt, (), env, None, dest)
        else:
            assert isinstance(stmt, Loop)
            counts = self._build_loop(stmt, (), env, None, dest, steps)
        addrs, writes = dest.addrs, dest.writes
        if dest.active is not None:
            addrs, writes = addrs[dest.active], writes[dest.active]
            if out is not None:
                n = len(addrs)
                out[0][:n], out[1][:n] = addrs, writes
                addrs, writes = out[0][:n], out[1][:n]
        return Trace(addrs, writes, *counts, spans)

    def _spine(self, stmt: Stmt) -> list[Loop] | None:
        """A guard-free top-level statement's spine, the loops down from
        it while a loop's body is one loop, when one of them runs at least
        ``_LAZY_TRIP`` trips; else None."""
        spine = []
        while isinstance(stmt, Loop):
            spine.append(stmt)
            if len(stmt.body) != 1:
                break
            (stmt,) = stmt.body
        return spine if any(self._trip(loop) >= _LAZY_TRIP for loop in spine) else None

    def _nest(self, spine: list[Loop]) -> Rows:
        """A guard-free nest as one :class:`Rows`: the innermost loop's body
        at the nest's corners, the first and last trip of every level.

        The address at each column of a row, and every subscript, are
        affine in the loop variables, so a level's step is the difference
        of the corner at its last trip and the first corner over ``trip -
        1`` (an exact division), and a subscript's extremes over the grid
        are its extremes over the corners: generating them validates the
        whole grid, with the messages generating every row would give."""
        grid: tuple[int, ...] = ()
        env: dict[str, np.ndarray | int] = dict(self.params)
        trips = [self._trip(loop) for loop in spine]
        for loop, trip in zip(spine, trips):
            grid, env = self._enter(loop, grid, env, range(0, trip, max(trip - 1, 1)))
        body = spine[-1].body
        width = self._body_width(body)
        dest = _Dest(np.empty(grid + (width,), dtype=np.int64), np.empty(width, dtype=np.bool_), None)
        self._build(body, grid, env, None, dest)
        first = (0,) * len(spine)
        base = dest.addrs[first]
        steps = [(dest.addrs[first[:j] + (-1,) + first[j + 1 :]] - base) // max(trip - 1, 1) for j, trip in enumerate(trips)]
        return Rows(base, dest.writes, steps, trips)

    def _spans(self, stmt: Loop, rows: int) -> tuple[Span, ...]:
        """Span hints of ``rows`` iterations of a guard-free top-level
        loop: the loop's own rows, then, one level down, each row's inner
        loops that generate at least ``_DESCENT_ACCESSES`` accesses.
        Every width is already known from the counting pass's sizing, so
        hints cost no address work; the engine verifies them anyway.  A
        loop of one row cannot repeat and gets no hint."""
        row = self._body_width(stmt.body)
        inner = []
        col = 0
        for s in stmt.body:
            width = self._width(s)
            if isinstance(s, Loop) and width >= _DESCENT_ACCESSES and (trip := self._trip(s)) >= 2:
                inner.append((col, trip, width // trip))
            col += width
        outer = ((0, rows, row),) if rows >= 2 else ()
        if not inner:
            return outer
        return outer + tuple(
            (r * row + col, trip, width) for r in range(rows) for col, trip, width in inner
        )

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
        width = self._widths.get(id(stmt))
        if width is None:
            width = self._widths[id(stmt)] = self._size(stmt)
        return width

    def _size(self, stmt: Stmt) -> int:
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

    @staticmethod
    def _enter(
        stmt: Loop, grid_shape: tuple[int, ...], env: dict[str, np.ndarray | int], steps: range
    ) -> tuple[tuple[int, ...], dict[str, np.ndarray | int]]:
        """The grid and environment inside iterations ``steps`` of a loop:
        existing grids gain a trailing axis, and the loop's variable
        varies on it."""
        child_env = {k: v[..., None] if isinstance(v, np.ndarray) else v for k, v in env.items()}
        var = np.arange(steps.start, steps.stop, steps.step, dtype=np.int64)
        var = var.reshape((1,) * len(grid_shape) + (len(steps),))
        lower = np.asarray(stmt.lower.evaluate_vec(child_env))
        if lower.size == 1:
            var += lower
        else:
            var = var + lower
        child_env[stmt.var] = var
        return grid_shape + (len(steps),), child_env

    def _build_loop(
        self,
        stmt: Loop,
        grid_shape: tuple[int, ...],
        env: dict[str, np.ndarray | int],
        mask: np.ndarray | None,
        dest: _Dest | None,
        steps: range | None = None,
    ) -> _Counts:
        # The trip count must be grid-invariant (affine in parameters only);
        # the *lower bound* may depend on enclosing loop variables, which is
        # what tiled loops produce (inner bounds lo + T*tile_var).
        trip = self._trip(stmt)
        # ``steps`` restricts the loop to those iterations: how the
        # streaming path slices a top-level loop's outermost axis.
        if steps is None:
            steps = range(trip)
        count = len(steps)
        if count <= 0:
            return (0, 0, 0)
        child_shape, child_env = self._enter(stmt, grid_shape, env, steps)
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
