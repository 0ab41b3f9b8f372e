"""Trace containers.

A :class:`Trace` is the ordered element-granularity access stream of one
program run, plus the executed operation counts the balance model needs
(flops, element loads/stores).

The stream is held as a :class:`LazyStream`: a sequence of *parts*, each
either plain ``(addresses, write flags)`` arrays or :class:`Rows`, one
guard-free loop nest kept as a base row, its write flags and one
(per-column byte step, trip) pair per loop level (the row of iteration
``(i1, ..., ik)`` is the base plus ``ij`` steps of each level ``j``).
:attr:`Trace.addresses` and :attr:`Trace.is_write` join the parts into
plain NumPy arrays on first read and keep them, so any consumer that
reads the arrays works unchanged.  The set-associative engine instead
reads the stream a range at a time (:meth:`LazyStream.read`), so the rows
it extrapolates are never built; see :mod:`repro.machine.engine.periodic`.

A trace may also carry ``spans``: hints, each ``(start, trip, width)``,
naming ``trip`` consecutive rows of ``width`` accesses from ``start`` that
one guard-free loop generated, so each row is expected to be the
previous one with every column's address moved by a fixed byte delta.
The set-associative engine uses them to find periodic stretches it may
extrapolate (:mod:`repro.machine.engine.periodic`), and derives hints of
the same form for the event stream it sends on, so hints reach every
level of a hierarchy, not only the first.  A hint on rows of one level
of a :class:`Rows` part, inside one iteration of the levels above it,
holds by construction (:meth:`LazyStream.row_step`); every other hint is
verified against the addresses, so a wrong or missing hint costs time,
never a counter.  :meth:`Trace.concat`, :meth:`Trace.repeated` and
:func:`concat_traces` drop them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

#: One loop-span hint: (first access, rows, accesses per row).
Span = tuple[int, int, int]

#: Fewest columns :meth:`Rows.wide` gives a row where levels allow, and
#: fewest accesses of an outer iteration :func:`_fill_nest` builds on
#: its own.  Small: at 2^15, ``mm_blocked(90, 15)``'s levels flatten
#: into one 365,850-column row, megabytes built afresh for every trace
#: and paid for in page faults.
_BLOCK = 1 << 11


class Rows:
    """One guard-free loop nest, built only when read.  ``trips`` are its
    levels' trip counts, outermost first, and ``steps`` their per-column
    byte steps: the nest's rows, in execution order, are those of
    iterations ``(i1, ..., ik)`` in C order, and that row is ``base + i1 *
    steps[0] + ... + ik * steps[k - 1]`` (int64 byte addresses) with the
    write flags ``writes``."""

    __slots__ = ("base", "writes", "steps", "trips", "sizes", "_wide")

    def __init__(self, base: np.ndarray, writes: np.ndarray, steps: Sequence[np.ndarray], trips: Sequence[int]):
        self.base, self.writes = base, writes
        self.steps, self.trips = tuple(steps), tuple(trips)
        #: Rows per iteration of each level.
        self.sizes = tuple(math.prod(self.trips[j + 1 :]) for j in range(len(self.trips)))
        self._wide: Rows | None = self if len(base) >= _BLOCK or len(self.trips) == 1 else None

    @property
    def width(self) -> int:
        return len(self.base)

    def __len__(self) -> int:
        return math.prod(self.trips) * len(self.base)

    def row(self, r: int, cols: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """Row ``r`` (its columns ``cols``), built (into ``out`` if given)."""
        at = [r // size % trip for trip, size in zip(self.trips, self.sizes)]
        out = np.multiply(self.steps[0][cols], at[0], out=out)
        out += self.base[cols]
        for step, i in zip(self.steps[1:], at[1:]):
            if i:
                out += i * step[cols]
        return out

    def runs(self, r0: int, r1: int) -> list[tuple[int, int, int]]:
        """Rows ``[r0, r1)`` as runs ``(level, first row, iterations)``,
        each whole iterations of one level inside one iteration of the
        levels above it: up from ``r0`` to the first row an outer
        iteration starts, then down to ``r1``."""
        sizes, runs = self.sizes, []
        for j in reversed(range(len(sizes))):
            up = sizes[j] * self.trips[j]
            stop = min(r0 - r0 % up + up, r1 - r1 % sizes[j])
            if r0 % up and stop > r0:
                runs.append((j, r0, (stop - r0) // sizes[j]))
                r0 = stop
        for j, size in enumerate(sizes):
            if r1 - r0 >= size:
                runs.append((j, r0, (r1 - r0) // size))
                r0 += runs[-1][2] * size
        return runs

    def wide(self) -> "Rows":
        """The same accesses in rows of at least ``_BLOCK`` columns, where
        levels allow, for reading ranges: while a row is narrower and
        levels remain, the innermost level is flattened into the base row
        (its step tiled into every outer level's), so that a read costs
        two passes over long rows, not one per level over short ones.
        Built on the first range read, and kept."""
        if self._wide is None:
            trip = self.trips[-1]
            # Built column by column, so that NumPy's inner loops run
            # along the level rather than along a few columns.
            rows = np.multiply.outer(self.steps[-1], np.arange(trip, dtype=np.int64))
            rows += self.base[:, None]
            steps = [np.tile(step, trip) for step in self.steps[:-1]]
            self._wide = Rows(rows.T.ravel(), np.tile(self.writes, trip), steps, self.trips[:-1]).wide()
        return self._wide

    def fill(self, out_addrs: np.ndarray, out_writes: np.ndarray, first: int = 0) -> None:
        """Write rows ``first, first + 1, ...`` into the flat buffers
        (whole rows: their length is a multiple of the width)."""
        at = 0
        for j, r, n in self.runs(first, first + len(out_addrs) // self.width):
            # From the row the levels above give, at the run's iteration.
            i, size = r // self.sizes[j] % self.trips[j], n * self.sizes[j] * self.width
            base = self.row(r - i * self.sizes[j]) if j else self.base
            _fill_nest(out_addrs[at : at + size], base, self.steps[j:], (n, *self.trips[j + 1 :]), i)
            at += size
        out_writes.reshape(-1, self.width)[:] = self.writes

    def read(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Accesses ``[lo, hi)``, built."""
        addrs = np.empty(hi - lo, dtype=np.int64)
        writes = np.empty(hi - lo, dtype=np.bool_)
        self.read_into(lo, hi, addrs, writes)
        return addrs, writes

    def read_into(self, lo: int, hi: int, out_addrs: np.ndarray, out_writes: np.ndarray) -> None:
        """Build accesses ``[lo, hi)`` into the buffers: a cut first row,
        whole rows, a cut last row (of :meth:`wide`'s rows)."""
        if self.wide() is not self:
            return self._wide.read_into(lo, hi, out_addrs, out_writes)
        width = self.width
        row, col = divmod(lo, width)
        k = 0
        if col:
            n = min(width - col, hi - lo)
            self.row(row, slice(col, col + n), out_addrs[:n])
            out_writes[:n] = self.writes[col : col + n]
            k, row = n, row + 1
        whole = (hi - lo - k) // width * width
        if whole:
            self.fill(out_addrs[k : k + whole], out_writes[k : k + whole], row)
            k, row = k + whole, row + whole // width
        n = hi - lo - k
        if n:
            self.row(row, slice(0, n), out_addrs[k:])
            out_writes[k:] = self.writes[:n]

    def slice(self, lo: int, hi: int) -> list:
        """Accesses ``[lo, hi)`` as parts: a cut first row and a cut last
        row as plain arrays, the whole rows between as nests
        (:meth:`runs`)."""
        width = self.width
        first, last = -(-lo // width), hi // width
        if first >= last:
            return [self.read(lo, hi)]
        parts: list = []
        if lo < first * width:
            parts.append(self.read(lo, first * width))
        parts += [Rows(self.row(r), self.writes, self.steps[j:], (n, *self.trips[j + 1 :])) for j, r, n in self.runs(first, last)]
        if last * width < hi:
            parts.append(self.read(last * width, hi))
        return parts


def _fill_nest(out: np.ndarray, base: np.ndarray, steps: Sequence[np.ndarray], trips: Sequence[int], start: int = 0) -> None:
    """Write every row of the nest of ``base``, ``steps`` and ``trips``,
    its outermost level from iteration ``start`` on, into ``out`` (flat):
    each iteration of the outermost level is its inner nest moved by the
    step, tiled over the inner nest's rows."""
    rows = out.reshape(trips[0], -1)
    if len(trips) > 1 and rows.shape[1] >= _BLOCK:
        # Wide iterations: each is its inner nest from its own base row,
        # so no temporary is as wide as one.
        for i in range(trips[0]):
            _fill_nest(rows[i], base + (start + i) * steps[0], steps[1:], trips[1:])
        return
    first, step = base, steps[0]
    if len(trips) > 1:
        first = np.empty(rows.shape[1], dtype=np.int64)
        _fill_nest(first, base, steps[1:], trips[1:])
        step = np.tile(step, len(first) // len(base))
    np.multiply.outer(np.arange(start, start + trips[0], dtype=np.int64), step, out=rows)
    rows += first


#: One part of a :class:`LazyStream`: plain arrays, or computed rows.
Part = Union[tuple[np.ndarray, np.ndarray], Rows]


def part_len(part: Part) -> int:
    """Accesses in one part of a :class:`LazyStream`."""
    return len(part) if isinstance(part, Rows) else len(part[0])


class LazyStream:
    """An ordered access stream held as parts (plain arrays and
    :class:`Rows`), read a range at a time or joined once."""

    __slots__ = ("parts", "_starts", "_joined")

    def __init__(self, parts: Sequence[Part] = ()):
        self.parts = [p for p in parts if part_len(p)]
        self._starts = list(accumulate((part_len(p) for p in self.parts), initial=0))
        self._joined: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def of(cls, addrs: np.ndarray, writes: np.ndarray) -> "LazyStream":
        """The stream of plain arrays (already joined)."""
        stream = cls([(addrs, writes)])
        stream._joined = (addrs, writes)
        return stream

    def __len__(self) -> int:
        return self._starts[-1]

    def read(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Accesses ``[lo, hi)``: views where they lie in one array part,
        else built (only the rows of a :class:`Rows` part they touch)."""
        if self._joined is not None:
            return self._joined[0][lo:hi], self._joined[1][lo:hi]
        i = bisect_right(self._starts, lo) - 1
        if i < len(self.parts) and hi <= self._starts[i + 1]:
            part, start = self.parts[i], self._starts[i]
            if isinstance(part, Rows):
                return part.read(lo - start, hi - start)
            return part[0][lo - start : hi - start], part[1][lo - start : hi - start]
        addrs = np.empty(hi - lo, dtype=np.int64)
        writes = np.empty(hi - lo, dtype=np.bool_)
        k = 0
        while lo < hi:
            part, start = self.parts[i], self._starts[i]
            stop = min(hi, self._starts[i + 1])
            n = stop - lo
            if isinstance(part, Rows):
                part.read_into(lo - start, stop - start, addrs[k : k + n], writes[k : k + n])
            else:
                addrs[k : k + n] = part[0][lo - start : stop - start]
                writes[k : k + n] = part[1][lo - start : stop - start]
            lo, k, i = stop, k + n, i + 1
        return addrs, writes

    def slice(self, lo: int, hi: int) -> "LazyStream":
        """Accesses ``[lo, hi)`` as a stream, still lazy where this one is
        (and reading views of its arrays once they are joined)."""
        parts: list = []
        for part, start, stop in zip(self.parts, self._starts, self._starts[1:]):
            a, b = max(lo, start) - start, min(hi, stop) - start
            if a >= b:
                continue
            if isinstance(part, Rows):
                parts += part.slice(a, b)
            else:
                parts.append((part[0][a:b], part[1][a:b]))
        sub = LazyStream(parts)
        if self._joined is not None:
            sub._joined = self.read(lo, hi)
        return sub

    def row_step(self, start: int, trip: int, width: int) -> np.ndarray | None:
        """The per-row byte step of rows ``[start, start + trip * width)``
        when they repeat by construction, else None.

        They do when they are rows of one level of a :class:`Rows` part
        (``width`` accesses an iteration) inside one iteration of the
        levels above it: that level's step, tiled over the rows of the
        levels below it, moves each to the next."""
        i = bisect_right(self._starts, start) - 1
        part = self.parts[i] if i < len(self.parts) else None
        offset = start - self._starts[i]
        if isinstance(part, Rows) and trip >= 2 and width > 0 and offset % width == 0:
            for step, n, size in zip(part.steps, part.trips, part.sizes):
                if size * part.width == width and offset // width % n + trip <= n:
                    return np.tile(step, size)
        return None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole stream as plain arrays, joined on the first call and
        kept; array parts become views of them, so no second copy stays."""
        if self._joined is None and len(self.parts) == 1 and not isinstance(self.parts[0], Rows):
            self._joined = self.parts[0]
        if self._joined is None:
            addrs = np.empty(len(self), dtype=np.int64)
            writes = np.empty(len(self), dtype=np.bool_)
            for k, (start, stop) in enumerate(zip(self._starts, self._starts[1:])):
                part = self.parts[k]
                if isinstance(part, Rows):
                    part.fill(addrs[start:stop], writes[start:stop])
                else:
                    addrs[start:stop], writes[start:stop] = part
                    self.parts[k] = (addrs[start:stop], writes[start:stop])
            self._joined = (addrs, writes)
        return self._joined


class Trace:
    """Ordered access stream of one program execution.

    Built from plain arrays, or with :meth:`lazy` from a
    :class:`LazyStream` whose arrays are joined on first read.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        is_write: np.ndarray,
        flops: int,
        loads: int,  # executed array-element reads
        stores: int,  # executed array-element writes
        spans: tuple[Span, ...] = (),  # loop-span hints, sorted by start
    ):
        assert addresses.dtype == np.int64
        assert is_write.dtype == np.bool_
        assert len(addresses) == len(is_write)
        self._init(LazyStream.of(addresses, is_write), flops, loads, stores, spans)

    @classmethod
    def lazy(
        cls, stream: LazyStream, flops: int, loads: int, stores: int, spans: tuple[Span, ...] = ()
    ) -> "Trace":
        trace = cls.__new__(cls)
        trace._init(stream, flops, loads, stores, spans)
        return trace

    def _init(self, stream: LazyStream, flops: int, loads: int, stores: int, spans) -> None:
        assert loads + stores == len(stream)
        self.stream = stream
        self.flops, self.loads, self.stores = flops, loads, stores
        self.spans: tuple[Span, ...] = spans

    @property
    def addresses(self) -> np.ndarray:
        """int64 byte addresses, element granularity (joined on first read)."""
        return self.stream.arrays()[0]

    @property
    def is_write(self) -> np.ndarray:
        """bool, parallel to :attr:`addresses`."""
        return self.stream.arrays()[1]

    def __len__(self) -> int:
        return len(self.stream)

    @property
    def register_bytes(self) -> int:
        """Register<->L1 traffic: every executed element access moves one
        element between the register file and L1 (8-byte elements)."""
        return 8 * (self.loads + self.stores)

    @property
    def nbytes(self) -> int:
        """Bytes this trace occupies as plain arrays (9 per access: int64
        address + bool write flag) — the quantity the streaming pipeline
        bounds per chunk instead of paying for the whole run."""
        return 9 * len(self)

    def concat(self, other: "Trace") -> "Trace":
        return Trace(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.is_write, other.is_write]),
            self.flops + other.flops,
            self.loads + other.loads,
            self.stores + other.stores,
        )

    def repeated(self, times: int) -> "Trace":
        """The trace of running the same code ``times`` times in a row."""
        if times < 1:
            raise ValueError("times must be >= 1")
        return Trace(
            np.tile(self.addresses, times),
            np.tile(self.is_write, times),
            self.flops * times,
            self.loads * times,
            self.stores * times,
        )


EMPTY_TRACE = Trace(
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.bool_), 0, 0, 0
)


def slice_spans(spans: tuple[Span, ...], lo: int, hi: int) -> tuple[Span, ...]:
    """The whole rows of ``spans`` that fall inside accesses ``[lo, hi)``,
    re-based to ``lo`` (a span left with fewer than two rows is dropped:
    it cannot repeat)."""
    out = []
    for start, trip, width in spans:
        if width <= 0:
            continue
        first = max(0, -(-(lo - start) // width))
        stop = min(trip, (hi - start) // width)
        if stop - first >= 2:
            out.append((start + first * width - lo, stop - first, width))
    return tuple(out)


def concat_traces(traces: list[Trace]) -> Trace:
    if not traces:
        return EMPTY_TRACE
    if len(traces) == 1:
        # np.concatenate of a single array still copies it; a singleton
        # body (the common case) must not double its peak memory.
        return traces[0]
    return Trace(
        np.concatenate([t.addresses for t in traces]),
        np.concatenate([t.is_write for t in traces]),
        sum(t.flops for t in traces),
        sum(t.loads for t in traces),
        sum(t.stores for t in traces),
    )

