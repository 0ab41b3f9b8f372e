"""Trace containers.

A :class:`Trace` is the ordered element-granularity access stream of one
program run, plus the executed operation counts the balance model needs
(flops, element loads/stores).

The stream is held as a :class:`LazyStream`: a sequence of *parts*, each
either plain ``(addresses, write flags)`` arrays or :class:`Rows`, the
``trip`` rows of one guard-free loop kept as row 0, a per-column byte
step and a trip count (row ``r`` is row 0 plus ``r`` steps).
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
level of a hierarchy, not only the first.  A hint on whole rows of one
:class:`Rows` part of its width holds by construction, and so does one
on an inner loop inside one row of a part once its blocks are proven to
move by fixed vectors in row 0 and the step (:meth:`LazyStream.row_step`,
once per part); every other hint is verified against the addresses, so
a wrong or missing hint costs time, never a counter.
:meth:`Trace.concat`, :meth:`Trace.repeated` and :func:`concat_traces`
drop them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, Sequence, Union

import numpy as np

#: One loop-span hint: (first access, rows, accesses per row).
Span = tuple[int, int, int]


class Rows:
    """``trip`` rows of a repeating loop, built only when read: row ``r``
    is ``base + r * step`` (int64 byte addresses), and every row has the
    write flags ``writes``."""

    __slots__ = ("base", "writes", "step", "trip")

    def __init__(self, base: np.ndarray, writes: np.ndarray, step: np.ndarray, trip: int):
        self.base, self.writes, self.step, self.trip = base, writes, step, trip

    @property
    def width(self) -> int:
        return len(self.base)

    def __len__(self) -> int:
        return self.trip * len(self.base)

    def fill(self, out_addrs: np.ndarray, out_writes: np.ndarray, first: int = 0) -> None:
        """Write rows ``first, first + 1, ...`` into the flat buffers
        (whole rows: their length is a multiple of the width)."""
        rows = out_addrs.reshape(-1, self.width)
        np.multiply.outer(np.arange(first, first + len(rows), dtype=np.int64), self.step, out=rows)
        rows += self.base
        out_writes.reshape(rows.shape)[:] = self.writes

    def read(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Accesses ``[lo, hi)``, built."""
        addrs = np.empty(hi - lo, dtype=np.int64)
        writes = np.empty(hi - lo, dtype=np.bool_)
        self.read_into(lo, hi, addrs, writes)
        return addrs, writes

    def read_into(self, lo: int, hi: int, out_addrs: np.ndarray, out_writes: np.ndarray) -> None:
        """Build accesses ``[lo, hi)`` into the buffers: a cut first row,
        whole rows, a cut last row."""
        width = self.width
        row, col = divmod(lo, width)
        k = 0
        if col:
            n = min(width - col, hi - lo)
            np.multiply(self.step[col : col + n], row, out=out_addrs[:n])
            out_addrs[:n] += self.base[col : col + n]
            out_writes[:n] = self.writes[col : col + n]
            k, row = n, row + 1
        whole = (hi - lo - k) // width * width
        if whole:
            self.fill(out_addrs[k : k + whole], out_writes[k : k + whole], row)
            k, row = k + whole, row + whole // width
        n = hi - lo - k
        if n:
            np.multiply(self.step[:n], row, out=out_addrs[k:])
            out_addrs[k:] += self.base[:n]
            out_writes[k:] = self.writes[:n]

    def slice(self, lo: int, hi: int) -> list:
        """Accesses ``[lo, hi)`` as parts: a cut first row and a cut last
        row as plain arrays, the whole rows between as :class:`Rows`."""
        width = self.width
        first, last = -(-lo // width), hi // width
        if first >= last:
            return [self.read(lo, hi)]
        parts: list = []
        if lo < first * width:
            parts.append(self.read(lo, first * width))
        parts.append(Rows(self.base + first * self.step, self.writes, self.step, last - first))
        if last * width < hi:
            parts.append(self.read(last * width, hi))
        return parts


def _block_moves(part: Rows, col: int, trip: int, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """How ``trip`` blocks of ``width`` columns from column ``col`` of
    ``part``'s rows move per block: one vector for the bases and one for
    the steps, or None when they do not move by fixed vectors or their
    write flags differ."""
    cols = slice(col, col + trip * width)
    base = part.base[cols].reshape(trip, width)
    step = part.step[cols].reshape(trip, width)
    writes = part.writes[cols].reshape(trip, width)
    moves = base[1] - base[0], step[1] - step[0]
    if (
        (base[1:] - base[:-1] == moves[0]).all()
        and (step[1:] - step[:-1] == moves[1]).all()
        and (writes == writes[0]).all()
    ):
        return moves
    return None


#: One part of a :class:`LazyStream`: plain arrays, or computed rows.
Part = Union[tuple[np.ndarray, np.ndarray], Rows]


def part_len(part: Part) -> int:
    """Accesses in one part of a :class:`LazyStream`."""
    return len(part) if isinstance(part, Rows) else len(part[0])


class LazyStream:
    """An ordered access stream held as parts (plain arrays and
    :class:`Rows`), read a range at a time or joined once."""

    __slots__ = ("parts", "_starts", "_joined", "_blocks")

    def __init__(self, parts: Sequence[Part] = ()):
        self.parts = [p for p in parts if part_len(p)]
        self._starts = list(accumulate((part_len(p) for p in self.parts), initial=0))
        self._joined: tuple[np.ndarray, np.ndarray] | None = None
        # Inner loops proven inside a part's rows, see :meth:`row_step`.
        self._blocks: dict[tuple[int, int, int, int], tuple[np.ndarray, np.ndarray] | None] = {}

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

        They do when they are whole rows of one :class:`Rows` part of
        that width, or ``trip`` blocks of ``width`` columns inside one
        row of a wider part (an inner loop) whose bases move by one
        vector ``b`` per block, whose steps move by one vector ``s`` per
        block, and whose write flags agree: the blocks of row ``r`` then
        move by ``b + r * s``.  That is proven once per part from row 0
        and the step, and holds in every row."""
        i = bisect_right(self._starts, start) - 1
        if not 0 <= i < len(self.parts) or trip < 2:
            return None
        part, offset = self.parts[i], start - self._starts[i]
        if not isinstance(part, Rows):
            return None
        if part.width == width:
            return part.step if offset % width == 0 and offset + trip * width <= len(part) else None
        row, col = divmod(offset, part.width)
        if width <= 0 or col + trip * width > part.width:
            return None
        key = (i, col, trip, width)
        if key not in self._blocks:
            self._blocks[key] = _block_moves(part, col, trip, width)
        moves = self._blocks[key]
        return None if moves is None else moves[0] + row * moves[1]

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


def iter_chunks(trace: Trace, max_accesses: int) -> Iterator[Trace]:
    """Split an in-memory trace into execution-order chunks of at most
    ``max_accesses`` accesses each (views, no copies).

    Per-chunk ``loads``/``stores`` are exact for the slice; the scalar
    ``flops`` total rides on the final chunk (flops have no position in
    the access stream), so chunk totals always sum to the trace totals.
    """
    if max_accesses <= 0:
        raise ValueError("max_accesses must be positive")
    n = len(trace)
    if n == 0:
        if trace.flops:
            yield trace
        return
    for start in range(0, n, max_accesses):
        addrs = trace.addresses[start : start + max_accesses]
        writes = trace.is_write[start : start + max_accesses]
        stores = int(writes.sum())
        last = start + max_accesses >= n
        yield Trace(
            addrs,
            writes,
            trace.flops if last else 0,
            len(addrs) - stores,
            stores,
            slice_spans(trace.spans, start, start + len(addrs)),
        )
