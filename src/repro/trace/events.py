"""Trace containers.

A :class:`Trace` is the ordered element-granularity access stream of one
program run, plus the executed operation counts the balance model needs
(flops, element loads/stores). Traces are plain NumPy arrays so the cache
simulator can consume them directly.

A trace may also carry ``spans``: hints, each ``(start, trip, width)``,
naming ``trip`` consecutive rows of ``width`` accesses from ``start`` that
one guard-free loop generated, so each row is expected to be the
previous one with every column's address moved by a fixed byte delta.
The set-associative engine uses them to find periodic stretches it may
extrapolate (:mod:`repro.machine.engine.periodic`), and derives hints of
the same form for the event stream it sends on, so hints reach every
level of a hierarchy, not only the first.  Every engine verifies every
hint against the addresses, so a wrong or missing hint costs time, never
a counter; :meth:`Trace.concat`, :meth:`Trace.repeated` and
:func:`concat_traces` drop them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: One loop-span hint: (first access, rows, accesses per row).
Span = tuple[int, int, int]


@dataclass(frozen=True)
class Trace:
    """Ordered access stream of one program execution."""

    addresses: np.ndarray  # int64 byte addresses, element granularity
    is_write: np.ndarray  # bool, parallel to addresses
    flops: int
    loads: int  # executed array-element reads
    stores: int  # executed array-element writes
    spans: tuple[Span, ...] = ()  # loop-span hints, sorted by start

    def __post_init__(self) -> None:
        assert self.addresses.dtype == np.int64
        assert self.is_write.dtype == np.bool_
        assert len(self.addresses) == len(self.is_write)
        assert self.loads + self.stores == len(self.addresses)

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def register_bytes(self) -> int:
        """Register<->L1 traffic: every executed element access moves one
        element between the register file and L1 (8-byte elements)."""
        return 8 * (self.loads + self.stores)

    @property
    def nbytes(self) -> int:
        """Bytes this trace occupies in memory (9 per access: int64
        address + bool write flag) — the quantity the streaming pipeline
        bounds per chunk instead of paying for the whole run."""
        return self.addresses.nbytes + self.is_write.nbytes

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
