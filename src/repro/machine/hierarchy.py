"""Multi-level trace-driven hierarchy simulation.

Feeds an ordered element-granularity access stream through the cache stack:
each level's miss fills and writebacks become the ordered input of the next
level, and the event count leaving level *i* times that level's line size is
exactly the traffic the paper measures with hardware counters:

    L1↔L2 bytes  = (L1 misses + L1 writebacks) × L1 line size
    L2↔Mem bytes = (L2 misses + L2 writebacks) × L2 line size
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..trace.events import Span, slice_spans
from .cache import Cache, CacheStats
from .engine import periodic, telemetry
from .spec import MachineSpec

if TYPE_CHECKING:
    from ..trace.events import Trace


@dataclass(frozen=True)
class HierarchyResult:
    """Counters and per-channel traffic of one simulated run."""

    level_stats: tuple[CacheStats, ...]
    downstream_bytes: tuple[int, ...]  # one entry per cache level: traffic below it

    @property
    def memory_bytes(self) -> int:
        """Bytes moved on the last channel (last cache ↔ memory)."""
        return self.downstream_bytes[-1]

    def merged(self, other: "HierarchyResult") -> "HierarchyResult":
        assert len(self.level_stats) == len(other.level_stats)
        return HierarchyResult(
            tuple(a.merged(b) for a, b in zip(self.level_stats, other.level_stats)),
            tuple(a + b for a, b in zip(self.downstream_bytes, other.downstream_bytes)),
        )


@dataclass(frozen=True)
class StreamTotals:
    """What one consumed chunk stream contained (one pass worth)."""

    chunks: int
    accesses: int
    flops: int
    loads: int
    stores: int


#: Accesses pushed through the level stack per chunk.  Chunking bounds the
#: per-level event lists (a chunk's events are consumed by the next level
#: before the next chunk starts), so multi-hundred-million-access traces
#: stream in bounded memory.  Engines persist cache contents between
#: ``run`` calls, so chunking never changes a counter.
DEFAULT_CHUNK = 4 << 20


class Hierarchy:
    """A stack of caches fed by element-granularity address traces."""

    def __init__(self, caches: list[Cache], chunk_size: int = DEFAULT_CHUNK):
        if not caches:
            raise ValueError("hierarchy needs at least one cache")
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        self.caches = caches
        self.chunk_size = chunk_size
        # Bottom up: each level's windows align with every level below.
        for upper, lower in reversed(list(zip(caches, caches[1:]))):
            periodic.link(upper, [lower])

    @classmethod
    def from_spec(
        cls,
        spec: MachineSpec,
        engine: str | None = None,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> "Hierarchy":
        return cls(spec.build_caches(engine), chunk_size)

    def _run_levels(
        self, addrs: np.ndarray, writes: np.ndarray, spans: tuple[Span, ...] = ()
    ) -> None:
        last = len(self.caches) - 1
        measure = telemetry.collecting()
        for i, cache in enumerate(self.caches):
            # Nothing consumes the last level's stream; telling the engine
            # lets it skip materializing events (counters stay exact).
            # The first level gets the trace's span hints, each level below
            # the hints the level above derived for its events.
            hints: list[Span] = []
            if measure:
                n = len(addrs)
                start = time.perf_counter()
                addrs, writes = cache.run(addrs, writes, i < last, spans, hints)
                telemetry.record_level(
                    cache.name, cache.engine, n, time.perf_counter() - start
                )
            else:
                addrs, writes = cache.run(addrs, writes, i < last, spans, hints)
            spans = tuple(hints)

    def run_trace(
        self,
        byte_addrs: np.ndarray,
        is_write: np.ndarray,
        chunk_size: int | None = None,
        spans: tuple[Span, ...] = (),
    ) -> None:
        """Push one ordered access stream through all levels (no flush).
        ``spans`` are the stream's loop-span hints (``Trace.spans``)."""
        chunk = chunk_size or self.chunk_size
        n = len(byte_addrs)
        if n <= chunk:
            self._run_levels(byte_addrs, is_write, spans)
            return
        for start in range(0, n, chunk):
            self._run_levels(
                byte_addrs[start : start + chunk],
                is_write[start : start + chunk],
                slice_spans(spans, start, start + chunk),
            )

    def run_stream(self, chunks: Iterable["Trace"]) -> "StreamTotals":
        """Consume an ordered chunk stream (e.g.
        :meth:`TraceGenerator.chunks`) through all levels, one chunk at a
        time, and return what the stream contained.

        Engines persist cache contents across ``run`` calls, so this is
        bit-identical to :meth:`run_trace` over the concatenated stream —
        but peak memory is one chunk, not one trace.
        """
        n_chunks = accesses = flops = loads = stores = 0
        for chunk in chunks:
            self.run_trace(chunk.addresses, chunk.is_write, spans=chunk.spans)
            n_chunks += 1
            accesses += len(chunk)
            flops += chunk.flops
            loads += chunk.loads
            stores += chunk.stores
        return StreamTotals(n_chunks, accesses, flops, loads, stores)

    @staticmethod
    def run_stream_multi(
        hierarchies: list["Hierarchy"], chunks: Iterable["Trace"]
    ) -> "StreamTotals":
        """Feed one ordered chunk stream to several hierarchies in a
        single pass (the planner's trace-sharing rule): each chunk is
        generated once and fanned out to every hierarchy before the next
        chunk is pulled, so peak memory stays O(chunk) no matter how many
        sweep points share the trace.  Each hierarchy ends up bit-identical
        to running :meth:`run_stream` on its own copy of the stream.
        """
        from ..trace.stream import fanout_chunks

        if not hierarchies:
            raise ValueError("run_stream_multi needs at least one hierarchy")
        streams = fanout_chunks(chunks, len(hierarchies), depth=1)
        n_chunks = accesses = flops = loads = stores = 0
        while True:
            try:
                chunk = next(streams[0])
            except StopIteration:
                break
            hierarchies[0].run_trace(chunk.addresses, chunk.is_write, spans=chunk.spans)
            n_chunks += 1
            accesses += len(chunk)
            flops += chunk.flops
            loads += chunk.loads
            stores += chunk.stores
            for h, s in zip(hierarchies[1:], streams[1:]):
                same = next(s)
                h.run_trace(same.addresses, same.is_write, spans=same.spans)
        return StreamTotals(n_chunks, accesses, flops, loads, stores)

    def flush(self) -> None:
        """Drain dirty lines of every level down to memory."""
        last = len(self.caches) - 1
        measure = telemetry.collecting()
        for i, cache in enumerate(self.caches):
            addrs, writes = cache.flush()
            for j, lower in enumerate(self.caches[i + 1 :], start=i + 1):
                if measure:
                    n = len(addrs)
                    start = time.perf_counter()
                    addrs, writes = lower.run(addrs, writes, collect_events=j < last)
                    telemetry.record_level(
                        lower.name, lower.engine, n, time.perf_counter() - start
                    )
                else:
                    addrs, writes = lower.run(addrs, writes, collect_events=j < last)

    def result(self) -> HierarchyResult:
        """Snapshot counters and derived traffic."""
        stats = tuple(c.stats for c in self.caches)
        traffic = tuple(
            c.stats.events_out * c.geometry.line_size for c in self.caches
        )
        return HierarchyResult(stats, traffic)

    def reset(self) -> None:
        for c in self.caches:
            c.reset()

    def reset_stats(self) -> None:
        """Zero every level's counters; contents stay (steady-state
        measurement after warmup passes)."""
        for c in self.caches:
            c.reset_stats()

    def close(self) -> None:
        """Release engine resources.  The serial hierarchy holds none;
        the sharded subclass reaps its worker processes here, so callers
        (the executor) can close unconditionally."""
