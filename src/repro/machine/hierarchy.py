"""Multi-level trace-driven hierarchy simulation.

Feeds an ordered element-granularity access stream through the cache stack:
each level's miss fills and writebacks become the ordered input of the next
level, and the event count leaving level *i* times that level's line size is
exactly the traffic the paper measures with hardware counters:

    L1↔L2 bytes  = (L1 misses + L1 writebacks) × L1 line size
    L2↔Mem bytes = (L2 misses + L2 writebacks) × L2 line size

Streams pass between levels as :class:`~repro.trace.events.LazyStream`:
a set-associative level reads one a block at a time and returns its
events as one, with the windows it extrapolated left unbuilt, so the
level below reads only the rows it simulates.  Any other engine joins
the stream it is handed (one run-trace chunk at a time) into arrays.

A hierarchy is a trie of levels: one chain for a machine, or several
machines' chains merged where they share a prefix (the sweep planner's
``prefix`` rule), so a shared L1 simulates once and its events feed
every L2 below it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..trace.events import LazyStream, Span, slice_spans
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


class _Level:
    """One node of a hierarchy's trie: a cache and the levels it feeds."""

    __slots__ = ("cache", "children")

    def __init__(self, cache: Cache):
        self.cache = cache
        self.children: list[_Level] = []


class Hierarchy:
    """Caches fed by element-granularity address traces, held as a trie.

    Built from one chain of levels (first level nearest the processor),
    or with :meth:`from_chains` from several chains that share prefixes:
    a level object two chains hold after the same prefix is one trie
    node, simulated once for both, and its events feed every level
    below it in any chain.
    """

    def __init__(self, caches: list[Cache], chunk_size: int = DEFAULT_CHUNK):
        self._build([caches], chunk_size)

    @classmethod
    def from_chains(
        cls, chains: Sequence[Sequence[Cache]], chunk_size: int = DEFAULT_CHUNK
    ) -> "Hierarchy":
        """One hierarchy over several level chains; :meth:`result` takes
        a chain's index in ``chains``."""
        hierarchy = cls.__new__(cls)
        hierarchy._build(chains, chunk_size)
        return hierarchy

    def _build(self, chains: Sequence[Sequence[Cache]], chunk_size: int) -> None:
        if not chains or not all(chains):
            raise ValueError("hierarchy needs at least one cache")
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        self.chains = [list(chain) for chain in chains]
        self.chunk_size = chunk_size
        self.roots: list[_Level] = []
        self.caches: list[Cache] = []  # every level once, in chain order
        for chain in self.chains:
            levels = self.roots
            for cache in chain:
                node = next((n for n in levels if n.cache is cache), None)
                if node is None:
                    if any(c is cache for c in self.caches):
                        raise ValueError(f"level {cache.name!r} sits at two places")
                    node = _Level(cache)
                    levels.append(node)
                    self.caches.append(cache)
                levels = node.children
        _link(self.roots)

    @classmethod
    def from_spec(
        cls,
        spec: MachineSpec,
        engine: str | None = None,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> "Hierarchy":
        return cls(spec.build_caches(engine), chunk_size)

    def _run_levels(self, stream: LazyStream, spans: tuple[Span, ...] = ()) -> None:
        _feed(self.roots, stream, spans)

    def run_trace(
        self,
        byte_addrs: np.ndarray | LazyStream,
        is_write: np.ndarray | None = None,
        spans: tuple[Span, ...] = (),
    ) -> None:
        """Push one ordered access stream through all levels (no flush):
        address and write-flag arrays, or a :class:`LazyStream` such as
        ``Trace.stream`` (``is_write`` None), which a set-associative
        first level reads only where it simulates.  ``spans`` are the
        stream's loop-span hints (``Trace.spans``)."""
        if isinstance(byte_addrs, LazyStream):
            stream = byte_addrs
        else:
            stream = LazyStream.of(
                np.asarray(byte_addrs, dtype=np.int64), np.asarray(is_write, dtype=bool)
            )
        chunk = self.chunk_size
        n = len(stream)
        if n <= chunk:
            self._run_levels(stream, spans)
            return
        for start in range(0, n, chunk):
            self._run_levels(
                stream.slice(start, start + chunk), slice_spans(spans, start, start + chunk)
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

    def flush(self) -> None:
        """Drain dirty lines of every level down to memory.  Per chain,
        level *i* drains and its writebacks run through the levels below
        before level *i+1* drains; sibling levels hold independent state,
        so their order cannot change a counter."""
        _drain(self.roots)

    def result(self, chain: int = 0) -> HierarchyResult:
        """Snapshot one chain's counters and derived traffic."""
        caches = self.chains[chain]
        stats = tuple(replace(c.stats) for c in caches)
        traffic = tuple(st.events_out * c.geometry.line_size for st, c in zip(stats, caches))
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


def _link(levels: list[_Level]) -> None:
    # Bottom up: each level's windows align with every level below.
    for level in levels:
        _link(level.children)
        periodic.link(level.cache, [child.cache for child in level.children])


def _feed(levels: list[_Level], stream: LazyStream, spans: tuple[Span, ...]) -> None:
    """Run ``stream`` through each of ``levels`` and on down its subtree.

    A level's events go on to its children as the stream it returned;
    with several children they are joined once first, so the children
    share one set of arrays instead of each building the level's
    unbuilt windows.  A leaf's events have no reader; telling the engine
    lets it skip materializing them (counters stay exact).  A level is
    given the hints of its input (the trace's at a root) and derives
    those of its events for its children.
    """
    measure = telemetry.collecting()
    for level in levels:
        cache, children = level.cache, level.children
        hints: list[Span] = []
        start = time.perf_counter()
        events = cache.run(stream, None, bool(children), spans, hints)
        if measure:
            telemetry.record_level(cache.name, cache.engine, len(stream), time.perf_counter() - start)
        if len(children) > 1:
            events.arrays()
        if children:
            _feed(children, events, tuple(hints))


def _drain(levels: list[_Level]) -> None:
    for level in levels:
        _feed(level.children, LazyStream.of(*level.cache.flush()), ())
        _drain(level.children)
