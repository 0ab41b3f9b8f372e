"""Trace-driven set-associative cache simulator.

One :class:`Cache` models a single level: LRU replacement, configurable
associativity (1 = direct-mapped, as in the HP Exemplar's PA-8000 data
cache), write-back/write-allocate by default (write-through and
no-write-allocate are supported for ablations).

The simulator is exact and runs at line granularity: callers feed a stream
of byte addresses; addresses are vectorized to (set, tag) pairs with NumPy
and the per-access LRU update is a tight Python loop over plain ints and
dicts (insertion order gives O(1) LRU). Each level emits the ordered
miss-fill and writeback stream that the next level consumes, so stacking
caches gives a faithful multi-level simulation.

Set counts need not be powers of two (set = line_index mod n_sets); this is
used by the Exemplar preset, where a 5-way conflict period reproduces the
paper's footnote-3 anomaly exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MachineError


@dataclass
class CacheStats:
    """Counter block for one cache level (the paper's 'hardware counters')."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_misses: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    write_throughs: int = 0
    events_out: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.accesses else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.accesses + other.accesses,
            self.hits + other.hits,
            self.misses + other.misses,
            self.read_misses + other.read_misses,
            self.write_misses + other.write_misses,
            self.evictions + other.evictions,
            self.writebacks + other.writebacks,
            self.write_throughs + other.write_throughs,
            self.events_out + other.events_out,
        )


@dataclass(frozen=True)
class CacheGeometry:
    """Size/line/associativity of one cache level."""

    size_bytes: int
    line_size: int
    associativity: int

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise MachineError(f"line size {self.line_size} must be a positive power of two")
        if self.associativity <= 0:
            raise MachineError("associativity must be positive")
        if self.size_bytes % (self.line_size * self.associativity):
            raise MachineError(
                f"cache size {self.size_bytes} is not divisible by "
                f"line*assoc = {self.line_size * self.associativity}"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.associativity)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_size

    def scaled(self, factor: int) -> "CacheGeometry":
        """Shrink the cache by an integer factor, keeping line size and
        associativity (set count must stay >= 1)."""
        new_size = self.size_bytes // factor
        if new_size < self.line_size * self.associativity:
            raise MachineError(f"scale factor {factor} collapses the cache below one set")
        # Round down to a whole number of sets.
        set_bytes = self.line_size * self.associativity
        new_size -= new_size % set_bytes
        return CacheGeometry(new_size, self.line_size, self.associativity)

    def __str__(self) -> str:
        way = "direct-mapped" if self.associativity == 1 else f"{self.associativity}-way"
        return f"{self.size_bytes // 1024}KB {way} {self.line_size}B lines"


class Cache:
    """One simulated cache level (the reference engine)."""

    #: Engine registry name (see :mod:`repro.machine.engine`).
    engine = "reference"

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        write_back: bool = True,
        write_allocate: bool = True,
    ):
        if not write_back and write_allocate:
            # Write-through allocate is legal hardware but pointless here;
            # support the two classic pairings.
            raise MachineError("write-through caches must be no-write-allocate in this model")
        self.name = name
        self.geometry = geometry
        self.write_back = write_back
        self.write_allocate = write_allocate
        self.stats = CacheStats()
        self._line_shift = geometry.line_size.bit_length() - 1
        self._n_sets = geometry.n_sets
        self._assoc = geometry.associativity
        # One dict per set: tag -> dirty flag; insertion order is LRU order.
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self._n_sets)]

    # -- single access (reference semantics, used by tests) -----------------
    def access(self, byte_addr: int, is_write: bool) -> tuple[bool, int | None]:
        """Access one address. Returns (hit, writeback_byte_addr|None)."""
        before = self.stats.misses
        out, out_w = self.run(
            np.asarray([byte_addr], dtype=np.int64), np.asarray([is_write], dtype=bool)
        )
        hit = self.stats.misses == before
        wbs = out[out_w]
        # A single access evicts at most one line, so it can emit at most
        # one writeback (write-throughs of the access itself included).
        assert len(wbs) <= 1, f"single access emitted {len(wbs)} writebacks"
        return hit, (int(wbs[0]) if len(wbs) else None)

    # -- batch access (the fast path used by the hierarchy) ------------------
    def run(
        self,
        byte_addrs: np.ndarray,
        is_write: np.ndarray,
        collect_events: bool = True,
        spans: tuple = (),
        out_spans: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Process an ordered address stream.

        Returns the ordered (byte_addrs, is_write) stream this level sends
        to the next level: miss fills appear as reads, writebacks and
        write-throughs as writes, interleaved in the order they occur.
        ``collect_events=False`` declares that the caller will discard the
        stream (last hierarchy level); the reference implementation builds
        it regardless — it is the specification, not the fast path — and
        for the same reason ignores the ``spans`` hints and derives none
        for ``out_spans``.
        """
        if len(byte_addrs) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        lines = (np.asarray(byte_addrs, dtype=np.int64) >> self._line_shift).tolist()
        writes = np.asarray(is_write, dtype=bool).tolist()

        # Local bindings for the hot loop.
        n_sets = self._n_sets
        assoc = self._assoc
        sets = self._sets
        write_back = self.write_back
        write_allocate = self.write_allocate
        st = self.stats

        out_lines: list[int] = []
        out_writes: list[bool] = []
        accesses = hits = misses = rmiss = wmiss = evict = wb = wthrough = 0

        for line, w in zip(lines, writes):
            accesses += 1
            set_idx = line % n_sets
            tag = line // n_sets
            ways = sets[set_idx]
            if tag in ways:
                hits += 1
                dirty = ways.pop(tag)
                if w and not write_back:
                    wthrough += 1
                    ways[tag] = False
                    out_lines.append(line)
                    out_writes.append(True)
                else:
                    ways[tag] = dirty or w
                continue
            misses += 1
            if w:
                wmiss += 1
            else:
                rmiss += 1
            if w and not write_allocate:
                wthrough += 1
                out_lines.append(line)
                out_writes.append(True)
                continue
            if len(ways) >= assoc:
                victim_tag = next(iter(ways))
                victim_dirty = ways.pop(victim_tag)
                evict += 1
                if victim_dirty:
                    wb += 1
                    out_lines.append(victim_tag * n_sets + set_idx)
                    out_writes.append(True)
            out_lines.append(line)
            out_writes.append(False)
            if w and not write_back:
                wthrough += 1
                ways[tag] = False
                out_lines.append(line)
                out_writes.append(True)
            else:
                ways[tag] = w and write_back

        st.accesses += accesses
        st.hits += hits
        st.misses += misses
        st.read_misses += rmiss
        st.write_misses += wmiss
        st.evictions += evict
        st.writebacks += wb
        st.write_throughs += wthrough
        st.events_out += len(out_lines)

        out = np.asarray(out_lines, dtype=np.int64) << self._line_shift
        return out, np.asarray(out_writes, dtype=bool)

    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        """Write back all dirty lines and invalidate the cache.

        Models the drain of dirty data at the end of a run so that written
        arrays actually reach memory (the kernels' steady state dominates,
        but small runs would otherwise undercount write traffic).
        """
        out_lines: list[int] = []
        for set_idx, ways in enumerate(self._sets):
            for tag, dirty in ways.items():
                if dirty:
                    out_lines.append(tag * self._n_sets + set_idx)
                    self.stats.writebacks += 1
            ways.clear()
        self.stats.events_out += len(out_lines)
        out = np.asarray(sorted(out_lines), dtype=np.int64) << self._line_shift
        return out, np.ones(len(out_lines), dtype=bool)

    def reset(self) -> None:
        """Invalidate contents and zero counters."""
        self.stats = CacheStats()
        self._sets = [dict() for _ in range(self._n_sets)]

    def reset_stats(self) -> None:
        """Zero counters but keep cache contents (post-warmup measurement)."""
        self.stats = CacheStats()

    @property
    def resident_lines(self) -> int:
        return sum(len(w) for w in self._sets)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Cache({self.name}, {self.geometry})"
