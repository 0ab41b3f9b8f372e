"""Belady-optimal (OPT/MIN) cache replacement — offline simulation.

The paper's §4 discusses Burger et al.'s use of "the optimal Belady
cache-replacement policy" to bound what better cache management could buy,
and dismisses it as impractical ("requires hardware to have beforehand the
perfect knowledge of whole execution"). A *simulator* has exactly that
knowledge: this module replays a finished trace under OPT, so experiments
can report the gap between LRU traffic and the offline optimum — the
headroom hardware could never reach but compilers (which also see the
whole program) can go after.

OPT here is per-set: on a miss with a full set, evict the resident line
whose next use is farthest in the future. Lines never used again tie at
infinity; among them the first-inserted one (of its current residency) is
the victim. For writeback accounting a dirty victim costs one writeback,
as in the LRU simulator, so traffic numbers are directly comparable.

The replay is run-collapsed, the way the set-associative LRU engine is.
One stable sort groups the accesses by set, and each run of equal lines
within a set collapses to its head: a repeat of the set's last line hits
under any policy and leaves the set's contents unchanged, so only the
line's next-use key (its next *head*) and its dirty bit (the OR of the
run's writes) carry over. The Belady loop then visits heads only —
sequential sweeps touch each line several times in a row, so that is a
fraction of the trace. The LRU side of :func:`lru_vs_opt` runs on the
engine :func:`~repro.machine.engine.make_cache` selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..errors import MachineError
from .cache import CacheGeometry, CacheStats
from .engine import make_cache, previous_occurrences


@dataclass(frozen=True)
class OptResult:
    """Counters of one offline-optimal replay."""

    stats: CacheStats
    downstream_bytes: int

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def writebacks(self) -> int:
        return self.stats.writebacks


def _next_use(entry: tuple) -> int:
    return entry[1][0]


def simulate_opt(
    byte_addrs: np.ndarray,
    is_write: np.ndarray,
    geometry: CacheGeometry,
    flush: bool = True,
) -> OptResult:
    """Replay an access stream under Belady-optimal replacement.

    Returns counters plus the downstream traffic ((misses + writebacks) ×
    line size), the quantity to compare against an LRU run of the same
    trace and geometry.
    """
    if len(byte_addrs) != len(is_write):
        raise MachineError("address and write arrays must have equal length")
    n = len(byte_addrs)
    stats = CacheStats()
    if n == 0:
        return OptResult(stats, 0)

    line_shift = geometry.line_size.bit_length() - 1
    lines = np.asarray(byte_addrs, dtype=np.int64) >> line_shift
    writes = np.asarray(is_write, dtype=bool)
    n_sets = geometry.n_sets
    assoc = geometry.associativity

    # -- group by set: one stable sort on a narrow key (radix for <= 16 bit)
    if n_sets == 1:
        gl, gw, gkey = lines, writes, None
    else:
        key = lines & (n_sets - 1) if n_sets & (n_sets - 1) == 0 else lines % n_sets
        if n_sets <= 256:
            key = key.astype(np.uint8)
        elif n_sets <= 65536:
            key = key.astype(np.uint16)
        order = np.argsort(key, kind="stable")
        gl, gw, gkey = lines[order], writes[order], key[order]

    # -- collapse runs of equal lines to their heads ------------------------
    # A line lives in one set, so a set boundary always starts a run.
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(gl[1:], gl[:-1], out=new_run[1:])
    heads = np.flatnonzero(new_run)
    R = len(heads)
    hl = gl[heads]
    head_write = gw[heads]  # decides read vs write miss
    run_dirty = np.logical_or.reduceat(gw, heads)  # the run's dirty bit
    if gkey is None:
        counts = [R]
    else:  # heads per set, in ascending set (= group) order
        counts = np.bincount(gkey[heads], minlength=n_sets)
        counts = counts[counts > 0].tolist()

    # next_use[i] = index of the next head of the same line (R = never).
    # Heads keep trace order within a set, so within-set comparisons of
    # head indices order next uses exactly as trace positions would.
    prev = previous_occurrences(hl)
    has_prev = prev >= 0
    next_use = np.full(R, R, dtype=np.int64)
    next_use[prev[has_prev]] = np.flatnonzero(has_prev)

    # -- Belady over the heads, one set group at a time ----------------------
    misses = wmiss = evict = wb = 0
    it = zip(hl.tolist(), next_use.tolist(), head_write.tolist(), run_dirty.tolist())
    for count in counts:
        ways: dict[int, list] = {}  # line -> [next_use, dirty]
        for line, nu, w, d in islice(it, count):
            entry = ways.get(line)
            if entry is not None:
                entry[0] = nu
                if d:
                    entry[1] = True
                continue
            misses += 1
            if w:
                wmiss += 1
            if len(ways) >= assoc:
                # Farthest next use; max keeps the first of tied (never
                # reused) lines, i.e. the first inserted.
                victim_line, victim = max(ways.items(), key=_next_use)
                del ways[victim_line]
                evict += 1
                if victim[1]:
                    wb += 1
            ways[line] = [nu, d]
        if flush:
            wb += sum(1 for entry in ways.values() if entry[1])

    stats.accesses = n
    stats.hits = n - misses
    stats.misses = misses
    stats.read_misses = misses - wmiss
    stats.write_misses = wmiss
    stats.evictions = evict
    stats.writebacks = wb
    stats.events_out = misses + wb
    return OptResult(stats, (misses + wb) * geometry.line_size)


def lru_bytes(
    byte_addrs: np.ndarray,
    is_write: np.ndarray,
    geometry: CacheGeometry,
    flush: bool = True,
) -> int:
    """Downstream bytes of an LRU write-back cache of ``geometry`` on one
    trace, on the engine :func:`~repro.machine.engine.make_cache` picks."""
    cache = make_cache("lru", geometry)
    cache.run(byte_addrs, is_write, collect_events=False)
    if flush:
        cache.flush()
    return cache.stats.events_out * geometry.line_size


def lru_vs_opt(
    byte_addrs: np.ndarray,
    is_write: np.ndarray,
    geometry: CacheGeometry,
    flush: bool = True,
) -> tuple[int, int]:
    """(LRU downstream bytes, OPT downstream bytes) for one trace.

    Convenience used by the replacement-policy experiment; OPT is a lower
    bound, so the first element is always >= the second.
    """
    opt = simulate_opt(byte_addrs, is_write, geometry, flush=flush)
    return lru_bytes(byte_addrs, is_write, geometry, flush), opt.downstream_bytes
