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

The replay is run-collapsed, the way the set-associative LRU engine is: a
repeat of a set's last line hits under any policy and leaves the set's
contents unchanged, so each run of equal lines within a set collapses to
its *head*, carrying the line's next-use key (its next head) and its
dirty bit (the OR of the run's writes).  The input — plain arrays, or a
:class:`~repro.trace.events.LazyStream` whose unbuilt rows are built one
block at a time — is read in blocks of ``_BLOCK`` accesses, so every
temporary stays cache-resident: each block is set-grouped and
run-collapsed on its own, and only its heads are kept.  The heads of all
blocks are then regrouped by set (stably, so trace order holds within a
set) and merged where a run crossed a block boundary.

Within a set, adjacent heads name different lines.  For associativity 1
every head misses.  For 2 ways the hits are a closed form: with ``nu[q]``
the index of the next head of head ``q``'s line and ``S[q] = min(nu[q:])``,
the hits of a set whose first head is ``s`` are exactly the chain
``t1 = S[s]``, ``t(i+1) = S[t(i) - 1]``.  After a hit at ``t`` the set
holds ``{head t, head t-1}``, and each later miss keeps whichever of its
two candidates is used sooner, so the non-current resident always holds
the smallest next use pending since the last hit; the next hit is the
first time a pending next use comes due.  Misses, evictions and
writebacks (dirty residencies: a miss plus the later hits of that line
up to its next miss) then follow as array operations.  Three or more
ways replay Belady over the heads, one set at a time.  The LRU side of
:func:`lru_vs_opt` runs on the engine :func:`~repro.machine.engine.make_cache`
selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..errors import MachineError
from ..trace.events import LazyStream
from .cache import CacheGeometry, CacheStats
from .engine import make_cache
from .engine.distinct import _previous_and_order

#: Accesses read and run-collapsed at a time.  A block's temporaries, some
#: 40 bytes an access, stay in a per-core L2; the heads are what is kept.
_BLOCK = 1 << 16


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


def _as_stream(byte_addrs: np.ndarray | LazyStream, is_write: np.ndarray | None) -> LazyStream:
    if isinstance(byte_addrs, LazyStream):
        return byte_addrs
    if len(byte_addrs) != len(is_write):
        raise MachineError("address and write arrays must have equal length")
    return LazyStream.of(np.asarray(byte_addrs, dtype=np.int64), np.asarray(is_write, dtype=bool))


def _set_key(lines: np.ndarray, n_sets: int) -> np.ndarray:
    """Each line's set, narrowed so a stable argsort is a radix sort."""
    key = lines & (n_sets - 1) if n_sets & (n_sets - 1) == 0 else lines % n_sets
    if n_sets <= 256:
        return key.astype(np.uint8)
    if n_sets <= 65536:
        return key.astype(np.uint16)
    return key


def _collapse(
    lines: np.ndarray, head_write: np.ndarray, dirty: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal set-grouped lines to their heads: the line, the head's
    write flag (read vs write miss) and the OR of the run's dirty bits.  A
    line lives in one set, so a set boundary always starts a run."""
    new_run = np.empty(len(lines), dtype=bool)
    new_run[0] = True
    np.not_equal(lines[1:], lines[:-1], out=new_run[1:])
    heads = np.flatnonzero(new_run)
    return lines[heads], head_write[heads], np.logical_or.reduceat(dirty, heads)


def _heads(
    stream: LazyStream, geometry: CacheGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The run heads of ``stream`` grouped by set in trace order (line,
    write flag, run dirty bit) and the head count of each touched set, in
    ascending set order; read one ``_BLOCK`` at a time."""
    line_shift = geometry.line_size.bit_length() - 1
    n_sets = geometry.n_sets
    n = len(stream)
    blocks = []
    for lo in range(0, n, _BLOCK):
        addrs, writes = stream.read(lo, min(n, lo + _BLOCK))
        lines = addrs >> line_shift
        if n_sets > 1:
            order = np.argsort(_set_key(lines, n_sets), kind="stable")
            lines, writes = lines[order], writes[order]
        blocks.append(_collapse(lines, writes, writes))
    hl, hw, hd = (np.concatenate(cols) for cols in zip(*blocks))
    del blocks
    if n > _BLOCK:
        # Regroup the blocks' heads by set, then merge each run that
        # crossed a block boundary (it is now two adjacent equal heads).
        if n_sets > 1:
            order = np.argsort(_set_key(hl, n_sets), kind="stable")
            hl, hw, hd = hl[order], hw[order], hd[order]
        hl, hw, hd = _collapse(hl, hw, hd)
    if n_sets == 1:
        return hl, hw, hd, np.array([len(hl)])
    counts = np.bincount(_set_key(hl, n_sets), minlength=n_sets)
    return hl, hw, hd, counts[counts > 0]


def simulate_opt(
    byte_addrs: np.ndarray | LazyStream,
    is_write: np.ndarray | None,
    geometry: CacheGeometry,
    flush: bool = True,
) -> OptResult:
    """Replay an access stream under Belady-optimal replacement.

    ``byte_addrs`` may also be a :class:`~repro.trace.events.LazyStream`
    (``is_write`` None), read a block at a time and never joined.  Returns
    counters plus the downstream traffic ((misses + writebacks) × line
    size), the quantity to compare against an LRU run of the same trace
    and geometry.
    """
    stream = _as_stream(byte_addrs, is_write)
    n = len(stream)
    stats = CacheStats()
    if n == 0:
        return OptResult(stats, 0)
    assoc = geometry.associativity
    hl, hw, hd, counts = _heads(stream, geometry)

    # next_use[i] = index of the next head of the same line (R = never).
    # Heads keep trace order within a set, so within-set comparisons of
    # head indices order next uses exactly as trace positions would.
    R = len(hl)
    prev, by_line = _previous_and_order(hl)
    has_prev = prev >= 0
    next_use = np.full(R, R, dtype=np.int64)
    next_use[prev[has_prev]] = np.flatnonzero(has_prev)

    if assoc <= 2:
        misses, wmiss, evict, wb = _closed_form(next_use, by_line, hw, hd, counts, assoc, flush)
    else:
        misses, wmiss, evict, wb = _belady(hl, next_use, hw, hd, counts, assoc, flush)

    stats.accesses = n
    stats.hits = n - misses
    stats.misses = misses
    stats.read_misses = misses - wmiss
    stats.write_misses = wmiss
    stats.evictions = evict
    stats.writebacks = wb
    stats.events_out = misses + wb
    return OptResult(stats, (misses + wb) * geometry.line_size)


def _two_way_hits(next_use: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The heads that hit in 2-way sets: per set, the chain ``t1 = S[s]``,
    ``t(i+1) = S[t(i) - 1]`` with ``S[q] = min(next_use[q:])``, found for
    every set at once by pointer doubling (log2 of the longest chain
    rounds)."""
    R = len(next_use)
    S = np.minimum.accumulate(next_use[::-1])[::-1]
    # f[t] = S[t-1], the hit after a hit at t, or R (none) past t's set.
    end = np.repeat(ends, ends - starts)
    f = np.full(R + 1, R, dtype=np.int32 if R < 2**31 - 1 else np.int64)
    f[1:R] = np.where(S[:-1] < end[1:], S[:-1], R)
    # A chain starts after head s + 1 (a miss): f[s + 1] = S[s].
    reach = starts[ends - starts >= 3] + 1
    n_start = len(reach)
    for _ in range(R.bit_length()):  # a chain has fewer than R steps
        # reach holds the chain steps 0 .. 2^k - 1, and f is f^(2^k).
        step = f[reach]
        step = step[step < R]
        if not len(step):
            break
        reach = np.concatenate((reach, step))
        f = f[f]
    hit = np.zeros(R, dtype=bool)
    hit[reach[n_start:]] = True
    return hit


def _closed_form(next_use, by_line, head_write, run_dirty, counts, assoc, flush):
    """(misses, write misses, evictions, writebacks) of 1- or 2-way sets
    over the heads, without a replay (see the module docstring);
    ``by_line`` orders the heads by line, in trace order within a line."""
    R = len(next_use)
    ends = np.cumsum(counts)
    starts = ends - counts
    if assoc == 2:
        hit = _two_way_hits(next_use, starts, ends)
    else:
        hit = np.zeros(R, dtype=bool)
    miss = ~hit
    misses = int(np.count_nonzero(miss))
    wmiss = int(np.count_nonzero(head_write & miss))
    evict = int(np.maximum(np.add.reduceat(miss, starts) - assoc, 0).sum())

    # A residency is a miss plus the later hits of its line up to the
    # line's next miss: in line order, a segment that starts at a miss (a
    # line's first head always misses).  It costs one writeback if dirty.
    miss_by_line = miss[by_line]
    seg = np.flatnonzero(miss_by_line)
    dirty = np.logical_or.reduceat(run_dirty[by_line], seg)
    wb = int(np.count_nonzero(dirty))
    if not flush:
        # The final residents are not written back: the last head's line
        # and, for 2 ways, one other.  After the set's last hit t (t = s+1
        # if none) every pending line ties at infinity, so the
        # first-inserted rule leaves head t-1 beside head t, the
        # later-inserted of heads t and t-1 beside head t+1, and head e-1
        # beside any later last head e.
        residency = np.empty(R, dtype=np.int64)
        residency[by_line] = np.cumsum(miss_by_line) - 1
        last = ends - 1
        final = [residency[last]]
        if assoc == 2:
            two = counts >= 2
            e, s = last[two], starts[two]
            t = np.maximum.reduceat(np.where(hit, np.arange(R), -1), starts)[two]
            t = np.maximum(t, s + 1)
            # Residency ids ascend with the line, not with insertion: the
            # insertion time is the residency's miss, by_line[seg[id]].
            inserted = by_line[seg]
            r_t, r_before = residency[t], residency[t - 1]
            later = np.where(inserted[r_t] > inserted[r_before], r_t, r_before)
            final.append(np.where(e == t, r_before, np.where(e == t + 1, later, residency[e - 1])))
        wb -= int(np.count_nonzero(dirty[np.concatenate(final)]))
    return misses, wmiss, evict, wb


def _next_use(entry: tuple) -> int:
    return entry[1][0]


def _belady(lines, next_use, head_write, run_dirty, counts, assoc, flush):
    """(misses, write misses, evictions, writebacks): Belady replayed over
    the heads, one set group at a time."""
    misses = wmiss = evict = wb = 0
    it = zip(lines.tolist(), next_use.tolist(), head_write.tolist(), run_dirty.tolist())
    for count in counts.tolist():
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
    return misses, wmiss, evict, wb


def lru_bytes(
    byte_addrs: np.ndarray | LazyStream,
    is_write: np.ndarray | None,
    geometry: CacheGeometry,
    flush: bool = True,
) -> int:
    """Downstream bytes of an LRU write-back cache of ``geometry`` on one
    trace (arrays, or a :class:`~repro.trace.events.LazyStream` with
    ``is_write`` None), on the engine
    :func:`~repro.machine.engine.make_cache` picks."""
    cache = make_cache("lru", geometry)
    cache.run(byte_addrs, is_write, collect_events=False)
    if flush:
        cache.flush()
    return cache.stats.events_out * geometry.line_size


def lru_vs_opt(
    byte_addrs: np.ndarray | LazyStream,
    is_write: np.ndarray | None,
    geometry: CacheGeometry,
    flush: bool = True,
) -> tuple[int, int]:
    """(LRU downstream bytes, OPT downstream bytes) for one trace.

    Convenience used by the replacement-policy experiment; OPT is a lower
    bound, so the first element is always >= the second.
    """
    opt = simulate_opt(byte_addrs, is_write, geometry, flush=flush)
    return lru_bytes(byte_addrs, is_write, geometry, flush), opt.downstream_bytes
