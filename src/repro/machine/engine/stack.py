"""Mattson stack-distance engine: miss curves and fully-associative LRU.

The classic observation (Mattson et al. 1970): in a fully-associative LRU
cache, an access hits a cache of capacity ``C`` lines iff its *reuse
distance* — the number of distinct lines touched since the previous
access to the same line — is below ``C``.  One pass that computes every
access's reuse distance therefore yields the exact miss count of **every**
cache size at once (:func:`miss_curve`), which is what bandwidth models
want: a whole capacity sweep for the price of one trace traversal instead
of one simulation per size.

:class:`StackDistanceEngine` uses the same machinery as an exact
fully-associative simulator.  Everything is offline and vectorized —
including the parts that look inherently sequential:

* **Persisted state** is handled by a prologue: resident lines are
  replayed, oldest-first, as pseudo-accesses (with their dirty bit as the
  write flag) in front of the real trace, then masked out of the
  statistics.  Reuse distances of real accesses then see the warm cache.
* **Hit classification** usually needs no distinct-count at all: the
  access-count window ``i - prev[i] - 1`` bounds the reuse distance from
  above, so a window shorter than the capacity proves a hit.  Only when
  some window is long does the engine fall back to the exact vectorized
  distinct count (:func:`repro.machine.engine.distinct.reuse_distances`).
* **Writebacks** reduce to residency-tenure accounting: grouping accesses
  by line makes each tenure a segment between misses, a tenure is dirty
  iff it saw a write (``logical_or.reduceat``), and every tenure except a
  group's last is necessarily evicted.  A final tenure is evicted iff its
  line is not among the ``C`` most recently used at the end of the run.

The engine produces exact counters (`CacheStats`) but not an ordered
downstream event stream — eviction *times* are what stack distances
abstract away — so it serves last (or only) hierarchy levels, where no
further level consumes events.  ``select_engine`` respects that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import MachineError
from ..cache import CacheGeometry
from .base import BaseEngine
from .distinct import _previous_and_order, reuse_distances

_EMPTY_EVENTS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))


# -- miss curves --------------------------------------------------------------
@dataclass(frozen=True)
class MissCurve:
    """Exact fully-associative LRU miss counts for every capacity at once."""

    line_size: int
    total: int  #: accesses in the trace
    cold: int  #: first-ever (compulsory) misses
    _sorted_deltas: np.ndarray = field(repr=False)  #: finite reuse distances, sorted

    def misses(self, capacity_lines: int) -> int:
        """Misses of a fully-associative LRU cache of ``capacity_lines``."""
        if capacity_lines <= 0:
            return self.total
        reused = len(self._sorted_deltas)
        below = int(np.searchsorted(self._sorted_deltas, capacity_lines, side="left"))
        return self.cold + (reused - below)

    def misses_for_size(self, size_bytes: int) -> int:
        return self.misses(size_bytes // self.line_size)

    def hits(self, capacity_lines: int) -> int:
        return self.total - self.misses(capacity_lines)

    def miss_ratio(self, capacity_lines: int) -> float:
        return self.misses(capacity_lines) / self.total if self.total else 0.0

    def curve(self, capacities: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`misses` over an array of line capacities."""
        caps = np.asarray(capacities, dtype=np.int64)
        reused = len(self._sorted_deltas)
        below = np.searchsorted(self._sorted_deltas, np.maximum(caps, 0), side="left")
        out = self.cold + (reused - below)
        return np.where(caps <= 0, self.total, out)


def miss_curve(byte_addrs: np.ndarray, line_size: int) -> MissCurve:
    """One pass over a trace -> exact miss counts for *all* cache sizes.

    Returns a :class:`MissCurve`; ``misses(C)`` is bit-identical to
    simulating a fully-associative LRU cache of ``C`` lines.
    """
    if line_size <= 0 or line_size & (line_size - 1):
        raise MachineError(f"line size must be a positive power of two, got {line_size}")
    lines = np.asarray(byte_addrs, dtype=np.int64) >> (line_size.bit_length() - 1)
    delta = reuse_distances(lines)
    cold = int((delta == np.iinfo(np.int64).max).sum())
    finite = np.sort(delta[delta != np.iinfo(np.int64).max])
    return MissCurve(
        line_size=line_size, total=len(lines), cold=cold, _sorted_deltas=finite
    )


# -- full-counter capacity profiles -------------------------------------------
@dataclass(frozen=True)
class StackProfile:
    """Exact fully-associative LRU *counter block* for every capacity at once.

    :func:`miss_curve` answers misses; a sweep point needs the whole
    :class:`~repro.machine.cache.CacheStats` (write misses, evictions,
    writebacks, events out).  All of them reduce to order statistics that
    one trace pass can precompute for all capacities ``C`` simultaneously:

    * misses(C)        = cold + #{finite reuse distances >= C}
    * write_misses(C)  = cold writes + #{finite write reuse distances >= C}
    * evictions(C)     = misses(C) - min(C, distinct lines)  (fills minus
      final occupancy; every fill beyond occupancy evicted someone)
    * dirty tenures(C) = #{writes that are the first write of their
      residency tenure}.  A write *w* to line *l* starts a dirty tenure
      iff some access to *l* in (previous write to *l*, *w*] misses, i.e.
      iff the **maximum** reuse distance over that window is >= C — one
      per-write mark ``m_w`` answers every capacity.
    * dirty at end(C)  = #{written lines that are resident and whose final
      tenure saw a write} = #{lines with ``max(t_l + 1, r_l) <= C``} where
      ``t_l`` is the largest reuse distance strictly after the line's last
      write (no miss there keeps the tenure alive) and ``r_l`` the line's
      end-of-run LRU recency rank (1 = most recent).

    With an end-of-run flush every dirty tenure is written back exactly
    once, so writebacks(C) = dirty tenures(C); without a flush the still
    resident dirty lines have not drained yet and are subtracted.  These
    are the same identities :class:`StackDistanceEngine` applies at a
    fixed capacity, so :meth:`stats` is bit-identical to simulating that
    capacity — the planner's capacity-collapse rule rests on this.
    """

    line_size: int
    total: int  #: accesses in the trace
    cold: int  #: first-ever (compulsory) misses
    cold_writes: int  #: compulsory misses that were writes
    distinct: int  #: distinct lines touched
    _sorted_deltas: np.ndarray = field(repr=False)  #: finite reuse distances
    _sorted_write_deltas: np.ndarray = field(repr=False)  #: ... of writes only
    _sorted_tenure_marks: np.ndarray = field(repr=False)  #: per-write m_w (COLD kept)
    _sorted_dirty_survival: np.ndarray = field(repr=False)  #: per-line max(t+1, r)

    def misses(self, capacity_lines: int) -> int:
        if capacity_lines <= 0:
            return self.total
        reused = len(self._sorted_deltas)
        below = int(np.searchsorted(self._sorted_deltas, capacity_lines, side="left"))
        return self.cold + (reused - below)

    def write_misses(self, capacity_lines: int) -> int:
        if capacity_lines <= 0:
            return self.cold_writes + len(self._sorted_write_deltas)
        wd = self._sorted_write_deltas
        below = int(np.searchsorted(wd, capacity_lines, side="left"))
        return self.cold_writes + (len(wd) - below)

    def dirty_tenures(self, capacity_lines: int) -> int:
        marks = self._sorted_tenure_marks
        below = int(np.searchsorted(marks, max(capacity_lines, 0), side="left"))
        return len(marks) - below

    def dirty_resident(self, capacity_lines: int) -> int:
        return int(
            np.searchsorted(self._sorted_dirty_survival, capacity_lines, side="right")
        )

    def stats(self, capacity_lines: int, flush: bool = True):
        """Counters of a fully-associative LRU level of ``capacity_lines``
        after one cold pass over the profiled trace (plus an end flush when
        ``flush``), bit-identical to running any exact engine."""
        from ..cache import CacheStats

        m = self.misses(capacity_lines)
        wm = self.write_misses(capacity_lines)
        tenures = self.dirty_tenures(capacity_lines)
        if flush:
            writebacks = tenures
        else:
            writebacks = tenures - self.dirty_resident(capacity_lines)
        return CacheStats(
            accesses=self.total,
            hits=self.total - m,
            misses=m,
            read_misses=m - wm,
            write_misses=wm,
            evictions=m - min(max(capacity_lines, 0), self.distinct),
            writebacks=writebacks,
            write_throughs=0,
            events_out=m + writebacks,
        )

    def stats_for_size(self, size_bytes: int, flush: bool = True):
        return self.stats(size_bytes // self.line_size, flush=flush)


def _interleaved_max(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``out[k] = values[starts[k]:ends[k]].max()`` for non-empty,
    non-overlapping, ascending windows — one ``maximum.reduceat`` call."""
    idx = np.empty(2 * len(starts), dtype=np.int64)
    idx[0::2] = starts
    idx[1::2] = ends
    if len(idx) and idx[-1] == len(values):
        idx = idx[:-1]  # reduceat's last slice runs to the end anyway
    return np.maximum.reduceat(values, idx)[0::2]


def stack_profile(
    byte_addrs: np.ndarray, is_write: np.ndarray, line_size: int
) -> StackProfile:
    """One pass over a trace -> exact :class:`CacheStats` for all sizes.

    The full-counter companion of :func:`miss_curve` (see
    :class:`StackProfile` for the identities).  Cold-start semantics: the
    profile describes a single measured pass from an empty cache.
    """
    if line_size <= 0 or line_size & (line_size - 1):
        raise MachineError(f"line size must be a positive power of two, got {line_size}")
    lines = np.asarray(byte_addrs, dtype=np.int64) >> (line_size.bit_length() - 1)
    w = np.asarray(is_write, dtype=bool)
    n = len(lines)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return StackProfile(line_size, 0, 0, 0, 0, empty, empty, empty, empty)

    prev, order = _previous_and_order(lines)
    delta = reuse_distances(lines, prev)
    cold_mask = prev < 0
    cold = int(cold_mask.sum())
    cold_writes = int((cold_mask & w).sum())
    finite = np.sort(delta[~cold_mask])
    wfinite = np.sort(delta[~cold_mask & w])

    # Group accesses by line (`order` is stable: trace order inside groups).
    gk, gw, gd = lines[order], w[order], delta[order]
    gstart = np.empty(n, dtype=bool)
    gstart[0] = True
    gstart[1:] = gk[1:] != gk[:-1]
    gid = np.cumsum(gstart) - 1
    n_lines = int(gid[-1]) + 1
    group_starts = np.flatnonzero(gstart)
    gend_idx = np.empty(n_lines, dtype=np.int64)
    gend_idx[:-1] = group_starts[1:] - 1
    gend_idx[-1] = n - 1

    # Running "last write at or before me, within my group": offsetting by
    # BIG*gid makes maximum.accumulate reset at group boundaries.
    idx = np.arange(n, dtype=np.int64)
    big = np.int64(n + 2)
    u = np.where(gw, idx, np.int64(-1)) + big * gid
    acc = np.maximum.accumulate(u)

    # m_w: max reuse distance over (previous write to the line, w].
    wpos = np.flatnonzero(gw)
    if len(wpos):
        pw = np.where(
            gstart[wpos], np.int64(-1), acc[np.maximum(wpos - 1, 0)] - big * gid[wpos]
        )
        seg_starts = np.where(pw >= 0, pw + 1, group_starts[gid[wpos]])
        marks = np.sort(_interleaved_max(gd, seg_starts, wpos + 1))
    else:
        marks = empty

    # Per written line: t = max reuse distance strictly after its last
    # write (-1 if none) and r = end-of-run LRU recency rank.
    last_pos = order[gend_idx]
    rank = np.empty(n_lines, dtype=np.int64)
    rank[np.argsort(-last_pos)] = np.arange(1, n_lines + 1, dtype=np.int64)
    last_write = acc[gend_idx] - big * np.arange(n_lines, dtype=np.int64)
    written = last_write >= 0
    if written.any():
        tstart = last_write[written] + 1
        tend = gend_idx[written] + 1
        t = np.full(int(written.sum()), -1, dtype=np.int64)
        nonempty = tstart < tend
        if nonempty.any():
            t[nonempty] = _interleaved_max(gd, tstart[nonempty], tend[nonempty])
        survival = np.sort(np.maximum(t + 1, rank[written]))
    else:
        survival = empty

    return StackProfile(
        line_size=line_size,
        total=n,
        cold=cold,
        cold_writes=cold_writes,
        distinct=n_lines,
        _sorted_deltas=finite,
        _sorted_write_deltas=wfinite,
        _sorted_tenure_marks=marks,
        _sorted_dirty_survival=survival,
    )


# -- the fully-associative engine ---------------------------------------------
class StackDistanceEngine(BaseEngine):
    """Exact vectorized fully-associative LRU level (counters, no events)."""

    engine = "stack"

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        write_back: bool = True,
        write_allocate: bool = True,
    ):
        if geometry.n_sets != 1:
            raise MachineError(
                f"stack-distance engine needs a fully-associative level "
                f"(one set), got {geometry.n_sets} sets"
            )
        if not (write_back and write_allocate):
            raise MachineError(
                "stack-distance engine supports write-back/write-allocate only"
            )
        super().__init__(name, geometry, write_back, write_allocate)
        self._capacity = geometry.associativity  # lines in the single set
        self._reset_state()

    def _reset_state(self) -> None:
        # Resident lines in LRU order (oldest first) and their dirty bits.
        self._resident = np.empty(0, dtype=np.int64)
        self._resident_dirty = np.empty(0, dtype=bool)

    @property
    def resident_lines(self) -> int:
        return len(self._resident)

    def access(self, byte_addr: int, is_write: bool) -> tuple[bool, int | None]:
        before = self.stats.misses
        self.run(
            np.asarray([byte_addr], dtype=np.int64),
            np.asarray([is_write], dtype=bool),
            collect_events=False,
        )
        # Counters are exact, but eviction times (and thus the victim's
        # identity at this particular access) are what stack distances
        # abstract away; report the hit and no writeback address.
        return self.stats.misses == before, None

    # -- batch simulation -----------------------------------------------------
    def run(
        self,
        byte_addrs: np.ndarray,
        is_write: np.ndarray,
        collect_events: bool = True,
        spans: tuple = (),
        out_spans: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        if collect_events and len(byte_addrs):
            raise MachineError(
                "stack-distance engine produces exact counters but no ordered "
                "event stream; use it for the last hierarchy level (or pass "
                "collect_events=False)"
            )
        n = len(byte_addrs)
        if n == 0:
            return _EMPTY_EVENTS
        lines = np.asarray(byte_addrs, dtype=np.int64) >> self._line_shift
        w = np.asarray(is_write, dtype=bool)
        C = self._capacity

        # Prologue: replay resident lines (oldest first) so distances see
        # the warm cache; their dirty bit rides along as the write flag so
        # tenure accounting carries it.
        n_pro = len(self._resident)
        if n_pro:
            keys = np.concatenate([self._resident, lines])
            wx = np.concatenate([self._resident_dirty, w])
        else:
            keys, wx = lines, w
        total = len(keys)
        prev, order = _previous_and_order(keys)
        cold = prev < 0

        # Window shortcut: the access-count window bounds the distinct
        # count from above, so short windows prove hits without counting.
        window = np.arange(total, dtype=np.int64) - prev - 1
        ambiguous = ~cold & (window >= C)
        if ambiguous.any():
            delta = reuse_distances(keys, prev)
            hit = ~cold & (delta < C)
        else:
            hit = ~cold
        miss = ~hit

        real_miss = miss[n_pro:]
        m = int(real_miss.sum())
        wm = int((real_miss & w).sum())

        # Tenure accounting: group by line; tenures are the segments
        # between misses inside each group; a tenure is dirty iff it saw
        # a write; every non-final tenure is evicted, and a final tenure
        # is evicted iff its line is not resident at the end.  `order`
        # groups positions by line, in trace order inside each group.
        gm = miss[order]  # group-first positions are cold misses, so every
        seg_idx = np.flatnonzero(gm)  # segment boundary is a miss
        seg_dirty = np.logical_or.reduceat(wx[order], seg_idx)
        n_seg = len(seg_idx)
        gk = keys[order]
        gend = np.empty(total, dtype=bool)
        gend[:-1] = gk[1:] != gk[:-1]
        gend[-1] = True
        gend_idx = np.flatnonzero(gend)
        n_lines_distinct = len(gend_idx)
        # Final segment of each group and the line's last occurrence.
        final_seg = np.searchsorted(seg_idx, gend_idx, side="right") - 1
        last_pos = order[gend_idx]

        # Resident set after the run: the C most recently used lines.
        occupancy = min(C, n_lines_distinct)
        if n_lines_distinct > occupancy:
            top = np.argpartition(last_pos, n_lines_distinct - occupancy)
            top = top[n_lines_distinct - occupancy :]
        else:
            top = np.arange(n_lines_distinct)
        top = top[np.argsort(last_pos[top])]  # LRU order, oldest first
        res_dirty = seg_dirty[final_seg[top]]
        self._resident = gk[gend_idx[top]].astype(np.int64, copy=False)
        self._resident_dirty = res_dirty

        # Fills = segments (prologue fills included); conservation gives
        # evictions, and dirty-evicted tenures give writebacks.  Both
        # identities fold the prologue away exactly.
        evictions = n_seg - occupancy
        writebacks = int(seg_dirty.sum()) - int(res_dirty.sum())

        st = self.stats
        st.accesses += n
        st.hits += n - m
        st.misses += m
        st.write_misses += wm
        st.read_misses += m - wm
        st.evictions += evictions
        st.writebacks += writebacks
        st.events_out += m + writebacks
        return _EMPTY_EVENTS

    # -- flush ----------------------------------------------------------------
    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        lines = np.sort(self._resident[self._resident_dirty])
        self.stats.writebacks += len(lines)
        self.stats.events_out += len(lines)
        self._reset_state()
        return lines << self._line_shift, np.ones(len(lines), dtype=bool)
