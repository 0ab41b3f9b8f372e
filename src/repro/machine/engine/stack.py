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
from ...trace.events import LazyStream, Rows
from ..cache import CacheGeometry, joins_lazy
from . import stackfold
from .base import BaseEngine
from .distinct import COLD, _previous_and_order, reuse_distances

_EMPTY_EVENTS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))


# -- all-capacity profiles ----------------------------------------------------
class _Histogram:
    """A multiset of int64 values: its distinct values, sorted, and
    ``cum[k]``, how many values lie below ``values[k]``."""

    __slots__ = ("values", "cum")

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        self.values = values
        self.cum = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.cum[1:])

    @classmethod
    def of(cls, samples: np.ndarray, counts: np.ndarray | None = None) -> "_Histogram":
        """The multiset of non-negative ``samples``, each ``counts`` times
        (once if None).  Samples are counted in place, no sort, when they
        are small (reuse distances, ranks), and COLD ones apart."""
        if counts is not None:
            samples, counts = samples[counts > 0], counts[counts > 0]
        if not len(samples):
            return _EMPTY_HIST
        cold = samples == COLD
        n_cold = int(counts[cold].sum()) if counts is not None else int(cold.sum())
        if n_cold:
            samples = samples[~cold]
            counts = counts[~cold] if counts is not None else None
        if len(samples) and int(samples.max()) <= 4 * len(samples) + (1 << 16):
            tally = np.bincount(samples, weights=counts)
            values = np.flatnonzero(tally)
            found = tally[values].astype(np.int64)
        elif counts is None:
            values, found = np.unique(samples, return_counts=True)
        else:
            order = np.argsort(samples, kind="stable")
            samples, counts = samples[order], counts[order]
            start = np.ones(len(samples), dtype=bool)
            start[1:] = samples[1:] != samples[:-1]
            first = np.flatnonzero(start)
            values = samples[first]
            found = np.add.reduceat(counts, first) if len(first) else counts
        if n_cold:
            values = np.append(values, COLD)
            found = np.append(found, n_cold)
        return cls(values, found)

    def plus(self, other: "_Histogram", times: int = 1) -> "_Histogram":
        """This multiset with ``times`` copies of ``other`` added."""
        if not other.total or not times:
            return self
        return _Histogram.of(
            np.concatenate([self.values, other.values]),
            np.concatenate([np.diff(self.cum), np.diff(other.cum) * times]),
        )

    @property
    def total(self) -> int:
        return int(self.cum[-1])

    def below(self, x):
        """How many values are below ``x`` (scalar or array)."""
        return self.cum[np.searchsorted(self.values, x, side="left")]

    def at_most(self, x):
        return self.cum[np.searchsorted(self.values, x, side="right")]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _Histogram)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.cum, other.cum)
        )


_EMPTY_HIST = _Histogram(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class StackProfile:
    """Exact fully-associative LRU *counter block* for every capacity at once.

    A sweep point needs the whole :class:`~repro.machine.cache.CacheStats`
    (write misses, evictions, writebacks, events out), not only misses.
    All of them reduce to order statistics that one trace pass can
    precompute for all capacities ``C`` simultaneously:

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
    capacity — the planner's capacity-collapse rule rests on this.  The
    four multisets are held as histograms, so a profile's size follows
    its distinct distances, not its accesses.
    """

    line_size: int
    total: int  #: accesses in the trace
    cold: int  #: first-ever (compulsory) misses
    cold_writes: int  #: compulsory misses that were writes
    distinct: int  #: distinct lines touched
    _deltas: _Histogram = field(repr=False)  #: finite reuse distances
    _write_deltas: _Histogram = field(repr=False)  #: ... of writes only
    _tenure_marks: _Histogram = field(repr=False)  #: per-write m_w (COLD kept)
    _dirty_survival: _Histogram = field(repr=False)  #: per written line max(t+1, r)

    def misses(self, capacity_lines: int) -> int:
        """Misses of a fully-associative LRU cache of ``capacity_lines``."""
        if capacity_lines <= 0:
            return self.total
        d = self._deltas
        return self.cold + d.total - int(d.below(capacity_lines))

    def curve(self, capacities: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`misses` over an array of line capacities."""
        caps = np.asarray(capacities, dtype=np.int64)
        d = self._deltas
        out = self.cold + d.total - d.below(np.maximum(caps, 0))
        return np.where(caps <= 0, self.total, out)

    def misses_for_size(self, size_bytes: int) -> int:
        return self.misses(size_bytes // self.line_size)

    def hits(self, capacity_lines: int) -> int:
        return self.total - self.misses(capacity_lines)

    def miss_ratio(self, capacity_lines: int) -> float:
        return self.misses(capacity_lines) / self.total if self.total else 0.0

    def write_misses(self, capacity_lines: int) -> int:
        wd = self._write_deltas
        if capacity_lines <= 0:
            return self.cold_writes + wd.total
        return self.cold_writes + wd.total - int(wd.below(capacity_lines))

    def dirty_tenures(self, capacity_lines: int) -> int:
        marks = self._tenure_marks
        return marks.total - int(marks.below(max(capacity_lines, 0)))

    def dirty_resident(self, capacity_lines: int) -> int:
        return int(self._dirty_survival.at_most(capacity_lines))

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


def _line_shift(line_size: int) -> int:
    if line_size <= 0 or line_size & (line_size - 1):
        raise MachineError(f"line size must be a positive power of two, got {line_size}")
    return line_size.bit_length() - 1


def miss_curve(byte_addrs, line_size: int) -> StackProfile:
    """One pass over a trace -> exact miss counts for *all* cache sizes.

    The :class:`StackProfile` of a read-only pass over ``byte_addrs``
    (plain addresses, or a :class:`~repro.trace.events.LazyStream` whose
    write flags are ignored); ``misses(C)`` is bit-identical to
    simulating a fully-associative LRU cache of ``C`` lines.
    """
    if isinstance(byte_addrs, LazyStream):
        reads = [
            Rows(p.base, np.zeros(p.width, dtype=bool), p.steps, p.trips)
            if isinstance(p, Rows)
            else (p[0], np.zeros(len(p[0]), dtype=bool))
            for p in byte_addrs.parts
        ]
        return stack_profile(LazyStream(reads), None, line_size)
    addrs = np.asarray(byte_addrs, dtype=np.int64)
    return stack_profile(addrs, np.zeros(len(addrs), dtype=bool), line_size)


def stack_profile(byte_addrs, is_write, line_size: int) -> StackProfile:
    """One pass over a trace -> exact :class:`CacheStats` for all sizes.

    See :class:`StackProfile` for the identities.  Cold-start semantics:
    the profile describes a single measured pass from an empty cache.
    ``byte_addrs`` may be a :class:`~repro.trace.events.LazyStream`
    (``is_write`` None): its certified periodic stretches are folded
    (:mod:`~repro.machine.engine.stackfold`), so only their lead-in,
    template and tail rows and a few accesses per line of the excised
    copies are built and profiled, and the stream is never joined.  The
    profile is bit-identical either way.
    """
    shift = _line_shift(line_size)
    if isinstance(byte_addrs, LazyStream):
        total = len(byte_addrs)
        lines, w, folds = stackfold.reduce(byte_addrs, shift)
        lines >>= shift
    else:
        lines = np.asarray(byte_addrs, dtype=np.int64) >> shift
        w = np.asarray(is_write, dtype=bool)
        total, folds = len(lines), None
    prev, order = _previous_and_order(lines)
    return _profile(lines, w, prev, order, folds, total, line_size)


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``max(values[lo[k]:hi[k] + 1])`` for every ``k`` (``lo <= hi``),
    from a table of maxima over power-of-two runs."""
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(run length))
    out = np.empty(len(lo), dtype=values.dtype)
    table = values
    for k in range(int(level.max(initial=-1)) + 1):
        if k:
            half = 1 << (k - 1)
            table = np.maximum(table[:-half], table[half:])
        on = level == k
        out[on] = np.maximum(table[lo[on]], table[hi[on] - (1 << k) + 1])
    return out


def _folded(delta: np.ndarray, folds: stackfold.Folds) -> tuple[np.ndarray, np.ndarray]:
    """Which reduced accesses count as themselves: a phantom's distance
    and mark count for none, a kept access's mark only if it is a first
    write (:mod:`.stackfold`).  Phantoms take their chain maxima into
    ``delta``."""
    n = len(delta)
    counted = np.ones(n, dtype=bool)
    marked = np.ones(n, dtype=bool)
    counted[folds.kept] = folds.counted
    marked[folds.kept] = folds.marked
    chain = delta[folds.chain]
    phantom = ~folds.counted
    spans = folds.span_lo <= folds.span_hi  # a first touch's is empty
    maxima = np.zeros(len(spans), dtype=delta.dtype)
    maxima[spans] = _range_max(chain, folds.span_lo[spans], folds.span_hi[spans])
    delta[folds.kept[phantom]] = maxima[folds.span[phantom]]
    return counted, marked


def _profile(lines, w, prev, order, folds, total: int, line_size: int) -> StackProfile:
    """The profile of a (reduced) stream of lines: per-access distances
    and marks and per-line survival.  A folded template access counts
    once more for every excised access it stands for."""
    n = len(lines)
    if n == 0:
        return StackProfile(line_size, 0, 0, 0, 0, *(_EMPTY_HIST,) * 4)

    delta = reuse_distances(lines, prev)
    cold_mask = prev < 0
    warm = ~cold_mask
    if folds is not None:
        counted, marked = _folded(delta, folds)
        warm &= counted
    wwarm = warm & w
    # A phantom follows its line's first touch, so none is cold.
    cold = int(cold_mask.sum())
    cold_writes = int((cold_mask & w).sum())
    deltas = _Histogram.of(delta[warm])
    write_deltas = _Histogram.of(delta[wwarm])
    if folds is not None:
        at, tw = folds.template, w[folds.template]
        deltas = deltas.plus(_Histogram.of(delta[at], folds.weight))
        write_deltas = write_deltas.plus(_Histogram.of(delta[at][tw], folds.weight[tw]))

    # Group accesses by line (`order` is stable: trace order inside groups).
    gk = lines[order]
    gstart = np.empty(n, dtype=bool)
    gstart[0] = True
    gstart[1:] = gk[1:] != gk[:-1]
    del gk
    gw, gd = w[order], delta[order]
    del delta
    gid = np.cumsum(gstart)
    gid -= 1
    n_lines = int(gid[-1]) + 1
    group_starts = np.flatnonzero(gstart)
    gend_idx = np.empty(n_lines, dtype=np.int64)
    gend_idx[:-1] = group_starts[1:] - 1
    gend_idx[-1] = n - 1

    # Running "last write at or before me, within my group": offsetting by
    # BIG*gid makes maximum.accumulate reset at group boundaries.
    big = np.int64(n + 2)
    wpos = np.flatnonzero(gw)
    acc = gid * big
    acc -= 1
    acc[wpos] += wpos + 1
    np.maximum.accumulate(acc, out=acc)
    wgid = gid[wpos]
    del gid

    # m_w: max reuse distance over (previous write to the line, w].
    if len(wpos):
        pw = np.where(gstart[wpos], np.int64(-1), acc[np.maximum(wpos - 1, 0)] - big * wgid)
        seg_starts = np.where(pw >= 0, pw + 1, group_starts[wgid])
        marks = _interleaved_max(gd, seg_starts, wpos + 1)
        tenure_marks = _Histogram.of(marks if folds is None else marks[marked[order[wpos]]])
        if folds is not None:
            extra = np.zeros(n, dtype=np.int64)
            extra[folds.template] = folds.mark_weight
            tenure_marks = tenure_marks.plus(_Histogram.of(marks, extra[order[wpos]]))
    else:
        tenure_marks = _EMPTY_HIST

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
        survival = _Histogram.of(np.maximum(t + 1, rank[written]))
    else:
        survival = _EMPTY_HIST

    return StackProfile(
        line_size=line_size,
        total=total,
        cold=cold,
        cold_writes=cold_writes,
        distinct=cold,
        _deltas=deltas,
        _write_deltas=write_deltas,
        _tenure_marks=tenure_marks,
        _dirty_survival=survival,
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
    @joins_lazy
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
