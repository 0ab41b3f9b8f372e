"""Vectorized set-associative LRU engine with ordered event streams.

The missing piece between :class:`DirectMappedEngine` (associativity 1)
and :class:`StackDistanceEngine` (one set, no events): an exact A-way
LRU write-back/write-allocate simulator for arbitrary set counts —
including non-power-of-two ones — that also reconstructs the **ordered**
downstream event stream, so it can serve intermediate hierarchy levels.
This is the geometry of every Origin2000/R10K level (2-way L1 and L2),
i.e. the machine behind the paper's headline Figures 1–3.

The simulation decomposes per set: one stable argsort groups the access
stream by set, and within a set A-way LRU *is* fully-associative LRU of
capacity A.  Everything then runs on the single concatenated grouped
array — line numbers determine their set, so all occurrences of a line
are contiguous-group-local and no per-set loop is ever needed:

* **Run collapse**: an access whose in-set predecessor touched the same
  line always hits (its reuse window is empty), so each *run* of equal
  lines collapses to its head.  Sequential sweeps touch each line
  ``line_size/elem`` times in a row, so the classification stream is a
  fraction of the trace — and after collapsing, adjacent heads of a set
  always name *different* lines, which is what makes the closed forms
  below possible.
* **A <= 2 closed form** (every Origin2000 level): with adjacent heads
  distinct, the residents of a 2-way set after head ``i`` are exactly
  ``{head[i], head[i-1]}``.  Hence a head hits iff it equals the head
  two back, the victim of an evicting miss *is* the head two back, and
  a line's residency tenure is a maximal stride-2 chain of equal heads
  — its dirty bit is a run-OR over the odd/even subsequence.  No line
  sort, no reuse distances, no victim-pairing search.
* **General A**: heads sort by line once, which links each head to its
  line's previous and next occurrence.  The window between a head and
  its previous occurrence holds exactly ``i - prev - 1`` runs, which
  bounds its distinct count from above; only windows of at least A runs
  are ambiguous.  By LRU inclusion such a head hits iff its stack
  distance is below A, so it needs min(distance, A), not the distance: a
  bounded look-back walks each ambiguous window from its end, counting
  positions that are their line's last occurrence before the head (its
  next occurrence lies past the head), one vectorized pass per step over
  the heads still undecided.  A count of A settles a miss and a used-up
  window a hit; the few heads left after ``_LOOK_BACK * A`` steps take
  the exact vectorized reuse distance, as every ambiguous head of a set
  wider than ``_LOOK_BACK_WAYS`` does.  Victims come from an order
  identity: LRU evicts lines in increasing order of last access and a
  victim's tenure has ended by its eviction, so the k-th evicting miss
  of a set evicts the k-th ended tenure in final-access order.
* **Warm state** is a prologue: the resident lines, in (set,
  oldest-first) order with their dirty bits as write flags, are
  prepended to the block, so the stable set grouping puts each set's
  residents at the head of its group as pseudo-accesses, masked out of
  the statistics.  A set the block never touches is a group of
  residents only and passes through unchanged — chunked streaming is
  bit-identical to one big run.
* **Blocks**: ``run`` feeds its batch through in blocks of ``_BLOCK``
  accesses (raised to 8x the line capacity, so residents stay at most
  1/8 of a block).  The work is some 60 NumPy passes of a few bytes an
  access each, so it is bound by memory bandwidth: a 2^15-access block
  keeps every temporary (about 1.3 MB) inside a per-core L2, where one
  multi-MB batch would stream each pass through DRAM — the paper's own
  remedy, applied to the simulator.  Much smaller blocks pay the
  per-call overhead instead.  State carries exactly across calls, so a
  block is just one more call and the event streams concatenate.
* **Periodic extrapolation**: given the trace's loop-span hints
  (``spans``, from :attr:`Trace.spans`), ``run`` hands the batch (plain
  arrays, or a :class:`~repro.trace.events.LazyStream` read a block at a
  time) to :func:`~repro.machine.engine.periodic.run_spans`, which
  simulates a hinted loop window by window until one window provably
  repeats (the state after it is the state before it with every line
  moved by whole set spans), then emits the remaining whole windows from
  that template: counters times the window count, events and end state
  renamed.  Every hint is checked against the addresses, unless it lies
  on rows a lazy stream computes, so a wrong or missing one only costs
  time.  The emitted windows come back as one unbuilt ``Rows`` part of
  the event stream and through ``out_spans`` as hints for the next
  level's input, and a level linked above other set-associative levels
  (``periodic.link``) picks windows they can repeat too.
* **The ordered event stream** (victim writeback then miss fill, in
  trace order) falls out of the head positions: each head carries its
  index in the block through the grouping sort, one sort restores
  trace order for the misses (cheap: the indices already ascend within
  every set's group, so the key is a merge of a few sorted runs), and
  one prefix sum interleaves each victim writeback just before its
  fill.

No Python loop runs per access.  Counters, events, flush
drain, and chunk-boundary state — with or without hints — are
bit-identical to the reference ``Cache`` (the equivalence harness and
the Hypothesis suite enforce it); throughput is an order of magnitude
above the reference dict loop.
"""

from __future__ import annotations

import numpy as np

from ...errors import MachineError
from ...trace.events import LazyStream
from ..cache import CacheGeometry
from .base import BaseEngine
from .distinct import reuse_distances
from . import periodic

_EMPTY_EVENTS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))

#: Accesses per block (at least 8x the line capacity).  A block's
#: temporaries, about 40 bytes an access, then stay in a per-core L2.
_BLOCK = 1 << 15
#: Look-back steps per way before an undecided head of an A >= 3 level
#: takes its exact reuse distance.  A window of distinct lines settles in
#: A steps and repeats inside it cost more: up to 23 at A = 4 on the DDR
#: multicore preset's L1 with the Figure 1 and 3 traces.
_LOOK_BACK = 8
#: Widest set the look-back serves.  A miss needs at least A steps, so its
#: cost grows with A while the exact distance's does not: on dmxpy's L1
#: events in one set, 13 ms against 20 at A = 16, 19 against 20 at 32,
#: 25 against 20 at 48.  Wider sets take the exact distance directly.
_LOOK_BACK_WAYS = 32


class SetAssociativeEngine(BaseEngine):
    """Exact vectorized A-way LRU level (counters *and* ordered events)."""

    engine = "setassoc"

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        write_back: bool = True,
        write_allocate: bool = True,
    ):
        if not (write_back and write_allocate):
            raise MachineError(
                "set-associative engine supports write-back/write-allocate only"
            )
        super().__init__(name, geometry, write_back, write_allocate)
        self._n_sets = geometry.n_sets
        self._assoc = geometry.associativity
        # Residents ride in every block's prologue: keep them <= 1/8 of it.
        self._block = max(_BLOCK, 8 * geometry.n_lines)
        # Extrapolated windows shift by whole multiples of the window span;
        # ``periodic.link`` widens it (and raises the minimum of windows
        # of a level that is fed derived hints).
        self._set_span = self._n_sets * geometry.line_size
        self._window_span = self._set_span
        self._min_windows = periodic._MIN_WINDOWS_TRACE
        self._reset_state()

    def _reset_state(self) -> None:
        # Persisted contents as flat arrays sorted by (set, LRU age):
        # oldest line of a set first, exactly the order the prologue
        # replays them in.
        self._res_line = np.empty(0, dtype=np.int64)
        self._res_dirty = np.empty(0, dtype=bool)

    @property
    def resident_lines(self) -> int:
        return len(self._res_line)

    # -- batch simulation -----------------------------------------------------
    def run(
        self,
        byte_addrs: np.ndarray | LazyStream,
        is_write: np.ndarray | None,
        collect_events: bool = True,
        spans: tuple = (),
        out_spans: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray] | LazyStream:
        """As :meth:`BaseEngine.run`; ``byte_addrs`` may also be a
        :class:`LazyStream` (``is_write`` None), which is read only where
        simulated, and the events then come back as one, their
        extrapolated windows unbuilt."""
        if isinstance(byte_addrs, LazyStream):
            stream = byte_addrs
        else:
            stream = LazyStream.of(
                np.asarray(byte_addrs, dtype=np.int64), np.asarray(is_write, dtype=bool)
            )
        parts, hints = periodic.run_spans(self, stream, collect_events, spans)
        if out_spans is not None:
            out_spans += hints
        events = LazyStream(parts if collect_events else ())
        if isinstance(byte_addrs, LazyStream):
            return events
        if not len(events):
            return _EMPTY_EVENTS
        return events.arrays()

    def _run_blocks(
        self, stream: LazyStream, lo: int, hi: int, collect_events: bool
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Accesses ``[lo, hi)`` of ``stream``, read and simulated a block
        at a time; state carries exactly across blocks, so a block is one
        more call."""
        block = self._block
        return [
            self._run_block(*stream.read(s, min(hi, s + block)), collect_events)
            for s in range(lo, hi, block)
        ]

    def _run_block(
        self, byte_addrs: np.ndarray, is_write: np.ndarray, collect_events: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(byte_addrs)
        n_pro = len(self._res_line)
        lines = byte_addrs >> self._line_shift
        hi = int(lines.max())
        if n_pro:
            hi = max(hi, int(self._res_line.max()))
        # int32 halves the bytes every line-keyed pass touches.
        dtype = np.int32 if hi < 2**31 else np.int64
        # -- prologue: the residents, (set, oldest-first), go in front --------
        # The stable set grouping then puts each set's residents at the
        # head of its group; a set the block never touches becomes a group
        # of residents only, which passes through unchanged.
        full = np.concatenate((self._res_line, lines), dtype=dtype)
        wfull = np.concatenate((self._res_dirty, is_write))
        T = n + n_pro
        A = self._assoc
        n_sets = self._n_sets

        # -- group by set: ``order`` maps grouped position -> ``full`` index --
        if n_sets == 1:
            counts = np.full(1, T, dtype=np.int64)  # fully-assoc: one group
            order = np.arange(T, dtype=np.int64)
        else:
            if n_sets & (n_sets - 1) == 0:
                key = full & (n_sets - 1)  # pow2 set counts skip the division
            else:
                key = full % n_sets
            if n_sets <= 8:
                # Counting sort: one boolean scan per set beats a radix
                # argsort while the set count is tiny (the Origin2000 L1
                # has 4 sets).
                parts = [np.flatnonzero(key == s) for s in range(n_sets)]
                counts = np.array([len(p) for p in parts], dtype=np.int64)
                order = np.concatenate(parts)
            else:
                if n_sets <= 65536:
                    key = key.astype(np.uint16)  # radix argsort, not timsort
                counts = np.bincount(key, minlength=n_sets)
                order = np.argsort(key, kind="stable")
        gcounts = counts[counts > 0]
        n_groups = len(gcounts)
        g_start = np.cumsum(gcounts) - gcounts
        keys = full[order]
        wx = wfull[order]

        # -- collapse runs of equal lines: only run heads need classifying ----
        # Within a set group, an access whose predecessor touched the same
        # line always hits (its reuse window is empty), so each *run* of
        # equal keys collapses to its head: the head carries the run's
        # hit/miss fate, write flag and trace position, the run's dirty
        # bit is the OR of its writes, and every non-head is a hit.
        new_run = np.empty(T, dtype=bool)
        new_run[0] = True
        new_run[1:] = keys[1:] != keys[:-1]  # group starts differ by set
        rpos = np.flatnonzero(new_run)  # heads, ascending combined position
        R = len(rpos)
        ck = keys[rpos]
        # Run dirty bits: any write in the run.  Read-only batches over a
        # clean cache skip the dirty machinery wholesale.
        dirty_any = bool(wfull.any())
        if dirty_any:
            cwa = np.logical_or.reduceat(wx, rpos)
        else:
            cwa = np.zeros(R, dtype=bool)
        cg_start = np.searchsorted(rpos, g_start)  # n_groups lookups — tiny
        ccounts = np.empty(n_groups, dtype=np.int64)
        ccounts[:-1] = np.diff(cg_start)
        ccounts[-1] = R - cg_start[-1]
        if A <= 2:
            # -- closed form: residents after head i are the last A heads -----
            # Adjacent heads of a set differ, so an A <= 2 set holds
            # exactly {head[i], ..., head[i-A+1]}: a head hits iff it
            # equals the head A back, the victim of an evicting miss is
            # the head A back, and a tenure is a maximal stride-A chain
            # of equal heads (dirty = run-OR over each parity class).
            deep = np.ones(R, dtype=bool)  # at least A heads before in set
            deep[cg_start] = False
            if A == 2:
                second = cg_start + 1  # masked where the group has 1 head
                deep[second[ccounts > 1]] = False
            same = np.zeros(R, dtype=bool)
            same[A:] = ck[A:] == ck[:-A]
            same &= deep
            hit = same
            miss = ~hit
            evicting = miss & deep
            evm_pos = np.flatnonzero(evicting)
            victim_line = ck[evm_pos - A]
            # Chain dirty bits: runs of equal values in each stride-A
            # subsequence (chains never span groups: ``same`` is False
            # on a group's first A heads).
            if A == 1 or not dirty_any:
                tor = cwa  # A == 1: every run is a tenure; clean: all False
            else:
                tor = np.empty(R, dtype=bool)
                for par in range(A):
                    cw = np.ascontiguousarray(cwa[par::A])
                    if not len(cw):
                        continue
                    brk = np.empty(len(cw), dtype=bool)
                    brk[0] = True
                    brk[1:] = ~same[par + A :: A]
                    ridx = np.flatnonzero(brk)
                    seg_or = np.logical_or.reduceat(cw, ridx)
                    tor[par::A] = seg_or[np.cumsum(brk) - 1]
            victim_dirty = tor[evm_pos - A]
            # Final residency: the last min(A, heads) heads of each
            # group, oldest first — the state format the prologue
            # replays.
            nres = np.minimum(ccounts, A)
            r_start = np.cumsum(nres) - nres
            ge = cg_start + ccounts
            res_pos = np.empty(int(nres.sum()), dtype=np.int64)
            res_pos[r_start] = ge - nres
            res_pos[r_start + nres - 1] = ge - 1  # no-op when nres == 1
            new_line = ck[res_pos].astype(np.int64)
            new_dirty = tor[res_pos]
        else:
            # -- line-group structure: one stable argsort drives the rest -----
            # Previous/next-occurrence links, Mattson windows, tenures,
            # and victim pairing all derive from the sort-by-line order.
            korder = np.argsort(ck, kind="stable")
            gk = ck[korder]
            link = gk[1:] == gk[:-1]  # korder ranks j, j+1 hold the same line
            src = korder[:-1][link]
            dst = korder[1:][link]
            prev = np.full(R, -1, dtype=np.int64)
            prev[dst] = src
            nxt = np.full(R, R, dtype=np.int64)  # R: no next occurrence
            nxt[src] = dst
            cold = prev < 0

            # Hit iff < A distinct lines in the set since the previous
            # occurrence.  Adjacent collapsed heads differ, so the window
            # (prev, i) holds exactly i - prev - 1 runs; that bounds its
            # distinct count from above, and only ambiguous windows need
            # the bounded look-back (and, past its cap, the exact reuse
            # distance).
            nruns = np.arange(R, dtype=np.int64) - prev - 1
            ambiguous = ~cold & (nruns >= A)
            hit = ~cold & (nruns < A)
            if ambiguous.any():
                heads = np.flatnonzero(ambiguous)
                decided, rest = _look_back(nxt, heads, nruns[heads], A)
                hit[decided] = True
                if len(rest):
                    hit[rest] = reuse_distances(ck, prev)[rest] < A
            miss = ~hit

            # Evicting misses: occupancy never shrinks, so it is
            # min(A, distinct-seen) and a miss evicts iff the set's
            # distinct count had already reached A.  A warm miss has
            # seen A distinct lines, so the misses that do not evict are
            # each group's first A cold heads (the prologue's residents,
            # at most A, among them).
            cold_pos = np.flatnonzero(cold)
            c_lo = np.searchsorted(cold_pos, cg_start)
            c_hi = np.append(c_lo[1:], len(cold_pos))
            first = c_lo[:, None] + np.arange(A)
            evicting = miss.copy()
            evicting[cold_pos[first[first < c_hi[:, None]]]] = False

            # Tenures: group heads by line, segment at misses.  A head's
            # tenure is dirty iff its segment saw a write.
            if dirty_any:
                gm = miss[korder]  # line-group firsts are cold misses, so
                seg_idx = np.flatnonzero(gm)  # every boundary is a miss
                seg_dirty = np.logical_or.reduceat(cwa[korder], seg_idx)
                seg_of = np.cumsum(gm) - 1  # korder rank -> its segment
                tdirty = np.empty(R, dtype=bool)  # head -> tenure dirty bit
                tdirty[korder] = seg_dirty[seg_of]
            else:
                tdirty = cwa  # all False

            # Final residency: per set, the min(A, distinct) most recent
            # distinct lines.  A line's last head has no next occurrence;
            # those heads fall inside their set's group span and spans
            # tile [0, R), so in ascending position they already run in
            # (set, recency) order.
            last_pos = np.flatnonzero(nxt == R)
            dgroup = np.searchsorted(cg_start, last_pos, side="right") - 1
            dcount = np.bincount(dgroup, minlength=n_groups)
            keep_from = np.cumsum(dcount) - np.minimum(A, dcount)
            rank = np.arange(len(last_pos), dtype=np.int64)
            res_pos = last_pos[rank >= keep_from[dgroup]]  # LRU order
            new_line = ck[res_pos].astype(np.int64)
            new_dirty = tdirty[res_pos]

            # Pair victims with evicting misses.  LRU evicts lines in
            # last-access order and a victim's tenure has ended by its
            # eviction, so within a set the k-th evicting miss evicts the
            # k-th ended tenure by final access.  A head ends its tenure
            # iff its line's next occurrence is a miss (or absent: the
            # sentinel R reads the appended True); clearing the
            # still-resident tenures leaves the evicted ones, whose
            # ascending positions already run in (set, final-access)
            # order because set groups tile disjointly.
            tenure_end = np.append(miss, True)[nxt]
            tenure_end[res_pos] = False
            vic_pos = np.flatnonzero(tenure_end)
            victim_line = ck[vic_pos]
            victim_dirty = tdirty[vic_pos]
            evm_pos = np.flatnonzero(evicting)  # ascending, all real accesses

        self._res_line = new_line
        self._res_dirty = new_dirty

        # -- statistics (prologue heads masked out) ---------------------------
        # Misses only happen at run heads; a head is a prologue entry iff
        # it came from the first ``n_pro`` entries of ``full``.
        if n_pro:
            rmiss = miss & (order[rpos] >= n_pro)
        else:
            rmiss = miss
        mh = np.flatnonzero(rmiss)  # real miss heads, grouped order
        m = len(mh)
        hmp = rpos[mh]  # their combined positions (= the missing access)
        wm = int(np.count_nonzero(wx[hmp]))
        wvi = np.flatnonzero(victim_dirty)  # evicting misses that write back
        n_wb = len(wvi)
        st = self.stats
        st.accesses += n
        st.hits += n - m
        st.misses += m
        st.write_misses += wm
        st.read_misses += m - wm
        st.evictions += len(evm_pos)
        st.writebacks += n_wb
        st.events_out += m + n_wb
        if not collect_events:
            return _EMPTY_EVENTS

        # -- ordered downstream stream: per miss, in trace order, an ----------
        # optional victim writeback then the fill.  Each miss head carries
        # its index into ``full``; restoring trace order is one stable
        # argsort (cheap: the indices already ascend within every set
        # group, so the key is a merge of n_groups sorted runs), and a
        # prefix sum over the writeback flags interleaves each victim
        # just before its fill.
        morig = order[hmp]
        wb_flag = np.zeros(m, dtype=bool)
        vic = np.empty(m, dtype=np.int64)
        # A writeback head's miss ordinal: its place among the miss heads
        # (evicting heads are never prologue entries).
        widx = np.searchsorted(mh, evm_pos[wvi])
        wb_flag[widx] = True
        vic[widx] = victim_line[wvi]
        ms = np.argsort(morig, kind="stable")
        som = morig[ms]  # miss trace positions, ascending
        wbt = wb_flag[ms]
        fpos = np.arange(m, dtype=np.int64) + np.cumsum(wbt)
        out_lines = np.empty(m + n_wb, dtype=np.int64)
        out_writes = np.zeros(m + n_wb, dtype=bool)
        out_lines[fpos] = full[som]
        wix = np.flatnonzero(wbt)
        wpos = fpos[wix] - 1
        out_lines[wpos] = vic[ms[wix]]
        out_writes[wpos] = True
        return out_lines << self._line_shift, out_writes

    # -- flush ----------------------------------------------------------------
    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        lines = np.sort(self._res_line[self._res_dirty])
        self.stats.writebacks += len(lines)
        self.stats.events_out += len(lines)
        self._reset_state()
        return lines << self._line_shift, np.ones(len(lines), dtype=bool)


def _look_back(
    nxt: np.ndarray, heads: np.ndarray, nruns: np.ndarray, A: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decide LRU hits of ``heads`` (windows of ``nruns >= A`` runs) by a
    bounded look-back; returns the heads that hit and the ones still
    undecided after ``_LOOK_BACK * A`` steps (all of them in a set wider
    than ``_LOOK_BACK_WAYS``).

    Head i with previous occurrence p hits iff fewer than A distinct
    lines lie in (p, i), i.e. fewer than A positions j there are the last
    occurrence of their line before i (``nxt[j] > i``; a line with no
    next occurrence reads the sentinel R, past every head).  Step d counts
    position i - d for every undecided head, then settles those whose
    count reached A (misses) or whose window is used up (``d == nruns``,
    hits).  A window never leaves its set's group, since p lies in it.
    No head settles before step A: its count is at most d and its window
    at least A runs long.
    """
    if A > _LOOK_BACK_WAYS:
        return heads[:0], heads
    i = heads
    cnt = np.zeros(len(i), dtype=np.int64)
    hits = []
    for d in range(1, _LOOK_BACK * A + 1):
        cnt += nxt[i - d] > i
        if d < A:
            continue
        miss = cnt >= A
        done = miss | (nruns <= d)
        hits.append(i[done & ~miss])
        keep = ~done
        i, nruns, cnt = i[keep], nruns[keep], cnt[keep]
        if not len(i):
            break
    return (np.concatenate(hits) if hits else i[:0]), i
