"""Vectorized direct-mapped cache engine.

For associativity 1 the whole simulation collapses to array arithmetic:
with write-allocate the resident line of a set after any access *is* that
access's line, so hits are consecutive-equal-line comparisons inside each
set's subsequence (one stable argsort groups accesses by set); without
write-allocate the resident line is the line of the last *read*,
recovered by a segmented forward fill.  A victim is dirty iff its
residency tenure saw a write, which one write prefix sum answers for
every tenure at once, and the ordered downstream event stream — the part
the next level consumes — is rebuilt positionally from per-access event
counts.

The write-allocate path (the default policy of every preset machine) is
additionally tuned for pass count: group boundaries come from one
``bincount`` instead of per-access comparisons, state is tracked as
resident line numbers so no tag arithmetic is needed, the writeback
machinery runs on the compressed miss positions only, and when the
caller does not consume the event stream (the last hierarchy level) its
materialization is skipped outright while ``events_out`` stays exact.

No Python loop touches the access stream; throughput is an order of
magnitude above the reference dict loop's ~1–2 M accesses/s, with
bit-identical counters and events (including the Exemplar preset's
non-power-of-two set count and its footnote-3 conflict anomaly).
"""

from __future__ import annotations

import numpy as np

from ...errors import MachineError
from ..cache import CacheGeometry, joins_lazy
from .base import BaseEngine

_EMPTY_EVENTS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))


class DirectMappedEngine(BaseEngine):
    """Exact vectorized simulation of a direct-mapped cache level."""

    engine = "direct"

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        write_back: bool = True,
        write_allocate: bool = True,
    ):
        if geometry.associativity != 1:
            raise MachineError(
                f"direct-mapped engine needs associativity 1, got {geometry.associativity}"
            )
        super().__init__(name, geometry, write_back, write_allocate)
        self._n_sets = geometry.n_sets
        self._reset_state()

    def _reset_state(self) -> None:
        # Resident line number per set (-1 = invalid) and its dirty bit.
        self._line = np.full(self._n_sets, -1, dtype=np.int64)
        self._dirty = np.zeros(self._n_sets, dtype=bool)

    @property
    def resident_lines(self) -> int:
        return int((self._line >= 0).sum())

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
        n = len(byte_addrs)
        if n == 0:
            return _EMPTY_EVENTS
        w = np.asarray(is_write, dtype=bool)
        if self.write_allocate:
            return self._run_allocate(
                n, np.asarray(byte_addrs, dtype=np.int64), w, collect_events
            )
        lines = np.asarray(byte_addrs, dtype=np.int64) >> self._line_shift
        return self._run_no_allocate_general(n, lines, w)

    # -- write-allocate (the default write-back pairing) ----------------------
    def _run_allocate(
        self, n: int, addrs: np.ndarray, w: np.ndarray, collect_events: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        # write_allocate implies write_back (the constructor forbids the
        # write-through + allocate pairing), so events happen only at
        # misses: an optional victim writeback followed by the fill.
        n_sets = self._n_sets
        if int(addrs.max(initial=0)) < 2**31:
            # Narrow dtypes halve the memory traffic of every later pass.
            glines = addrs.astype(np.int32) >> np.int32(self._line_shift)
            sets = glines % np.int32(n_sets)
        else:
            glines = addrs >> self._line_shift
            sets = glines % n_sets

        # Group accesses by set.  Group g is the g-th nonempty set; group
        # spans come from one bincount, so no per-access boundary
        # comparisons or state gathers are needed.  NumPy's stable argsort
        # is a radix sort for integers, so a 16-bit key halves its passes.
        counts = np.bincount(sets, minlength=n_sets)
        present = counts > 0
        gsets = np.flatnonzero(present)  # ascending = group order
        gcounts = counts[present]
        bounds = np.cumsum(gcounts)  # group ends (exclusive)
        first_idx = bounds - gcounts
        last_idx = bounds - 1
        n_groups = len(gsets)
        key = sets.astype(np.uint16) if n_sets <= 65536 else sets
        order = np.argsort(key, kind="stable")
        gl = glines[order]
        any_w = bool(w.any())
        state_line = self._line[gsets]
        state_dirty = self._dirty[gsets]

        # Every access allocates, so the resident line before a grouped
        # position is simply the previous line in the group (persisted
        # state at group starts).
        hit = np.empty(n, dtype=bool)
        hit[1:] = gl[1:] == gl[:-1]
        hit[first_idx] = gl[first_idx] == state_line
        np.logical_not(hit, out=hit)  # in place: hit now flags the misses
        m_idx = np.flatnonzero(hit)
        m = len(m_idx)

        # Group of each miss: binary search when misses are sparse, one
        # linear group-id pass when they dominate (the crossover sits near
        # a 40% miss rate).
        if 2 * m < n:
            gg = np.searchsorted(bounds, m_idx, side="right")
        else:
            gid = np.zeros(n, dtype=np.int32)
            gid[first_idx[1:]] = 1
            np.cumsum(gid, out=gid)
            gg = gid[m_idx]
        first_miss = np.empty(m, dtype=bool)
        first_miss[:1] = True
        first_miss[1:] = gg[1:] != gg[:-1]
        idx_fm = np.flatnonzero(first_miss)
        fm_groups = gg[idx_fm]  # one entry per group that missed at all

        # A victim is dirty iff its tenure saw a write: one write prefix
        # sum answers any-write-in-span for every tenure at once.  A
        # tenure runs from the previous miss (so its span count is a
        # difference of consecutive gathered prefix values); the tenure
        # evicted at a group's first miss instead starts at the group
        # start — it is the persisted line, so its stored dirty bit
        # carries in.  Read-only batches skip the machinery outright.
        if any_w:
            gw = w[order]
            cw = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(gw, dtype=np.int32, out=cw[1:])
            cwm = cw[m_idx]
            prev_dirty = np.empty(m, dtype=bool)
            prev_dirty[1:] = cwm[1:] > cwm[:-1]
            prev_dirty[idx_fm] = (
                cwm[idx_fm] > cw[first_idx[fm_groups]]
            ) | state_dirty[fm_groups]
        else:
            prev_dirty = np.zeros(m, dtype=bool)
            prev_dirty[idx_fm] = state_dirty[fm_groups]
        # A miss lacks a victim only when its set was empty, which forces
        # the group's first access to be its first miss with an empty
        # tenure span — so prev_dirty is already False there, making
        # prev_dirty exactly the writeback mask.
        no_victim = state_line[fm_groups] < 0
        wb = prev_dirty
        n_evict = m - int(np.count_nonzero(no_victim))

        # Persist per-set state from each group's final tenure.  Groups
        # that missed are exactly fm_groups; each group's last miss is the
        # position before the next group's first miss.
        if any_w:
            tenure_of_end = first_idx.copy()
            if m:
                is_last_miss = np.empty(m, dtype=bool)
                is_last_miss[:-1] = first_miss[1:]
                is_last_miss[-1:] = True
                tenure_of_end[fm_groups] = m_idx[is_last_miss]
            final_dirty = (cw[bounds] - cw[tenure_of_end]) > 0
        else:
            final_dirty = np.zeros(n_groups, dtype=bool)
        if m:
            had_miss = np.zeros(n_groups, dtype=bool)
            had_miss[fm_groups] = True
            final_dirty |= ~had_miss & state_dirty
        else:
            final_dirty |= state_dirty
        self._line[gsets] = gl[last_idx]
        self._dirty[gsets] = final_dirty

        st = self.stats
        write_misses = int(np.count_nonzero(gw[m_idx])) if any_w else 0
        n_wb = int(np.count_nonzero(wb))
        st.accesses += n
        st.hits += n - m
        st.misses += m
        st.write_misses += write_misses
        st.read_misses += m - write_misses
        st.evictions += n_evict
        st.writebacks += n_wb
        st.events_out += m + n_wb
        if not collect_events:
            return _EMPTY_EVENTS

        # Victim addresses are needed only at the writebacks themselves:
        # the previous access's line, or the persisted line at a miss on a
        # group's very first access.
        wb_pos = np.flatnonzero(wb)
        wb_midx = m_idx[wb_pos]
        wb_groups = gg[wb_pos]
        victim = gl[np.maximum(wb_midx - 1, 0)].astype(np.int64)
        at_start = wb_midx == first_idx[wb_groups]
        victim[at_start] = state_line[wb_groups[at_start]]

        # Rebuild the ordered downstream stream: per miss, in original
        # trace order, an optional victim writeback then the fill.
        orig_m = order[m_idx]
        wb_idx = orig_m[wb]
        fill_o = np.zeros(n, dtype=bool)
        fill_o[orig_m] = True
        wb_o = np.zeros(n, dtype=bool)
        wb_o[wb_idx] = True
        ecnt = fill_o.astype(np.int32)
        ecnt += wb_o
        offs = np.cumsum(ecnt)  # event position of access i's fill: offs[i]-1
        total = m + n_wb
        out_lines = np.empty(total, dtype=np.int64)
        out_writes = np.empty(total, dtype=bool)
        fpos = offs[orig_m] - 1
        out_lines[fpos] = glines[orig_m]
        out_writes[fpos] = False
        wpos = offs[wb_idx] - 2
        out_lines[wpos] = victim
        out_writes[wpos] = True
        return out_lines << self._line_shift, out_writes

    # -- no-write-allocate (write-back or write-through) ----------------------
    def _run_no_allocate_general(
        self, n: int, lines: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        sets = lines % self._n_sets
        order = np.argsort(sets, kind="stable")
        gs = sets[order]
        gl = lines[order]
        gw = w[order]
        start = np.empty(n, dtype=bool)
        start[0] = True
        start[1:] = gs[1:] != gs[:-1]
        state_line = self._line[gs]
        state_dirty = self._dirty[gs]

        out = self._run_no_allocate(n, gl, gw, start, state_line, state_dirty)
        (hit, evict, wb, wthrough, victim_line, emit_fill, new_line, new_dirty) = out

        # Persist per-set state from each group's final position.
        end = np.empty(n, dtype=bool)
        end[:-1] = start[1:]
        end[-1] = True
        self._line[gs[end]] = new_line[end]
        self._dirty[gs[end]] = new_dirty[end]

        st = self.stats
        misses = int(n - hit.sum())
        st.accesses += n
        st.hits += n - misses
        st.misses += misses
        st.write_misses += int((~hit & gw).sum())
        st.read_misses += misses - int((~hit & gw).sum())
        st.evictions += int(evict.sum())
        st.writebacks += int(wb.sum())
        st.write_throughs += int(wthrough.sum())

        # Rebuild the ordered downstream stream in original access order:
        # per access, an optional victim writeback, then an optional fill,
        # then an optional write-through of the access itself.
        wb_o = np.empty(n, dtype=bool)
        fill_o = np.empty(n, dtype=bool)
        wt_o = np.empty(n, dtype=bool)
        victim_o = np.empty(n, dtype=np.int64)
        inv = order  # scatter grouped flags back to trace order
        wb_o[inv] = wb
        fill_o[inv] = emit_fill
        wt_o[inv] = wthrough
        victim_o[inv] = victim_line

        counts = wb_o.astype(np.int64) + fill_o + wt_o
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        total = int(offs[-1])
        st.events_out += total
        out_lines = np.empty(total, dtype=np.int64)
        out_writes = np.empty(total, dtype=bool)
        pos_wb = offs[:-1][wb_o]
        out_lines[pos_wb] = victim_o[wb_o]
        out_writes[pos_wb] = True
        pos_fill = offs[:-1][fill_o] + wb_o[fill_o]
        out_lines[pos_fill] = lines[fill_o]
        out_writes[pos_fill] = False
        pos_wt = offs[:-1][wt_o] + wb_o[wt_o] + fill_o[wt_o]
        out_lines[pos_wt] = lines[wt_o]
        out_writes[pos_wt] = True
        return out_lines << self._line_shift, out_writes

    def _run_no_allocate(self, n, gl, gw, start, state_line, state_dirty):
        # Only reads change the resident line, so the resident before
        # access p is the line of the last read before p in the set (or
        # the stored state): a segmented forward fill over read positions.
        reads = ~gw
        group_id = np.cumsum(start) - 1
        idx = np.arange(n, dtype=np.int64)
        key = np.where(reads, group_id * n + idx, -1)
        key[start] = np.maximum(key[start], group_id[start] * n - 1)  # group floor
        runmax = np.maximum.accumulate(key)
        # Resident before p: shift the running max by one position; at group
        # starts the resident comes from state.
        rb_key = np.empty(n, dtype=np.int64)
        rb_key[0] = -1
        rb_key[1:] = runmax[:-1]
        last_read = rb_key - group_id * n  # >= 0: index of last read in group
        has_read = ~start & (last_read >= 0)
        resident = np.where(has_read, gl[np.maximum(last_read, 0)], state_line)
        resident[start] = state_line[start]
        hit = gl == resident
        miss = ~hit
        read_miss = miss & reads
        evict = read_miss & (resident >= 0)

        if self.write_back:
            # Dirty comes from write *hits*; tenures are delimited by read
            # misses (the only allocations).
            seg_start = start | read_miss
            whit = gw & hit
            tenure_dirty_at = self._segmented_or(whit, seg_start)
            seg_idx = np.flatnonzero(seg_start)
            seg_dirty = np.logical_or.reduceat(whit, seg_idx)
            seg_id = np.cumsum(seg_start) - 1
            cont = start & ~read_miss & (state_line >= 0)
            if cont.any():
                np.logical_or.at(seg_dirty, seg_id[cont], state_dirty[cont])
                # Positional dirty for state continuation: OR the carry into
                # every position of the first segment of such groups.
                carry_seg = np.zeros(len(seg_idx), dtype=bool)
                carry_seg[seg_id[cont]] = state_dirty[cont]
                tenure_dirty_at |= carry_seg[seg_id]
            prev_dirty = np.zeros(n, dtype=bool)
            inner = read_miss & ~start
            prev_dirty[inner] = seg_dirty[seg_id[inner] - 1]
            prev_dirty[read_miss & start] = state_dirty[read_miss & start]
            wb = evict & prev_dirty
            wthrough = gw & miss  # non-allocating write misses pass through
            new_dirty = tenure_dirty_at
        else:
            wb = np.zeros(n, dtype=bool)
            wthrough = gw.copy()  # write hits and misses both pass through
            new_dirty = np.zeros(n, dtype=bool)
        victim_line = resident
        emit_fill = read_miss
        new_line = np.where(reads, gl, resident)
        return hit, evict, wb, wthrough, victim_line, emit_fill, new_line, new_dirty

    @staticmethod
    def _segmented_or(flags: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
        """Running OR of ``flags`` that resets at each segment start."""
        v = flags.astype(np.int64)
        c = np.cumsum(v)
        # Count of flags before each segment start, forward-filled.
        seg_base = np.maximum.accumulate(np.where(seg_start, c - v, -1))
        return c > seg_base

    # -- flush ----------------------------------------------------------------
    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        lines = np.sort(self._line[self._dirty & (self._line >= 0)])
        self.stats.writebacks += len(lines)
        self.stats.events_out += len(lines)
        self._reset_state()
        return lines << self._line_shift, np.ones(len(lines), dtype=bool)
