"""Certified periodic extrapolation for the set-associative engine.

LRU commutes with any renaming of lines that is injective and keeps
every line in its set.  A guard-free loop whose every access column
moves by a fixed byte delta per row therefore repeats itself, renamed:
over a *window* of ``P`` rows, where ``P`` is a multiple of the period
``p`` that makes every column's shift ``P * delta`` a whole number of set
spans (``n_sets * line_size`` bytes), the accesses of window ``k + 1`` are
those of window ``k`` with each line moved by its column's shift.  Once
the cache state after one window equals the state before it, renamed the
same way, every later window repeats exactly: its counters are the
template window's, its ordered events are the template's events renamed,
and the state it leaves is the template's end state renamed again.

:func:`run_spans` takes the trace's loop-span hints (``Trace.spans``:
``(start, trip, width)`` of a guard-free loop) and, per span, simulates
windows until one certifies, emits every remaining whole window of the
span without simulating it, and simulates the tail as usual.  Nothing
in a hint is trusted.  The certificate has four checks, and the window
is simulated as usual when any one fails:

(a) **The trace repeats.**  Every row's byte addresses minus the previous
    row's equal one constant vector, and every row's write flags equal
    the first row's, over the template and every extrapolated window.
    Bytes, not lines: a 720 B row over 32 B lines moves lines by an
    alternating 22/23, yet by exactly 45 set spans every 8 rows.
(b) **Shifts are well defined.**  Every line the template touches is
    touched by columns of one shift only.  A line resident when the
    template starts shifts by its columns' shift if the template touches
    it, and otherwise by the distance to the line at its place in the
    state after the template (it is only ever kept or evicted).
(c) **Shifted lines never collide.**  Cut the template's lines, sorted,
    into maximal runs of one shift; each run's line interval widened by
    ``m`` shifts must be disjoint from every other run's.  The renaming
    after any ``k <= m`` windows is then injective, and a line's shifted
    image is never a template line of another shift.
(d) **The state matches.**  The state after the template equals the state
    before it renamed: the same lines in the same LRU order with the
    same dirty bits.

The windows emitted from one template are, with it, a span of the
engine's *output*: ``m + 1`` rows of the template's events, each event
moved by a fixed delta per row.  :func:`run_spans` returns them as hints
for the next level, which checks them like any other.  They repeat
there only when the window's shift is a whole number of that level's set
spans too, so :func:`link` gives each engine a *window span*, the lcm of
its own set span and those of the set-associative levels it feeds, and
a long enough span takes a window whose shift is a multiple of it.

Shifts are whole set spans, so the renaming keeps sets, and the engine's
state arrays (sorted by set, oldest first) compare elementwise.  The
checks cost one blocked pass over the span's addresses plus one sort of
a certified template window's lines; a state mismatch (the usual
failure: the first window starts from a foreign state) is caught before
the sort by comparing the states alone.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cache import CacheStats

if TYPE_CHECKING:
    from ...trace.events import Span
    from .setassoc import SetAssociativeEngine

#: Fewest accesses in a window, so that a template's fixed costs (a few
#: engine blocks, the checks) stay small against each window it saves.
_MIN_WINDOW = 1 << 12

#: Most accesses in a window: bounds the template's line table, the one
#: temporary that grows with the window.
_MAX_WINDOW = 1 << 20

#: Lead-in before the first template, in accesses per cache line.
_LEAD = 16

#: Fewest windows a span must hold before its first template is tried:
#: for the trace's own loop-span hints, and for the hints an upper level
#: derived from its extrapolated windows.
_MIN_WINDOWS_TRACE = 2
_MIN_WINDOWS_DERIVED = 8

#: Fewest windows a span must hold for the window aligned to the lower
#: levels' set spans to be used instead of the engine's own.
_ALIGN_WINDOWS = 32

#: Windows simulated without a certificate before a span is given up.
_MAX_TRIES = 4

#: Accesses per block of the row check (a) and of the line table (b).
_CHECK_BLOCK = 1 << 16

_FIELDS = [f.name for f in dataclasses.fields(CacheStats)]


def link(upper, lowers: Sequence) -> None:
    """Declare that ``upper``'s event stream feeds each of ``lowers``
    (already linked to the levels below them).

    A set-associative ``upper`` then picks, where a span is long enough,
    windows whose shift is a whole set span of every set-associative
    level below it too, so that the hints it derives for its events
    (whole windows, one per row) describe rows those levels can repeat;
    and each set-associative lower level tries such derived hints only
    where ``_MIN_WINDOWS_DERIVED`` of its own windows fit."""
    if upper.engine != "setassoc":
        return
    below = [c for c in lowers if c.engine == "setassoc"]
    for lower in below:
        lower._min_windows = _MIN_WINDOWS_DERIVED
    upper._window_span = math.lcm(upper._set_span, *(c._window_span for c in below))


def run_spans(
    engine: "SetAssociativeEngine",
    addrs: np.ndarray,
    writes: np.ndarray,
    collect: bool,
    spans: Sequence["Span"],
) -> tuple[list, list["Span"]]:
    """Simulate ``addrs`` on ``engine``, extrapolating certified windows of
    the hinted spans; returns the ordered event parts (joined by
    :func:`join_parts`) and, when ``collect``, the spans of the joined
    event stream that were emitted from a template: ``(offset, m + 1, E)``
    for a template of E events and the m windows renamed from it.
    Counters, events and end state are exactly those of simulating every
    access."""
    parts: list = []
    hints: list["Span"] = []
    n = len(addrs)
    pos = 0
    # Outer spans first: a span that starts where its inner spans do
    # covers more, and inner spans after ``pos`` still get their turn.
    for start, trip, width in sorted(spans, key=lambda s: (s[0], -s[1] * s[2])):
        if start < pos or width <= 0:
            continue
        trip = min(trip, (n - start) // width)
        if trip < 2:
            continue
        rows = _window_rows(addrs, start, width, trip, engine)
        if rows is None:
            continue
        span = _Span(engine, addrs, writes, start, trip, width, rows)
        pos = span.run(collect, parts, pos, hints)
    parts += engine._run_blocks(addrs[pos:], writes[pos:], collect)
    return parts, hints


def _window_rows(
    addrs: np.ndarray, start: int, width: int, trip: int, engine: "SetAssociativeEngine"
) -> int | None:
    """Rows per window: the least multiple of the period holding at least
    ``_MIN_WINDOW`` accesses (and 8x the line capacity), or None when
    that exceeds ``_MAX_WINDOW`` or ``trip`` holds fewer than the
    engine's minimum of windows.

    The period is that of the engine's window span (its own set span and
    those of the set-associative levels it feeds) when ``trip`` holds at
    least ``_ALIGN_WINDOWS`` such windows; otherwise that of its own set
    span, which needs fewer rows but leaves the events it emits without
    rows the levels below can repeat."""
    if width > _MAX_WINDOW:
        return None
    delta = addrs[start + width : start + 2 * width] - addrs[start : start + width]
    common = int(np.gcd.reduce(delta))
    least = max(_MIN_WINDOW, 8 * engine.geometry.n_lines)

    def rows_for(span: int) -> int:
        # Column c needs span / gcd(delta_c, span) rows; the lcm of those
        # is span / gcd(span, every delta_c).
        period = span // math.gcd(span, common)
        return period * -(-least // (period * width))

    rows = rows_for(engine._set_span)
    if engine._window_span != engine._set_span:
        aligned = rows_for(engine._window_span)
        if trip >= _ALIGN_WINDOWS * aligned and aligned * width <= _MAX_WINDOW:
            rows = aligned
    if rows * width > _MAX_WINDOW or trip < engine._min_windows * rows:
        return None
    return rows


class _Windows:
    """The events of ``m`` windows renamed from a template's: window j's
    are ``lines + j * step`` with the template's write flags.  Written
    straight into the engine's joined output (:func:`join_parts`), never
    built on their own."""

    __slots__ = ("lines", "writes", "step", "m")

    def __init__(self, lines: np.ndarray, writes: np.ndarray, step: np.ndarray, m: int):
        self.lines, self.writes, self.step, self.m = lines, writes, step, m

    def __len__(self) -> int:
        return self.m * len(self.lines)

    def fill(self, out_lines: np.ndarray, out_writes: np.ndarray) -> None:
        rows = out_lines.reshape(self.m, len(self.lines))
        np.multiply.outer(np.arange(1, self.m + 1, dtype=np.int64), self.step, out=rows)
        rows += self.lines
        out_writes.reshape(self.m, len(self.writes))[:] = self.writes


def _length(part) -> int:
    return len(part) if isinstance(part, _Windows) else len(part[0])


def join_parts(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """The ordered event stream of :func:`run_spans`'s parts, allocated
    once: extrapolated windows are written in place, not built and then
    copied."""
    if len(parts) == 1 and not isinstance(parts[0], _Windows):
        return parts[0]
    n = sum(_length(p) for p in parts)
    out_lines = np.empty(n, dtype=np.int64)
    out_writes = np.empty(n, dtype=bool)
    pos = 0
    for part in parts:
        k = _length(part)
        if isinstance(part, _Windows):
            part.fill(out_lines[pos : pos + k], out_writes[pos : pos + k])
        else:
            out_lines[pos : pos + k] = part[0]
            out_writes[pos : pos + k] = part[1]
        pos += k
    return out_lines, out_writes


#: Sorted distinct lines and each one's shift in lines per window.
_Table = tuple[np.ndarray, np.ndarray]


def _unique_shifts(lines: np.ndarray, shifts: np.ndarray) -> _Table | None:
    """Sorted distinct ``lines`` with each one's shift, or None when some
    line occurs with two shifts."""
    order = np.argsort(lines, kind="stable")
    lines, shifts = lines[order], shifts[order]
    same = lines[1:] == lines[:-1]
    if (same & (shifts[1:] != shifts[:-1])).any():
        return None
    first = np.ones(len(lines), dtype=bool)
    first[1:] = ~same
    return lines[first], shifts[first]


class _Span:
    """One hinted span, simulated window by window until one certifies."""

    def __init__(
        self,
        engine: "SetAssociativeEngine",
        addrs: np.ndarray,
        writes: np.ndarray,
        start: int,
        trip: int,
        width: int,
        rows: int,
    ):
        self.engine = engine
        self.addrs, self.writes = addrs, writes
        self.start, self.trip, self.width, self.rows = start, trip, width, rows
        self.table = addrs[start : start + trip * width].reshape(trip, width)
        self.wtable = writes[start : start + trip * width].reshape(trip, width)
        self.delta = self.table[1] - self.table[0]
        self.good = 1  # leading rows known to repeat (check a)
        self._check: tuple | None = None  # check (a)'s block buffers

    def repeats_to(self, stop: int) -> int:
        """Extend check (a) towards row ``stop``; returns how many leading
        rows repeat, at most ``stop``."""
        stop = min(stop, self.trip)
        if self.good >= stop:
            return stop
        width = self.width
        step = max(1, _CHECK_BLOCK // width)
        # Flat, so that every pass runs over one contiguous block rather
        # than broadcasting over rows a few accesses wide; against the
        # delta and the first row's flags tiled to a block.
        t, w = self.table.reshape(-1), self.wtable.reshape(-1)
        if self._check is None:
            # Built once per span: fresh block-sized temporaries would
            # each be a fresh mapping, paid for in page faults.
            self._check = (
                np.tile(self.delta, step),
                np.tile(self.wtable[0], step),
                np.empty(step * width, dtype=np.int64),
                np.empty(step * width, dtype=bool),
                np.empty(step * width, dtype=bool),
            )
        dtile, wtile, diff, same, wsame = self._check
        while self.good < stop:
            lo, hi = self.good * width, min(stop, self.good + step) * width
            k = hi - lo
            np.subtract(t[lo:hi], t[lo - width : hi - width], out=diff[:k])
            np.equal(diff[:k], dtile[:k], out=same[:k])
            np.equal(w[lo:hi], wtile[:k], out=wsame[:k])
            same[:k] &= wsame[:k]
            if not same[:k].all():
                self.good += int(np.argmin(same[:k])) // width
                break
            self.good = hi // width
        return min(self.good, stop)

    def run(self, collect: bool, parts: list, pos: int, hints: list) -> int:
        """Simulate from access ``pos`` (at or before the span) through
        windows until one certifies, then emit the rest of the span;
        appends the event parts (and the emitted span to ``hints``) and
        returns the first access left."""
        eng, P = self.engine, self.rows
        # Each column's shift over one window, in lines: whole set spans.
        shift = (P * self.delta) >> eng._line_shift
        shifts = np.unique(shift)
        # Lead-in: a few cache capacities of accesses flush the state the
        # span inherits, so the first template usually starts steady.
        row = -(-_LEAD * eng.geometry.n_lines // self.width)
        if row + 2 * P > self.trip or self.repeats_to(row) < row:
            row = 0
        lead = self.start + row * self.width
        parts += eng._run_blocks(self.addrs[pos:lead], self.writes[pos:lead], collect)
        for _ in range(_MAX_TRIES):
            if row + 2 * P > self.trip or self.repeats_to(row + 2 * P) < row + 2 * P:
                break
            line0, dirty0 = eng._res_line, eng._res_dirty
            stats0 = [getattr(eng.stats, f) for f in _FIELDS]
            lo = self.start + row * self.width
            hi = lo + P * self.width
            template = eng._run_blocks(self.addrs[lo:hi], self.writes[lo:hi], collect)
            parts += template
            row += P
            line1 = eng._res_line
            # Check (d) on the states alone first: a template that starts
            # from a foreign state fails here, before any sort.
            if not (
                len(line0) == len(line1)
                and np.array_equal(dirty0, eng._res_dirty)
                and np.isin(line1 - line0, shifts).all()
            ):
                continue
            m = (self.repeats_to(self.trip) - row) // P
            if m < 1:
                break
            table = self._line_table(row - P, shift)
            if table is not None:
                table = _certify(table, line0, line1, m)
            if table is not None:
                self._emit(table, template, stats0, m, collect, parts, hints)
                return self.start + (row + P * m) * self.width
        return self.start + row * self.width

    def _line_table(self, row: int, shift: np.ndarray) -> _Table | None:
        """Check (b), first half: the template's distinct lines (sorted)
        with their shifts, or None when a line has two.  Built blockwise,
        so its temporaries stay ``_CHECK_BLOCK``-sized."""
        ls = self.engine._line_shift
        step = max(1, _CHECK_BLOCK // self.width)
        lines, shifts = [], []
        for r in range(row, row + self.rows, step):
            block = self.table[r : min(row + self.rows, r + step)]
            part = _unique_shifts(
                (block >> ls).ravel(), np.broadcast_to(shift, block.shape).ravel()
            )
            if part is None:
                return None
            lines.append(part[0])
            shifts.append(part[1])
        if len(lines) == 1:
            return lines[0], shifts[0]
        return _unique_shifts(np.concatenate(lines), np.concatenate(shifts))

    def _emit(
        self,
        table: _Table,
        template: list,
        stats0: list,
        m: int,
        collect: bool,
        parts: list,
        hints: list,
    ) -> None:
        """Windows 1..m after the template, without simulating them.  Their
        events are the template's, each moved by j times its line's shift
        in window j: with the template, a span of m + 1 rows."""
        eng = self.engine
        ulines, ushift = table
        st = eng.stats
        for name, old in zip(_FIELDS, stats0):
            new = getattr(st, name)
            setattr(st, name, new + m * (new - old))
        line1 = eng._res_line
        eng._res_line = line1 + m * ushift[np.searchsorted(ulines, line1)]
        if not collect:
            return
        ev_lines = np.concatenate([p[0] for p in template])
        ev_writes = np.concatenate([p[1] for p in template])
        if not len(ev_lines):
            return
        ls = eng._line_shift
        step = ushift[np.searchsorted(ulines, ev_lines >> ls)] << ls
        n_out = sum(_length(p) for p in parts)
        hints.append((n_out - len(ev_lines), m + 1, len(ev_lines)))
        parts.append(_Windows(ev_lines, ev_writes, step, m))


def _certify(table: _Table, line0: np.ndarray, line1: np.ndarray, m: int) -> _Table | None:
    """Checks (b, second half), (d) and (c) for a template whose state
    went from ``line0`` to ``line1`` (dirty bits already compared) and
    ``m`` windows to extrapolate.  Returns the line table the renaming
    uses, untouched residents included, or None.

    A resident line the template touches must shift as its columns do.
    One it never touches (the tail of the row before, say) is only ever
    evicted or kept, so it may take the shift its state position shows;
    it joins the table so that check (c) covers its images too."""
    ulines, ushift = table
    moved = line1 - line0
    idx = np.minimum(np.searchsorted(ulines, line0), len(ulines) - 1)
    touched = ulines[idx] == line0
    if not np.array_equal(ushift[idx[touched]], moved[touched]):
        return None  # (d)
    if not touched.all():
        lines = np.concatenate((ulines, line0[~touched]))
        order = np.argsort(lines)
        ulines = lines[order]
        ushift = np.concatenate((ushift, moved[~touched]))[order]
    # (c): maximal runs of one shift among the sorted lines, each widened
    # by m shifts, must be pairwise disjoint.
    cut = np.flatnonzero(ushift[1:] != ushift[:-1]) + 1
    first = np.concatenate(([0], cut))
    last = np.concatenate((cut - 1, [len(ulines) - 1]))
    reach = ushift[first] * m
    lo = ulines[first] + np.minimum(reach, 0)
    hi = ulines[last] + np.maximum(reach, 0)
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    if not (lo[1:] > np.maximum.accumulate(hi)[:-1]).all():
        return None
    return ulines, ushift
