"""Certified periodic folds for the all-capacity stack profile.

:func:`~repro.machine.engine.stack.stack_profile` of a
:class:`~repro.trace.events.LazyStream` need not read every access.  A
:class:`~repro.trace.events.Rows` part is a loop whose row ``r`` is row 0
plus ``r`` byte steps, so over a *super-row* of ``P`` rows every column
whose ``P * step`` is a whole number ``D`` of lines moves by exactly ``D``
lines (bytes, not lines: an 8 B step over 128 B lines moves by one line
every 16 rows).  Reuse distances only count which accesses of a window
share a line, so once a super-row's windows and line histories lie
inside such a stretch, every later super-row of the stretch repeats it,
renamed.  This module finds those stretches and *folds* them: the
profile is taken of a reduced stream that keeps a lead-in, one template
super-row and a tail of each stretch, and the template is counted once
for itself and once per excised copy.  The rows after a fold are read
with every moving column moved back by the excised super-rows, so the
reduced stream is the same loop with fewer rows.

A fold is planned per stretch (:func:`plan_folds`) when all of these
hold; any part that fails one is profiled row by row, as before:

(a) **Columns.**  A column moves (``P * step`` is a multiple of the line,
    ``P`` the lcm of the columns' periods ``L / gcd(step mod L, L)``) or
    is *frozen*: a sub-line step that crosses at most
    :data:`MAX_CROSSINGS` line boundaries over the trip.  A frozen column
    cuts the part into stretches at its crossing rows and is constant
    inside each (dmxpy's ``x[j]`` crosses once, at row 12 of 16).
(b) **Step classes.**  Columns are grouped by ``D`` (frozen ones with
    ``D = 0``).  Each class's line hull over the part (one interval per
    column, merged) is disjoint from every other class's, so moving a
    class never makes it meet another one's lines.
(c) **Isolation.**  The hull of the classes with ``D != 0`` meets no line
    of any other part of the stream.
(d) **Bounded life.**  From the lines ``S`` one super-row of a class
    touches, a line ``l`` is touched in super-row ``q`` iff
    ``l - qD`` is in ``S``; lines of ``S`` in one residue mod ``D`` that
    lie closer than the part's reach give a bound ``life`` on how many
    super-rows any line stays in use.  The template is super-row
    ``T0 = max(life, 1)`` of the stretch, so its lines' histories (and
    their previous writes) lie inside the stretch, and the kept tail
    holds ``max(life, 1)`` more super-rows, so every line the template
    retires (its last access) retires there in every copy too.

**Why it is exact.**  Moving super-row ``q`` to ``q + 1`` renames every
line of a class by ``D`` and keeps ``D = 0`` lines (touched in every
super-row of the stretch, so their previous access is at most one
super-row back).  The renaming is injective and keeps classes apart
(b), and by (c) and (d) the whole history of a line the template
touches lies in super-rows ``[0, T0]`` of the stretch, so for every
``k`` the history of its renamed line in super-row ``T0 + k`` is the
same history ``k`` super-rows later.  Each access's window then holds
as many distinct lines, and its previous access and previous write map
over: the template's reuse distances, cold misses and tenure marks are
those of every copy.  A line the template touches for the last time is
touched by nothing after it within ``life`` super-rows (the kept tail)
and by no other part (c), so the template's retired lines are a copy's
retired lines.  :mod:`~repro.machine.engine.stack` adds the template
once per copy and shifts end-of-run recency ranks by the lines the
copies retire.  Nothing is capped: the profile is exact at every
capacity, beyond the history included.

One clause needs the reduced stream itself (:func:`failed_parts`): an
access after the stretch whose previous access lies before the fold
spans it.  If that window spans the whole part, the copies add their
new lines (``copies x`` the template's cold misses) to its distance,
which the profile applies; any other such window makes the part fall
back to the exact pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...trace.events import LazyStream, Rows, part_len

#: Most line crossings over its trip that a sub-line column may make and
#: still be frozen (the part is cut at them) rather than given a period.
MAX_CROSSINGS = 4
#: Most distinct crossing rows a part may be cut at.
MAX_STRETCHES = 8
#: Largest ``P x width`` whose super-row lines are enumerated for (d).
MAX_SUPER_ROW = 1 << 20


_NO_LINES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class Fold:
    """One folded stretch: the template super-row is reduced positions
    ``[lo, hi)``; ``copies`` copies of it were excised right after it."""

    part: int  #: index of its part in the stream
    lo: int
    hi: int
    copies: int
    after: int  #: first reduced position after the stretch
    part_lo: int  #: the part's reduced range
    part_hi: int


@dataclass(frozen=True)
class _Stretch:
    """A planned fold of one part: rows ``[template, template + period)``
    are the template and the next ``copies * period`` rows are excised."""

    template: int
    end: int  #: first row after the stretch
    period: int
    copies: int


@dataclass(frozen=True)
class _PartPlan:
    stretches: list[_Stretch]
    moving_step: np.ndarray  #: per-column step, 0 for frozen columns


def _intervals(lo: np.ndarray, hi: np.ndarray, presorted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The union of closed intervals ``[lo, hi]`` as sorted disjoint ones
    (``presorted``: ``lo`` is ascending already)."""
    if not len(lo):
        return lo, hi
    if not presorted:
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
    hi = np.maximum.accumulate(hi)
    start = np.ones(len(lo), dtype=bool)
    start[1:] = lo[1:] > hi[:-1]
    first = np.flatnonzero(start)
    last = np.append(first[1:], len(lo)) - 1
    return lo[first], hi[last]


def _meets(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether two sorted disjoint interval lists share a point."""
    (alo, ahi), (blo, bhi) = a, b
    if not len(alo) or not len(blo):
        return False
    k = np.searchsorted(blo, ahi, side="right") - 1  # last b starting <= a's end
    ok = k >= 0
    return bool(np.any(bhi[k[ok]] >= alo[ok]))


def _part_lines(part, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """A superset of the lines one part touches, as sorted intervals: one
    per column of a :class:`Rows` part, the whole range of an array part."""
    if isinstance(part, Rows):
        first = part.base >> shift
        last = (part.base + (part.trip - 1) * part.step) >> shift
        return _intervals(np.minimum(first, last), np.maximum(first, last))
    lines = part[0] >> shift
    return np.array([lines.min()]), np.array([lines.max()])


def _crossings(base: np.ndarray, step: np.ndarray, first: np.ndarray, count: np.ndarray, line: int) -> np.ndarray:
    """Rows at which frozen columns enter a new line: the ``k``-th
    boundary of a column stepping up is ``ceil((v L - a) / s)`` for its
    ``k``-th line ``v``, and stepping down ``ceil(((v + 1) L - 1 - a) / s)``."""
    rows = []
    for k in range(1, int(count.max(initial=0)) + 1):
        on = count >= k
        a, s, l0 = base[on], step[on], first[on]
        up = s > 0
        edge = np.where(up, (l0 + k) * line, (l0 - k + 1) * line - 1)
        rows.append(-((a - edge) // s))  # ceil((edge - a) / s)
    return np.unique(np.concatenate(rows)) if rows else np.empty(0, dtype=np.int64)


def _life(base: np.ndarray, step: np.ndarray, rows: int, d: int, shift: int, reach: int) -> int:
    """Bound (d) for one class: the most super-rows between two touches
    of one line, from the lines ``S`` of one super-row (``rows`` rows)."""
    grid = base[None, :] + np.arange(rows, dtype=np.int64)[:, None] * step[None, :]
    s = np.unique(grid >> shift)
    mag = abs(d)
    residue = s % mag
    order = np.lexsort((s, residue))
    s, residue = s[order], residue[order]
    # Lines of S farther apart than the reach are never both touched.
    cut = np.ones(len(s), dtype=bool)
    cut[1:] = (residue[1:] != residue[:-1]) | (s[1:] - s[:-1] > reach * mag)
    first = np.flatnonzero(cut)
    last = np.append(first[1:], len(s)) - 1
    return int((s[last] - s[first]).max()) // mag


def _plan_part(part: Rows, shift: int, others: Callable[[], tuple[np.ndarray, np.ndarray]]) -> _PartPlan | None:
    """The folds of one part, by checks (a)-(d); None if none passes.
    ``others()`` gives the lines of the stream's other parts."""
    line = 1 << shift
    base, step, trip, width = part.base, part.step, part.trip, part.width
    first = base >> shift
    last = (base + (trip - 1) * step) >> shift
    # (a) Columns: moving, or frozen between a few crossings.
    offset = step % line
    frozen = (offset != 0) & (np.abs(step) < line) & (np.abs(last - first) <= MAX_CROSSINGS)
    # Periods are powers of two, so their lcm is the largest.
    period = int((line // np.gcd(offset[~frozen], line)).max(initial=1))
    if trip // period < 4 or period * width > MAX_SUPER_ROW:
        return None
    d = np.where(frozen, 0, period * step // line)
    cuts = _crossings(base[frozen], step[frozen], first[frozen], np.abs(last - first)[frozen], line)
    cuts = cuts[(cuts > 0) & (cuts < trip)]
    if len(cuts) > MAX_STRETCHES:
        return None
    # Column hulls over the trip, sorted once for every merge below.
    lo, hi = np.minimum(first, last), np.maximum(first, last)
    order = np.argsort(lo)
    lo, hi, dd = lo[order], hi[order], d[order]
    # (c) Moving lines are the part's own.
    moving = dd != 0
    if moving.any() and _meets(_intervals(lo[moving], hi[moving], True), others()):
        return None
    # (b) Step classes keep to their own lines.
    classes = np.unique(d)
    merged = [_intervals(lo[dd == c], hi[dd == c], True) for c in classes]
    every = _intervals(np.concatenate([m[0] for m in merged]), np.concatenate([m[1] for m in merged]))
    if len(every[0]) != sum(len(m[0]) for m in merged):
        return None
    reach = trip // period + 2
    stretches = []
    for start, end in zip(np.append(0, cuts).tolist(), np.append(cuts, trip).tolist()):
        # (d) Bounded life, from the stretch's first super-row.
        life = 0
        for c in classes[classes != 0].tolist():
            cols = d == c
            grid = base[cols] + start * step[cols]
            life = max(life, _life(grid, step[cols], period, c, shift, reach))
        t0 = max(life, 1)
        copies = (end - start) // period - (2 * t0 + 1)
        if copies < 1:
            continue
        stretches.append(_Stretch(start + t0 * period, end, period, copies))
    if not stretches:
        return None
    return _PartPlan(stretches, np.where(frozen, 0, step))


def plan_folds(stream: LazyStream, shift: int) -> dict[int, _PartPlan]:
    """Per part index, the stretches that pass checks (a)-(d)."""
    parts = stream.parts
    hulls: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def others(k: int) -> tuple[np.ndarray, np.ndarray]:
        for j, p in enumerate(parts):
            if j != k and j not in hulls:
                hulls[j] = _part_lines(p, shift)
        rest = [h for j, h in hulls.items() if j != k] or [_NO_LINES]
        return _intervals(np.concatenate([h[0] for h in rest]), np.concatenate([h[1] for h in rest]))

    plans = {}
    for k, part in enumerate(parts):
        if isinstance(part, Rows) and part.trip >= 4:
            plan = _plan_part(part, shift, lambda k=k: others(k))
            if plan is not None:
                plans[k] = plan
    return plans


def build(stream: LazyStream, plans: dict[int, _PartPlan]) -> tuple[np.ndarray, np.ndarray, list[Fold]]:
    """The reduced stream (addresses, write flags) and its folds: each
    part's kept rows, those after a fold with moving columns moved back
    by the rows it excised."""
    pieces = []  # (part, first row, stop row, rows moved back, moving steps)
    folds: list[Fold] = []
    pos = 0
    for k, part in enumerate(stream.parts):
        plan = plans.get(k)
        if plan is None:
            pieces.append((part, 0, getattr(part, "trip", None), 0, None))
            pos += part_len(part)
            continue
        width, part_lo = part.width, pos
        row = back = 0
        marks = []
        for s in plan.stretches:
            stop = s.template + s.period
            pieces.append((part, row, stop, back, plan.moving_step))
            pos += (stop - row) * width
            marks.append((pos - s.period * width, pos, s.end - back - s.copies * s.period, s.copies))
            row, back = stop + s.copies * s.period, back + s.copies * s.period
        pieces.append((part, row, part.trip, back, plan.moving_step))
        pos += (part.trip - row) * width
        for lo, hi, end, copies in marks:
            folds.append(Fold(k, lo, hi, copies, part_lo + end * width, part_lo, pos))
    addrs = np.empty(pos, dtype=np.int64)
    writes = np.empty(pos, dtype=np.bool_)
    at = 0
    for part, a, b, back, moving_step in pieces:
        if not isinstance(part, Rows):
            n = len(part[0])
            addrs[at : at + n], writes[at : at + n] = part
        else:
            n = (b - a) * part.width
            out = addrs[at : at + n]
            part.read_into(a * part.width, b * part.width, out, writes[at : at + n])
            if back:
                out.reshape(-1, part.width)[:] -= back * moving_step
        at += n
    return addrs, writes, folds


def failed_parts(prev: np.ndarray, folds: list[Fold]) -> set[int]:
    """Parts with a fold that an access after its stretch spans without
    spanning the whole part (its previous access lies before the fold)."""
    bad = set()
    for f in folds:
        p = prev[f.after :]
        span = (p >= 0) & (p < f.hi)
        # A window over the whole part is corrected, not refused.
        beyond = f.part_hi - f.after
        span[beyond:] &= p[beyond:] >= f.part_lo
        if span.any():
            bad.add(f.part)
    return bad
