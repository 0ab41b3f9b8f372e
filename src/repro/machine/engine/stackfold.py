"""Certified periodic folds for the all-capacity stack profile.

:func:`~repro.machine.engine.stack.stack_profile` of a
:class:`~repro.trace.events.LazyStream` need not read every access.  One
level of a :class:`~repro.trace.events.Rows` loop nest, inside one
iteration of the levels above it, is a loop whose row ``r`` is row 0
plus ``r`` byte steps (its row is the inner levels' rows, flattened), so
over a *super-row* of ``P`` rows every column whose ``P * step`` is a
whole number ``D`` of lines moves by exactly ``D`` lines (bytes, not
lines: an 8 B step over 128 B lines moves by one line every 16 rows).
Reuse distances only count which accesses of a window share a line, so
once a super-row's windows lie inside such a stretch, every later
super-row of the stretch repeats them, renamed.  This module finds those
stretches and *folds* them: the profile is taken of a reduced stream
that keeps a lead-in, one template super-row, the *kept accesses* of the
excised copies after it, and a tail.  The template's distances and
tenure marks are counted once more for every copy they stand for.

A nest is planned at one level, as one single-level part (a *view*) per
iteration of the levels above it: dmxpy's 16 rows of 16,384 inner
iterations fold as 16 inner loops, and fft's short stage loops as one
view per outer trip.  Of the levels whose views may keep fewer accesses
than the best found so far, the one that keeps the fewest is taken
(:func:`plan_folds`).  Views that differ only by whole lines per cluster
of columns share one plan (:class:`_Family`).  A fold is planned per
stretch when all of these hold; any view that fails one is profiled row
by row:

(a) **Columns.**  A column moves (``P * step`` is a multiple of the line,
    ``P`` the lcm of the columns' periods ``L / gcd(step mod L, L)``) or
    is *frozen*: a sub-line step that crosses at most
    :data:`MAX_CROSSINGS` line boundaries over the trip.  A frozen column
    cuts the view into stretches at its crossing rows and is constant
    inside each (dmxpy's ``x[j]`` crosses once, at row 12 of 16).
(b) **Step classes.**  Columns are grouped by ``D`` (frozen ones with
    ``D = 0``).  Each class's line hull over the part (one interval per
    column, merged) is disjoint from every other class's, so moving a
    class never makes it meet another one's lines.
(c) **Bounded life.**  From the lines ``S`` one super-row of a class
    touches, a line ``l`` is touched in super-row ``q`` iff
    ``l - qD`` is in ``S``.  A stretch of ``n`` whole super-rows holds
    at most ``M = n - 2`` copies after a super-row of lead-in and the
    template (``n - 3`` when it does not start at row 0, since it then
    keeps a tail super-row too).  Lines of ``S`` in one residue mod ``D`` fewer than
    ``M`` super-rows apart are *chained*: one line may be touched
    through both inside the copies.  The longest chain bounds ``life``,
    how many super-rows a line stays in use.  The template is super-row
    ``T0 = max(life, 1)``, so a template line's history lies in the
    lead-in, and ``M + 1 - T0`` copies follow it.

**The kept accesses.**  Every line the excised copies touch keeps, in
the reduced stream and at its own address, its first and last touch in
the excised stretch and its first and last write there.  A *chain* is
the template positions one line passes through, in order: the template
line ``l`` at chain offset ``o`` is touched ``o`` super-rows after the
chain's first line, so a copy's lines, their chain positions and so
their kept accesses follow from the template alone.

**Long links.**  Two lines of ``S`` in one residue ``k >= M``
super-rows apart are not chained, although the part may touch one line
through both: fft's ``im`` sits 32 B off a line, so the two halves of a
butterfly block share one line ``n - 1`` super-rows apart.  Such a link
joins touches ``k`` super-rows apart, and the ``M + 1 - T0 <= M`` copies
span fewer, so at most one of the two is excised; the other lies in the
lead-in, the template or the tail, which are kept whole, or outside the
part.  Inside the excised stretch a line is thus one chain's, and the
touch before its first touch there, and the one after its last, lie
outside the stretch: what the argument below needs.  A link shorter
than ``M`` super-rows could join two copies, and stays chained.

**Why it is exact.**  Moving super-row ``q`` to ``q + 1`` renames every
line of a class by ``D`` and keeps ``D = 0`` lines.  The renaming is
injective and keeps classes apart (b), and by (c) a line's previous
touch lies at most ``life`` super-rows back through its chain, inside
the stretch, or through a long link, outside the excised copies.  So an
excised access whose previous touch is excised too has the window,
reuse distance and tenure mark of the template access it renames; the
template counts it.  Every other excised access is its
line's first touch in the excised stretch and is kept; so is every
access outside the folds.  A kept access's window then reads exactly in
the reduced stream: its previous touch is kept (it lies outside the
excised stretch, or is the last touch there), and every other line that
the window meets in an excised stretch has a kept first touch inside
the window (the window starts before the stretch) or a kept last touch
inside it (it ends after).  The other kept accesses are *phantoms*: the
profile counts none of their distances, and each carries the largest
template distance over its chain since its line's previous kept access,
so the maxima behind tenure marks and dirty survival read exactly over
kept accesses.  The marks of first writes are the exact ones; every
line's last touch is kept, so end-of-run recency ranks are too.
Nothing is capped: the profile is exact at every capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...trace.events import LazyStream, Part, Rows, part_len

#: Most line crossings over its trip that a sub-line column may make and
#: still be frozen (the part is cut at them) rather than given a period.
MAX_CROSSINGS = 4
#: Most distinct crossing rows a part may be cut at.
MAX_STRETCHES = 8
#: Largest ``P x width`` whose super-row lines are enumerated for (c).
MAX_SUPER_ROW = 1 << 20


@dataclass(frozen=True)
class Folds:
    """The folded stretches of a reduced stream, as reduced positions.

    ``template`` are the template super-rows' accesses; per access,
    ``weight`` excised accesses count its reuse distance and
    ``mark_weight`` excised writes its tenure mark.  ``kept`` are the
    excised copies' kept accesses: ``counted`` ones are first touches,
    profiled as themselves, and ``marked`` ones first writes, whose
    tenure marks are exact.  The rest are phantoms, each carrying the
    largest distance over template accesses ``chain[lo:hi + 1]``, where
    ``lo, hi = span_lo[k], span_hi[k]`` for its ``k`` in ``span``."""

    template: np.ndarray
    weight: np.ndarray
    mark_weight: np.ndarray
    kept: np.ndarray
    counted: np.ndarray
    marked: np.ndarray
    span: np.ndarray
    chain: np.ndarray
    span_lo: np.ndarray
    span_hi: np.ndarray


@dataclass(frozen=True)
class _Copies:
    """What ``copies`` excised super-rows keep, relative to the template
    super-row: kept accesses at copy ``copy`` (1 is the first) and template
    position ``at``, in stream order, with their roles (see :class:`Folds`,
    whose ``chain`` and spans are template positions here), and per
    template position the copies it stands for."""

    copy: np.ndarray
    at: np.ndarray
    counted: np.ndarray
    marked: np.ndarray
    span: np.ndarray
    chain: np.ndarray
    span_lo: np.ndarray
    span_hi: np.ndarray
    weight: np.ndarray
    mark_weight: np.ndarray


@dataclass(frozen=True)
class _Stretch:
    """A planned fold of one part: rows ``[template, template + period)``
    are the template and the next ``copies * period`` rows are excised,
    but for the accesses ``kept`` names."""

    template: int
    end: int  #: first row after the stretch
    period: int
    copies: int
    kept: _Copies


@dataclass(frozen=True)
class _PartPlan:
    stretches: list[_Stretch]
    kept: int  #: accesses of the part the reduced stream holds, at most


@dataclass(frozen=True)
class _Chains:
    """One super-row's positions grouped into chains (see the module
    docstring): per position its chain and offset, per chain its ``D``
    and the offset of its last line."""

    chain: np.ndarray
    offset: np.ndarray
    d: np.ndarray
    span: np.ndarray

    @property
    def life(self) -> int:
        return int(self.span[self.d != 0].max(initial=0))


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


def _chains(lines: np.ndarray, d: np.ndarray, most: int) -> _Chains:
    """Chains of one super-row whose positions touch ``lines`` with step
    classes ``d``: lines of one class and residue fewer than ``most``
    super-rows apart share a chain, and each ``D = 0`` line is one."""
    ul, inv = np.unique(lines, return_inverse=True)
    ud = np.empty(len(ul), dtype=np.int64)
    ud[inv] = d  # by (b), a line belongs to one class
    mag = np.abs(ud)
    residue = np.where(mag > 0, ul % np.maximum(mag, 1), ul)
    order = np.lexsort((ul, residue, ud))
    sl, sd, sr, smag = ul[order], ud[order], residue[order], mag[order]
    cut = np.ones(len(sl), dtype=bool)
    cut[1:] = (
        (sd[1:] != sd[:-1])
        | (sr[1:] != sr[:-1])
        | (sl[1:] - sl[:-1] >= most * smag[1:])
        | (sd[1:] == 0)
    )
    first = np.flatnonzero(cut)
    last = np.append(first[1:], len(sl)) - 1
    cd = sd[first]
    # A chain starts at its highest line if it moves up, its lowest if down.
    lead = np.where(cd > 0, sl[last], sl[first])
    chain = np.empty(len(ul), dtype=np.int64)
    chain[order] = np.cumsum(cut) - 1
    offset = np.where(ud != 0, (lead[chain] - ul) // np.where(ud != 0, ud, 1), 0)
    span = (sl[last] - sl[first]) // np.maximum(np.abs(cd), 1)
    return _Chains(chain[inv], offset[inv], cd, span)


def _kept(part: Rows, plan: _PartPlan | None) -> int:
    return len(part) if plan is None else plan.kept


@dataclass(frozen=True)
class _Family:
    """A view's plan, kept for the views that differ from it only by
    whole lines per column (one level's views of a nest, or parts
    alike).  Its columns fall into *clusters*, whose line hulls over the
    view meet once widened by ``reach`` lines (:meth:`of`): ``order``
    sorts the columns by cluster, ``start`` marks each cluster's first,
    and ``lo``, ``hi`` are the widened hulls.  Checks (b) and (c)
    compare lines of one cluster, or find lines of two clusters farther
    apart than any link or class hull reaches.  A view with the same
    steps, write flags and trip, whose sub-line columns sit at the same
    offsets in their lines, and whose clusters each lie one whole number
    of lines from these and stay apart, therefore passes every check the
    same way: the plan is its plan.  No other plan is shared."""

    first: np.ndarray
    order: np.ndarray
    start: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    plan: "_PartPlan | None"

    @classmethod
    def of(cls, first: np.ndarray, lo: np.ndarray, hi: np.ndarray, reach: int, plan) -> "_Family":
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order] - reach, hi[order] + reach
        start = np.ones(len(lo), dtype=bool)
        start[1:] = lo[1:] > np.maximum.accumulate(hi)[:-1]
        return cls(first, order, start, lo[start], np.maximum.reduceat(hi, np.flatnonzero(start)), plan)

    def holds(self, first: np.ndarray) -> bool:
        """Whether the part whose columns' first lines are ``first`` has
        this plan."""
        moved = (first - self.first)[self.order]
        if not (moved[1:] == moved[:-1])[~self.start[1:]].all():
            return False
        by = moved[self.start]
        lo, hi = self.lo + by, self.hi + by
        order = np.argsort(lo)
        return bool((lo[order][1:] > np.maximum.accumulate(hi[order])[:-1]).all())


def _plan_part(part: Rows, shift: int, memo: dict, budget: int | None = None) -> _PartPlan | None:
    """The folds of one view, by checks (a)-(c); None if none passes, or
    if its stretches must keep ``budget`` accesses or more (a lead-in
    and the template each, and a tail after a cut), which is not
    remembered.  ``memo`` holds the families of views planned before
    (one per steps, write flags, trip and in-line offsets of the
    sub-line columns: one level's views share theirs) and the kept
    accesses of stretches planned before."""
    (step,), (trip,) = part.steps, part.trips
    if trip < 4:
        return None
    line = 1 << shift
    base, width = part.base, part.width
    first = base >> shift
    # Where a column's step is whole lines, its lines move with its
    # base's line and its offset in the line is never seen.
    offset = np.where(step & (line - 1), base & (line - 1), 0)
    key = ("part", shift, trip, step.tobytes(), part.writes.tobytes(), offset.tobytes())
    family = memo.get(key)
    if family is not None and family.holds(first):
        return family.plan
    last = (base + (trip - 1) * step) >> shift
    # Check (a).  The line is a power of two, so gcd(step mod L, L) is its
    # lowest set bit, and the periods' lcm is the largest period.
    sub = step % line
    frozen = (sub != 0) & (np.abs(step) < line) & (np.abs(last - first) <= MAX_CROSSINGS)
    moving = sub[~frozen & (sub != 0)]
    period = line // int((moving & -moving).min(initial=line))
    if trip // period < 4 or period * width > MAX_SUPER_ROW:
        return None
    d = np.where(frozen, 0, period * step // line)
    lo, hi = np.minimum(first, last), np.maximum(first, last)
    cuts = _crossings(base[frozen], step[frozen], first[frozen], (hi - lo)[frozen], line)
    cuts = np.append(0, cuts[(cuts > 0) & (cuts < trip)]).tolist()
    bounds = list(zip(cuts, cuts[1:] + [trip]))
    if budget is not None and sum(min(b - a, (2 + (a > 0)) * period) for a, b in bounds) * width >= budget:
        return None
    plan = _plan_stretches(part, shift, memo, lo, hi, bounds, period, d)
    memo[key] = _Family.of(first, lo, hi, (trip // period + 1) * (int(np.abs(d).max()) + 1), plan)
    return plan


def _plan_stretches(part: Rows, shift: int, memo: dict, lo, hi, bounds: list, period: int, d) -> _PartPlan | None:
    """Checks (a, stretches), (b) and (c) of a view whose columns span
    lines ``lo`` to ``hi``, which frozen columns cut into stretches of
    rows ``bounds``, and whose other columns move ``d`` lines per
    super-row of ``period`` rows."""
    (step,), base, width = part.steps, part.base, part.width
    if len(bounds) > MAX_STRETCHES + 1:
        return None
    # (b) Step classes keep to their own lines.
    order = np.argsort(lo)
    lo, hi, dd = lo[order], hi[order], d[order]
    merged = [_intervals(lo[dd == c], hi[dd == c], True) for c in np.unique(d)]
    every = _intervals(np.concatenate([m[0] for m in merged]), np.concatenate([m[1] for m in merged]))
    if len(every[0]) != sum(len(m[0]) for m in merged):
        return None
    col = np.tile(np.arange(width), period)
    sub = np.repeat(np.arange(period, dtype=np.int64), width)
    stretches = []
    for start, end in bounds:
        # (c) Bounded life, from the stretch's first super-row: ``most``
        # copies fit after a one-super-row lead-in, so no two copies lie
        # ``most`` super-rows apart.
        most = (end - start) // period - 2 - (start > 0)
        if most < 1:
            continue
        chains = _chains((base[col] + (start + sub) * step[col]) >> shift, d[col], most)
        t0 = max(chains.life, 1)
        copies = most + 1 - t0
        if copies >= 1:
            writes = np.tile(part.writes, period)
            key = ("copies", period, copies, *(a.tobytes() for a in (chains.chain, chains.offset, chains.d, chains.span, writes)))
            if key not in memo:
                memo[key] = _copies(chains, writes, copies)
            stretches.append(_Stretch(start + t0 * period, end, period, copies, memo[key]))
    if not stretches:
        return None
    kept = len(part) - sum(s.copies * s.period * width - len(s.kept.at) for s in stretches)
    return _PartPlan(stretches, kept)


def _copies(chains: _Chains, writes: np.ndarray, copies: int) -> _Copies:
    """The kept accesses of ``copies`` excised super-rows after a template
    with ``chains`` and ``writes``, and the copies each template position
    stands for."""
    n = len(writes)
    stride = int(chains.span.max(initial=0)) + 2
    key = chains.chain * stride + chains.offset
    q = np.argsort(key, kind="stable")  # chain order
    key = key[q]
    g, o, w = chains.chain[q], chains.offset[q], writes[q]
    moving = chains.d[g] != 0
    idx = np.arange(n)
    first = np.ones(n, dtype=bool)
    np.not_equal(g[1:], g[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    gstart = np.maximum.accumulate(np.where(first, idx, 0))
    gend = (np.append(starts[1:], n) - 1)[np.cumsum(first) - 1]
    # Latest write at or before each chain position, earliest at or after.
    prevw = np.maximum.accumulate(np.where(w, idx, -1))
    nextw = np.minimum.accumulate(np.where(w, idx, n)[::-1])[::-1]

    # Super-rows back to each position's previous touch and previous write
    # of its line; ``copies`` stands for none in the excised copies.  A
    # D = 0 line is touched, and written if at all, in every super-row.
    back = np.empty(n, dtype=np.int64)
    back[1:] = o[1:] - o[:-1]
    back[first] = np.where(moving[first], copies, 1)
    pw = np.empty(n, dtype=np.int64)
    pw[0] = -1
    pw[1:] = prevw[:-1]
    rewritten = ~moving & (prevw[gend] >= gstart)
    wback = np.where(pw >= gstart, o - o[pw], np.where(rewritten, 1, copies))
    weight = np.empty(n, dtype=np.int64)
    weight[q] = copies - np.minimum(back, copies)
    mark_weight = np.empty(n, dtype=np.int64)
    mark_weight[q] = np.where(w, copies - np.minimum(wback, copies), 0)

    # The copies' lines.  A moving chain's line first touched at super-row
    # s0 (the template's is 0) is touched at s0 + o, so it meets copies
    # 1..copies at offsets [max(0, 1 - s0), min(span, copies - s0)].
    gm = np.flatnonzero(chains.d != 0)
    count = copies + chains.span[gm]
    cg = np.repeat(gm, count)
    s0 = np.arange(len(cg)) - np.repeat(np.cumsum(count) - count, count) + 1 - chains.span[cg]
    lo = np.searchsorted(key, cg * stride + np.maximum(0, 1 - s0), "left")
    hi = np.searchsorted(key, cg * stride + np.minimum(chains.span[cg], copies - s0), "right") - 1
    meets = lo <= hi
    # A D = 0 line meets every copy: its first touch and write are in
    # copy 1, its last write and touch in the last copy.
    zlo = starts[~moving[starts]]
    lo = np.concatenate([lo[meets], zlo])
    hi = np.concatenate([hi[meets], gend[zlo]])
    s0 = s0[meets]
    moved = np.arange(len(lo)) < len(s0)
    # Per line: first touch, first write, last write and last touch in
    # the copies, as chain position and copy (``w1``, ``w2`` -1: none).
    w1, w2 = nextw[lo], prevw[hi]
    w1, w2 = np.where(w1 <= hi, w1, -1), np.where(w2 >= lo, w2, -1)

    def copy_of(at, still):
        """The copy of chain positions ``at``; a D = 0 line's is ``still``."""
        out = np.full(len(lo), still, dtype=np.int64)
        out[: len(s0)] = s0 + o[np.maximum(at[: len(s0)], 0)]
        return out

    r0, r1, r2, r3 = copy_of(lo, 1), copy_of(w1, 1), copy_of(w2, copies), copy_of(hi, copies)
    # Each is kept unless it is the access before it.  The last touch
    # follows the last write, or the first touch if none.
    keep1 = (w1 >= 0) & ((w1 != lo) | (r1 != r0))
    keep2 = (w2 >= 0) & ((w2 != w1) | (r2 != r1))
    bp, br = np.where(w2 >= 0, w2, lo), np.where(w2 >= 0, r2, r0)
    keep3 = (hi != bp) | (r3 != br)
    # A phantom carries the maximum over its chain since its line's
    # previous kept access: across copies of a D = 0 line, the whole chain.
    within2 = moved | (r2 == r1)
    within3 = moved | (r3 == br)
    pos = np.concatenate([lo, w1[keep1], w2[keep2], hi[keep3]])
    row = np.concatenate([r0, r1[keep1], r2[keep2], r3[keep3]])
    span_lo = np.concatenate(
        [lo + 1, (lo + 1)[keep1], np.where(within2, w1 + 1, gstart[lo])[keep2], np.where(within3, bp + 1, gstart[lo])[keep3]]
    )
    span_hi = np.concatenate([lo, w1[keep1], np.where(within2, w2, gend[lo])[keep2], np.where(within3, hi, gend[lo])[keep3]])
    counted = np.zeros(len(pos), dtype=bool)
    counted[: len(lo)] = True
    marked = np.concatenate([w1 == lo, keep1[keep1], np.zeros(int(keep2.sum() + keep3.sum()), dtype=bool)])
    u = q[pos]
    order = np.argsort(row * n + u)
    # Many phantoms share a span (a chain's copies do).
    spans, span = np.unique((span_lo * n + span_hi)[order], return_inverse=True)
    return _Copies(
        row[order],
        u[order],
        counted[order],
        marked[order],
        span,
        q,
        spans // n,
        spans % n,
        weight,
        mark_weight,
    )


def _views(part: Rows, level: int) -> list[Rows]:
    """``part``'s rows of one level, one single-level :class:`Rows` per
    iteration of the levels above it: its row is the inner levels' rows
    from its first iteration on, flattened, and its step the level's,
    tiled over them."""
    trips, inner = list(part.trips), part.sizes[level]
    trips[level] = 1
    firsts = Rows(part.base, part.writes, part.steps, trips)
    bases = firsts.read(0, len(firsts))[0].reshape(-1, inner * part.width)
    step, writes = np.tile(part.steps[level], inner), np.tile(part.writes, inner)
    return [Rows(base, writes, [step], [part.trips[level]]) for base in bases]


def _level_floor(part: Rows, level: int, shift: int) -> int:
    """Fewest accesses the folds of a level's views can keep: a super-row
    of lead-in and the template each, of at least the period of the
    columns too fast to be frozen."""
    line, step, trip = 1 << shift, part.steps[level], part.trips[level]
    offset = step % line
    fast = (np.abs(step) >= line) | (np.abs(step) * (trip - 1) >= (MAX_CROSSINGS + 1) * line)
    moving = offset[(offset != 0) & fast]
    period = line // int((moving & -moving).min(initial=line))
    width = part.width * part.sizes[level]
    if trip // period < 4 or period * width > MAX_SUPER_ROW:
        return len(part)
    return min(len(part), len(part) * 2 * period // trip)


def plan_folds(stream: LazyStream, shift: int) -> list[tuple[Part, _PartPlan | None]]:
    """The stream's pieces, each with its folds by checks (a)-(c) (None:
    profiled whole).  A :class:`Rows` part is planned level by level, in
    order of the fewest accesses a level's folds could keep, while that
    beats the best so far; its pieces are the views of the level that
    keeps the fewest, or the part itself when no level folds."""
    pieces = []
    memo: dict = {}
    for part in stream.parts:
        best: list = [(part, None)]
        if isinstance(part, Rows):
            kept = len(part) + 1  # unfolded: worse than a fold that keeps all
            for least, level in sorted((_level_floor(part, j, shift), j) for j in range(len(part.trips))):
                if least >= min(kept, len(part)):
                    break
                views = _views(part, level)
                # Views of one level are alike: the first one's folds
                # stand for the others' until they are planned.
                plans = [_plan_part(views[0], shift, memo, -(-kept // len(views)))]
                if plans[0] is None or _kept(views[0], plans[0]) * len(views) >= kept:
                    continue
                plans += [_plan_part(view, shift, memo) for view in views[1:]]
                total = sum(_kept(*piece) for piece in zip(views, plans))
                if total < kept:
                    kept, best = total, list(zip(views, plans))
        pieces.extend(best)
    return pieces


def reduce(stream: LazyStream, shift: int) -> tuple[np.ndarray, np.ndarray, Folds | None]:
    """The reduced stream (addresses, write flags) and its folds: each
    part's kept rows and, in stream order, the kept accesses of the
    copies its folds excise."""
    pieces = []  # (part, first access, stop access) or (part, rows, columns)
    folds = []  # (template's first position, kept's first position, kept)
    pos = 0
    for part, plan in plan_folds(stream, shift):
        if plan is None:
            pieces.append((part, 0, part_len(part)))
            pos += part_len(part)
            continue
        width, row = part.width, 0
        for s in plan.stretches:
            stop = s.template + s.period
            pieces.append((part, row * width, stop * width))
            pos += (stop - row) * width
            kept = s.kept
            pieces.append((part, s.template + kept.copy * s.period + kept.at // width, kept.at % width))
            folds.append((pos - s.period * width, pos, kept))
            pos += len(kept.at)
            row = stop + s.copies * s.period
        pieces.append((part, row * width, len(part)))
        pos += len(part) - row * width
    addrs = np.empty(pos, dtype=np.int64)
    writes = np.empty(pos, dtype=np.bool_)
    at = 0
    for part, a, b in pieces:
        if not isinstance(part, Rows):
            n = len(part[0])
            addrs[at : at + n], writes[at : at + n] = part
        elif isinstance(a, np.ndarray):
            n = len(a)
            np.multiply(a, part.steps[0][b], out=addrs[at : at + n])
            addrs[at : at + n] += part.base[b]
            writes[at : at + n] = part.writes[b]
        else:
            n = b - a
            part.read_into(a, b, addrs[at : at + n], writes[at : at + n])
        at += n
    return addrs, writes, _gather(folds) if folds else None


def _gather(folds: list) -> Folds:
    """One :class:`Folds` from each fold's template and kept positions
    and kept accesses."""
    cat = np.concatenate
    chain_at = np.cumsum([0] + [len(c.chain) for _, _, c in folds[:-1]])
    span_at = np.cumsum([0] + [len(c.span_lo) for _, _, c in folds[:-1]])
    return Folds(
        cat([lo + np.arange(len(c.weight)) for lo, _, c in folds]),
        cat([c.weight for _, _, c in folds]),
        cat([c.mark_weight for _, _, c in folds]),
        cat([at + np.arange(len(c.at)) for _, at, c in folds]),
        cat([c.counted for _, _, c in folds]),
        cat([c.marked for _, _, c in folds]),
        cat([a + c.span for a, (_, _, c) in zip(span_at, folds)]),
        cat([lo + c.chain for lo, _, c in folds]),
        cat([a + c.span_lo for a, (_, _, c) in zip(chain_at, folds)]),
        cat([a + c.span_hi for a, (_, _, c) in zip(chain_at, folds)]),
    )
