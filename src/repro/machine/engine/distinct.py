"""Vectorized offline reuse-distance machinery.

The stack-distance engine needs, for every access *i* of a trace, the
number of **distinct** lines touched strictly between the previous access
to the same line and *i* (the *reuse distance* ``delta``).  Mattson's
classic online algorithm maintains an LRU stack (or a Fenwick tree over
last-access flags) and is inherently sequential — a Python loop, which is
exactly what this subsystem exists to remove.

The offline identity used here turns the problem into pure NumPy:

    delta_i = #{ j : p_i < j < i, prev[j] <= p_i }

where ``prev[x]`` is the previous occurrence of the line accessed at
position *x* (``-1`` for a cold access) and ``p_i = prev[i]``.  A position
``j`` in the window counts exactly when it is the *first* occurrence of
its line inside the window.  Because every ``j <= p_i`` trivially has
``prev[j] < j <= p_i``, the window count simplifies to a *prefix* count:

    delta_i = #{ j < i : prev[j] <= prev[i] } - prev[i] - 1

i.e. "how many earlier positions have a previous-occurrence no later than
mine" — the number of non-inversions of the ``prev`` array.  That is
computed for all *i* simultaneously by a bottom-up merge sort where each
level counts left-block/right-block pairs with flat ``searchsorted``
calls (O(n log^2 n) total, all vectorized).

The merge sort never pads.  ``n`` is cut by its binary decomposition: a
head of ``n mod 32`` positions counted by brute force, then one
power-of-two block per remaining set bit of ``n``.  Pairs inside a
block are counted by the merge sort, and pairs that span blocks against
the sorted prefix of every earlier position.  An input of ``2^k + 1``
accesses thus costs about what ``2^k`` does; padding made it cost
``2^(k+1)``.

**The window split.**  Streaming kernels reuse most lines within a few
accesses (97% of the 2^20-access dmxpy sweep trace reuses a line seen
fewer than 8 accesses earlier), and a short window is cheaper to count
directly than to merge-count.  :func:`reuse_distances` therefore picks a
window threshold ``K`` and splits the positions by their window length
``w_i = i - p_i - 1``.  ``L`` is the set of *long* positions, ``w_j >= K``
(cold accesses included):

* a short window (``w_i < K``) is counted directly: ``delta_i`` is ``w_i``
  minus the *repeats* ``p_i + d`` (``2 <= d <= w_i``) with
  ``prev[p_i + d] > p_i`` — K - 2 vectorized passes, each over the
  windows still open (position ``p_i + 1`` is never a repeat);
* a long window (``i`` in ``L``) is

      delta_i = #{ j in L, j < i, prev[j] <= p_i }
              - #{ j in L, j <= p_i }
              + #{ j not in L, p_i < j < p_i + K, prev[j] <= p_i }

  The first term is the merge count over ``prev[L]`` alone, the second a
  ``searchsorted`` against the positions of ``L``, the third K - 1 direct
  passes.  The third term is bounded because ``j`` outside ``L`` has
  ``prev[j] >= j - K``: with ``prev[j] <= p_i`` that forces
  ``j <= p_i + K``, and ``j = p_i + K`` would need ``prev[j] = p_i``,
  whose next occurrence is ``i`` itself.  Such ``j`` all lie before
  ``i``, since ``i`` in ``L`` has ``p_i + K < i``.

With ``K = 0`` every position is long and the identity is the prefix
count above, so there is one code path.  ``K`` is chosen per trace from
its window histogram (:func:`_window_threshold`): the ``K`` in
``0..64`` minimizing the estimated direct passes over the short windows
and ``K - 1`` passes over each long one, plus ``|L| log2 |L|``
merge-count work, with costs measured on this implementation.
"""

from __future__ import annotations

import numpy as np

#: Sentinel reuse distance for cold (first-ever) accesses.
COLD = np.iinfo(np.int64).max


def previous_occurrences(keys: np.ndarray) -> np.ndarray:
    """For each position, the index of the previous occurrence of the same
    key (``-1`` if none).  Fully vectorized (stable argsort + group edges).
    """
    return _previous_and_order(keys)[0]


def _previous_and_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`previous_occurrences` plus the stable argsort it was built
    from, which groups positions by key in ascending index order; callers
    that group by key next reuse it instead of sorting again."""
    keys = np.ascontiguousarray(keys)
    n = keys.size
    order = np.argsort(keys, kind="stable")  # groups by key, index-ascending
    if n == 0:
        return np.empty(0, dtype=np.int64), order
    sk = keys[order]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = sk[1:] == sk[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    return prev, order


#: Brute-force row width of the merge count (a power of two).
_BASE = 32
#: Positions per piece of a merge level: the level runs one row-aligned
#: piece at a time so every search and scatter stays in a cache-sized range.
_SLICE = 1 << 15
#: Rows per broadcast compare of the base case.
_SLAB_ROWS = 128
#: ``_EARLIER[i, j]``: column j precedes column i within a row.
_EARLIER = np.tri(_BASE, k=-1, dtype=bool)


def count_prior_leq(values: np.ndarray) -> np.ndarray:
    """``out[i] = #{ j < i : values[j] <= values[i] }`` for every *i*.

    Values are first remapped to their rank under ``(value, index)``
    order, which makes them a permutation (distinct) and turns every
    ``<=`` between an earlier and a later position into a strict ``<``.
    The positions are then cut by the binary decomposition of ``n``: a
    head of the ``n mod 32`` leading positions (counted by brute force),
    then one power-of-two block per remaining set bit, in ascending size.
    Nothing is padded, so ``2^k + 1`` elements cost what ``2^k`` do
    rather than what ``2^(k+1)`` do.

    Pairs inside a block are counted by a bottom-up vectorized merge.
    Because blocks ascend in size, the blocks still growing at any merge
    level form a suffix, so one merge pass serves every block.  Each
    level runs as two flat ``searchsorted`` calls instead of a per-row
    sort: adjacent sorted rows are given disjoint value offsets
    (``row * n``) so one flat ``searchsorted`` ranks every right-row
    element among its own left row; a level runs a row-aligned piece of
    :data:`_SLICE` positions at a time.
    Pairs that span blocks are one ``searchsorted`` of each block's
    sorted ranks against the sorted ranks of every earlier position, a
    prefix kept sorted by a linear merge of two sorted runs.  Each
    (j, i) pair is counted once.
    """
    v = np.ascontiguousarray(values, dtype=np.int64)
    n = v.size
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    dtype = np.int32 if n < 2**31 else np.int64
    order = np.argsort(v, kind="stable")
    rank = np.empty(n, dtype=dtype)
    rank[order] = np.arange(n, dtype=dtype)

    out = np.empty(n, dtype=np.int64)
    head = n % _BASE
    if head:
        h = rank[:head]
        pairs = (h[None, :] < h[:, None]) & _EARLIER[:head, :head]
        out[:head] = pairs.sum(axis=1)
    m = n - head
    if not m:
        return out

    # Base case: all-pairs counts inside rows of `_BASE`, one broadcast
    # compare per slab of rows (over all rows at once it would materialize
    # an n*_BASE temporary).  Ranks are distinct, so the per-row argsort
    # needs no stability.
    rows = rank[head:].reshape(-1, _BASE)
    counts = np.empty_like(rows)
    for a in range(0, len(rows), _SLAB_ROWS):
        slab = rows[a : a + _SLAB_ROWS]
        pairs = (slab[:, None, :] < slab[:, :, None]) & _EARLIER
        counts[a : a + _SLAB_ROWS] = pairs.sum(axis=2, dtype=dtype)
    horder = np.argsort(rows, axis=1)
    vals = np.take_along_axis(rows, horder, axis=1).reshape(-1)
    counts = np.take_along_axis(counts, horder, axis=1).reshape(-1)

    # Merge levels.  `lo` is where the blocks still growing begin: once
    # rows are `width` long, the block of `width` positions (if any) is
    # done and drops out of the suffix.  Done blocks (together no longer
    # than the next row) are carried into each level's fresh output.
    width, lo = _BASE, 0
    while True:
        if m & width:
            lo += width
        if lo == m:
            break
        merged_v, merged_c = np.empty_like(vals), np.empty_like(counts)
        merged_v[:lo] = vals[:lo]
        merged_c[:lo] = counts[:lo]
        step = max(2 * width, _SLICE)
        for a in range(lo, m, step):
            cut = slice(a, a + step)
            _merge_level(vals[cut], counts[cut], width, n, merged_v[cut], merged_c[cut])
        vals, counts = merged_v, merged_c
        width *= 2

    # Pairs across blocks: count every block's ranks against the sorted
    # ranks of all earlier positions.
    prefix = np.sort(rank[:head])
    total = counts.astype(np.int64)
    start, width = 0, _BASE
    while start < m:
        if m & width:
            block = vals[start : start + width]
            if prefix.size:
                total[start : start + width] += np.searchsorted(prefix, block)
            start += width
            if start < m:
                # Two sorted runs: a stable sort is one linear merge.
                prefix = np.sort(np.concatenate([prefix, block]), kind="stable")
        width *= 2
    # Rank k is the original position order[k].
    out[order[vals]] = total
    return out


def _merge_level(
    vals: np.ndarray,
    counts: np.ndarray,
    width: int,
    span: int,
    out_vals: np.ndarray,
    out_counts: np.ndarray,
) -> None:
    """Merge sibling rows of ``width`` sorted, distinct values below
    ``span`` into rows of ``2 * width`` of ``out_vals``; right elements
    gain their count of smaller left-row values in ``out_counts``."""
    dtype = counts.dtype
    vals = vals.reshape(-1, 2 * width)
    counts = counts.reshape(-1, 2 * width)
    nrows = vals.shape[0]
    left, right = vals[:, :width], vals[:, width:]
    # Offsetting each row by `row * span` keeps the concatenation of all
    # (sorted) left rows globally sorted, so one flat searchsorted ranks
    # every right element among its own left row — and vice versa — with
    # no per-row sort at all.
    row_off = (np.arange(nrows, dtype=np.int64) * span)[:, None]
    left_flat = (left + row_off).ravel()
    right_flat = (right + row_off).ravel()
    block_base = (np.arange(nrows, dtype=np.int64) * width)[:, None]
    in_left = np.searchsorted(left_flat, right_flat).reshape(nrows, width)
    in_left -= block_base  # smaller-left count per right element
    in_right = np.searchsorted(right_flat, left_flat).reshape(nrows, width)
    in_right -= block_base  # smaller-right count per left element
    # Merged position = index within own row + elements of the sibling
    # row that sort before (ranks are distinct, so no ties).
    cols = np.arange(width, dtype=np.int64)[None, :]
    row_base = (np.arange(nrows, dtype=np.int64) * 2 * width)[:, None]
    pos_left = (cols + in_right + row_base).ravel()
    pos_right = (cols + in_left + row_base).ravel()
    out_vals[pos_left] = left.ravel()
    out_counts[pos_left] = counts[:, :width].ravel()
    out_vals[pos_right] = right.ravel()
    out_counts[pos_right] = counts[:, width:].ravel() + in_left.astype(dtype).ravel()


def reuse_distances(keys: np.ndarray, prev: np.ndarray | None = None) -> np.ndarray:
    """Per-access LRU reuse distances of a key stream.

    ``out[i]`` is the number of distinct keys accessed strictly between the
    previous occurrence of ``keys[i]`` and position *i*; :data:`COLD` for
    first-ever accesses.  An access to a fully-associative LRU cache of
    capacity ``C`` hits iff ``out[i] < C``.
    """
    if prev is None:
        prev = previous_occurrences(keys)
    window = _windows(prev)
    return _split_distances(prev, window, _window_threshold(window))


def _windows(prev: np.ndarray) -> np.ndarray:
    """Accesses strictly between each position and its previous
    occurrence; :data:`COLD` for first-ever accesses."""
    window = np.arange(prev.size, dtype=np.int64) - prev - 1
    window[prev < 0] = COLD
    return window


#: Largest window threshold :func:`_window_threshold` considers.
_MAX_K = 64
#: Costs of the split's parts, in gathers of a long-window pass (a few
#: ns), fitted to timings of :func:`_split_distances` on streaming,
#: random and Zipf traces of 2^15 to 2^20 accesses at K from 0 to 64:
#: a gather of a short-window pass (the windows are sorted, so it walks
#: memory in order), the sort and scatter of one short window, and the
#: merge count per position and ``log2`` of its size (the levels are
#: vectorized, so its time grows like ``log2``, not its square).  Repeat
#: fits scatter by up to 2x; halving or doubling any of them leaves K
#: unchanged on the 2^16- to 2^20-access sweep traces.
_SHORT_PASS_COST = 0.33
_SHORT_COST = 10.0
_MERGE_COST = 4.5


def _window_threshold(window: np.ndarray) -> int:
    """The window threshold K with the cheapest estimated split: direct
    passes over the short windows and K - 1 passes over every long one,
    plus the merge count over the long ones (see the module docstring)."""
    hist = np.bincount(np.minimum(window, _MAX_K), minlength=_MAX_K + 1)
    k = np.arange(_MAX_K + 1)
    # Long windows at threshold k: #{window >= k}, cold accesses included.
    n_long = hist.sum() - np.concatenate([[0], np.cumsum(hist[:-1])])
    # A short window w takes w - 1 passes (the first position of a window
    # is never a repeat); those with w >= 2 also pay the sort.  A warm
    # long window takes k - 1 passes.
    short_passes = np.concatenate([[0], np.cumsum(np.maximum(k - 1, 0) * hist)[:-1]])
    sorted_short = np.concatenate([[0], np.cumsum(np.where(k >= 2, hist, 0))[:-1]])
    warm_long = n_long - int((window == COLD).sum())
    merge = n_long * np.log2(np.maximum(n_long, 2))
    cost = (
        _SHORT_PASS_COST * short_passes
        + _SHORT_COST * sorted_short
        + np.maximum(k - 1, 0) * warm_long
        + _MERGE_COST * merge
    )
    return int(np.argmin(cost))


def _split_distances(prev: np.ndarray, window: np.ndarray, k: int) -> np.ndarray:
    """Reuse distances with windows shorter than ``k`` counted directly and
    the rest by the merge count (the split identity of the module
    docstring); exact for every ``k >= 0``."""
    n = prev.size
    delta = window.copy()  # cold positions are COLD already
    # Short windows: delta = w - repeats, where a repeat is a position
    # p + d (2 <= d <= w) whose line was already seen after p.  Sorting by
    # w makes the windows still open at pass d a suffix.
    short = np.flatnonzero((window >= 2) & (window < k))
    if short.size:
        # w < k <= _MAX_K, so a 16-bit key: a radix sort.
        short = short[np.argsort(window[short].astype(np.int16), kind="stable")]
        p, w = prev[short], window[short]
        repeats = np.zeros(short.size, dtype=np.int64)
        for d in range(2, k):
            a = int(np.searchsorted(w, d))
            if a == short.size:
                break
            pa = p[a:]
            repeats[a:] += prev[d:][pa] > pa  # prev[pa + d], without the add
        delta[short] -= repeats
    # Long windows (cold included): the merge count over L alone, minus
    # the positions of L up to p, plus the positions outside L before
    # p + k that are first occurrences in the window.
    long = np.flatnonzero(window >= k)
    p = prev[long]
    prior = count_prior_leq(p)
    warm = p >= 0
    at, p = long[warm], p[warm]
    counts = prior[warm] - np.searchsorted(long, p, side="right")
    if k > 1:
        outside = np.where(window >= k, n, prev)  # positions of L never count
        for d in range(1, k):
            counts += outside[d:][p] <= p
    delta[at] = counts
    return delta
