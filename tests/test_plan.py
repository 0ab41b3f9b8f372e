"""The sweep query planner: shared-work batches must be bit-identical.

Every collapse rule — capacity profiles, trace sharing through the
level trie, prefix memoization, cache hits, per-point fallback — is
checked against pointwise ``execute`` on the same requests, counter for
counter.  The all-capacity :class:`StackProfile` is property-tested
against the reference cache, and the multi-chain :class:`Hierarchy` the
trie rule rides on is checked chain by chain against one-chain
hierarchies of reference caches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interp.executor import execute
from repro.machine.cache import Cache, CacheGeometry
from repro.machine.engine.simcache import SimulationCache
from repro.machine.engine import make_cache, miss_curve, stackfold
from repro.machine.engine.stack import StackProfile, stack_profile
from repro.machine.hierarchy import Hierarchy
from repro.machine.layout import LayoutPolicy
from repro.machine.spec import CacheLevelSpec, MachineSpec
from repro.options import override_options, use_options
from repro.trace.events import LazyStream, Rows, Trace
from repro.trace.generator import TraceGenerator
from repro.experiments.plan import (
    SimRequest,
    collect_plan_telemetry,
    execute_plan,
    request_key,
    run_batch,
    summarize_plan,
)

from .helpers import simple_stream_program, two_loop_chain

LINE = 32
LAYOUT = LayoutPolicy(alignment=32, pad_bytes=32)


def fa_machine(lines: int, name: str | None = None, line: int = LINE) -> MachineSpec:
    """Single-level fully-associative machine of ``lines`` lines."""
    return MachineSpec(
        name=name or f"fa{lines}",
        peak_flops=1e9,
        register_bandwidth=8e9,
        cache_levels=(
            CacheLevelSpec(
                name="C",
                geometry=CacheGeometry(lines * line, line, lines),
                downstream_bandwidth=1e9,
                downstream_latency=1e-7,
            ),
        ),
        default_layout=LAYOUT,
    )


def two_level_machine(name: str, l2_lines: int, l1_geom=(1024, 32, 2)) -> MachineSpec:
    """Two-level machine; every instance shares the same L1 geometry."""
    return MachineSpec(
        name=name,
        peak_flops=1e9,
        register_bandwidth=8e9,
        cache_levels=(
            CacheLevelSpec(
                name="L1",
                geometry=CacheGeometry(*l1_geom),
                downstream_bandwidth=4e9,
                downstream_latency=5e-8,
            ),
            CacheLevelSpec(
                name="L2",
                geometry=CacheGeometry(l2_lines * 64, 64, 4),
                downstream_bandwidth=1e9,
                downstream_latency=3e-7,
            ),
        ),
        default_layout=LAYOUT,
    )


def assert_same_run(a, b) -> None:
    """Bit-identical counters and timing-model outputs."""
    assert a.program == b.program
    assert a.counters.graduated_flops == b.counters.graduated_flops
    assert a.counters.loads == b.counters.loads
    assert a.counters.stores == b.counters.stores
    assert a.counters.downstream_bytes == b.counters.downstream_bytes
    assert len(a.counters.level_stats) == len(b.counters.level_stats)
    for sa, sb in zip(a.counters.level_stats, b.counters.level_stats):
        assert vars(sa) == vars(sb)
    assert a.seconds == b.seconds
    assert a.latency_time == b.latency_time
    assert a.overlap4_time == b.overlap4_time


def running(**options):
    """The given execution options (``None`` = unchanged) for a block."""
    return use_options(override_options(**options))


def pointwise(requests, **options):
    with running(**options):
        return [
            execute(
                r.program,
                r.machine,
                params=r.params,
                layout_policy=r.layout_policy,
                passes=r.passes,
                warmup_passes=r.warmup_passes,
                flush=r.flush,
                validate=r.validate,
                sim_cache=False,
            )
            for r in requests
        ]


# -- the all-capacity counter profile -----------------------------------------
class TestStackProfile:
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 60), st.booleans()), min_size=0, max_size=250
        ),
        capacity=st.sampled_from([1, 2, 3, 7, 16, 64]),
        flush=st.booleans(),
    )
    @settings(max_examples=60)
    def test_matches_reference_cache_at_any_capacity(self, data, capacity, flush):
        addrs = np.array([line * LINE for line, _ in data], dtype=np.int64)
        writes = np.array([w for _, w in data], dtype=bool)
        profile = stack_profile(addrs, writes, LINE)
        ref = Cache("L", CacheGeometry(capacity * LINE, LINE, capacity))
        if len(addrs):
            ref.run(addrs, writes)
        if flush:
            ref.flush()
        got = profile.stats(capacity, flush=flush)
        assert vars(got) == vars(ref.stats)

    def test_empty_trace_profile(self):
        profile = stack_profile(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), LINE
        )
        for capacity in (1, 8):
            stats = profile.stats(capacity)
            assert stats.accesses == 0 and stats.events_out == 0

    def test_rejects_bad_line_size(self):
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            stack_profile(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=bool), 48)

    def test_stats_for_size(self):
        addrs = (np.arange(100, dtype=np.int64) % 7) * LINE
        writes = np.zeros(100, dtype=bool)
        profile = stack_profile(addrs, writes, LINE)
        assert vars(profile.stats_for_size(4 * LINE)) == vars(profile.stats(4))
        assert isinstance(profile, StackProfile)


# -- folded profiles of lazy streams ------------------------------------------
#: Byte distance between the address regions of a random stream's parts.
REGION = 1 << 20


def _lazy_stream(spec) -> LazyStream:
    """A stream from plain descriptors: ``("rows", bases, steps, writes,
    trip)`` (a loop nest when ``trip`` is a list of trips and ``steps``
    one list per level) or ``("array", addresses, writes)``."""
    parts = []
    for kind, *fields in spec:
        if kind == "rows":
            base, step, writes, trip = fields
            steps, trips = (step, trip) if isinstance(trip, list) else ([step], [trip])
            parts.append(
                Rows(
                    np.array(base, dtype=np.int64),
                    np.array(writes, dtype=bool),
                    [np.array(s, dtype=np.int64) for s in steps],
                    trips,
                )
            )
        else:
            addrs, writes = fields
            parts.append((np.array(addrs, dtype=np.int64), np.array(writes, dtype=bool)))
    return LazyStream(parts)


@st.composite
def lazy_specs(draw):
    """Rows parts with zero, sub-line and whole-line steps, some of them
    loops of loops (dmxpy's rows), over an earlier part's address region
    or their own (fft's stages share theirs), and array parts before,
    between and after them that read a region's lines."""
    line = 1 << draw(st.integers(3, 8))
    n_rows = draw(st.integers(1, 3))
    spec = []
    for k in range(n_rows):
        region = draw(st.integers(0, k))
        width = draw(st.integers(1, 4))
        trip = draw(st.integers(4, 60))
        steps, bases = [], []
        for _ in range(width):
            kind = draw(st.sampled_from(["zero", "sub", "line", "bytes"]))
            if kind == "zero":
                step = 0
            elif kind == "sub":
                step = 8 * draw(st.integers(1, max(1, line // 8 - 1))) * draw(st.sampled_from([1, -1]))
            elif kind == "line":
                step = line * draw(st.integers(-3, 3))
            else:
                step = 8 * draw(st.integers(1, 3 * line // 8))
            steps.append(step)
            bases.append(region * REGION + REGION // 2 + 8 * draw(st.integers(0, 4 * line)))
        writes = [draw(st.booleans()) for _ in range(width)]
        # A nest whose rows are `reps` inner iterations, each column
        # moving by its own step per iteration.
        reps = draw(st.sampled_from([1, 1, 8, 24]))
        if reps > 1:
            inner = [draw(st.sampled_from([0, 8, line, -line, 2 * line])) for _ in range(width)]
            spec.append(("rows", bases, [steps, inner], writes, [trip, reps]))
        else:
            spec.append(("rows", bases, steps, writes, trip))
    for _ in range(draw(st.integers(0, 3))):
        region = draw(st.integers(0, n_rows))
        size = draw(st.integers(1, 20))
        addrs = [
            region * REGION + REGION // 2 + 8 * draw(st.integers(0, 60 * line // 8))
            for _ in range(size)
        ]
        spec.insert(
            draw(st.integers(0, len(spec))),
            ("array", addrs, [draw(st.booleans()) for _ in range(size)]),
        )
    return line, spec


def _profiled(stream: LazyStream, line: int) -> int:
    """Accesses the folded profile of a stream takes the exact pass over."""
    return len(stackfold.reduce(stream, line.bit_length() - 1)[0])


def _dmxpy_rows(n_in: int, trip: int) -> tuple:
    """dmxpy's loop nest at a small size: row j reads and writes y[i] and
    reads x[j] and column j of m, for i < n_in (8 B elements)."""
    y, x, m = 0, 2048 + 32, 4096
    steps = [[0, 8, 8 * n_in, 0], [8, 0, 8, 8]]
    return ("rows", [y, x, m, y], steps, [False, False, False, True], [trip, n_in])


def _butterfly(half: int, trip: int, line: int = 32, offset: int = 8, writes=(0, 0, 0, 0, 1, 1), still=True) -> tuple:
    """fft's butterfly rows at a small size: row j reads re[j], re[j +
    half], im[j] and im[j + half] and writes the im pair (8 B elements),
    and (``still``) reads one fixed word, a line in use all along.
    ``im`` sits ``offset`` bytes off a line, so its halves share one."""
    re, im = 1 << 16, (1 << 15) + offset
    bases = [re, re + 8 * half, im, im + 8 * half, im + 8 * half, im] + [1 << 14] * still
    flags = [bool(w) for w in writes] + [False] * still
    return ("rows", bases, [8] * 6 + [0] * still, flags, trip)


@st.composite
def butterfly_specs(draw):
    """Butterfly parts (:func:`_butterfly`) over random lines, halves,
    trips, offsets and write flags, with array parts that touch their
    lines before or after them."""
    line = draw(st.sampled_from([16, 32, 64, 128]))
    half = line // 8 * draw(st.integers(2, 12)) + draw(st.sampled_from([0, 0, 1, 3]))
    trip = draw(st.integers(half, 3 * half))
    offset = 8 * draw(st.integers(0, line // 8 - 1))
    writes = draw(st.lists(st.booleans(), min_size=6, max_size=6))
    spec = [_butterfly(half, trip, line, offset, writes, draw(st.booleans()))]
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.integers(1, 6))
        base = draw(st.sampled_from([1 << 16, (1 << 15) + offset]))
        addrs = [base + 8 * draw(st.integers(0, 4 * half)) for _ in range(n)]
        at = draw(st.integers(0, len(spec)))
        spec.insert(at, ("array", addrs, [draw(st.booleans()) for _ in range(n)]))
    return line, spec


class TestFoldedStackProfile:
    """``stack_profile`` of a lazy stream folds certified stretches; every
    field and every derived ``CacheStats`` must equal the full pass's."""

    @staticmethod
    def check(line, spec, folds=0):
        """The lazy profile equals the full pass's, and at least ``folds``
        stretches were folded."""
        addrs, writes = _lazy_stream(spec).arrays()
        full = stack_profile(addrs, writes, line)
        stream = _lazy_stream(spec)
        lazy = stack_profile(stream, None, line)
        assert stream._joined is None
        assert lazy == full
        for capacity in range(0, full.distinct + 3):
            for flush in (True, False):
                assert vars(lazy.stats(capacity, flush)) == vars(full.stats(capacity, flush))
        pieces = stackfold.plan_folds(stream, line.bit_length() - 1)
        assert sum(len(plan.stretches) for _, plan in pieces if plan is not None) >= folds
        return pieces

    @given(case=lazy_specs())
    # dmxpy's x[j]: an 8 B step over 128 B lines crosses once, at row 12.
    @example(case=(128, [("rows", [0, 4096 + 32, 8192], [0, 8, 1024], [True, False, False], 16)], 2))
    # Lines live three rows: one column rereads the line another wrote
    # three rows before (or writes the line it read), so the template sits
    # three rows in.
    @example(case=(32, [("rows", [0, 96], [32, 32], [False, True], 30)], 1))
    @example(case=(32, [("rows", [96, 0], [32, 32], [True, False], 30)], 1))
    # A sub-line period: every column moves one 64 B line per 8 rows.
    @example(case=(64, [("rows", [0, 8, 4096], [8, 8, 8], [False, False, True], 120)], 1))
    # Two columns whose lines lie n - 1 or n super-rows apart: no two
    # copies realize the link, so both fold.
    @example(case=(32, [("rows", [0, 9 * 32], [32, 32], [True, False], 10)], 1))
    @example(case=(32, [("rows", [0, 10 * 32], [32, 32], [True, False], 10)], 1))
    # fft's butterfly halves share a line n - 1 super-rows apart (a long
    # link, cut), or, in a part of twice the trip, a link two copies
    # could realize (chained).
    @example(case=(32, [_butterfly(40, 40)], 1))
    @example(case=(32, [_butterfly(40, 80)], 1))
    # FFT's next stage rereads lines the stage before it touched.
    @example(
        case=(
            32,
            [
                ("rows", [0, 8, 2048], [16, 16, 0], [False, True, False], 40),
                ("rows", [0, 32, 2048], [64, 64, 0], [True, False, False], 10),
            ],
            2,
        )
    )
    # A later part rereads lines from the middle of a folded stretch.
    @example(
        case=(
            32,
            [
                ("rows", [0, 8192], [32, 0], [True, False], 50),
                ("array", [800, 640, 1280, 8192], [False, True, False, False]),
            ],
            1,
        )
    )
    # FFT's stage 9 into stage 10: an array part rereads every line of a
    # folded part, its middle included, and writes some of them.
    @example(
        case=(
            32,
            [
                ("rows", [0, 8, 8192], [32, 32, 0], [False, True, False], 40),
                ("array", [32 * i + 8 * (i % 3) for i in range(40)], [i % 4 == 0 for i in range(40)]),
            ],
            1,
        )
    )
    # dmxpy's rows are loops of their own that reread one shared y range.
    @example(case=(128, [_dmxpy_rows(128, 6)], 6))
    # A three-level nest folds at its middle level: one view per outer
    # iteration, each row the inner level's rows flattened.
    @example(case=(32, [("rows", [0, 8192, 1 << 14], [[4096, 0, 0], [32, 32, 0], [8, 0, 0]], [True, False, False], [3, 20, 4])], 3))
    # A shared line written in the excised middle, read before the fold
    # and written again after it.
    @example(
        case=(
            32,
            [
                ("array", [32 * 20, 32 * 21 + 8, 32 * 5], [False, False, True]),
                ("rows", [0, 8, 4096], [32, 32, 0], [False, True, False], 40),
                ("array", [32 * 20 + 16, 32 * 21, 32 * 22], [True, False, True]),
            ],
            1,
        )
    )
    # Accesses before and after a folded part reuse one line across it.
    @example(
        case=(
            32,
            [
                ("array", [REGION, REGION + 64], [True, False]),
                ("rows", [0, 8, 4096], [32, 32, 0], [False, True, False], 40),
                ("array", [REGION + 64, REGION], [False, True]),
            ],
            1,
        )
    )
    # dmxpy's x[j] crosses into a line an earlier part touched.
    @example(
        case=(
            128,
            [
                ("array", [4096 + 136, 0], [False, True]),
                ("rows", [0, 4096 + 32, 8192], [0, 8, 1024], [True, False, False], 16),
            ],
            2,
        )
    )
    # Two step classes whose line ranges meet: a fixed column inside the
    # range another one sweeps.
    @example(case=(32, [("rows", [0, 320, 4096], [32, 0, 0], [True, False, False], 30)], 0))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_pass(self, case):
        self.check(*case)

    def test_dmxpy_crossing_folds_both_stretches(self):
        line = 128
        spec = [("rows", [0, 4096 + 32, 8192], [0, 8, 1024], [True, False, False], 16)]
        ((_, plan),) = stackfold.plan_folds(_lazy_stream(spec), line.bit_length() - 1)
        # Cut at x's crossing; each stretch keeps a lead-in and the
        # template, and the second, not starting at row 0, a tail.
        assert [(s.template, s.end, s.copies) for s in plan.stretches] == [(1, 12, 10), (13, 16, 1)]
        self.check(line, spec)

    @staticmethod
    def _stretches(line, spec):
        ((_, plan),) = stackfold.plan_folds(_lazy_stream(spec), line.bit_length() - 1)
        return None if plan is None else [(s.template, s.copies) for s in plan.stretches]

    def test_links_no_two_copies_realize_are_cut(self):
        """Lines n - 1 or n super-rows apart (n = trip // period) are
        touched through both only by the lead-in and the tail, never by
        two of the at most n - 2 copies, which lie at most n - 3 apart;
        so their link is cut, and the part folds as if they never met.
        fft's ``im`` halves share one line n - 1 super-rows apart."""
        for gap in (9, 10):
            spec = [("rows", [0, gap * 32], [32, 32], [True, False], 10)]
            assert self._stretches(32, spec) == [(1, 8)]
            self.check(32, spec, 1)
        # A period of 4 rows, 10 super-rows: one lead-in super-row (im's
        # line pairs live one super-row), the template, 8 copies.
        assert self._stretches(32, [_butterfly(40, 40)]) == [(4, 8)]
        self.check(32, [_butterfly(40, 40)], 1)

    def test_links_two_copies_realize_stay_chained(self):
        """The same halves in a part of twice the trip: their shared
        lines lie 9 super-rows apart, fewer than the 18 copies a
        one-super-row lead-in leaves, two of which would touch one line
        through both.  The link stays chained: the template waits out
        the chain's 11 super-rows, and 8 copies follow it."""
        assert self._stretches(32, [_butterfly(40, 80)]) == [(44, 8)]
        self.check(32, [_butterfly(40, 80)], 1)

    def test_parts_a_whole_number_of_lines_apart_share_a_plan(self):
        """An outer loop's parts differ only by where their columns'
        lines lie; a part whose clusters of columns each move by whole
        lines, and stay apart, takes the first part's plan, while one
        whose columns come within a link of each other is planned anew
        (its lines chain, so its template waits three super-rows)."""
        line, trip = 32, 30
        bases = [[0, 1 << 16, 1 << 14], [32 * 100, (1 << 16) + 32 * 7, 1 << 14], [0, 3 * 32, 1 << 14]]
        spec = [("rows", b, [32, 32, 0], [True, False, False], trip) for b in bases]
        pieces = self.check(line, spec, 3)
        (_, first), (_, moved), (_, near) = pieces
        assert moved is first
        assert near is not first
        assert [(s.template, s.copies) for s in near.stretches] == [(3, 26)]

    def test_views_of_one_level_share_a_plan_only_where_it_holds(self):
        """A nest's inner-level views differ by where the outer level's
        step moves their columns.  The second view's columns each move by
        whole lines and stay apart, so it takes the first view's plan;
        the third's come within a link of each other and it is planned
        anew (its template waits three super-rows)."""
        steps = [[0, -1 << 15, 0], [32, 32, 0]]
        spec = [("rows", [0, 96 + (1 << 16), 1 << 14], steps, [True, False, False], [3, 30])]
        pieces = self.check(32, spec, 3)
        (_, first), (_, moved), (_, near) = pieces
        assert moved is first
        assert near is not first
        assert [(s.template, s.copies) for s in near.stretches] == [(3, 26)]

    @given(case=butterfly_specs())
    @settings(max_examples=80, deadline=None)
    def test_butterflies_match_full_pass(self, case):
        self.check(*case)

    def test_loops_of_loops_fold_inside(self):
        """A dmxpy-style nest folds at its inner level: one view per row
        of the outer loop, each folded."""
        pieces = self.check(128, [_dmxpy_rows(128, 6)], 6)
        assert len(pieces) == 6 and all(plan is not None for _, plan in pieces)
        assert _profiled(_lazy_stream([_dmxpy_rows(128, 6)]), 128) < 0.5 * 6 * 4 * 128

    def test_miss_curve_reads_lazy_stream(self):
        spec = [("rows", [0, 8, 4096], [8, 8, 8], [False, False, True], 120)]
        addrs, _ = _lazy_stream(spec).arrays()
        stream = _lazy_stream(spec)
        assert miss_curve(stream, 64) == miss_curve(addrs, 64)
        assert stream._joined is None

    @staticmethod
    def _ladder_trace(name: str):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.ladder_capacity import ladder_requests
        from repro.trace.generator import TraceGenerator

        req = next(r for r in ladder_requests(ExperimentConfig()) if r.program.name == name)
        return TraceGenerator(req.program, req.identity.bound, req.identity.layout).generate()

    @staticmethod
    def _peaks(trace, line_size: int) -> tuple[int, int]:
        """The tracemalloc peaks of the lazy and the full profile, which
        must be equal; the stream stays unjoined."""
        import tracemalloc

        tracemalloc.start()
        try:
            lazy = stack_profile(trace.stream, None, line_size)
            _, lazy_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.stream._joined is None
        addrs, writes = trace.stream.arrays()
        tracemalloc.start()
        try:
            full = stack_profile(addrs, writes, line_size)
            _, full_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lazy == full
        return lazy_peak, full_peak

    def test_lazy_dmxpy_profile_leaves_stream_unjoined(self):
        """The ladder's dmxpy on the Origin2000/128 layout: its nest folds
        at the inner level, one view per row of its 16, keeping the first
        and last touches of the lines of `y` and of m's column; the
        profile never joins the stream, and it peaks far below the full
        pass."""
        from repro.experiments.ladder_capacity import LINE_SIZE

        trace = self._ladder_trace("dmxpy")
        assert len(trace.stream.parts) == 1
        pieces = stackfold.plan_folds(trace.stream, LINE_SIZE.bit_length() - 1)
        assert len(pieces) == 16 and all(plan is not None for _, plan in pieces)
        assert _profiled(trace.stream, LINE_SIZE) == 83_872
        lazy_peak, full_peak = self._peaks(trace, LINE_SIZE)
        assert lazy_peak < 0.5 * full_peak, (lazy_peak, full_peak)

    def test_lazy_fft_profile_folds_every_rows_stage(self):
        """The ladder's fft8192 on the Origin2000/128 layout: every stage
        is one lazy part (its stage loop and butterfly loop two levels),
        and every piece folds, although each stage rereads the lines of
        the one before and ``im``'s halves share a line: stages 0-8 at
        their stage loop, stages 9-12 (8, 4, 2 and 1 outer trips) at
        their butterfly loop, one view per outer trip.  The profile keeps
        64,585 of 745,472 accesses and peaks below half the full pass."""
        from repro.experiments.ladder_capacity import LINE_SIZE

        trace = self._ladder_trace("fft8192")
        assert len(trace.stream.parts) == 13
        assert all(isinstance(part, Rows) for part in trace.stream.parts)
        pieces = stackfold.plan_folds(trace.stream, LINE_SIZE.bit_length() - 1)
        assert len(pieces) == 24
        assert all(isinstance(part, Rows) and plan is not None for part, plan in pieces)
        assert _profiled(trace.stream, LINE_SIZE) == 64_585
        lazy_peak, full_peak = self._peaks(trace, LINE_SIZE)
        assert lazy_peak < 0.5 * full_peak, (lazy_peak, full_peak)


# -- the level trie ------------------------------------------------------------
L1_GEOM = CacheGeometry(8 * LINE, LINE, 2)
L2_GEOMS = (CacheGeometry(16 * 64, 64, 1), CacheGeometry(32 * 64, 64, 4))


def _random_trace(seed: int, n: int = 6000) -> Trace:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 4096 // 8, n).astype(np.int64) * 8
    writes = rng.random(n) < 0.3
    return Trace(addrs, writes, 0, int((~writes).sum()), int(writes.sum()))


def _program_trace() -> Trace:
    identity = SimRequest(two_loop_chain("chain", 1024), fa_machine(4)).identity
    return TraceGenerator(
        two_loop_chain("chain", 1024), identity.bound, identity.layout
    ).generate()


def _drive(hierarchy: Hierarchy, trace: Trace, warmup: int, passes: int, flush: bool):
    for _ in range(warmup):
        hierarchy.run_trace(trace.stream, spans=trace.spans)
    if warmup:
        hierarchy.reset_stats()
    for _ in range(passes):
        hierarchy.run_trace(trace.stream, spans=trace.spans)
    if flush:
        hierarchy.flush()


def _reference_chain(geometries, trace: Trace, warmup: int, passes: int, flush: bool):
    """Reference caches driven level by level by hand, no Hierarchy."""
    caches = [Cache(f"L{k}", g) for k, g in enumerate(geometries, 1)]

    def through(addrs, writes, levels):
        for cache in levels:
            addrs, writes = cache.run(addrs, writes)

    for p in range(warmup + passes):
        if p == warmup:
            for cache in caches:
                cache.reset_stats()
        through(trace.addresses, trace.is_write, caches)
    if flush:
        for k, cache in enumerate(caches):
            through(*cache.flush(), caches[k + 1 :])
    return caches


class TestTrieHierarchy:
    """A multi-chain hierarchy over one shared L1: one chain ends at the
    L1, two add a direct-mapped and a 4-way L2.  Every chain must read
    exactly what a one-chain hierarchy of reference caches reads."""

    @pytest.mark.parametrize("flush", [True, False])
    @pytest.mark.parametrize("schedule", [(0, 1), (1, 2)])
    @pytest.mark.parametrize("source", ["random", "program"])
    def test_each_chain_matches_reference_chain(self, flush, schedule, source):
        trace = _random_trace(3) if source == "random" else _program_trace()
        warmup, passes = schedule
        l1 = make_cache("L1", L1_GEOM, last_level=False)
        chains = [[l1]] + [[l1, make_cache("L2", g)] for g in L2_GEOMS]
        trie = Hierarchy.from_chains(chains, chunk_size=777)
        assert len(trie.roots) == 1 and len(trie.caches) == 3
        _drive(trie, trace, warmup, passes, flush)
        for k, geometries in enumerate([(L1_GEOM,)] + [(L1_GEOM, g) for g in L2_GEOMS]):
            want = _reference_chain(geometries, trace, warmup, passes, flush)
            got = trie.result(k)
            assert [vars(st) for st in got.level_stats] == [vars(c.stats) for c in want]
            assert got.downstream_bytes == tuple(
                c.stats.events_out * c.geometry.line_size for c in want
            )
            if flush:
                # Dirty lines drained at both levels of the two-level chains.
                assert all(c.stats.writebacks > 0 for c in want)

    def test_results_are_snapshots(self):
        l1 = make_cache("L1", L1_GEOM, last_level=False)
        trie = Hierarchy.from_chains([[l1], [l1, make_cache("L2", L2_GEOMS[0])]])
        trie.run_trace(_random_trace(5).stream)
        first = trie.result(0)
        trie.run_trace(_random_trace(6).stream)
        assert first.level_stats[0].accesses == 6000
        assert trie.result(1).level_stats[0].accesses == 12000

    def test_rejects_empty_chains_and_misplaced_levels(self):
        l1 = Cache("L1", L1_GEOM)
        with pytest.raises(ValueError):
            Hierarchy.from_chains([])
        with pytest.raises(ValueError):
            Hierarchy.from_chains([[l1], []])
        with pytest.raises(ValueError, match="two places"):
            Hierarchy.from_chains([[l1], [Cache("L0", L1_GEOM), l1]])


# -- planner bit-identity -----------------------------------------------------
class TestExecutePlan:
    def test_empty_batch(self):
        assert execute_plan([]) == []

    def test_capacity_ladder_collapses_to_one_profile(self):
        prog = simple_stream_program("stream", 2048)
        requests = [SimRequest(prog, fa_machine(c)) for c in (1, 4, 16, 64, 256)]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 5
        assert session.groups == 1
        assert session.traces_generated == 1
        # One trace simulated instead of five.
        assert session.accesses_requested == 5 * session.accesses_simulated

    def test_trie_shares_common_l1(self):
        prog = simple_stream_program("stream", 2048)
        requests = [
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, two_level_machine("B", 128)),  # same L1 as A
            SimRequest(prog, two_level_machine("C", 64, l1_geom=(2048, 32, 2))),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["prefix"] == 2  # A and B share their L1
        assert session.by_rule["trace"] == 1  # C shares only the trace
        assert session.traces_generated == 1

    def test_flush_and_no_flush_capacity_groups(self):
        prog = simple_stream_program("stream", 1024)
        for flush in (True, False):
            requests = [
                SimRequest(prog, fa_machine(c), flush=flush) for c in (2, 8, 32)
            ]
            with collect_plan_telemetry() as session:
                planned = execute_plan(requests, sim_cache=False)
            for got, ref in zip(planned, pointwise(requests)):
                assert_same_run(got, ref)
            assert session.by_rule["capacity"] == 3

    def test_warmup_passes_group_uses_trie_not_profile(self):
        prog = simple_stream_program("stream", 1024)
        requests = [
            SimRequest(prog, fa_machine(c), passes=2, warmup_passes=1)
            for c in (4, 16)
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 0
        assert session.by_rule["trace"] + session.by_rule["prefix"] == 2

    def test_singleton_group_falls_back_pointwise(self):
        prog = simple_stream_program("stream", 512)
        requests = [SimRequest(prog, fa_machine(8))]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        assert_same_run(planned[0], pointwise(requests)[0])
        assert session.by_rule["fallback"] == 1
        assert session.fallbacks[0]["reason"] == "no shared work in group"

    def test_mixed_programs_group_independently(self):
        a = simple_stream_program("stream", 1024)
        b = two_loop_chain("chain", 1024)
        requests = [
            SimRequest(a, fa_machine(4)),
            SimRequest(b, fa_machine(4)),
            SimRequest(a, fa_machine(32)),
            SimRequest(b, fa_machine(32)),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.groups == 2
        assert session.by_rule["capacity"] == 4

    def test_stream_options_do_not_change_a_planned_group(self):
        prog = simple_stream_program("stream", 2048)
        requests = [
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, two_level_machine("B", 128)),
        ]
        with collect_plan_telemetry() as default_session:
            default = execute_plan(requests, sim_cache=False)
        with running(stream="overlap", chunk_accesses=500), collect_plan_telemetry() as session:
            streamed = execute_plan(requests, sim_cache=False)
        for got, ref in zip(streamed, default):
            assert_same_run(got, ref)
        assert summarize_plan(session) == summarize_plan(default_session)
        assert session.by_rule["prefix"] == 2

    @pytest.mark.parametrize("options", [{}, {"stream": "overlap", "chunk_accesses": 500}])
    def test_planned_batches_never_chunk(self, options, monkeypatch):
        ladder = simple_stream_program("ladder", 1024)
        shared = two_loop_chain("chain", 1024)
        batch = [SimRequest(ladder, fa_machine(c)) for c in (2, 8, 32)] + [
            SimRequest(shared, two_level_machine("A", 64)),
            SimRequest(shared, two_level_machine("B", 128)),
        ]
        sharded = [
            SimRequest(ladder, two_level_machine("A", 64)),
            SimRequest(ladder, two_level_machine("B", 128)),
        ]
        refs = pointwise(batch), pointwise(sharded, shards=2)

        def no_chunks(self, *args, **kwargs):
            raise AssertionError("a planned group read the trace in chunks")

        monkeypatch.setattr(TraceGenerator, "chunks", no_chunks)
        with running(**options), collect_plan_telemetry() as session:
            planned = execute_plan(batch, sim_cache=False)
            with running(shards=2):
                planned_sharded = execute_plan(sharded, sim_cache=False)
        for got, ref in zip(planned + planned_sharded, refs[0] + refs[1]):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 3
        assert session.by_rule["prefix"] == 2
        assert session.by_rule["trace"] == 2
        assert session.by_rule["fallback"] == 0

    def test_sharded_plan_is_bit_identical(self):
        prog = simple_stream_program("stream", 2048)
        machines = [
            two_level_machine("A", 64),
            two_level_machine("B", 128),
        ]
        requests = [SimRequest(prog, m) for m in machines]
        with running(shards=2), collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        refs = pointwise(requests, shards=2)
        for got, ref in zip(planned, refs):
            assert_same_run(got, ref)
        assert session.by_rule["trace"] == 2  # sharded groups share the trace only

    def test_plan_telemetry_summary_shape(self):
        prog = simple_stream_program("stream", 512)
        with collect_plan_telemetry() as session:
            execute_plan(
                [SimRequest(prog, fa_machine(c)) for c in (2, 8)], sim_cache=False
            )
        summary = summarize_plan(session)
        assert summary["points"] == 2
        assert summary["by_rule"]["capacity"] == 2
        assert summary["accesses_requested"] > 0
        assert summarize_plan(None) == {}


class TestPerPointCapacity:
    """The capacity rule is chosen per point: rungs of a group collapse to
    one profile per line size even when other machines share the trace."""

    RUNGS = (1, 4, 16, 64, 256)

    def test_rungs_collapse_beside_two_level_machines(self):
        prog = two_loop_chain("chain", 1024)
        requests = [SimRequest(prog, fa_machine(c)) for c in self.RUNGS] + [
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, two_level_machine("B", 128)),
            SimRequest(prog, two_level_machine("C", 64, l1_geom=(2048, 32, 2))),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.groups == 1
        assert session.by_rule["capacity"] == len(self.RUNGS)
        assert session.by_rule["prefix"] == 2
        assert session.by_rule["trace"] == 1
        assert session.by_rule["fallback"] == 0
        # The column and the trie each generate the trace once.
        assert session.traces_generated == 2

    def test_two_line_sizes_make_two_capacity_passes(self):
        prog = two_loop_chain("chain", 1024)
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 8, 32)] + [
            SimRequest(prog, fa_machine(c, line=64)) for c in (2, 8, 32)
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 6
        # One trace, one profile pass per line size.
        assert session.traces_generated == 1
        assert session.accesses_requested == 3 * session.accesses_simulated

    def test_lone_point_after_split_is_not_a_fallback(self):
        prog = two_loop_chain("chain", 1024)
        requests = [
            SimRequest(prog, fa_machine(4)),
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, fa_machine(16)),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        summary = summarize_plan(session)
        assert summary["by_rule"]["capacity"] == 2
        assert summary["by_rule"]["trace"] == 1
        # The lone two-level point shared its group's work, so it is not
        # reported as "no shared work"; it runs on a trace of its own.
        assert summary["by_rule"]["fallback"] == 0
        assert summary["fallbacks"] == []
        assert summary["traces_generated"] == 2

    def test_lone_rung_at_its_own_line_size_takes_the_trie(self):
        prog = two_loop_chain("chain", 1024)
        requests = [
            SimRequest(prog, fa_machine(4)),
            SimRequest(prog, fa_machine(16)),
            SimRequest(prog, fa_machine(8, line=64)),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 2
        assert session.by_rule["trace"] == 1
        assert session.fallbacks == []

    def test_mixed_group_under_shards(self):
        prog = two_loop_chain("chain", 1024)
        requests = [SimRequest(prog, fa_machine(c)) for c in self.RUNGS] + [
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, two_level_machine("B", 128)),
        ]
        with running(shards=2), collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests, shards=2)):
            assert_same_run(got, ref)
        # Capacity collapse does not step aside under shards; the rest of
        # the group shares the trace across sharded hierarchies.
        assert session.by_rule["capacity"] == len(self.RUNGS)
        assert session.by_rule["trace"] == 2
        assert session.traces_generated == 2

    POOL = (
        fa_machine(1),
        fa_machine(3),
        fa_machine(16),
        fa_machine(64),
        fa_machine(4, line=64),
        fa_machine(32, line=64),
        two_level_machine("A", 64),
        two_level_machine("B", 128),
        two_level_machine("C", 32, l1_geom=(2048, 32, 2)),
        two_level_machine("D", 64, l1_geom=(512, 32, 1)),
    )

    @given(
        picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=7),
        shards=st.sampled_from([None, 2]),
        flush=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_mix_matches_pointwise(self, picks, shards, flush):
        prog = two_loop_chain("chain", 256)
        requests = [SimRequest(prog, self.POOL[k], flush=flush) for k in picks]
        with running(shards=shards), collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests, shards=shards)):
            assert_same_run(got, ref)
        columns: dict[int, int] = {}
        for r in requests:
            levels = r.machine.cache_levels
            if len(levels) == 1 and levels[0].geometry.n_sets == 1:
                line = levels[0].geometry.line_size
                columns[line] = columns.get(line, 0) + 1
        assert session.by_rule["capacity"] == sum(
            n for n in columns.values() if n > 1
        )
        assert session.points == len(requests)
        expect_fallback = 1 if len(requests) == 1 else 0
        assert session.by_rule["fallback"] == expect_fallback


class TestPlanMemoization:
    def test_second_plan_answers_from_cache(self):
        prog = simple_stream_program("stream", 1024)
        memo = SimulationCache()
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 8, 32)]
        first = execute_plan(requests, sim_cache=memo)
        with collect_plan_telemetry() as session:
            second = execute_plan(requests, sim_cache=memo)
        assert session.by_rule["cache"] == 3
        assert session.traces_generated == 0
        for a, b in zip(first, second):
            assert_same_run(a, b)

    def test_prefix_key_survives_machine_rename(self):
        # The chain key is name-independent: a renamed (but geometrically
        # identical) machine must hit the memo.
        prog = simple_stream_program("stream", 1024)
        memo = SimulationCache()
        first = execute_plan(
            [SimRequest(prog, fa_machine(16, name="one"))], sim_cache=memo
        )
        with collect_plan_telemetry() as session:
            second = execute_plan(
                [SimRequest(prog, fa_machine(16, name="two"))], sim_cache=memo
            )
        assert session.by_rule["cache"] == 1
        assert_same_run(first[0], second[0])

    def test_planned_results_seed_pointwise_cache(self):
        # A planned run must leave the same memo entries a pointwise run
        # would, so later execute() calls hit.
        prog = simple_stream_program("stream", 1024)
        memo = SimulationCache()
        planned = execute_plan(
            [SimRequest(prog, fa_machine(c)) for c in (4, 64)], sim_cache=memo
        )
        before = memo.counters.snapshot()
        for request, planned_run in zip(
            [SimRequest(prog, fa_machine(c)) for c in (4, 64)], planned
        ):
            again = execute(request.program, request.machine, sim_cache=memo)
            assert_same_run(again, planned_run)
        delta = memo.counters.since(before)
        assert delta.hits == 2 and delta.misses == 0


class TestPointIdentity:
    def test_params_are_snapshotted_at_construction(self):
        prog = simple_stream_program("stream", 1024)
        params = {"N": 512}
        request = SimRequest(prog, fa_machine(8), params=params)
        key = request_key(request)
        params["N"] = 256  # the caller's dict, mutated after the fact
        assert request.params == {"N": 512}
        assert request_key(request) == key
        assert request.identity.bound["N"] == 512
        assert key == request_key(SimRequest(prog, fa_machine(8), params={"N": 512}))
        assert key != request_key(SimRequest(prog, fa_machine(8), params={"N": 256}))

    def test_identity_is_derived_once_and_keys_like_execute(self):
        prog = simple_stream_program("stream", 1024)
        memo = SimulationCache()
        request = SimRequest(prog, fa_machine(8), params={"N": 512})
        assert request.identity is request.identity
        run = execute(prog, fa_machine(8), params={"N": 512}, sim_cache=memo)
        # execute stored the point under the key the request derives.
        cached = memo.get(request_key(request))
        assert cached is not None
        assert cached.result.level_stats == run.counters.level_stats


class TestRunBatch:
    def test_pointwise_default_matches_execute(self):
        prog = simple_stream_program("stream", 512)
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 8)]
        got = run_batch(requests, plan=False, sim_cache=False)
        for a, b in zip(got, pointwise(requests)):
            assert_same_run(a, b)

    def test_plan_follows_process_default(self):
        prog = simple_stream_program("stream", 512)
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 8)]
        with running(plan=True), collect_plan_telemetry() as session:
            run_batch(requests, sim_cache=False)
        assert session.points == 2

    def test_predict_composition_matches_pointwise_accounting(self):
        from repro.experiments.predict import collect_analytic_telemetry
        from repro.experiments.predict import run_or_predict

        prog = simple_stream_program("stream", 2048)
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 4, 16, 64, 256)]

        with running(predict=True, spot_check=0.5, predict_tolerance=10.0):
            with collect_analytic_telemetry() as ref_session:
                ref = [
                    run_or_predict(r.program, r.machine, sim_cache=False)
                    for r in requests
                ]
            with collect_analytic_telemetry() as plan_session:
                got = run_batch(requests, plan=True, sim_cache=False)

        for a, b in zip(got, ref):
            assert_same_run(a, b)
        assert plan_session.points == ref_session.points
        assert plan_session.predicted == ref_session.predicted
        assert plan_session.checked == ref_session.checked
        assert plan_session.fallbacks == ref_session.fallbacks

    def test_predict_without_session_simulates_only_unanalyzable(self):
        prog = simple_stream_program("stream", 1024)
        requests = [SimRequest(prog, fa_machine(c)) for c in (4, 16)]
        with running(predict=True, spot_check=0.05, predict_tolerance=10.0):
            got = run_batch(requests, plan=True, sim_cache=False)
        assert len(got) == 2  # analytic estimates ship unchecked
