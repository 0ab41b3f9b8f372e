"""Certified periodic extrapolation in the set-associative engine.

``SetAssociativeEngine.run(..., spans=...)`` simulates a hinted loop's
windows until one certifies, then emits the remaining whole windows
without simulating them.  Whatever the hint, the result must be the
reference ``Cache``'s, bit for bit: counters, the ordered event stream
and the flush drain.  The deterministic cases below make each check of
the certificate fail in turn; the property test drives random affine
nests and layouts through the generator's hints.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.plan import SimRequest, execute_plan
from repro.interp.executor import execute
from repro.lang import ProgramBuilder
from repro.machine.cache import Cache, CacheGeometry
from repro.machine.engine import (
    DirectMappedEngine,
    SetAssociativeEngine,
    StackDistanceEngine,
    periodic,
)
from repro.machine.engine.verify import STAT_FIELDS
from repro.machine.hierarchy import Hierarchy
from repro.machine.layout import LayoutPolicy, build_layout
from repro.machine.presets import origin2000
from repro.options import override_options, use_options
from repro.programs import dmxpy, fft, make_kernel, matmul, matmul_blocked, nas_sp
from repro.programs.paper_examples import fig6_fused, fig6_original
from repro.trace import TraceGenerator
from repro.trace import generator as trace_generator
from repro.trace.events import LazyStream, Rows, Trace, slice_spans

LINE = 32


def rows_trace(trip: int, columns, writes=None):
    """``trip`` rows; column c reads (or writes) ``base_c + r * delta_c``."""
    base = np.array([b for b, _ in columns], dtype=np.int64)
    delta = np.array([d for _, d in columns], dtype=np.int64)
    addrs = (base + np.arange(trip, dtype=np.int64)[:, None] * delta).ravel()
    flags = np.tile(np.array(writes or [False] * len(columns), dtype=bool), trip)
    return addrs, flags


def assert_exact(geometry, addrs, writes, spans, cuts=(), stream=None):
    """The engine with ``spans`` (fed in pieces split at ``cuts``), the
    engine without, and the reference ``Cache`` agree on everything; so
    does one fed the same pieces of ``stream``, a lazy form of the
    accesses, when given (it runs first, before anything joins it)."""
    engines = [SetAssociativeEngine("L1", geometry) for _ in range(2 + (stream is not None))]
    plain, hinted = engines[:2]
    bounds = [0, *sorted(cuts), len(addrs)]
    cut = list(zip(bounds[:-1], bounds[1:]))
    outs = []
    if stream is not None:
        lazy = [
            engines[2].run(stream.slice(lo, hi), None, True, slice_spans(tuple(spans), lo, hi))
            for lo, hi in cut
        ]
        outs.append(tuple(np.concatenate([p.arrays()[i] for p in lazy]) for i in range(2)))
    ref = Cache("L1", geometry)
    ref_out = ref.run(addrs, writes)
    outs.append(plain.run(addrs, writes))
    pieces = [
        hinted.run(addrs[lo:hi], writes[lo:hi], True, slice_spans(tuple(spans), lo, hi))
        for lo, hi in cut
    ]
    outs.append(tuple(np.concatenate([p[i] for p in pieces]) for i in range(2)))
    for out in outs:
        np.testing.assert_array_equal(ref_out[0], out[0])
        np.testing.assert_array_equal(ref_out[1], out[1])
    flushes = [c.flush() for c in (ref, *engines)]
    for out in flushes[1:]:
        np.testing.assert_array_equal(flushes[0][0], out[0])
    for f in STAT_FIELDS:
        assert all(getattr(ref.stats, f) == getattr(e.stats, f) for e in engines), f


@contextmanager
def spy(name: str):
    """Record the return value of ``periodic.<name>`` (or of the
    ``_Span`` method ``name``) on every call."""
    owner = periodic._Span if hasattr(periodic._Span, name) else periodic
    real = getattr(owner, name)
    seen: list = []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append((args, out))
        return out

    with mock.patch.object(owner, name, wrapper):
        yield seen


def assert_hints_hold(trace):
    """Every hinted span's rows repeat: a constant per-column byte delta
    from row to row, and the same write flags in every row."""
    for start, trip, width in trace.spans:
        assert trip >= 2 and width > 0 and start + trip * width <= len(trace)
        rows = trace.addresses[start : start + trip * width].reshape(trip, width)
        flags = trace.is_write[start : start + trip * width].reshape(trip, width)
        assert (np.diff(rows, axis=0) == rows[1] - rows[0]).all()
        assert (flags == flags[0]).all()


class TestHints:
    PROGRAMS = [
        matmul(20, "jki"),
        matmul_blocked(24, 6),
        dmxpy(64, 8),
        fft(64),
        nas_sp(8, 8),
        fig6_original(16),
    ]

    @pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
    def test_generate_chunks_and_statements_hint_repeating_rows(self, program):
        gen = TraceGenerator(program)
        with mock.patch.object(trace_generator, "_DESCENT_ACCESSES", 8):
            full = gen.generate()
            assert full.spans
            assert_hints_hold(full)
            for chunk in gen.chunks(500):
                assert_hints_hold(chunk)
            for k in range(len(program.body)):
                assert_hints_hold(gen.statement_trace(k))

    def test_descent_is_bounded(self):
        # mm_blocked's tile loop has 4 trips; its j loop is hinted once
        # per tile only when it generates at least _DESCENT_ACCESSES.
        trace = TraceGenerator(matmul_blocked(24, 6)).generate()
        assert trace.spans == ((0, 4, len(trace) // 4),)
        with mock.patch.object(trace_generator, "_DESCENT_ACCESSES", 8):
            trace = TraceGenerator(matmul_blocked(24, 6)).generate()
        row = len(trace) // 4
        assert trace.spans == ((0, 4, row),) + tuple((r * row, 24, row // 24) for r in range(4))

    def test_guarded_loops_get_no_hints(self):
        gen = TraceGenerator(fig6_fused(16))
        guarded = [k for k, s in enumerate(gen.program.body) if trace_generator._guarded(s)]
        assert guarded
        for k in guarded:
            assert gen.statement_trace(k).spans == ()


class TestExtrapolates:
    def test_steady_sweep_extrapolates_and_stays_exact(self):
        geo = CacheGeometry(4 * 2 * LINE, LINE, 2)
        addrs, writes = rows_trace(20000, [(0, 8), (1 << 20, 8)], [False, True])
        with spy("_emit") as emits:
            assert_exact(geo, addrs, writes, [(0, 20000, 2)])
        assert emits, "a steady two-stream sweep must extrapolate"

    @pytest.mark.parametrize("program", [matmul(24, "jki"), matmul_blocked(24, 8)])
    def test_generator_hints_on_matrix_multiply(self, program):
        spec = origin2000(128)
        layout = build_layout(program, None, spec.default_layout)
        trace = TraceGenerator(program, None, layout).generate()
        assert trace.spans
        with mock.patch.object(periodic, "_MIN_WINDOW", 64):
            assert_exact(
                spec.cache_levels[0].geometry, trace.addresses, trace.is_write, trace.spans
            )

    def test_most_of_mm_jki_is_extrapolated(self):
        spec = origin2000(128)
        program = matmul(90, "jki")
        layout = build_layout(program, None, spec.default_layout)
        trace = TraceGenerator(program, None, layout).generate()
        eng = SetAssociativeEngine("L1", spec.cache_levels[0].geometry)
        with spy("_emit") as emits:
            eng.run(trace.addresses, trace.is_write, True, trace.spans)
        emitted = sum(args[0].rows * args[0].width * args[4] for args, _ in emits)
        assert emitted >= 0.8 * len(trace)

    def test_chunk_cuts_keep_it_exact(self):
        geo = CacheGeometry(4 * 2 * LINE, LINE, 2)
        addrs, writes = rows_trace(12000, [(0, 8), (1 << 16, 24)], [False, True])
        assert_exact(geo, addrs, writes, [(0, 12000, 2)], cuts=(5001, 17777))


class TestEachCheckFails:
    GEO = CacheGeometry(4 * 2 * LINE, LINE, 2)

    def test_a_rows_do_not_repeat(self):
        rng = np.random.default_rng(0)
        addrs, writes = rows_trace(20000, [(0, 8), (1 << 20, 8)], [False, True])
        addrs = addrs + np.repeat(rng.integers(0, 4, 20000) * 8, 2)
        with spy("_emit") as emits:
            assert_exact(self.GEO, addrs, writes, [(0, 20000, 2)])
        assert not emits

    def test_a_write_flag_breaks_late_rows(self):
        addrs, writes = rows_trace(20000, [(0, 8), (1 << 20, 8)], [False, True])
        writes[2 * 15000] = True  # row 15000 reads where the others do not
        with spy("_emit") as emits:
            assert_exact(self.GEO, addrs, writes, [(0, 20000, 2)])
        assert emits
        for args, _ in emits:
            span, m = args[0], args[4]
            # the repeat check stops extrapolation before the odd row
            assert span.good == 15000

    def test_b_line_shared_by_two_shift_groups(self):
        # Two columns sweep one array at 32 and 40 bytes a row: for the
        # first 8192 rows each window's two ranges overlap, so a line is
        # touched by columns of two shifts in every template tried.
        addrs, writes = rows_trace(20000, [(0, 32), (0, 40)])
        with spy("_line_table") as tables, spy("_emit") as emits:
            assert_exact(self.GEO, addrs, writes, [(0, 20000, 2)])
        assert tables and all(out is None for _, out in tables)
        assert not emits

    def test_c_shifted_lines_collide(self):
        # One column walks a line per row towards a line another column
        # keeps touching: the template never meets it, later windows do.
        geo = CacheGeometry(2 * LINE, LINE, 2)
        addrs, writes = rows_trace(8192, [(0, LINE), (5000 * LINE, 0)])
        with spy("_certify") as certs, spy("_emit") as emits:
            assert_exact(geo, addrs, writes, [(0, 8192, 2)])
        assert certs and all(out is None for _, out in certs)
        assert not emits
        # Control: the same walk towards a line out of reach extrapolates.
        addrs, writes = rows_trace(8192, [(0, LINE), (100000 * LINE, 0)])
        with spy("_emit") as emits:
            assert_exact(geo, addrs, writes, [(0, 8192, 2)])
        assert emits

    def test_d_dirty_bits_differ(self):
        # A clean read sweep leaves the lines the span's first window
        # renames onto dirty ones: lines and order match, dirty bits do
        # not.  (Too short a span for a lead-in, so the first window is
        # the first template.)
        geo = CacheGeometry(2 * LINE, LINE, 2)
        prefix, pw = rows_trace(4096, [(0, LINE)])
        body, bw = rows_trace(2 * 2048 + 8, [(4096 * LINE, LINE)] * 2, [False, True])
        addrs, writes = np.concatenate((prefix, body)), np.concatenate((pw, bw))
        with spy("_emit") as emits:
            assert_exact(geo, addrs, writes, [(4096, 2 * 2048 + 8, 2)])
        assert not emits

    def test_d_resident_moves_against_its_column(self):
        # One column walks down onto the line the other, walking up, read
        # just before: the state moves by the upward shift, but the
        # template touches that resident with the downward one.
        geo = CacheGeometry(LINE, LINE, 1)
        lead = 8  # the lead-in rows before the first template
        base = 10000
        addrs, writes = rows_trace(
            8192, [((base + 2 * lead - 1) * LINE, -LINE), (base * LINE, LINE)]
        )
        with spy("_certify") as certs:
            assert_exact(geo, addrs, writes, [(0, 8192, 2)])
        assert certs[0][1] is None

    def test_d_lru_order_differs(self):
        # The prefix leaves the right lines in the wrong LRU order, so the
        # only template tried (too short a span for a lead-in) starts from
        # a state that is not the renamed end state.
        geo = CacheGeometry(2 * LINE, LINE, 2)
        trip = 2 * 2048 + 8
        body, bw = rows_trace(trip, [(1000 * LINE, LINE), (100000 * LINE, LINE)])
        for prefix, extrapolates in (([99999, 999], False), ([999, 99999], True)):
            addrs = np.concatenate((np.array(prefix, dtype=np.int64) * LINE, body))
            writes = np.concatenate((np.zeros(2, dtype=bool), bw))
            with spy("_emit") as emits:
                assert_exact(geo, addrs, writes, [(2, trip, 2)])
            assert bool(emits) is extrapolates


class TestComputedRows:
    """Generated loops reach the engine as computed rows: check (a) is
    skipped there, checks (b) to (d) are not, and the rows extrapolated
    are never built."""

    GEO = CacheGeometry(4 * 2 * LINE, LINE, 2)

    @staticmethod
    def two_stride_sweep(trip):
        # The rows of TestEachCheckFails.test_b, generated: x[4i] and
        # x[5i] move 32 and 40 bytes a row through one array.
        pb = ProgramBuilder("two_strides")
        x = pb.array("x", 5 * trip)
        s = pb.scalar("s")
        with pb.loop("i", 0, trip) as i:
            pb.assign(s, x[4 * i] + x[5 * i])
        program = pb.build()
        layout = build_layout(program, None, LayoutPolicy(alignment=32, pad_bytes=0))
        return TraceGenerator(program, None, layout)

    def assert_lazy_exact(self, gen, cuts=()):
        trace, lazy = gen.generate(), gen.generate()
        assert lazy.stream.row_step(*trace.spans[0]) is not None
        assert_exact(
            self.GEO, trace.addresses, trace.is_write, trace.spans, cuts, lazy.stream
        )
        assert lazy.stream._joined is None

    def test_b_still_refuses_a_line_of_two_shifts(self):
        with spy("_line_table") as tables, spy("_emit") as emits:
            self.assert_lazy_exact(self.two_stride_sweep(20000))
        assert tables and all(out is None for _, out in tables)
        assert not emits

    def test_steady_rows_extrapolate_unbuilt(self):
        gen = TraceGenerator(make_kernel("1w2r", 20000))
        with spy("_emit") as emits:
            self.assert_lazy_exact(gen, cuts=(7001, 30002))
        lazy = [args[0] for args, _ in emits if args[0].stream._joined is None]
        assert lazy
        # Check (a) never built a table of the computed rows.
        assert all(span._table is None for span in lazy)

    def test_fft_stage_loops_build_no_rows(self):
        """fft8192 on the scaled Origin2000: the hints of its short stage
        loops (4 and 2 trips in stages 10 and 11) are rows of a level of
        one part, so check (a) builds no rows anywhere."""
        with spy("repeats_to") as checks:
            execute(fft(8192), origin2000(scale=128), sim_cache=False)
        spans = {id(args[0]): args[0] for args, _ in checks}
        assert len(spans) >= 13  # a span per stage at least
        assert all(span._table is None for span in spans.values())

    def test_wrong_width_hint_on_computed_rows_is_checked(self):
        gen = TraceGenerator(make_kernel("1w2r", 20000))
        trace, lazy = gen.generate(), gen.generate()
        (start, trip, width), = trace.spans
        wrong = [(start, trip // 2, 2 * width), (start + 1, trip - 1, width)]
        assert lazy.stream.row_step(*wrong[0]) is None
        assert lazy.stream.row_step(*wrong[1]) is None
        assert_exact(self.GEO, trace.addresses, trace.is_write, wrong, (), lazy.stream)


class TestInnerLoopHints:
    """A hint on an inner loop of a :class:`Rows` nest (dmxpy's width-4
    loops inside its 65,536-wide rows) lies on rows of the nest's inner
    level, so it skips check (a) in every row; the same rows kept as one
    flat level, whose inner rows the part does not name, are checked
    against the addresses as before."""

    GEO = CacheGeometry(4 * 2 * LINE, LINE, 2)
    INNER, TRIP = 4096, 4
    #: Row r's inner iteration i reads y[i], x[r] and m[r, i], writes
    #: y[i] and reads a fifth column moving as m does.
    BASE = np.array([0, 1 << 20, 1 << 21, 0, 1 << 22])
    STEPS = [np.array([0, 8, 8 * INNER, 0, 8 * INNER]), np.array([8, 0, 8, 8, 8])]
    WRITES = np.array([False, False, False, True, False])

    def part(self) -> Rows:
        return Rows(self.BASE, self.WRITES, self.STEPS, [self.TRIP, self.INNER])

    def flat(self, bump: int = 0) -> Rows:
        """The nest as one level of ``TRIP`` rows; ``bump`` moves one of
        row 0's inner iterations off the loop."""
        base = LazyStream([self.part()]).read(0, 5 * self.INNER)[0]
        base[5 * (self.INNER // 2)] += bump
        return Rows(base, np.tile(self.WRITES, self.INNER), [np.tile(self.STEPS[0], self.INNER)], [self.TRIP])

    def hints(self):
        width = 5 * self.INNER
        return [(r * width, self.INNER, 5) for r in range(self.TRIP)]

    def test_proven_once_and_extrapolated_unbuilt(self):
        stream = LazyStream([self.part()])
        addrs, writes = LazyStream([self.part()]).arrays()
        for start, trip, width in self.hints():
            rows = addrs[start : start + trip * width].reshape(trip, width)
            np.testing.assert_array_equal(stream.row_step(start, trip, width), rows[1] - rows[0])
        with spy("_emit") as emits:
            assert_exact(self.GEO, addrs, writes, self.hints(), (), stream)
        lazy = [args[0] for args, _ in emits if args[0].stream._joined is None]
        assert len(lazy) == self.TRIP  # one template per row
        assert all(span._table is None for span in lazy)  # check (a) built nothing
        assert stream._joined is None

    def test_inner_rows_that_do_not_repeat_are_checked(self):
        for bump in (0, 8):
            stream = LazyStream([self.flat(bump)])
            assert all(stream.row_step(*hint) is None for hint in self.hints())
            addrs, writes = LazyStream([self.flat(bump)]).arrays()
            with spy("_emit") as emits:
                assert_exact(self.GEO, addrs, writes, self.hints(), (), stream)
            lazy = [args[0] for args, _ in emits if args[0].stream._joined is None]
            assert lazy  # rows still extrapolate, checked against the addresses
            assert all(span._table is not None for span in lazy)


class TestWrongHints:
    @pytest.mark.parametrize(
        "spans",
        [
            [(0, 20000, 3)],  # wrong width
            [(1, 19999, 2)],  # rows straddle the real ones
            [(0, 10**9, 2)],  # runs past the batch
            [(-4, 100, 2), (5, 0, 2), (7, 3, 0)],  # nonsense
            [(0, 20000, 2), (0, 20000, 2), (100, 50, 2)],  # overlapping
            [(39000, 9000, 2)],  # mostly past the end
        ],
    )
    def test_wrong_hint_gives_identical_results(self, spans):
        geo = CacheGeometry(4 * 2 * LINE, LINE, 2)
        addrs, writes = rows_trace(20000, [(0, 8), (1 << 20, 8)], [False, True])
        assert_exact(geo, addrs, writes, spans)

    def test_reference_cache_ignores_spans(self):
        geo = CacheGeometry(4 * 2 * LINE, LINE, 2)
        addrs, writes = rows_trace(4000, [(0, 8)])
        a, b = Cache("L1", geo), Cache("L1", geo)
        out_a = a.run(addrs, writes)
        out_b = b.run(addrs, writes, True, ((0, 4000, 1),))
        np.testing.assert_array_equal(out_a[0], out_b[0])
        assert a.stats == b.stats


# -- random affine nests through the generator's hints ----------------------

#: Reads a clean sweep, then writes on: the span's first window renames
#: the clean lines onto dirty ones, so only the dirty bits of check (d)
#: refuse it.  Pinned so that dropping them fails this test every run.
DIRTY_CASE = {
    "stmts": [
        (0, 16, 0, [(0, 1, 0, 0, False)]),
        (16, 20, 0, [(0, 1, 0, 0, False), (0, 1, 0, 0, True)]),
    ],
    "n_arrays": 1,
    "layout": (32, 0),
    "geometry": (32, 2, 1),
    "window": 16,
    "cuts": (),
}


@st.composite
def nests(draw):
    """A spec of 1-3 top-level loops (depth 1 or 2) over 1-3 arrays with
    affine subscripts ``a*i + b*j + c``, plus layout, geometry, window
    floor and chunk cuts."""
    n_arrays = draw(st.integers(1, 3))
    stmts = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(0, 8))
        trip = draw(st.integers(2, 120))
        inner = draw(st.sampled_from([0, 0, 2, 3, 5, 8]))
        refs = [
            (
                draw(st.integers(0, n_arrays - 1)),
                draw(st.integers(0, 3)),
                draw(st.integers(0, 3)) if inner else 0,
                draw(st.integers(0, 8)),
                False,
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        if draw(st.booleans()):
            arr, a, b, c, _ = draw(st.sampled_from(refs))
            refs.append((arr, a, b, c + draw(st.integers(0, 2)), True))
        stmts.append((lo, trip, inner, refs))
    return {
        "stmts": stmts,
        "n_arrays": n_arrays,
        "layout": (draw(st.sampled_from([8, 16, 32, 64])), 8 * draw(st.integers(0, 12))),
        "geometry": (
            draw(st.sampled_from([16, 32, 64])),
            draw(st.integers(1, 4)),
            draw(st.sampled_from([1, 2, 3, 4, 5, 8])),
        ),
        "window": draw(st.sampled_from([4, 16, 64, 256])),
        "cuts": tuple(draw(st.lists(st.integers(1, 4000), max_size=2))),
    }


def build_nest(spec):
    sizes = [1] * spec["n_arrays"]
    for lo, trip, inner, refs in spec["stmts"]:
        for arr, a, b, c, _ in refs:
            top = a * (lo + trip - 1) + b * max(inner - 1, 0) + c
            sizes[arr] = max(sizes[arr], top + 1)
    pb = ProgramBuilder("nest")
    arrays = [pb.array(f"x{k}", size) for k, size in enumerate(sizes)]
    s = pb.scalar("s")
    for n, (lo, trip, inner, refs) in enumerate(spec["stmts"]):
        with pb.loop(f"i{n}", lo, lo + trip) as i:
            if inner:
                with pb.loop(f"j{n}", 0, inner) as j:
                    _body(pb, arrays, s, refs, i, j)
            else:
                _body(pb, arrays, s, refs, i, None)
    return pb.build()


def _body(pb, arrays, s, refs, i, j):
    def ref(arr, a, b, c):
        sub = i * a + c
        if j is not None:
            sub = sub + j * b
        return arrays[arr][sub]

    reads = [ref(arr, a, b, c) for arr, a, b, c, w in refs if not w]
    rhs = reads[0]
    for r in reads[1:]:
        rhs = rhs + r
    writes = [ref(arr, a, b, c) for arr, a, b, c, w in refs if w]
    pb.assign(writes[0] if writes else s, rhs)


@given(spec=nests())
@example(spec=DIRTY_CASE)
@settings(settings.get_profile("repro-thorough"))
def test_random_affine_nests_match_reference(spec):
    program = build_nest(spec)
    align, pad = spec["layout"]
    layout = build_layout(program, None, LayoutPolicy(alignment=align, pad_bytes=pad))
    line, assoc, sets = spec["geometry"]
    geometry = CacheGeometry(line * assoc * sets, line, assoc)
    # Small windows and a low descent bound put the period search, the
    # certificate and the emission to work on traces this small.
    with (
        mock.patch.object(periodic, "_MIN_WINDOW", spec["window"]),
        mock.patch.object(trace_generator, "_DESCENT_ACCESSES", 16),
    ):
        gen = TraceGenerator(program, None, layout)
        trace, lazy = gen.generate(), gen.generate()
        cuts = [c for c in spec["cuts"] if c < len(trace)]
        assert_exact(geometry, trace.addresses, trace.is_write, trace.spans, cuts, lazy.stream)
        assert lazy.stream._joined is None


# -- derived hints: extrapolated windows feed the level below ---------------


def record_streams(hierarchy):
    """Per level, every stream it returns (run and flush), in order."""
    logs = [[] for _ in hierarchy.caches]
    for cache, log in zip(hierarchy.caches, logs):
        for name in ("run", "flush"):
            real = getattr(cache, name)

            def wrapper(*args, _real=real, _log=log, **kwargs):
                out = _real(*args, **kwargs)
                _log.append(out)
                return out

            setattr(cache, name, wrapper)
    return logs


def concat_streams(log):
    outs = [out.arrays() if isinstance(out, LazyStream) else out for out in log]
    return tuple(
        np.concatenate([out[i] for out in outs]) if outs else np.empty(0) for i in range(2)
    )


def assert_hierarchy_exact(geometries, trace, chunk_size):
    """All-``setassoc`` hierarchies fed ``trace`` with its hints, in chunks
    of ``chunk_size``, once as the lazy stream (before anything reads its
    arrays) and once as plain arrays, and a ``Cache``-only one agree on
    every level's counters and on every intermediate level's event
    stream, flush drains included."""
    ref = Hierarchy([Cache(f"L{k}", g) for k, g in enumerate(geometries, 1)])
    engs = [
        Hierarchy(
            [SetAssociativeEngine(f"L{k}", g) for k, g in enumerate(geometries, 1)], chunk_size
        )
        for _ in range(2)
    ]
    logs = [record_streams(h) for h in (ref, *engs)]
    lazy = trace.stream._joined is None
    engs[0].run_trace(trace.stream, spans=trace.spans)
    # The engines read only the rows they simulate: nothing joined them.
    assert (trace.stream._joined is None) == lazy
    engs[1].run_trace(trace.addresses, trace.is_write, spans=trace.spans)
    ref.run_trace(trace.addresses, trace.is_write)
    for h in (ref, *engs):
        h.flush()
    for level in range(len(geometries) - 1):
        want = concat_streams(logs[0][level])
        for log in logs[1:]:
            got = concat_streams(log[level])
            np.testing.assert_array_equal(want[0], got[0])
            np.testing.assert_array_equal(want[1], got[1])
    for eng in engs:
        for a, b in zip(ref.caches, eng.caches):
            for f in STAT_FIELDS:
                assert getattr(a.stats, f) == getattr(b.stats, f), (a.name, f)


def kernel_trace(name: str, n: int, spec=None):
    spec = spec or origin2000(128)
    program = make_kernel(name, n)
    layout = build_layout(program, None, spec.default_layout)
    return TraceGenerator(program, None, layout).generate()


def emitted_by(emits):
    """Accesses each engine emitted without simulating them, by level."""
    out: dict[str, int] = {}
    for args, _ in emits:
        span, m = args[0], args[4]
        out[span.engine.name] = out.get(span.engine.name, 0) + span.rows * span.width * m
    return out


def l1_stream(trace, spec=None):
    """The L1 events of ``trace`` on ``spec`` (linked above its L2, as in
    a hierarchy), with the hints L1 derived for them."""
    spec = spec or origin2000(128)
    l1, l2 = (SetAssociativeEngine(lvl.name, lvl.geometry) for lvl in spec.cache_levels)
    periodic.link(l1, [l2])
    hints: list = []
    addrs, writes = l1.run(trace.addresses, trace.is_write, True, trace.spans, hints)
    return addrs, writes, hints


class TestDerivedHints:
    SPEC = origin2000(128)

    def test_kernel_l2_extrapolates_and_stays_exact(self):
        # 1w2r rows are 3 accesses moving 8 B: L1's own window (1376 rows)
        # shifts by 11008 B, no whole number of 16 KB L2 set spans; the
        # aligned one (2048 rows) does, and 65536+ rows hold 32 of them.
        trace = kernel_trace("1w2r", 70000)
        geos = [lvl.geometry for lvl in self.SPEC.cache_levels]
        with spy("_emit") as emits:
            assert_hierarchy_exact(geos, trace, 1 << 20)
        emitted = emitted_by(emits)
        # L1 sends about one event per 4 accesses (3 fills, 1 writeback
        # per 12): most of that is emitted at L2 without simulating it.
        assert emitted["L2"] > 0.8 * emitted["L1"] / 4

    def test_derived_hints_describe_repeating_rows(self):
        addrs, writes, hints = l1_stream(kernel_trace("1w1r", 70000))
        assert hints
        loads, stores = int((~writes).sum()), int(writes.sum())
        assert_hints_hold(Trace(addrs, writes, 0, loads, stores, tuple(hints)))

    @pytest.mark.parametrize(
        "program", [matmul(90, "jki"), make_kernel("1w2r", 20000)], ids=lambda p: p.name
    )
    def test_span_shorter_than_the_aligned_windows_keeps_its_own_window(self, program):
        # mm_jki's 720 B rows repeat every 8 rows at L1 but need 1,024 to
        # shift by whole 16 KB L2 set spans, against a trip of 90.  A
        # 1w2r sweep's aligned window (2,048 rows) fits only 9 times in
        # 20,000 rows, fewer than _ALIGN_WINDOWS.  Either way L1 keeps
        # its own window and extrapolates exactly as unlinked.
        layout = build_layout(program, None, self.SPEC.default_layout)
        trace = TraceGenerator(program, None, layout).generate()
        hierarchy = Hierarchy.from_spec(self.SPEC)
        assert hierarchy.caches[0]._window_span == 16384
        alone = SetAssociativeEngine("L1", self.SPEC.cache_levels[0].geometry)
        with spy("_emit") as linked:
            hierarchy.run_trace(trace.addresses, trace.is_write, spans=trace.spans)
        with spy("_emit") as unlinked:
            alone.run(trace.addresses, trace.is_write, True, trace.spans)
        rows = [
            [args[0].rows for args, _ in emits if args[0].engine.name == "L1"]
            for emits in (linked, unlinked)
        ]
        assert rows[0] == rows[1] and rows[0]
        assert emitted_by(linked)["L1"] == emitted_by(unlinked)["L1"] > 0
        assert vars(hierarchy.caches[0].stats) == vars(alone.stats)

    def test_forged_derived_hints_give_identical_results(self):
        addrs, writes, hints = l1_stream(kernel_trace("1w1r", 70000))
        (off, trip, width), *_ = hints
        geo = self.SPEC.cache_levels[1].geometry
        for spans in (
            [(off + 1, trip, width)],  # wrong offset
            [(off, trip, len(addrs))],  # width past the stream end
            [(off, trip + 10**6, width)],  # rows past the stream end
            [(off, trip, width), (off + width, trip - 1, width), (off, trip, width)],
            [(off + width // 2, trip - 1, width), (off, trip, width)],  # overlapping
        ):
            assert_exact(geo, addrs, writes, spans)

    def test_rows_that_stop_repeating_are_simulated(self):
        addrs, writes, hints = l1_stream(kernel_trace("1w1r", 70000))
        (off, trip, width), *_ = hints
        broken = 2 * trip // 3
        addrs = addrs.copy()
        addrs[off + broken * width + 5] += 4096 * LINE
        with spy("_emit") as emits:
            assert_exact(self.SPEC.cache_levels[1].geometry, addrs, writes, [(off, trip, width)])
        spans = [args[0] for args, _ in emits]
        assert spans and all(s.good == broken for s in spans)

    def test_planner_root_feeds_two_lower_set_spans(self):
        # One L1 node, two L2 children: 16 KB (2-way, 128 B lines) and
        # 6 KB (3-way, 64 B lines, 96 sets) set spans.  The L1 window
        # aligns with both (their lcm, 48 KB; the alignment threshold is
        # lowered so that this short kernel takes it), so each child
        # extrapolates its share.
        l1 = self.SPEC.cache_levels[0]
        l2 = self.SPEC.cache_levels[1]
        machines = [
            dataclasses.replace(
                self.SPEC, name=name, cache_levels=(l1, dataclasses.replace(l2, geometry=geo))
            )
            for name, geo in (
                ("o128", l2.geometry),
                ("o128-3way", CacheGeometry(3 * 64 * 96, 64, 3)),
            )
        ]
        program = make_kernel("1w2r", 60000)
        requests = [SimRequest(program, m, validate=False) for m in machines]
        with mock.patch.object(periodic, "_ALIGN_WINDOWS", 4), spy("_emit") as emits:
            planned = execute_plan(requests, sim_cache=False)
        lower = {args[0].engine.geometry for args, _ in emits if args[0].engine.name == "L2"}
        assert lower == {m.cache_levels[1].geometry for m in machines}
        for engine in ("auto", "reference"):
            with mock.patch.object(periodic, "_ALIGN_WINDOWS", 4), use_options(
                override_options(engine=engine)
            ):
                for req, got in zip(requests, planned):
                    want = execute(req.program, req.machine, validate=False, sim_cache=False)
                    assert got.counters.downstream_bytes == want.counters.downstream_bytes
                    for a, b in zip(got.counters.level_stats, want.counters.level_stats):
                        assert vars(a) == vars(b)


#: A 1w2r sweep through three levels (the middle one 3-way) whose
#: windows each level below repeats in turn.
THREE_LEVELS = {
    "spec": {
        "stmts": [(0, 3000, 0, [(0, 1, 0, 0, False), (1, 1, 0, 0, False), (0, 1, 0, 0, True)])],
        "n_arrays": 2,
        "layout": (32, 0),
        "geometry": None,
        "window": 16,
        "cuts": (),
    },
    "geometries": [
        CacheGeometry(16 * 2 * 2, 16, 2),
        CacheGeometry(32 * 3 * 2, 32, 3),
        CacheGeometry(64 * 2 * 4, 64, 2),
    ],
    "chunk": 97,
    "align": 2,
    "derived": 2,
}


def test_three_levels_each_extrapolate():
    case = THREE_LEVELS
    program = build_nest(case["spec"])
    layout = build_layout(program, None, LayoutPolicy(alignment=32, pad_bytes=0))
    with (
        mock.patch.object(periodic, "_MIN_WINDOW", 16),
        mock.patch.object(trace_generator, "_DESCENT_ACCESSES", 16),
        spy("_emit") as emits,
    ):
        trace = TraceGenerator(program, None, layout).generate()
        assert_hierarchy_exact(case["geometries"], trace, 1 << 20)
    assert set(emitted_by(emits)) == {"L1", "L2", "L3"}


@st.composite
def hierarchy_geometries(draw):
    """2 or 3 set-associative levels, line sizes non-decreasing, one lower
    level with associativity 3 or 4."""
    n = draw(st.integers(2, 3))
    wide = draw(st.integers(1, n - 1))
    line = draw(st.sampled_from([16, 32]))
    geos = []
    for k in range(n):
        if k:
            line *= draw(st.sampled_from([1, 2]))
        assoc = draw(st.sampled_from([3, 4])) if k == wide else draw(st.integers(1, 4))
        sets = draw(st.sampled_from([1, 2, 3, 4, 8]))
        geos.append(CacheGeometry(line * assoc * sets, line, assoc))
    return geos


@st.composite
def long_nests(draw):
    """:func:`nests` with trips up to 16x longer, so that a level's
    extrapolated windows leave the level below rows to repeat."""
    spec = draw(nests())
    scale = draw(st.sampled_from([1, 4, 16]))
    spec["stmts"] = [(lo, trip * scale, inner, refs) for lo, trip, inner, refs in spec["stmts"]]
    return spec


@given(
    spec=long_nests(),
    geometries=hierarchy_geometries(),
    chunk=st.sampled_from([97, 640, 2000, 1 << 20]),
    align=st.sampled_from([1, 2, 32]),
    derived=st.sampled_from([2, 8]),
)
@example(**THREE_LEVELS)
@settings(settings.get_profile("repro-thorough"))
def test_random_affine_nests_through_hierarchies_match_reference(
    spec, geometries, chunk, align, derived
):
    program = build_nest(spec)
    align_bytes, pad = spec["layout"]
    layout = build_layout(program, None, LayoutPolicy(alignment=align_bytes, pad_bytes=pad))
    with (
        mock.patch.object(periodic, "_MIN_WINDOW", spec["window"]),
        mock.patch.object(periodic, "_ALIGN_WINDOWS", align),
        mock.patch.object(periodic, "_MIN_WINDOWS_DERIVED", derived),
        mock.patch.object(trace_generator, "_DESCENT_ACCESSES", 16),
    ):
        trace = TraceGenerator(program, None, layout).generate()
        assert_hierarchy_exact(geometries, trace, chunk)


@pytest.mark.parametrize("chunk", [1000, 1 << 20])
@pytest.mark.parametrize(
    "levels",
    [
        ((Cache, CacheGeometry(2048, 32, 1)), (Cache, CacheGeometry(8192, 64, 2))),
        (
            (DirectMappedEngine, CacheGeometry(2048, 32, 1)),
            (SetAssociativeEngine, CacheGeometry(8192, 64, 2)),
        ),
        (
            (SetAssociativeEngine, CacheGeometry(2048, 32, 2)),
            (StackDistanceEngine, CacheGeometry(8192, 64, 128)),
        ),
    ],
    ids=["reference", "direct-setassoc", "setassoc-stack"],
)
def test_every_engine_takes_a_lazy_stream(levels, chunk):
    """A level that does not read a lazy stream joins what it is handed
    (one run-trace chunk at a time, never the whole trace) and sends its
    events on as a stream: counters and every intermediate event stream,
    flush drains included, match the same hierarchy fed plain arrays."""
    trace = kernel_trace("2w5r", 1500)
    assert any(isinstance(part, Rows) for part in trace.stream.parts)
    lazy, arrays = (
        Hierarchy([cls(f"L{k}", g) for k, (cls, g) in enumerate(levels, 1)], chunk)
        for _ in range(2)
    )
    logs = [record_streams(h) for h in (lazy, arrays)]
    lazy.run_trace(trace.stream, spans=trace.spans)
    if chunk < len(trace):
        assert trace.stream._joined is None
    arrays.run_trace(trace.addresses, trace.is_write, spans=trace.spans)
    for h in (lazy, arrays):
        h.flush()
    want, got = (concat_streams(log[0]) for log in logs)
    np.testing.assert_array_equal(want[0], got[0])
    np.testing.assert_array_equal(want[1], got[1])
    for a, b in zip(lazy.caches, arrays.caches):
        for f in STAT_FIELDS:
            assert getattr(a.stats, f) == getattr(b.stats, f), (a.name, f)
