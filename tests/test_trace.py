"""Trace-engine tests: exact address sequences, guards, imperfect nests,
tiled bounds, and cross-validation against the reference interpreter."""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, IRError
from repro.lang import ProgramBuilder
from repro.machine import LayoutPolicy, build_layout
from repro.trace import TraceGenerator, generate_trace, trace_stats
from repro.trace import generator as trace_generator
from repro.trace.events import EMPTY_TRACE, LazyStream, Rows, concat_traces
from repro.trace.stats import per_array_accesses, stride_histogram

from tests.helpers import interpreted_accesses, simple_stream_program

FLAT = LayoutPolicy(alignment=8, pad_bytes=0)


def trace_of(program, **kw):
    layout = build_layout(program, None, FLAT)
    return generate_trace(program, layout=layout, **kw)


class TestExactSequences:
    def test_stream_interleave(self):
        p = simple_stream_program(n=4)
        t = trace_of(p)
        # per iteration: read a[i], read b[i], write a[i]; b starts at 32
        expected = []
        for i in range(4):
            expected += [(i * 8, False), (32 + i * 8, False), (i * 8, True)]
        assert list(zip(t.addresses.tolist(), t.is_write.tolist())) == expected
        assert t.flops == 4
        assert t.loads == 8
        assert t.stores == 4

    def test_two_statements_order(self):
        b = ProgramBuilder("p", params={"N": 2})
        x = b.array("x", "N", output=True)
        y = b.array("y", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(x[i], 1.0)
            b.assign(y[i], x[i])
        t = trace_of(b.build())
        # iter0: w x0, r x0, w y0; iter1: ...
        assert t.addresses.tolist() == [0, 0, 16, 8, 8, 24]
        assert t.is_write.tolist() == [True, False, True, True, False, True]

    def test_2d_row_major(self):
        b = ProgramBuilder("p", params={"N": 2})
        a = b.array("a", ("N", "N"), output=True)
        with b.loop("i", 0, "N") as i:
            with b.loop("j", 0, "N") as j:
                b.assign(a[i, j], 1.0)
        t = trace_of(b.build())
        assert t.addresses.tolist() == [0, 8, 16, 24]

    def test_column_sweep_strided(self):
        b = ProgramBuilder("p", params={"N": 3})
        a = b.array("a", ("N", "N"), output=True)
        with b.loop("j", 0, "N") as j:
            with b.loop("i", 0, "N") as i:
                b.assign(a[i, j], 1.0)
        t = trace_of(b.build())
        assert t.addresses.tolist() == [0, 24, 48, 8, 32, 56, 16, 40, 64]

    def test_external_read_store_only(self):
        b = ProgramBuilder("p", params={"N": 3})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.read(a[i])
        t = trace_of(b.build())
        assert t.loads == 0
        assert t.stores == 3
        assert t.is_write.all()

    def test_scalar_read_no_traffic(self):
        b = ProgramBuilder("p", params={"N": 3})
        b.scalar("s", output=True)
        from repro.lang.stmt import ExternalRead
        from repro.lang.expr import ScalarRef

        with b.loop("i", 0, "N") as i:
            b._emit(ExternalRead(ScalarRef("s")))
        t = trace_of(b.build())
        assert len(t) == 0


class TestGuards:
    def test_masked_iterations(self):
        b = ProgramBuilder("p", params={"N": 4})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            with b.if_(i >= 2):
                b.assign(a[i], 1.0)
        t = trace_of(b.build())
        assert t.addresses.tolist() == [16, 24]
        assert t.stores == 2
        assert t.flops == 0

    def test_else_branch(self):
        b = ProgramBuilder("p", params={"N": 4})
        a = b.array("a", "N", output=True)
        c = b.array("c", "N", output=True)
        with b.loop("i", 0, "N") as i:
            with b.if_(i < 2):
                b.assign(a[i], 1.0)
            with b.else_():
                b.assign(c[i], 2.0)
        t = trace_of(b.build())
        assert t.addresses.tolist() == [0, 8, 32 + 16, 32 + 24]

    def test_guard_flop_accounting(self):
        b = ProgramBuilder("p", params={"N": 6})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            with b.if_(i < 2):
                b.assign(a[i], a[i] + 1.0)  # 1 flop x2
            with b.else_():
                b.assign(a[i], a[i] * 2.0 + 1.0)  # 2 flops x4
        t = trace_of(b.build())
        assert t.flops == 2 * 1 + 4 * 2

    def test_nested_guards(self):
        b = ProgramBuilder("p", params={"N": 8})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            with b.if_(i >= 2):
                with b.if_(i < 5):
                    b.assign(a[i], 1.0)
        t = trace_of(b.build())
        assert t.addresses.tolist() == [16, 24, 32]

    def test_guard_matches_evaluator_on_fig6(self):
        """The trace's store count equals the interpreter's store count on
        the guard-heavy Figure 6 fused program."""
        from repro.programs import fig6_fused

        p = fig6_fused(7)
        t = trace_of(p)
        # count stores by interpretation
        from repro.interp.evaluator import Evaluator

        ev = Evaluator(p)
        stores = [0]
        orig = ev._store

        def counting(ref, env, value):
            stores[0] += 1
            return orig(ref, env, value)

        ev._store = counting
        ev.run()
        assert t.stores == stores[0]


class TestImperfectNests:
    def test_pre_loop_post_order(self):
        b = ProgramBuilder("p", params={"N": 2, "M": 2})
        c = b.array("c", "N", output=True)
        a = b.array("a", ("N", "M"))
        with b.loop("i", 0, "N") as i:
            b.assign(c[i], 0.0)  # pre
            with b.loop("j", 0, "M") as j:
                b.assign(c[i], c[i] + a[i, j])
            b.assign(c[i], c[i] * 2.0)  # post
        t = trace_of(b.build())
        c0, a0 = 0, 16
        expected = [
            (0, True),  # c[0] = 0
            (0, False), (a0 + 0, False), (0, True),  # j=0
            (0, False), (a0 + 8, False), (0, True),  # j=1
            (0, False), (0, True),  # post
            (8, True),
            (8, False), (a0 + 16, False), (8, True),
            (8, False), (a0 + 24, False), (8, True),
            (8, False), (8, True),
        ]
        assert list(zip(t.addresses.tolist(), t.is_write.tolist())) == expected

    def test_scalar_replaced_matmul_order_is_exact(self):
        """Scalar replacement's pre/loop/post structure traces in execution
        order (load, k-loop, store per (i,j))."""
        from repro.programs import matmul_blocked

        p = matmul_blocked(4, tile=2)
        assert _stream(trace_of(p)) == _interpreted(p)


class TestTiledLoops:
    def test_tiled_bounds(self):
        b = ProgramBuilder("p", params={"N": 8})
        b.array("a", "N", output=True)
        from repro.lang.affine import Affine
        from repro.lang.stmt import Assign, Loop
        from repro.lang.expr import ArrayRef, Const

        inner = Loop(
            "i",
            Affine({"t": 4}, 0),
            Affine({"t": 4}, 4),
            (Assign(ArrayRef("a", (Affine.var("i"),)), Const(1.0)),),
        )
        outer = Loop("t", Affine.const_of(0), Affine.const_of(2), (inner,))
        p = b.build().with_body([outer])
        t = trace_of(p)
        assert t.addresses.tolist() == [i * 8 for i in range(8)]

    def test_tile_transform_same_addresses(self):
        from repro.programs import matmul
        from repro.transforms import tile_nest

        base = matmul(4)
        tiled = tile_nest(base, 0, {"k": 2}, order=["k_t", "j", "k", "i"])
        t1, t2 = trace_of(base), trace_of(tiled)
        assert len(t1) == len(t2)
        assert sorted(t1.addresses.tolist()) == sorted(t2.addresses.tolist())
        assert t1.flops == t2.flops

    def test_variable_trip_rejected(self):
        from repro.lang.affine import Affine
        from repro.lang.stmt import Assign, Loop
        from repro.lang.expr import ArrayRef, Const

        b = ProgramBuilder("p", params={"N": 4})
        b.array("a", ("N", "N"), output=True)
        prog = b.build()
        inner = Loop(
            "j",
            Affine.const_of(0),
            Affine.var("i"),  # triangular
            (Assign(ArrayRef("a", (Affine.var("i"), Affine.var("j"))), Const(1.0)),),
        )
        outer = Loop("i", Affine.const_of(1), Affine.var("N"), (inner,))
        prog = prog.with_body([outer])
        with pytest.raises(IRError, match="trip count"):
            trace_of(prog)


class TestValidationAndEdges:
    def test_out_of_bounds_detected(self):
        b = ProgramBuilder("p", params={"N": 4})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i + 1], 1.0)
        with pytest.raises(ExecutionError, match="outside extent"):
            trace_of(b.build())

    @staticmethod
    def _lazy_out_of_bounds(case):
        """A loop of 16 rows, lazy in ``generate()``, whose subscript
        leaves its extent in the last row, the first, or in every row by
        a tiled inner loop; or such a loop inside a loop of 3 trips,
        whose later trips leave it."""
        b = ProgramBuilder("p", params={"N": 16})
        a = b.array("a", "N", output=True)
        t = b.array("t", 4 * 16)
        if case == "nested":
            # Lazy as one part per trip of a 3-trip outer loop.
            with b.loop("k", 0, 3) as k, b.loop("i", 0, "N") as i:
                b.assign(a[i], t[4 * i + 16 * k + 3])
            return b.build()
        with b.loop("i", 0, "N") as i:
            if case == "last":
                b.assign(a[i + 1], 1.0)
            elif case == "first":
                b.assign(a[i], a[i - 1])
            else:
                with b.loop("j", 4 * i, 4 * i + 4) as j:
                    b.assign(a[i], t[j + 2])
        return b.build()

    @pytest.mark.parametrize("case", ["last", "first", "tiled", "nested"])
    def test_lazy_loops_report_the_whole_grids_range(self, case):
        """``generate()`` checks a lazy loop on its first and last rows;
        the message must be the one checking every row gives."""
        program = self._lazy_out_of_bounds(case)
        gen = TraceGenerator(program)
        with pytest.raises(ExecutionError) as whole:
            gen.statement_trace(0)  # generated and checked row by row
        with pytest.raises(ExecutionError) as lazy:
            gen.generate()
        assert str(lazy.value) == str(whole.value)
        ranges = {"last": "[1, 16]", "first": "[-1, 14]", "tiled": "[2, 65]", "nested": "[3, 95]"}
        assert f"ranges {ranges[case]} outside extent" in str(lazy.value)

    def test_guarded_out_of_bounds_ok(self):
        b = ProgramBuilder("p", params={"N": 4})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            with b.if_(i < 3):
                b.assign(a[i + 1], 1.0)
        t = trace_of(b.build())
        assert t.addresses.tolist() == [8, 16, 24]

    def test_validate_off_skips_check(self):
        b = ProgramBuilder("p", params={"N": 4})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i + 1], 1.0)
        t = trace_of(b.build(), validate=False)
        assert len(t) == 4

    def test_zero_trip_loop(self):
        b = ProgramBuilder("p", params={"N": 0})
        a = b.array("a", 8, output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i], 1.0)
        t = trace_of(b.build())
        assert len(t) == 0

    def test_zero_trip_inner_loop_not_validated(self):
        """An inner loop that never runs generates nothing, so its
        subscripts (out of range here) are never checked."""
        b = ProgramBuilder("p", params={"N": 4, "M": 0})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i], 1.0)
            with b.loop("j", 0, "M") as j:
                b.assign(a[i + j + 10], 2.0)
        p = b.build()
        t = _assert_chunks_match(p)
        assert _stream(t) == [(8 * i, True) for i in range(4)] == _interpreted(p)

    def test_constant_subscript_in_2d_nest(self):
        b = ProgramBuilder("p", params={"N": 3})
        x = b.array("x", ("N", "N"), output=True)
        a = b.array("a", "N")
        with b.loop("i", 0, "N") as i:
            with b.loop("j", 0, "N") as j:
                b.assign(x[i, j], a[0] + a[2])
        p = b.build()
        t = _assert_chunks_match(p)
        expected = []
        for k in range(9):
            expected += [(72, False), (88, False), (8 * k, True)]
        assert _stream(t) == expected == _interpreted(p)

    def test_reference_invariant_in_inner_loop(self):
        b = ProgramBuilder("p", params={"N": 3, "M": 4})
        x = b.array("x", ("N", "M"), output=True)
        y = b.array("y", "N")
        with b.loop("i", 0, "N") as i:
            with b.loop("j", 0, "M") as j:
                b.assign(x[i, j], y[i])
        p = b.build()
        t = _assert_chunks_match(p)
        expected = []
        for i in range(3):
            for j in range(4):
                expected += [(96 + 8 * i, False), (8 * (4 * i + j), True)]
        assert _stream(t) == expected == _interpreted(p)

    def test_inner_dimension_out_of_bounds_detected(self):
        b = ProgramBuilder("p", params={"N": 4})
        a = b.array("a", ("N", "N"), output=True)
        with b.loop("i", 0, "N") as i:
            with b.loop("j", 0, "N") as j:
                b.assign(a[i, j + 1], 1.0)
        p = b.build()
        msg = r"^p: a\[i, j \+ 1\] dimension 1 ranges \[1, 4\] outside extent 4$"
        with pytest.raises(ExecutionError, match=msg):
            trace_of(p)
        gen = TraceGenerator(p, layout=build_layout(p, None, FLAT))
        with pytest.raises(ExecutionError, match=msg):
            list(gen.chunks(5))

    def test_guarded_out_of_bounds_in_2d_nest_ok(self):
        b = ProgramBuilder("p", params={"N": 4})
        a = b.array("a", ("N", "N"), output=True)
        with b.loop("i", 0, "N") as i:
            with b.loop("j", 0, "N") as j:
                with b.if_(j < 3):
                    b.assign(a[i, j + 1], 1.0)
        p = b.build()
        t = _assert_chunks_match(p)
        expected = [(8 * (4 * i + j + 1), True) for i in range(4) for j in range(3)]
        assert _stream(t) == expected == _interpreted(p)

    def test_tiled_inner_lower_bound_depends_on_outer(self):
        b = ProgramBuilder("p", params={"N": 8, "M": 3})
        a = b.array("a", ("N", "M"), output=True)
        c = b.array("c", "M")
        with b.loop("t", 0, 2) as t:
            with b.loop("i", t * 4, t * 4 + 4) as i:
                with b.loop("j", 0, "M") as j:
                    b.assign(a[i, j], a[i, j] + c[j])
        p = b.build()
        t = _assert_chunks_match(p)
        expected = []
        for i in range(8):
            for j in range(3):
                expected += [(8 * (3 * i + j), False), (192 + 8 * j, False), (8 * (3 * i + j), True)]
        assert _stream(t) == expected == _interpreted(p)

    def test_statement_trace(self):
        from tests.helpers import two_loop_chain

        p = two_loop_chain(n=4)
        layout = build_layout(p, None, FLAT)
        gen = TraceGenerator(p, layout=layout)
        t0 = gen.statement_trace(0)
        t1 = gen.statement_trace(1)
        assert t0.stores == 4 and t1.stores == 0
        full = gen.generate()
        assert len(full) == len(t0) + len(t1)

    def test_scalar_only_flops_counted(self):
        b = ProgramBuilder("p", params={"N": 4})
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(s, s * 2.0 + 1.0)
        t = trace_of(b.build())
        assert len(t) == 0
        assert t.flops == 8


def _peak_bytes(work):
    """Peak traced memory of ``work()`` and its result (NumPy reports its
    buffers to tracemalloc)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = work()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak, result


def _generation_peak_ratio(program):
    """Peak traced memory of ``generate()`` plus reading the trace's
    arrays, over the trace's own bytes."""
    gen = TraceGenerator(program)

    def work():
        trace = gen.generate()
        trace.addresses
        return trace

    peak, trace = _peak_bytes(work)
    return peak / trace.nbytes


class TestGenerationMemory:
    """Addresses are written once, into the output trace: generation and
    joining the trace's parts hold no full-size temporaries besides the
    trace itself, and a simulation that never reads the arrays never
    builds them."""

    def test_execute_builds_only_what_it_simulates(self):
        # 2^20 accesses (9.4 MB as arrays) on Origin2000/128: L1 and L2
        # extrapolate most of the loop, so most rows are never built.
        from repro.interp.executor import execute
        from repro.machine.presets import origin2000
        from repro.programs import make_kernel

        program = make_kernel("2w5r", (1 << 20) // 7)
        machine = origin2000(128)
        nbytes = TraceGenerator(program).generate().nbytes
        execute(program, machine, sim_cache=False)  # imports, allocator
        peak, _ = _peak_bytes(lambda: execute(program, machine, sim_cache=False))
        assert peak < 0.3 * nbytes, (peak, nbytes)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: __import__("repro.programs", fromlist=["matmul"]).matmul(60),
            lambda: __import__("repro.programs", fromlist=["matmul_blocked"]).matmul_blocked(60, 10),
            lambda: __import__("repro.programs", fromlist=["make_kernel"]).make_kernel("3w6r", 100000),
        ],
        ids=["mm", "mm_blocked", "3w6r"],
    )
    def test_guard_free_peak_close_to_trace(self, factory):
        assert _generation_peak_ratio(factory()) <= 1.3

    def test_guarded_peak_bounded_by_slab(self):
        """A guarded statement builds slab by slab into scratch and
        compacts each slab into the trace (measured 1.90x here)."""
        from repro.programs import fig6_fused

        assert _generation_peak_ratio(fig6_fused(200)) <= 2.1


@st.composite
def lazy_streams(draw):
    """A :class:`LazyStream` of random plain and :class:`Rows` parts (loop
    nests of one to three levels), with the plain arrays it stands for."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    parts, addrs, writes = [], [], []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            width = draw(st.integers(1, 6))
            trips = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
            steps = [rng.integers(-64, 64, width) for _ in trips]
            rows = Rows(rng.integers(0, 1 << 20, width), rng.random(width) < 0.5, steps, trips)
            parts.append(rows)
            grid = np.indices(trips).reshape(len(trips), -1).T  # iterations, in order
            addrs.append((rows.base + grid @ np.array(steps)).ravel())
            writes.append(np.tile(rows.writes, len(grid)))
        else:
            n = draw(st.integers(0, 12))
            part = (rng.integers(0, 1 << 20, n), rng.random(n) < 0.5)
            parts.append(part)
            addrs.append(part[0])
            writes.append(part[1])
    if not parts:
        return LazyStream(), np.empty(0, np.int64), np.empty(0, bool)
    return LazyStream(parts), np.concatenate(addrs), np.concatenate(writes)


class TestLazyStream:
    """A lazy stream reads, slices and joins to the accesses it stands for."""

    @given(case=lazy_streams(), data=st.data())
    @settings(settings.get_profile("repro-thorough"))
    def test_reads_and_slices_match_the_arrays(self, case, data):
        stream, addrs, writes = case
        assert len(stream) == len(addrs)
        n = len(addrs)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        got = stream.read(lo, hi)
        np.testing.assert_array_equal(got[0], addrs[lo:hi])
        np.testing.assert_array_equal(got[1], writes[lo:hi])
        sub = stream.slice(lo, hi)
        assert len(sub) == hi - lo
        a = data.draw(st.integers(0, hi - lo))
        b = data.draw(st.integers(a, hi - lo))
        np.testing.assert_array_equal(sub.read(a, b)[0], addrs[lo + a : lo + b])
        np.testing.assert_array_equal(sub.arrays()[0], addrs[lo:hi])
        joined = stream.arrays()
        np.testing.assert_array_equal(joined[0], addrs)
        np.testing.assert_array_equal(joined[1], writes)
        assert stream.arrays()[0] is joined[0]  # joined once, kept
        np.testing.assert_array_equal(stream.read(lo, hi)[0], addrs[lo:hi])

    def test_row_step_names_whole_rows_of_one_part(self):
        rows = Rows(np.arange(3) * 8, np.array([0, 0, 1], bool), [np.full(3, 24)], [10])
        stream = LazyStream([(np.arange(5), np.zeros(5, bool)), rows])
        np.testing.assert_array_equal(stream.row_step(5, 10, 3), rows.steps[0])
        np.testing.assert_array_equal(stream.row_step(8, 9, 3), rows.steps[0])  # from row 1
        for span in [(5, 11, 3), (6, 2, 3), (5, 5, 6), (0, 2, 3), (40, 2, 3)]:
            assert stream.row_step(*span) is None, span
        sliced = stream.slice(7, 32)  # cut rows at both ends
        assert sliced.row_step(1, 8, 3) is not None
        np.testing.assert_array_equal(sliced.arrays()[0], stream.arrays()[0][7:32])

    def test_row_step_names_rows_of_one_level_inside_one_outer_iteration(self):
        """Rows of a nest's inner level repeat inside one iteration of the
        level above, never across into the next one; the outer level's
        rows are the inner rows flattened, moved by its step tiled."""
        steps = [np.array([100, -8]), np.array([8, 24])]
        rows = Rows(np.array([1000, 2000]), np.array([0, 1], bool), steps, [3, 4])
        stream = LazyStream([rows])
        addrs = stream.arrays()[0].reshape(12, 2)
        np.testing.assert_array_equal(stream.row_step(2, 3, 2), steps[1])  # rows 1-3 of iteration 0
        np.testing.assert_array_equal(stream.row_step(8, 4, 2), steps[1])  # iteration 1, whole
        np.testing.assert_array_equal(stream.row_step(0, 3, 8), np.tile(steps[0], 4))
        np.testing.assert_array_equal(stream.row_step(8, 2, 8), addrs[4:8].ravel() - addrs[:4].ravel())
        # Inner rows 2-5 run into the next outer iteration, where they jump.
        for span in [(4, 4, 2), (6, 2, 2), (14, 3, 2), (0, 4, 8), (8, 3, 8), (0, 2, 4)]:
            assert stream.row_step(*span) is None, span
        assert (np.diff(addrs[2:6], axis=0) != steps[1]).any()

    def test_generated_loops_are_rows_and_join_to_the_full_trace(self):
        gen = TraceGenerator(simple_stream_program(n=64))
        trace = gen.generate()
        assert any(isinstance(p, Rows) for p in trace.stream.parts)
        assert len(trace) == trace.loads + trace.stores
        assert trace.nbytes == 9 * len(trace)
        chunks = list(gen.chunks(1 << 20))
        np.testing.assert_array_equal(trace.addresses, chunks[0].addresses)
        np.testing.assert_array_equal(trace.is_write, chunks[0].is_write)


#: The two layouts the golden trace digests are pinned under.
GOLDEN_LAYOUTS = [LayoutPolicy(), LayoutPolicy(alignment=32, pad_bytes=40)]


@st.composite
def short_nests(draw):
    """A guard-free nest whose outer loop runs 1-7 trips (and, inside it,
    maybe one more short loop) around one loop of at least 8 rows, that
    loop's lower bound maybe tiled by the outer variable; a sibling
    statement maybe sits beside the long loop (so the nest is not one
    loop deep) or at the top level before it."""
    outer = draw(st.integers(1, 7))
    mid = draw(st.sampled_from([None, 1, 3]))
    inner = draw(st.integers(8, 20))
    tile = draw(st.sampled_from([0, 1, inner]))
    sibling = draw(st.sampled_from([None, "before", "after", "top"]))
    coeff = [draw(st.integers(0, 3)) for _ in range(6)]
    size = 3 * (outer + tile * outer + inner + (mid or 1)) + 8
    b = ProgramBuilder("nest", params={"N": inner})
    x = b.array("x", size)
    y = b.array("y", size, output=True)
    s = b.scalar("s")
    if sibling == "top":
        with b.loop("t", 0, 3) as t:
            b.assign(y[t], x[t + 1])
    with b.loop("i", 0, outer) as i:
        def body(k):
            if sibling == "before":
                b.assign(s, x[i])
            with b.loop("j", tile * i, tile * i + inner) as j:
                b.assign(y[coeff[0] * i + coeff[1] * j + coeff[2] * k], s + x[coeff[3] * i + coeff[4] * j + coeff[5] * k + 1])
            if sibling == "after":
                b.assign(y[i], s)
        if mid is None:
            body(0)
        else:
            with b.loop("k", 0, mid) as k:
                body(k)
    return b.build(), draw(st.sampled_from(GOLDEN_LAYOUTS)), sibling in (None, "top")


class TestNestedRows:
    """A guard-free loop of fewer than 8 trips around one loop of at
    least 8 rows is one :class:`Rows` part: one part per nest."""

    @given(case=short_nests(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_parts_join_to_the_streamed_trace(self, case, data):
        program, policy, nested = case
        gen = TraceGenerator(program, None, build_layout(program, None, policy))
        trace = gen.generate()
        rows = [p for p in trace.stream.parts if isinstance(p, Rows)]
        assert len(rows) == nested
        with mock.patch.object(trace_generator, "_LAZY_TRIP", 1 << 30):
            whole = gen.generate()
        assert not any(isinstance(p, Rows) for p in whole.stream.parts)
        assert trace.spans == whole.spans
        assert (trace.flops, trace.loads, trace.stores) == (whole.flops, whole.loads, whole.stores)
        addrs, writes = whole.addresses, whole.is_write
        for budget in (97, 1 << 14):
            chunks = list(gen.chunks(budget))
            np.testing.assert_array_equal(np.concatenate([c.addresses for c in chunks]), addrs)
            np.testing.assert_array_equal(np.concatenate([c.is_write for c in chunks]), writes)
        stream = trace.stream
        for _ in range(3):
            lo = data.draw(st.integers(0, len(addrs)))
            hi = data.draw(st.integers(lo, len(addrs)))
            got = stream.read(lo, hi)
            np.testing.assert_array_equal(got[0], addrs[lo:hi])
            np.testing.assert_array_equal(got[1], writes[lo:hi])
            np.testing.assert_array_equal(stream.slice(lo, hi).arrays()[0], addrs[lo:hi])
        assert stream._joined is None
        np.testing.assert_array_equal(trace.addresses, addrs)
        np.testing.assert_array_equal(trace.is_write, writes)

    @pytest.mark.parametrize("name, nests", [("mm_blocked15", 1), ("mm_blocked30", 1), ("fft8192", 13)])
    def test_short_tile_and_stage_loops_are_all_rows(self, name, nests):
        """mm_blocked's tile loops at n = 90 (3 and 6 trips) and fft's
        last stages (4, 2 and 1 trips) are lazy, so the traces are: one
        part per nest, one level per loop of its spine."""
        from repro.programs import fft, matmul_blocked

        programs = {"mm_blocked15": matmul_blocked(90, 15), "mm_blocked30": matmul_blocked(90, 30), "fft8192": fft(8192)}
        trace = TraceGenerator(programs[name]).generate()
        assert len(trace.stream.parts) == nests
        assert all(isinstance(p, Rows) for p in trace.stream.parts)
        trips = [p.trips for p in trace.stream.parts]
        if name == "fft8192":
            assert trips == [(4096 >> s, 1 << s) for s in range(13)]
        else:
            assert trips == [(90 // int(name[-2:]), 90, int(name[-2:]))]


@st.composite
def perfect_nests(draw):
    """A guard-free perfect nest of one to three loops, each of 1-12
    trips (outer ones short more often), whose innermost body reads and
    writes through subscripts with zero or negative coefficients."""
    depth = draw(st.integers(1, 3))
    trips = [draw(st.sampled_from([1, 2, 3, 12]) | st.integers(1, 12)) for _ in range(depth - 1)]
    trips.append(draw(st.integers(1, 12)))
    coeffs = [[draw(st.integers(-3, 3)) for _ in range(depth)] for _ in range(3)]
    # Offsets keep every subscript in range: the most a negative
    # coefficient takes away, plus room for what the positive ones add.
    low = [sum(max(0, -c) * (t - 1) for c, t in zip(cs, trips)) for cs in coeffs]
    size = max(lo + sum(abs(c) * (t - 1) for c, t in zip(cs, trips)) for lo, cs in zip(low, coeffs)) + 3
    b = ProgramBuilder("perfect")
    x = b.array("x", size)
    y = b.array("y", size, output=True)
    s = b.scalar("s")
    loops = []
    with contextlib.ExitStack() as stack:
        for k, trip in enumerate(trips):
            loops.append(stack.enter_context(b.loop(f"i{k}", 0, trip)))

        def sub(k, extra=0):
            return sum((c * v for c, v in zip(coeffs[k], loops)), low[k] + extra)

        b.assign(s, x[sub(0)] + x[sub(1, 1)])
        b.assign(y[sub(2, 2)], s)
    return b.build(), draw(st.sampled_from(GOLDEN_LAYOUTS)), trips


class TestPerfectNests:
    """A perfect nest is one :class:`Rows` part whose levels are its loops;
    reads, slices and the steps of each level's rows agree with the
    arrays of generating it whole."""

    @given(case=perfect_nests(), data=st.data())
    @settings(settings.get_profile("repro-thorough"), deadline=None)
    def test_reads_slices_and_row_steps_match_whole_generation(self, case, data):
        program, policy, trips = case
        gen = TraceGenerator(program, None, build_layout(program, None, policy))
        trace = gen.generate()
        with mock.patch.object(trace_generator, "_LAZY_TRIP", 1 << 30):
            whole = gen.generate()
        addrs, writes = whole.addresses, whole.is_write
        stream = trace.stream
        (part,) = stream.parts
        assert isinstance(part, Rows) == (max(trips) >= 8)
        assert trace.spans == whole.spans
        n = len(addrs)
        for _ in range(3):
            lo = data.draw(st.integers(0, n))
            hi = data.draw(st.integers(lo, n))
            for got in (stream.read(lo, hi), stream.slice(lo, hi).arrays()):
                np.testing.assert_array_equal(got[0], addrs[lo:hi])
                np.testing.assert_array_equal(got[1], writes[lo:hi])
            if isinstance(part, Rows):
                np.testing.assert_array_equal(part.read(lo, hi)[0], addrs[lo:hi])
        if not isinstance(part, Rows):
            return
        assert part.trips == tuple(trips)
        for level, trip in enumerate(trips):
            # Rows a..b of one iteration of the levels above, perhaps
            # running into the next one.
            width = part.width * math.prod(trips[level + 1 :])
            outer = data.draw(st.integers(0, math.prod(trips[:level]) - 1))
            a = data.draw(st.integers(0, trip - 1))
            b = data.draw(st.integers(a, trip + 2))
            start = (outer * trip + a) * width
            count = min(b, (n - start) // width + a) - a
            step = stream.row_step(start, count, width)
            rows = addrs[start : start + count * width].reshape(count, width)
            # Levels of one width differ by levels of one trip between
            # them: the rows may lie inside one iteration of another.
            widths = [part.width * math.prod(trips[j + 1 :]) for j in range(len(trips))]
            inside = any(w == width and start // w % t + count <= t for w, t in zip(widths, trips))
            if count >= 2 and inside:
                np.testing.assert_array_equal(step, rows[1] - rows[0])
                assert (np.diff(rows, axis=0) == step).all()
            else:
                assert step is None, (level, outer, a, b)
        assert stream._joined is None
        np.testing.assert_array_equal(trace.addresses, addrs)


class TestTraceContainers:
    def test_concat_and_repeat(self):
        p = simple_stream_program(n=2)
        t = trace_of(p)
        double = t.repeated(2)
        assert len(double) == 2 * len(t)
        assert double.flops == 2 * t.flops
        joined = concat_traces([t, t, t])
        assert len(joined) == 3 * len(t)
        assert t.concat(t).loads == 2 * t.loads

    def test_repeat_validation(self):
        with pytest.raises(ValueError):
            EMPTY_TRACE.repeated(0)

    def test_register_bytes(self):
        p = simple_stream_program(n=4)
        t = trace_of(p)
        assert t.register_bytes == 8 * (t.loads + t.stores)


class TestStats:
    def test_trace_stats(self):
        p = simple_stream_program(n=8)
        t = trace_of(p)
        s = trace_stats(t, line_size=32)
        assert s.length == len(t)
        assert s.writes == 8
        assert s.distinct_bytes == 2 * 8 * 8
        assert s.distinct_lines == 4  # 128B over 32B lines

    def test_per_array(self):
        p = simple_stream_program(n=8)
        layout = build_layout(p, None, FLAT)
        t = generate_trace(p, layout=layout)
        per = per_array_accesses(t, layout)
        assert per["a"] == (8, 8)
        assert per["b"] == (8, 0)

    def test_stride_histogram(self):
        b = ProgramBuilder("p", params={"N": 8})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i], 1.0)
        t = trace_of(b.build())
        hist = stride_histogram(t)
        assert hist == {8: 7}


def _stream(trace):
    return list(zip(trace.addresses.tolist(), trace.is_write.tolist()))


def _interpreted(program):
    return interpreted_accesses(program, build_layout(program, None, FLAT))


def _assert_chunks_match(program):
    """Concatenated ``chunks()`` output equals ``generate()``, at chunk
    budgets from one access up to the whole trace."""
    gen = TraceGenerator(program, layout=build_layout(program, None, FLAT))
    full = gen.generate()
    for budget in (1, 3, 17, 1 << 20):
        parts = list(gen.chunks(budget))
        joined = concat_traces(parts)
        assert _stream(joined) == _stream(full), budget
        assert (joined.flops, joined.loads, joined.stores) == (
            full.flops,
            full.loads,
            full.stores,
        )
    return full


class TestCrossValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: simple_stream_program(n=12),
            lambda: __import__("repro.programs", fromlist=["convolution"]).convolution(16),
            lambda: __import__("repro.programs", fromlist=["matmul"]).matmul(5),
            lambda: __import__("repro.programs", fromlist=["sweep3d"]).sweep3d(5),
            lambda: __import__("repro.programs", fromlist=["fig6_fused"]).fig6_fused(5),
            lambda: __import__("repro.programs", fromlist=["fig6_optimized"]).fig6_optimized(5),
            lambda: __import__("repro.programs", fromlist=["nas_sp"]).nas_sp(6, 5),
            lambda: __import__("repro.programs", fromlist=["fft"]).fft(16),
            lambda: __import__("repro.programs", fromlist=["matmul_blocked"]).matmul_blocked(6, 3),
            lambda: __import__("repro.programs", fromlist=["jacobi"]).jacobi(6, 2),
            lambda: __import__("repro.programs", fromlist=["dmxpy"]).dmxpy(7, 5),
        ],
        ids=["stream", "conv", "mm", "sweep", "fig6b", "fig6c", "sp", "fft", "mmb", "jacobi", "dmxpy"],
    )
    def test_trace_counts_match_interpreter(self, factory):
        """The vectorized trace is the exact ordered (address, is_write)
        stream of an instrumented interpretation — guards, nests and
        all — and its load/store totals follow."""
        p = factory()
        t = trace_of(p)
        expected = _interpreted(p)
        assert _stream(t) == expected
        assert (t.loads, t.stores) == (
            sum(not w for _, w in expected),
            sum(w for _, w in expected),
        )
