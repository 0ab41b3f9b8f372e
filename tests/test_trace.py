"""Trace-engine tests: exact address sequences, guards, imperfect nests,
tiled bounds, and cross-validation against the reference interpreter."""

import tracemalloc

import pytest

from repro.errors import ExecutionError, IRError
from repro.lang import ProgramBuilder
from repro.machine import LayoutPolicy, build_layout
from repro.trace import TraceGenerator, generate_trace, trace_stats
from repro.trace.events import EMPTY_TRACE, concat_traces
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


def _generation_peak_ratio(program):
    """Peak traced memory of ``generate()`` over the trace's own bytes
    (NumPy reports its buffers to tracemalloc)."""
    gen = TraceGenerator(program)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        trace = gen.generate()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / trace.nbytes


class TestGenerationMemory:
    """Addresses are written once, into the output trace: generation
    holds no full-size temporaries besides the trace itself."""

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
