"""Property-based cross-validation on *randomly generated programs*.

A hypothesis strategy builds small but structurally diverse IR programs
(nested loops, guards, reductions, stencil offsets, read() inputs), and
three independent implementations are pitted against each other:

* the vectorized trace engine vs an instrumented interpretation
  (the ordered address/write stream must match exactly);
* the printer/parser round trip vs the interpreter (same observables);
* the LRU hierarchy vs the intrinsic floor (traffic can never go below
  compulsory + writeback).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import parse, render
from repro.lang.affine import Affine, Cmp
from repro.lang.expr import ArrayRef, BinOp, Const, ScalarRef
from repro.lang.program import Program
from repro.lang.stmt import Assign, ExternalRead, If, Loop
from repro.lang.types import ArrayDecl, ScalarDecl, make_shape

N_VALUE = 7  # small fixed size: bounds below keep subscripts in range

ARRAYS = ("arr_a", "arr_b", "arr_c")


@st.composite
def small_exprs(draw, var: str, depth: int = 0):
    choice = draw(st.integers(0, 3 if depth < 2 else 1))
    if choice == 0:
        return Const(draw(st.sampled_from([0.5, 1.0, 2.0, -1.5])))
    if choice == 1:
        arr = draw(st.sampled_from(ARRAYS))
        offset = draw(st.sampled_from([-1, 0, 1]))
        return ArrayRef(arr, (Affine({var: 1}, offset),))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return BinOp(
        op,
        draw(small_exprs(var, depth + 1)),
        draw(small_exprs(var, depth + 1)),
    )


@st.composite
def leaf_stmts(draw, var: str):
    kind = draw(st.integers(0, 3))
    if kind == 0:  # array assignment (in-range subscript: var in [1, N-1))
        arr = draw(st.sampled_from(ARRAYS))
        return Assign(ArrayRef(arr, (Affine.var(var),)), draw(small_exprs(var)))
    if kind == 1:  # reduction
        return Assign(ScalarRef("acc"), ScalarRef("acc") + draw(small_exprs(var)))
    if kind == 2:  # external input
        arr = draw(st.sampled_from(ARRAYS))
        return ExternalRead(ArrayRef(arr, (Affine.var(var),)))
    return Assign(ScalarRef("tmp"), draw(small_exprs(var)))


@st.composite
def loop_bodies(draw, var: str):
    n_stmts = draw(st.integers(1, 3))
    body = []
    for _ in range(n_stmts):
        stmt = draw(leaf_stmts(var))
        if draw(st.booleans()):
            op = draw(st.sampled_from(["<", "<=", ">=", "=="]))
            pivot = draw(st.integers(1, N_VALUE - 2))
            cond = Cmp(op, Affine.var(var), Affine.const_of(pivot))
            if draw(st.booleans()):
                orelse = (draw(leaf_stmts(var)),)
            else:
                orelse = ()
            stmt = If(cond, (stmt,), orelse)
        body.append(stmt)
    return body


@st.composite
def programs(draw):
    n_loops = draw(st.integers(1, 3))
    body = []
    for k in range(n_loops):
        var = f"v{k}"
        if draw(st.booleans()):
            inner_var = f"w{k}"
            inner = Loop(
                inner_var,
                Affine.const_of(1),
                Affine({"N": 1}, -1),
                tuple(draw(loop_bodies(inner_var))),
            )
            body.append(Loop(var, Affine.const_of(0), Affine.const_of(2), (inner,)))
        else:
            body.append(
                Loop(var, Affine.const_of(1), Affine({"N": 1}, -1), tuple(draw(loop_bodies(var))))
            )
    return Program(
        "generated",
        params={"N": N_VALUE},
        arrays=tuple(ArrayDecl(a, make_shape("N")) for a in ARRAYS),
        scalars=(ScalarDecl("acc", output=True), ScalarDecl("tmp", output=True)),
        body=tuple(body),
        outputs=frozenset(ARRAYS),
    )


@settings(max_examples=60, deadline=None)
@given(programs())
def test_trace_matches_interpretation(program):
    from repro.machine import LayoutPolicy, build_layout
    from repro.trace import generate_trace

    from tests.helpers import interpreted_accesses

    layout = build_layout(program, None, LayoutPolicy(alignment=8, pad_bytes=0))
    trace = generate_trace(program, layout=layout)
    expected = interpreted_accesses(program, layout)
    assert list(zip(trace.addresses.tolist(), trace.is_write.tolist())) == expected
    assert (trace.loads, trace.stores) == (
        sum(not w for _, w in expected),
        sum(w for _, w in expected),
    )


@settings(max_examples=40, deadline=None)
@given(programs())
def test_parse_render_roundtrip_semantics(program):
    from repro.interp import evaluate

    text = render(program)
    reparsed = parse(text)
    assert render(reparsed) == text
    a = evaluate(program, input_seed=3)
    b = evaluate(reparsed, input_seed=3)
    assert a.scalars == b.scalars
    for name in program.output_arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])


@settings(max_examples=25, deadline=None)
@given(programs())
def test_hierarchy_traffic_at_least_intrinsic(program):
    from repro.balance import intrinsic_traffic
    from repro.interp import execute
    from repro.machine import build_layout, origin2000
    from repro.trace import generate_trace

    machine = origin2000(scale=512)  # tiny caches: plenty of misses
    try:
        run = execute(program, machine)
    except Exception as exc:  # zero-work programs are legal draws
        if "no work" in str(exc):
            return
        raise
    layout = build_layout(program, None, machine.default_layout)
    trace = generate_trace(program, layout=layout)
    floor = intrinsic_traffic(trace, machine.cache_levels[-1].geometry.line_size)
    assert run.counters.memory_bytes >= floor.total_bytes


@settings(max_examples=25, deadline=None)
@given(programs())
def test_opt_never_worse_than_lru_on_programs(program):
    from repro.machine import CacheGeometry, LayoutPolicy, build_layout, lru_vs_opt
    from repro.trace import generate_trace

    layout = build_layout(program, None, LayoutPolicy(alignment=8, pad_bytes=0))
    trace = generate_trace(program, layout=layout)
    if len(trace) == 0:
        return
    geom = CacheGeometry(64, 32, 2)
    lru, opt = lru_vs_opt(trace.addresses, trace.is_write, geom)
    assert opt <= lru
