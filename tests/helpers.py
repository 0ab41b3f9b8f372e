"""Shared program factories and oracles for the test suite."""

from __future__ import annotations

from repro.lang import ProgramBuilder


def simple_stream_program(name: str = "stream", n: int = 64):
    """``a[i] = a[i] + b[i]`` — the workhorse fixture program."""
    b = ProgramBuilder(name, params={"N": n})
    a = b.array("a", "N", output=True)
    bb = b.array("b", "N")
    with b.loop("i", 0, "N") as i:
        b.assign(a[i], a[i] + bb[i])
    return b.build()


def reduction_program(name: str = "reduce", n: int = 64):
    """``sum += a[i]``."""
    b = ProgramBuilder(name, params={"N": n})
    a = b.array("a", "N")
    s = b.scalar("sum", output=True)
    with b.loop("i", 0, "N") as i:
        b.assign(s, s + a[i])
    return b.build()


def two_loop_chain(name: str = "chain", n: int = 64):
    """Producer loop then consumer reduction — fusable pair."""
    b = ProgramBuilder(name, params={"N": n})
    src = b.array("src", "N")
    tmp = b.array("tmp", "N")
    s = b.scalar("sum", output=True)
    with b.loop("i", 0, "N") as i:
        b.assign(tmp[i], src[i] * 2.0)
    with b.loop("i", 0, "N") as i:
        b.assign(s, s + tmp[i])
    return b.build()


def interpreted_accesses(program, layout) -> list[tuple[int, bool]]:
    """The ordered ``(address, is_write)`` stream of an instrumented
    interpretation: every array read the evaluator performs and every
    array store, addressed through ``layout``. An oracle for the trace
    generator that shares none of its machinery."""
    from repro.interp.evaluator import Evaluator
    from repro.lang.expr import ArrayRef

    ev = Evaluator(program)
    seq: list[tuple[int, bool]] = []
    orig_eval, orig_store = ev._eval, ev._store

    def address(ref, env):
        return layout.element_address(ref.array, tuple(sub.evaluate(env) for sub in ref.index))

    def recording_eval(expr, env):
        if isinstance(expr, ArrayRef):
            seq.append((address(expr, env), False))
        return orig_eval(expr, env)

    def recording_store(ref, env, value):
        seq.append((address(ref, env), True))
        return orig_store(ref, env, value)

    ev._eval, ev._store = recording_eval, recording_store
    ev.run()
    return seq
