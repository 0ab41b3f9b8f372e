"""Golden digests of the trace generator's output.

For every builder of :mod:`repro.programs` (one small instance each,
every kernel, BLAS-1 kind and ``mm`` loop order among them) under two
layouts, the test pins a SHA-256 digest of:

* ``generate()``: addresses, write flags, flops/loads/stores and the
  loop-span hints;
* ``chunks(budget)`` at three budgets: the same per chunk, so chunk
  boundaries and per-chunk hints are pinned too;
* ``statement_trace(i)`` for every top-level statement.

A change to how traces are built or held must keep every digest.  A
deliberate change to a program or to the trace format is recorded again
with ``PYTHONPATH=src python tests/test_trace_golden.py`` (rewrites
``tests/data/trace_golden.json``; review the diff).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.machine.layout import LayoutPolicy, build_layout
from repro.programs import (
    BLAS1_KERNELS,
    KERNEL_NAMES,
    blas1,
    convolution,
    dmxpy,
    fft,
    fig4_program,
    fig6_fused,
    fig6_optimized,
    fig6_original,
    fig7_fused,
    fig7_original,
    fig7_store_eliminated,
    jacobi,
    make_kernel,
    matmul,
    matmul_blocked,
    nas_sp,
    sec21_program,
    sec21_read_loop,
    sec21_write_loop,
    sweep3d,
)
from repro.trace import TraceGenerator

GOLDEN = Path(__file__).resolve().parent / "data" / "trace_golden.json"

LAYOUTS = {
    "default": LayoutPolicy(),
    "padded": LayoutPolicy(alignment=32, pad_bytes=40),
}

#: Chunk budgets: one below a typical row, one mid-sized, one that holds
#: most programs whole.
BUDGETS = (97, 1000, 1 << 14)


def _programs():
    yield from (blas1(kind, 300) for kind in BLAS1_KERNELS)
    yield from (make_kernel(name, 500) for name in KERNEL_NAMES)
    yield from (matmul(12, order) for order in ("ijk", "ikj", "jik", "jki", "kij", "kji"))
    yield matmul_blocked(12, 4)
    yield matmul_blocked(12, 6, scalar_replace=False)
    yield convolution(400, 3)
    yield dmxpy(128, 4)
    yield fft(64)
    yield jacobi(16, 2)
    yield nas_sp(8, 8)
    yield sweep3d(8, 2)
    yield sec21_program(200)
    yield sec21_write_loop(200)
    yield sec21_read_loop(200)
    yield fig4_program(24)
    yield fig6_original(24)
    yield fig6_fused(24)
    yield fig6_optimized(24)
    yield fig7_original(200)
    yield fig7_fused(200)
    yield fig7_store_eliminated(200)


def _digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        h.update(t.addresses.tobytes())
        h.update(t.is_write.tobytes())
        h.update(json.dumps([t.flops, t.loads, t.stores, [list(s) for s in t.spans]]).encode())
    return h.hexdigest()


def _cases():
    for layout_name, policy in LAYOUTS.items():
        for program in _programs():
            yield f"{program.name}/{layout_name}", program, policy


def _record(program, policy) -> dict:
    gen = TraceGenerator(program, None, build_layout(program, None, policy))
    out = {"generate": _digest([gen.generate()])}
    for budget in BUDGETS:
        out[f"chunks/{budget}"] = _digest(gen.chunks(budget))
    out["statements"] = _digest(gen.statement_trace(i) for i in range(len(program.body)))
    return out


CASES = list(_cases())


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key,program,policy", CASES, ids=[c[0] for c in CASES])
def test_trace_digests_match_golden(key, program, policy):
    assert _record(program, policy) == _golden()[key]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(key for key, _, _ in CASES)


if __name__ == "__main__":
    table = {key: _record(program, policy) for key, program, policy in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}", file=sys.stderr)
