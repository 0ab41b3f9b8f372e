"""Golden estimates of the analytic predictor.

``analyze`` must keep returning exactly these counters: flops, loads,
stores, the ``approximate`` flag and, per cache level, accesses, misses
and writebacks.  The points are the ones the predict workload answers
(Figure 1's programs and Figure 3's kernels on Origin2000, Exemplar and
padded Exemplar at three machine scales) plus every program of
``repro.programs.paper_examples`` — the guarded Figure 6 stages among
them — on Origin2000/64 and Exemplar/64.

Any change to the model's numbers is a deliberate model change: rerun
``PYTHONPATH=src python tests/test_analytic_golden.py`` to rewrite
``tests/data/analytic_golden.json`` and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.balance.analytic import analyze
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig1_balance import _workloads
from repro.machine import exemplar, origin2000
from repro.machine.layout import LayoutPolicy
from repro.programs import KERNEL_NAMES, make_kernel, paper_examples

GOLDEN = Path(__file__).resolve().parent / "data" / "analytic_golden.json"
# The smallest, a middle and the largest scale of the predict ladder
# (scale 24 has no Exemplar cache divisible by five, so Figure 3 cannot
# be built there).
SCALES = (26, 64, 128)
PAPER_EXAMPLES = (
    "sec21_program",
    "sec21_write_loop",
    "sec21_read_loop",
    "fig4_program",
    "fig6_original",
    "fig6_fused",
    "fig6_optimized",
    "fig7_original",
    "fig7_fused",
    "fig7_store_eliminated",
)
# The padded-Exemplar ablation of Figure 3.
PADDED = LayoutPolicy(alignment=32, pad_bytes=32)


def _points():
    """``(key, thunk)`` for every golden point; the thunk runs ``analyze``."""
    for scale in SCALES:
        config = ExperimentConfig(scale=scale)
        for name, prog in _workloads(config):
            yield f"fig1/{scale}/{name}", lambda p=prog, m=config.origin: analyze(p, m)
        n_ex = config.exemplar_kernel_elements()
        suites = (
            ("origin", config.origin, config.stream_elements(), None),
            ("exemplar", config.exemplar, n_ex, None),
            ("exemplar+pad", config.exemplar, n_ex, PADDED),
        )
        for suite, machine, n, policy in suites:
            for kernel in KERNEL_NAMES:
                yield f"fig3/{scale}/{suite}/{kernel}", (
                    lambda k=kernel, m=machine, n=n, pol=policy: analyze(
                        make_kernel(k, n), m, layout_policy=pol
                    )
                )
    for machine in (origin2000(scale=64), exemplar(scale=64)):
        for name in PAPER_EXAMPLES:
            prog = getattr(paper_examples, name)()
            yield f"paper/{machine.name}/{name}", (
                lambda p=prog, m=machine: analyze(p, m)
            )


def _fields(est) -> dict:
    return {
        "flops": est.flops,
        "loads": est.loads,
        "stores": est.stores,
        "approximate": est.approximate,
        "levels": [
            {
                "name": lv.name,
                "accesses": lv.accesses,
                "misses": lv.misses,
                "writebacks": lv.writebacks,
            }
            for lv in est.levels
        ],
    }


POINTS = dict(_points())
GOLDEN_DATA = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_covers_every_point():
    assert sorted(GOLDEN_DATA) == sorted(POINTS)


@pytest.mark.parametrize("key", list(POINTS))
def test_estimate_matches_golden(key):
    assert _fields(POINTS[key]()) == GOLDEN_DATA[key]


if __name__ == "__main__":
    data = {key: _fields(thunk()) for key, thunk in _points()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} estimates to {GOLDEN}", file=sys.stderr)
