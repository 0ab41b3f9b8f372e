"""Figures 7/8 — store elimination on both machines."""

import pytest

from conftest import once

from repro.experiments import PAPER_SECONDS, run_fig8


def test_bench_fig8_store_elimination(benchmark, cfg):
    result = once(benchmark, lambda: run_fig8(cfg))
    print()
    print(result.table().render())

    for machine, runs in result.detail.runs.items():
        secs = [r.seconds for r in runs]
        assert secs[0] > secs[1] > secs[2]
        # paper: combined ~2x (Origin exactly 2.0, Exemplar 1.7)
        assert result.detail.speedup(machine) == pytest.approx(2.0, rel=0.2)
        benchmark.extra_info[machine] = {
            "seconds": [round(s, 6) for s in secs],
            "speedup": round(result.detail.speedup(machine), 2),
        }
    benchmark.extra_info["paper_seconds"] = {k: list(v) for k, v in PAPER_SECONDS.items()}
