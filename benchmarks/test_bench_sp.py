"""E11 — NAS/SP per-subroutine memory-bandwidth utilization (paper: 5 of 7
subroutines at >= 84%)."""

from conftest import once

from repro.experiments import run_e11


def test_bench_e11_sp_utilization(benchmark, cfg):
    result = once(benchmark, lambda: run_e11(cfg))
    print()
    print(result.table().render())

    assert result.detail.saturated_count == 5
    benchmark.extra_info["utilization"] = {
        s.name: round(s.utilization, 3) for s in result.detail.subroutines
    }
