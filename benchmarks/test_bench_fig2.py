"""Figure 2 — demand/supply ratios and CPU-utilization bounds."""

from conftest import once

from repro.experiments import PAPER_RATIOS, run_fig2


def test_bench_fig2_ratios(benchmark, cfg):
    result = once(benchmark, lambda: run_fig2(cfg))
    print()
    print(result.table().render())

    for r in result.detail.ratios:
        benchmark.extra_info[r.program] = {
            "ratios": [round(x, 1) for x in r.ratios],
            "cpu_bound": round(r.cpu_utilization_bound, 3),
        }
        # memory is the scarcest resource for every program
        assert r.limiting_channel == "Mem-L2"
        # "over 80% of CPU capacity is left unused"
        assert r.cpu_utilization_bound < 0.25
    benchmark.extra_info["paper"] = {k: list(v) for k, v in PAPER_RATIOS.items()}
