"""E10 — the blocking ablation behind Figure 1's mm(-O2)/mm(-O3) pair."""

from conftest import once

from repro.experiments import run_e10


def test_bench_e10_blocking(benchmark, cfg):
    result = once(benchmark, lambda: run_e10(cfg))
    print()
    print(result.table().render())

    base = result.detail.memory_balance("jki (-O2)")
    best = min(
        balance.memory_balance
        for name, balance, _ in result.detail.variants
        if name.startswith("blocked t=") and "no-SR" not in name
    )
    assert best < base / 4
    benchmark.extra_info["memory_balance"] = {
        name: round(balance.memory_balance, 3) for name, balance, _ in result.detail.variants
    }
