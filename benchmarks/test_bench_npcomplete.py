"""E9 — the k-way-cut reduction: both optimizers agree on every instance."""

from conftest import once

from repro.experiments import run_e9


def test_bench_e9_reduction(benchmark):
    result = once(benchmark, lambda: run_e9(trials=8))
    print()
    print(result.table().render())
    assert result.detail.all_equal
    benchmark.extra_info["instances"] = len(result.detail.checks)
