"""Figure 6 — array shrinking and peeling: storage and traffic."""

from conftest import once

from repro.experiments import run_fig6


def test_bench_fig6_storage(benchmark, cfg):
    result = once(benchmark, lambda: run_fig6(cfg))
    print()
    print(result.table().render())

    n = result.detail.n
    assert result.detail.storage_bytes("original") == 2 * n * n * 8
    assert result.detail.storage_bytes("optimized") == 2 * n * 8
    # the compiler pipeline derives the same storage as the paper's hand
    # transformation, from the fused version, mechanically
    assert result.detail.storage_bytes("auto-derived") == result.detail.storage_bytes("optimized")
    assert (
        result.detail.runs["auto-derived"].counters.memory_bytes
        == result.detail.runs["optimized"].counters.memory_bytes
    )
    for level in range(3):
        assert (
            result.detail.runs["optimized"].counters.channel_bytes[level]
            < result.detail.runs["original"].counters.channel_bytes[level]
        )
    benchmark.extra_info["declared_bytes"] = {
        v: result.detail.storage_bytes(v)
        for v in ("original", "fused", "optimized", "auto-derived")
    }
    benchmark.extra_info["mem_bytes"] = {
        v: r.counters.memory_bytes for v, r in result.detail.runs.items()
    }
