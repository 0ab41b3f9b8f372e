"""Figure 4 — bandwidth-minimal vs edge-weighted fusion counterexample."""

from conftest import once

from repro.experiments import run_fig4


def test_bench_fig4_fusion(benchmark, cfg):
    result = once(benchmark, lambda: run_fig4(cfg))
    print()
    print(result.table().render())

    # the exact numbers of the paper's example
    assert result.detail.no_fusion_cost == 20
    assert result.detail.optimal_cost == 7
    assert result.detail.edge_weighted_bandwidth_cost == 8
    assert result.detail.edge_weighted_cross == 2
    assert result.detail.optimal_edge_weight == 3
    # simulated traffic ranks the same way
    m = result.detail.memory_bytes
    assert m["none"] > m["edge"] > m["bandwidth"]
    benchmark.extra_info["array_loads"] = {
        "none": result.detail.no_fusion_cost,
        "bandwidth_minimal": result.detail.optimal_cost,
        "edge_weighted": result.detail.edge_weighted_bandwidth_cost,
    }
    benchmark.extra_info["simulated_mem_bytes"] = dict(m)
