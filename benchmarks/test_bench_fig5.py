"""Figure 5 — the minimal hypergraph cut: correctness and the claimed
O(E^3 + V) scaling (cubic-ish in arrays, linear in loops)."""

import pytest

from repro.experiments import random_hypergraph, run_fig5
from repro.fusion import minimal_hyperedge_cut


@pytest.mark.parametrize("n_edges", [8, 16, 32, 64])
def test_bench_fig5_edge_scaling(benchmark, n_edges):
    """Solver time as the hyperedge (array) count grows."""
    hg = random_hypergraph(16, n_edges, seed=7 + n_edges)
    result = benchmark(lambda: minimal_hyperedge_cut(hg, 0, 15))
    benchmark.extra_info["n_edges"] = n_edges
    benchmark.extra_info["cut_weight"] = result.weight


@pytest.mark.parametrize("n_nodes", [16, 64, 256, 1024])
def test_bench_fig5_node_scaling(benchmark, n_nodes):
    """Solver time as the loop count grows with fixed hyperedge structure:
    should stay nearly flat (linear in V with a tiny constant)."""
    base = random_hypergraph(16, 24, seed=7)
    from repro.fusion import Hypergraph

    hg = Hypergraph(n_nodes, base.edges)
    result = benchmark(lambda: minimal_hyperedge_cut(hg, 0, 15))
    benchmark.extra_info["n_nodes"] = n_nodes
    benchmark.extra_info["cut_weight"] = result.weight


def test_bench_fig5_summary(benchmark):
    from conftest import once

    result = once(benchmark, run_fig5)
    print()
    print(result.table().render())
    weights = {p.cut_weight for p in result.detail.node_scaling}
    assert len(weights) == 1  # structure fixed => cut fixed
