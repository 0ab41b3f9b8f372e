"""Figure 3 — effective memory bandwidth of the stride-one kernels."""

from conftest import once

from repro.experiments import run_fig3


def test_bench_fig3_kernels(benchmark, cfg):
    result = once(benchmark, lambda: run_fig3(cfg))
    print()
    print(result.table().render())

    benchmark.extra_info["origin_mb_s"] = {
        k: round(v / 1e6, 1) for k, v in result.detail.origin.bandwidths.items()
    }
    benchmark.extra_info["exemplar_mb_s"] = {
        k: round(v / 1e6, 1) for k, v in result.detail.exemplar.bandwidths.items()
    }
    # Origin: all kernels within 20% (paper's wording)
    assert result.detail.origin.spread() < 0.20
    # Exemplar: the 3w6r direct-mapped anomaly (footnote 3)
    bws = result.detail.exemplar.bandwidths
    assert bws["3w6r"] < 0.7 * min(v for k, v in bws.items() if k != "3w6r")
    # padding ablation removes it
    assert result.detail.exemplar_padded.spread() < 0.20
