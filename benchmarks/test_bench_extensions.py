"""Benchmarks for the lineage-extension experiments (E13–E16)."""

from conftest import once

from repro.experiments import run_e13, run_e14, run_e15, run_e16


def test_bench_e13_replacement(benchmark, cfg):
    result = once(benchmark, lambda: run_e13(cfg))
    print()
    print(result.table().render())
    for row in result.detail.rows:
        assert row.opt_bytes <= row.lru_bytes
    fig7 = result.detail.row("fig7")
    assert fig7.compiler_gain > fig7.opt_gain
    benchmark.extra_info["opt_gain"] = {r.program: round(r.opt_gain, 3) for r in result.detail.rows}


def test_bench_e14_intrinsic(benchmark, cfg):
    result = once(benchmark, lambda: run_e14(cfg))
    print()
    print(result.table().render())
    assert (
        result.detail.row("fig6_optimized").intrinsic.total_bytes
        < result.detail.row("fig6_original").intrinsic.total_bytes / 10
    )
    benchmark.extra_info["headroom"] = {
        r.program: round(r.headroom, 3) for r in result.detail.rows
    }


def test_bench_e15_prediction(benchmark, cfg):
    result = once(benchmark, lambda: run_e15(cfg))
    print()
    print(result.table().render())
    assert result.detail.max_error(same_geometry=True) < 1e-9
    benchmark.extra_info["max_cross_geometry_error"] = round(
        result.detail.max_error(same_geometry=False), 4
    )


def test_bench_e16_regrouping(benchmark, cfg):
    result = once(benchmark, lambda: run_e16(cfg))
    print()
    print(result.table().render())
    assert result.detail.bandwidths["regrouped"] > 1.5 * result.detail.bandwidths["conflicted"]
    benchmark.extra_info["bandwidth_mb_s"] = {
        k: round(v / 1e6, 1) for k, v in result.detail.bandwidths.items()
    }


def test_bench_e17_survey(benchmark, cfg):
    from repro.experiments import run_e17

    result = once(benchmark, lambda: run_e17(cfg))
    print()
    print(result.table().render())
    import pytest

    for kind in ("scal", "axpy", "dot"):
        row = result.detail.row(f"blas1_{kind}")
        assert row.balance.memory_balance == pytest.approx(row.expected_memory, rel=0.02)
    benchmark.extra_info["memory_balance"] = {
        r.program: round(r.balance.memory_balance, 2) for r in result.detail.rows
    }


def test_bench_e18_three_c(benchmark, cfg):
    from repro.experiments import run_e18

    result = once(benchmark, lambda: run_e18(cfg))
    print()
    print(result.table().render())
    anomaly = result.detail.row(cfg.exemplar.name, "3w6r")
    assert anomaly.classification.conflict_fraction >= 0.4
    benchmark.extra_info["exemplar_3w6r_conflict_fraction"] = round(
        anomaly.classification.conflict_fraction, 3
    )
