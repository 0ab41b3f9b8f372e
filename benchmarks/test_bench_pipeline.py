"""E12 — the full compiler strategy, stage by stage."""

from conftest import once

from repro.experiments import run_e12


def test_bench_e12_pipeline(benchmark, cfg):
    result = once(benchmark, lambda: run_e12(cfg))
    print()
    print(result.detail.pipeline.describe())
    print(result.table().render())

    times = [run.seconds for _, run in result.detail.runs]
    assert times[-1] < times[0]
    benchmark.extra_info["stage_ms"] = {
        label: round(run.seconds * 1e3, 3) for label, run in result.detail.runs
    }
