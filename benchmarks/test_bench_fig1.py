"""Figure 1 — program and machine balance table."""

from conftest import once

from repro.experiments import PAPER_BALANCE, run_fig1


def test_bench_fig1_balance(benchmark, cfg):
    result = once(benchmark, lambda: run_fig1(cfg))
    print()
    print(result.table().render())

    machine_mem = result.detail.machine.balance[-1]
    for b in result.detail.balances:
        benchmark.extra_info[b.program] = [round(x, 2) for x in b.bytes_per_flop]
        if b.program != "mm(-O3)":
            assert b.memory_balance > 3 * machine_mem
    # the blocking collapse (paper: 5.9 -> 0.04)
    assert (
        result.detail.by_name("mm(-O3)").memory_balance
        < result.detail.by_name("mm(-O2)").memory_balance / 4
    )
    benchmark.extra_info["paper"] = {k: list(v) for k, v in PAPER_BALANCE.items()}
