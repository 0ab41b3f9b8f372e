"""End-to-end experiment tests: every headline claim of the paper, checked
against the reproduction's measured output."""

from dataclasses import replace

import pytest

from repro.experiments import (
    ExperimentConfig,
    run_e9,
    run_e10,
    run_e11,
    run_e12,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig8,
)

CFG = ExperimentConfig(scale=128)


@pytest.fixture(scope="module")
def fig1():
    return run_fig1(CFG)


@pytest.fixture(scope="module")
def fig2(fig1):
    return run_fig2(CFG, fig1)


@pytest.fixture(scope="module")
def fig3():
    return run_fig3(CFG)


class TestFig1:
    def test_all_programs_present(self, fig1):
        names = {b.program for b in fig1.detail.balances}
        assert names == {
            "convolution", "dmxpy", "mm(-O2)", "mm(-O3)", "FFT", "NAS/SP", "Sweep3D",
        }

    def test_memory_demand_exceeds_machine(self, fig1):
        """Every application (except blocked mm) demands far more memory
        bandwidth than the machine's 0.8 B/flop."""
        machine_mem = fig1.detail.machine.balance[-1]
        for b in fig1.detail.balances:
            if b.program == "mm(-O3)":
                continue
            assert b.memory_balance > 3 * machine_mem, b.program

    def test_blocked_mm_collapses(self, fig1):
        o2 = fig1.detail.by_name("mm(-O2)").memory_balance
        o3 = fig1.detail.by_name("mm(-O3)").memory_balance
        assert o3 < o2 / 4  # paper: 5.9 -> 0.04; shape: large collapse
        # the paper's striking point: blocked mm is the ONLY program whose
        # demand fits under the machine's memory balance
        assert o3 < fig1.detail.machine.balance[-1]

    def test_register_balance_positive_everywhere(self, fig1):
        for b in fig1.detail.balances:
            assert all(x > 0 for x in b.bytes_per_flop)

    def test_machine_row(self, fig1):
        assert fig1.detail.machine.balance == pytest.approx((4.0, 4.0, 0.8))

    def test_table_renders(self, fig1):
        text = fig1.table().render()
        assert "Origin2000" in text and "convolution" in text


class TestFig2:
    def test_memory_is_binding_everywhere(self, fig2):
        """The paper's core finding: the memory channel has the largest
        demand/supply ratio for every application."""
        for r in fig2.detail.ratios:
            assert r.limiting_channel == "Mem-L2", r.program

    def test_ratio_range_matches_paper_band(self, fig2):
        """Paper: memory ratios 3.4-10.5; ours land in the same decade."""
        mems = [r.ratios[-1] for r in fig2.detail.ratios]
        assert min(mems) > 3.0
        assert max(mems) < 20.0

    def test_cpu_utilization_mostly_idle(self, fig2):
        """'over 80% of CPU capacity is left unused'."""
        for r in fig2.detail.ratios:
            assert r.cpu_utilization_bound < 0.25, r.program

    def test_needed_bandwidth_argument(self, fig2):
        """Paper: fixing the bottleneck needs 1.02-3.15 GB/s class memory
        bandwidth — ours lands in the same range (GB/s scale)."""
        from repro.balance import required_memory_bandwidth

        needs = [required_memory_bandwidth(r, fig2.detail.machine) for r in fig2.detail.ratios]
        assert all(1e9 < n < 6e9 for n in needs)

    def test_blocked_mm_excluded(self, fig2):
        assert all(r.program != "mm(-O3)" for r in fig2.detail.ratios)


class TestFig3:
    def test_origin_flat(self, fig3):
        """'On Origin2000, the difference is within 20% among all kernels.'"""
        assert fig3.detail.origin.spread() < 0.20

    def test_origin_saturates(self, fig3):
        for name, bw in fig3.detail.origin.bandwidths.items():
            assert bw == pytest.approx(fig3.detail.origin.machine.memory_bandwidth, rel=0.05), name

    def test_exemplar_3w6r_dip(self, fig3):
        """Footnote 3: the six-array kernel falls below the rest on the
        direct-mapped machine."""
        bws = fig3.detail.exemplar.bandwidths
        others_min = min(bw for k, bw in bws.items() if k != "3w6r")
        assert bws["3w6r"] < 0.7 * others_min
        assert fig3.detail.exemplar.spread(exclude=("3w6r",)) < 0.2

    def test_padding_ablation_fixes_dip(self, fig3):
        """Our extension: one line of padding removes the conflict, which
        confirms the paper's conjecture causally."""
        padded = fig3.detail.exemplar_padded.bandwidths
        spread = fig3.detail.exemplar_padded.spread()
        assert spread < 0.2
        assert padded["3w6r"] > 1.5 * fig3.detail.exemplar.bandwidths["3w6r"]

    def test_table_lists_all_kernels(self, fig3):
        from repro.programs import KERNEL_NAMES

        text = fig3.table().render()
        for k in KERNEL_NAMES:
            assert k in text


class TestFig4:
    @pytest.fixture(scope="class")
    def fig4(self):
        return run_fig4(CFG)

    def test_paper_costs(self, fig4):
        assert fig4.detail.no_fusion_cost == 20
        assert fig4.detail.optimal_cost == 7
        assert fig4.detail.edge_weighted_bandwidth_cost == 8
        assert fig4.detail.edge_weighted_cross == 2
        assert fig4.detail.optimal_edge_weight == 3

    def test_partitionings_match_paper(self, fig4):
        from repro.fusion import Partitioning

        assert fig4.detail.optimal == Partitioning.of([{4}, {0, 1, 2, 3, 5}])
        assert fig4.detail.edge_weighted == Partitioning.of([{0, 1, 2, 3, 4}, {5}])

    def test_simulated_traffic_agrees_with_model(self, fig4):
        """Measured memory bytes rank exactly as the model's array loads:
        none > edge-weighted > bandwidth-minimal."""
        m = fig4.detail.memory_bytes
        assert m["none"] > m["edge"] > m["bandwidth"]
        # ratios roughly proportional to the load counts 20 : 8 : 7
        assert m["none"] / m["bandwidth"] == pytest.approx(20 / 7, rel=0.25)


class TestFig5:
    def test_scaling_and_correctness(self):
        r = run_fig5(edge_counts=(8, 16, 32), node_counts=(16, 64, 256))
        # node sweep: constant structure, flat cut weight
        weights = {p.cut_weight for p in r.detail.node_scaling}
        assert len(weights) == 1
        # edge sweep timings grow (polynomial in E), sanity only
        assert r.detail.edge_scaling[-1].seconds >= r.detail.edge_scaling[0].seconds
        assert "Figure 5" in r.table().render()

    def test_node_scaling_nearly_linear(self):
        r = run_fig5(edge_counts=(8,), node_counts=(16, 512))
        t_small = r.detail.node_scaling[0].seconds
        t_large = r.detail.node_scaling[-1].seconds
        # 32x the nodes must cost far less than 32x the time
        assert t_large < 8 * max(t_small, 1e-4)


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return run_fig6(CFG)

    def test_storage_drop(self, fig6):
        n = fig6.detail.n
        assert fig6.detail.storage_bytes("original") == 2 * n * n * 8
        assert fig6.detail.storage_bytes("optimized") == 2 * n * 8

    def test_traffic_drops_at_every_level(self, fig6):
        for level in range(3):
            orig = fig6.detail.runs["original"].counters.channel_bytes[level]
            opt = fig6.detail.runs["optimized"].counters.channel_bytes[level]
            assert opt < orig, level

    def test_fusion_already_helps(self, fig6):
        assert (
            fig6.detail.runs["fused"].counters.memory_bytes
            < fig6.detail.runs["original"].counters.memory_bytes
        )

    def test_optimized_runs_much_faster(self, fig6):
        assert fig6.detail.runs["optimized"].seconds < fig6.detail.runs["original"].seconds / 10


class TestFig8:
    @pytest.fixture(scope="class")
    def fig8(self):
        return run_fig8(CFG)

    def test_two_machines(self, fig8):
        assert len(fig8.detail.runs) == 2

    def test_monotone_stage_times(self, fig8):
        for machine, runs in fig8.detail.runs.items():
            secs = [r.seconds for r in runs]
            assert secs[0] > secs[1] > secs[2], machine

    def test_speedup_near_two(self, fig8):
        """Paper: 2.0x on Origin, 1.7x on Exemplar."""
        for machine in fig8.detail.runs:
            assert fig8.detail.speedup(machine) == pytest.approx(2.0, rel=0.2)

    def test_store_elim_touches_only_writebacks(self, fig8):
        """The defining property: memory *read* traffic is unchanged ('it
        does not affect the performance of memory reads at all'), while
        the writebacks disappear entirely. (Register traffic also drops:
        the forwarding scalar removes the redundant re-load of res[i].)"""
        for machine, (orig, fused, se) in fig8.detail.runs.items():
            assert (
                se.counters.level_stats[-1].read_misses
                == fused.counters.level_stats[-1].read_misses
            )
            assert se.counters.level_stats[-1].writebacks == 0
            assert fused.counters.level_stats[-1].writebacks > 0

    def test_programs_produced_by_compiler(self, fig8):
        """The fused/eliminated stages come from the transformation passes
        (build_stages verifies them against the interpreter)."""
        names = [p.name for p in fig8.detail.programs]
        assert names == ["fig7", "fig7_fused", "fig7_se"]


class TestE9:
    def test_reduction_agrees(self):
        r = run_e9(trials=5)
        assert r.detail.all_equal
        assert "E9" in r.table().render()


class TestE10:
    @pytest.fixture(scope="class")
    def e10(self):
        return run_e10(CFG, tiles=(10, 30))

    def test_blocking_monotone_in_tile(self, e10):
        assert e10.detail.memory_balance("blocked t=30") < e10.detail.memory_balance("jki (-O2)")

    def test_scalar_replacement_cuts_register_traffic(self, e10):
        with_sr = [b for n, b, _ in e10.detail.variants if n == "blocked t=30"][0]
        without = [b for n, b, _ in e10.detail.variants if n == "blocked t=30 no-SR"][0]
        assert with_sr.bytes_per_flop[0] < without.bytes_per_flop[0]

    def test_blocked_is_faster(self, e10):
        runs = {n: r for n, _, r in e10.detail.variants}
        assert runs["blocked t=30"].seconds < runs["jki (-O2)"].seconds


class TestE11:
    def test_five_of_seven(self):
        r = run_e11(CFG)
        assert r.detail.saturated_count == 5
        util = {s.name: s.utilization for s in r.detail.subroutines}
        assert util["y_solve"] < 0.84
        assert util["z_solve"] < 0.84
        assert util["compute_rhs"] >= 0.84


class TestE12:
    def test_stages_improve(self):
        r = run_e12(CFG)
        times = [run.seconds for _, run in r.detail.runs]
        assert times[-1] < times[0]
        assert len(r.detail.runs) >= 3
        assert "E12" in r.table().render()


class TestLadder:
    @pytest.fixture(scope="class")
    def small_ladder(self):
        """Shrink the ladder so pointwise-vs-planned comparison stays
        cheap: three rungs, the two cheapest workloads."""
        import repro.experiments.ladder_capacity as lc

        old_steps, old_workloads = lc.LADDER_STEPS, lc.ladder_workloads
        lc.LADDER_STEPS = (-6, -3, 0)

        def cheap_workloads(config):
            return old_workloads(config)[:2]  # convolution, dmxpy

        lc.ladder_workloads = cheap_workloads
        yield lc
        lc.LADDER_STEPS = old_steps
        lc.ladder_workloads = old_workloads

    @pytest.fixture(scope="class")
    def both_modes(self, small_ladder):
        from repro.experiments.ladder_capacity import run_ladder

        # sim_cache=False: no cross-mode warm hits.
        cfg = ExperimentConfig(scale=128, sim_cache=False)
        return run_ladder(cfg), run_ladder(replace(cfg, plan=True))

    def test_planned_is_bit_identical_to_pointwise(self, both_modes):
        point, planned = both_modes
        a, b = point.comparable_json(), planned.comparable_json()
        a["config"].pop("plan"), b["config"].pop("plan")
        assert a == b

    def test_plan_telemetry_recorded(self, both_modes):
        _, planned = both_modes
        assert planned.plan["points"] == 6
        assert planned.plan["by_rule"]["capacity"] == 6
        assert planned.plan["traces_generated"] == 2
        assert planned.plan["accesses_simulated"] * 3 == planned.plan["accesses_requested"]
        # The pointwise run records no plan block at all.
        assert both_modes[0].plan == {}

    def test_planned_ladder_after_predict_battery(self, small_ladder):
        """A predicting battery leaves nothing behind: the planned ladder
        run after it in the same process still plans every point."""
        from repro.experiments.ladder_capacity import run_ladder
        from repro.experiments.orchestrator import run_battery
        from repro.options import ExecOptions, current_options

        (fig1,) = run_battery(
            ["fig1"], ExperimentConfig(scale=256, sim_cache=False, predict=True)
        )
        assert fig1.ok and fig1.analytic["points"] > 0
        assert current_options() == ExecOptions()
        planned = run_ladder(ExperimentConfig(scale=128, sim_cache=False, plan=True))
        assert planned.plan["points"] == 6

    def test_miss_ratio_monotone(self, both_modes):
        point, _ = both_modes
        detail = point.detail
        for name in detail.programs:
            ratios = [detail.miss_ratio(name, s) for s in detail.sizes]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "ladder" in EXPERIMENTS
