"""Tests for the lineage extensions: Belady-OPT replacement, intrinsic
bandwidth, bandwidth-based prediction, inter-array regrouping, and the
program-order fusion baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balance import (
    bandwidth_headroom,
    intrinsic_balance,
    intrinsic_traffic,
    predict_speedup,
    predict_time,
    program_balance,
    utilization_bound_from_balance,
)
from repro.errors import MachineError, ReproError, TransformError
from repro.interp import execute
from repro.lang import ProgramBuilder
from repro.machine import (
    Cache,
    CacheGeometry,
    CacheStats,
    LayoutPolicy,
    lru_vs_opt,
    origin2000,
    simulate_opt,
)
from repro.options import ExecOptions, use_options
from repro.transforms import regroup_arrays, regroupable_sets, verify_equivalent

from tests.helpers import simple_stream_program


def brute_force_opt(byte_addrs, is_write, geometry, flush=True):
    """Per-access Belady-OPT replay: the oracle ``simulate_opt`` must match.

    Every access is visited; on a miss with a full set the resident line
    with the farthest next use is evicted, and ``max`` keeps the first of
    tied (never reused) lines in dict order, i.e. the first inserted.
    Returns (CacheStats, downstream bytes).
    """
    n = len(byte_addrs)
    stats = CacheStats()
    if n == 0:
        return stats, 0
    line_shift = geometry.line_size.bit_length() - 1
    lines = (np.asarray(byte_addrs, dtype=np.int64) >> line_shift).tolist()
    writes = np.asarray(is_write, dtype=bool).tolist()
    n_sets = geometry.n_sets
    assoc = geometry.associativity

    next_use = [n] * n
    last_seen = {}
    for k in range(n - 1, -1, -1):
        next_use[k] = last_seen.get(lines[k], n)
        last_seen[lines[k]] = k

    sets = [dict() for _ in range(n_sets)]
    misses = hits = rmiss = wmiss = evict = wb = 0
    for k in range(n):
        line, w = lines[k], writes[k]
        ways = sets[line % n_sets]
        entry = ways.get(line)
        if entry is not None:
            hits += 1
            entry[0] = next_use[k]
            entry[1] = entry[1] or w
            continue
        misses += 1
        if w:
            wmiss += 1
        else:
            rmiss += 1
        if len(ways) >= assoc:
            victim_line, victim = max(ways.items(), key=lambda kv: kv[1][0])
            del ways[victim_line]
            evict += 1
            if victim[1]:
                wb += 1
        ways[line] = [next_use[k], w]
    if flush:
        wb += sum(1 for ways in sets for entry in ways.values() if entry[1])

    stats.accesses, stats.hits, stats.misses = n, hits, misses
    stats.read_misses, stats.write_misses = rmiss, wmiss
    stats.evictions, stats.writebacks, stats.events_out = evict, wb, misses + wb
    return stats, (misses + wb) * geometry.line_size


@st.composite
def opt_cases(draw):
    """A geometry (assoc 1-5, 1/2/3/4/5/8 sets) and a trace of runs of
    repeated lines, some long, with arbitrary write flags."""
    assoc = draw(st.integers(1, 5))
    n_sets = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    line = draw(st.sampled_from([16, 32]))
    geom = CacheGeometry(assoc * n_sets * line, line, assoc)
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 3 * assoc * n_sets), st.integers(1, 12)),
            max_size=60,
        )
    )
    addrs = [ln * line + (k * 8) % line for ln, reps in runs for k in range(reps)]
    writes = draw(st.lists(st.booleans(), min_size=len(addrs), max_size=len(addrs)))
    return geom, np.asarray(addrs, dtype=np.int64), np.asarray(writes, dtype=bool)


class TestBeladyOpt:
    GEOM = CacheGeometry(128, 32, 2)  # 4 lines, 2 sets

    def as_arrays(self, addrs, writes=None):
        a = np.asarray(addrs, dtype=np.int64)
        w = np.asarray(writes if writes is not None else [False] * len(addrs), dtype=bool)
        return a, w

    def test_compulsory_only(self):
        a, w = self.as_arrays([0, 32, 0, 32])
        res = simulate_opt(a, w, self.GEOM)
        assert res.misses == 2
        assert res.stats.hits == 2

    def test_opt_keeps_sooner_needed_line(self):
        # one set (use direct geometry with 1 set, 2 ways): lines 0,2,4 map
        # to set 0 of a 2-set cache when even.
        geom = CacheGeometry(64, 32, 2)  # single set, 2 ways
        # access 0, 32, 64 then 0: OPT evicts 32 (never reused), LRU evicts 0.
        addrs = [0, 32, 64, 0]
        a, w = self.as_arrays(addrs)
        opt = simulate_opt(a, w, geom, flush=False)
        assert opt.misses == 3  # 0,32,64 cold; final 0 hits under OPT
        lru = Cache("l", geom)
        lru.run(a, w)
        assert lru.stats.misses == 4  # LRU evicted 0

    def test_writeback_accounting(self):
        geom = CacheGeometry(32, 32, 1)  # one line total
        a, w = self.as_arrays([0, 32], [True, False])
        res = simulate_opt(a, w, geom, flush=False)
        assert res.writebacks == 1
        assert res.downstream_bytes == (2 + 1) * 32

    def test_flush_counts_dirty(self):
        geom = CacheGeometry(64, 32, 2)
        a, w = self.as_arrays([0, 32], [True, True])
        res = simulate_opt(a, w, geom, flush=True)
        assert res.writebacks == 2

    def test_validation(self):
        with pytest.raises(MachineError):
            simulate_opt(np.zeros(2, dtype=np.int64), np.zeros(3, dtype=bool), self.GEOM)

    def test_empty(self):
        res = simulate_opt(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), self.GEOM)
        assert res.downstream_bytes == 0

    @settings(max_examples=60, deadline=None)
    @given(
        addrs=st.lists(st.integers(0, 31), min_size=1, max_size=150),
        data=st.data(),
    )
    def test_opt_never_worse_than_lru(self, addrs, data):
        """The defining property of Belady's policy."""
        writes = [data.draw(st.booleans()) for _ in addrs]
        a, w = self.as_arrays([x * 8 for x in addrs], writes)
        lru_bytes, opt_bytes = lru_vs_opt(a, w, self.GEOM)
        assert opt_bytes <= lru_bytes

    @settings(max_examples=40, deadline=None)
    @given(addrs=st.lists(st.integers(0, 15), min_size=1, max_size=80))
    def test_opt_at_least_compulsory(self, addrs):
        a, w = self.as_arrays([x * 32 for x in addrs])
        res = simulate_opt(a, w, self.GEOM, flush=False)
        distinct = len({x for x in addrs})
        assert res.misses >= distinct

    @settings(max_examples=150, deadline=None)
    @given(case=opt_cases(), flush=st.booleans())
    def test_matches_per_access_oracle(self, case, flush):
        """Run collapse is exact: every counter and the traffic match the
        per-access replay."""
        geom, a, w = case
        res = simulate_opt(a, w, geom, flush=flush)
        assert (res.stats, res.downstream_bytes) == brute_force_opt(a, w, geom, flush)

    def test_oracle_on_long_runs_of_odd_set_counts(self):
        rng = np.random.default_rng(13)
        for n_sets in (3, 5):
            for assoc in range(1, 6):
                geom = CacheGeometry(assoc * n_sets * 32, 32, assoc)
                lines = np.repeat(rng.integers(0, 4 * assoc * n_sets, 200),
                                  rng.integers(1, 30, 200))
                a = (lines * 32).astype(np.int64)
                w = rng.random(len(a)) < 0.1  # a run is dirty mostly past its head
                for flush in (True, False):
                    res = simulate_opt(a, w, geom, flush=flush)
                    assert (res.stats, res.downstream_bytes) == brute_force_opt(
                        a, w, geom, flush)

    def test_tie_evicts_first_inserted_line(self):
        # One set, 2 ways: line 0 (dirty) and line 1 (clean) are never used
        # again, so they tie at infinity when line 2 misses; the first
        # inserted (dirty line 0) goes and costs a writeback.
        geom = CacheGeometry(64, 32, 2)
        a, w = self.as_arrays([0, 32, 64], [True, False, False])
        res = simulate_opt(a, w, geom, flush=False)
        assert (res.misses, res.stats.evictions, res.writebacks) == (3, 1, 1)
        # Inserted the other way round, the clean line goes: no writeback.
        a, w = self.as_arrays([32, 0, 64], [False, True, False])
        res = simulate_opt(a, w, geom, flush=False)
        assert (res.misses, res.stats.evictions, res.writebacks) == (3, 1, 0)
        # A hit does not refresh insertion order: line 0 stays first.
        a, w = self.as_arrays([0, 32, 0, 64], [True, False, False, False])
        res = simulate_opt(a, w, geom, flush=False)
        assert (res.misses, res.writebacks) == (3, 1)

    def test_dirty_bit_is_or_of_the_run(self):
        # The write is the run's second access, not its head: the line is
        # still dirty when it is evicted.
        geom = CacheGeometry(32, 32, 1)
        a, w = self.as_arrays([0, 8, 32], [False, True, False])
        res = simulate_opt(a, w, geom, flush=False)
        assert (res.stats.read_misses, res.stats.write_misses, res.writebacks) == (2, 0, 1)

    def test_lru_side_same_on_reference_and_engines(self):
        rng = np.random.default_rng(5)
        a = (rng.integers(0, 96, 2000) * 16).astype(np.int64)
        w = rng.random(2000) < 0.3
        for geom in (CacheGeometry(512, 32, 2), CacheGeometry(480, 32, 3),
                     CacheGeometry(512, 32, 16), CacheGeometry(320, 32, 1)):
            fast = lru_vs_opt(a, w, geom)
            with use_options(ExecOptions(engine="reference")):
                assert lru_vs_opt(a, w, geom) == fast


class TestIntrinsic:
    def test_stream_floor(self):
        from repro.machine import build_layout
        from repro.trace import generate_trace

        p = simple_stream_program(n=64)  # a rw, b r: 1 KiB total
        layout = build_layout(p, None, LayoutPolicy(alignment=8, pad_bytes=0))
        t = generate_trace(p, layout=layout)
        intr = intrinsic_traffic(t, line_size=64)
        assert intr.distinct_lines == 16  # 1 KiB / 64
        assert intr.dirty_lines == 8  # only a written
        assert intr.total_bytes == 24 * 64

    def test_headroom(self):
        from repro.balance.intrinsic import IntrinsicTraffic

        intr = IntrinsicTraffic(64, 10, 5)
        assert bandwidth_headroom(2 * intr.total_bytes, intr) == pytest.approx(2.0)
        assert bandwidth_headroom(0, IntrinsicTraffic(64, 0, 0)) == 1.0

    def test_intrinsic_balance(self):
        from repro.machine import build_layout
        from repro.trace import generate_trace

        p = simple_stream_program(n=64)
        t = generate_trace(p, layout=build_layout(p))
        assert intrinsic_balance(t, 64) == pytest.approx(
            intrinsic_traffic(t, 64).total_bytes / t.flops
        )

    def test_measured_never_below_intrinsic(self):
        """The floor really is a floor for the LRU hierarchy."""
        from repro.machine import build_layout
        from repro.programs import convolution, matmul
        from repro.trace import generate_trace

        machine = origin2000(scale=256)
        for prog in (simple_stream_program(n=4096), convolution(4096), matmul(24)):
            run = execute(prog, machine)
            layout = build_layout(prog, None, machine.default_layout)
            t = generate_trace(prog, layout=layout)
            intr = intrinsic_traffic(t, machine.cache_levels[-1].geometry.line_size)
            assert run.counters.memory_bytes >= intr.total_bytes


class TestPrediction:
    def test_exact_same_machine(self):
        machine = origin2000(scale=256)
        run = execute(simple_stream_program(n=4096), machine)
        pred = predict_time(program_balance(run), machine)
        assert pred.seconds == pytest.approx(run.seconds)
        assert pred.bound == run.time.bound

    def test_exact_same_geometry(self):
        from repro.machine import future_machine

        base = origin2000(scale=256)
        target = future_machine(4.0, scale=256)
        prog = simple_stream_program(n=4096)
        balance = program_balance(execute(prog, base))
        pred = predict_time(balance, target)
        actual = execute(prog, target)
        assert pred.seconds == pytest.approx(actual.seconds)

    def test_channel_mismatch_rejected(self):
        from repro.machine import exemplar

        machine = origin2000(scale=256)
        run = execute(simple_stream_program(n=4096), machine)
        with pytest.raises(ReproError):
            predict_time(program_balance(run), exemplar(scale=256))

    def test_channel_mismatch_projected(self):
        from repro.machine import exemplar

        machine = origin2000(scale=256)
        target = exemplar(scale=256)
        run = execute(simple_stream_program(n=4096), machine)
        balance = program_balance(run)
        pred = predict_time(balance, target, project=True)
        assert pred.projected
        assert pred.warning is not None and "resampled" in pred.warning
        # Register and memory channels are physical invariants of the
        # program, so the projected prediction must equal one computed
        # from them directly on the target's bandwidths.
        times = [
            balance.flops / target.peak_flops,
            balance.channel_bytes[0] / target.bandwidths[0],
            balance.channel_bytes[-1] / target.bandwidths[-1],
        ]
        assert pred.seconds == pytest.approx(max(times))

    def test_predict_speedup(self):
        machine = origin2000(scale=256)
        from repro.programs import fig7_original, fig7_store_eliminated

        b0 = program_balance(execute(fig7_original(4096), machine))
        b1 = program_balance(execute(fig7_store_eliminated(4096), machine))
        s = predict_speedup(b0, b1, machine)
        assert s == pytest.approx(2.0, rel=0.05)

    def test_utilization_bound(self):
        machine = origin2000(scale=256)
        run = execute(simple_stream_program(n=4096), machine)
        u = utilization_bound_from_balance(program_balance(run), machine)
        assert u == pytest.approx(run.cpu_utilization, rel=1e-6)


class TestRegrouping:
    def kernel(self, n=64):
        b = ProgramBuilder("k", params={"N": n})
        x = b.array("x", "N")
        y = b.array("y", "N")
        z = b.array("z", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(s, s + x[i] * y[i] + z[i])
        return b.build()

    def test_basic(self):
        p = self.kernel()
        out = regroup_arrays(p, ("x", "y", "z"))
        assert out.has_array("x_y_z_pk")
        assert not out.has_array("x")
        decl = out.array("x_y_z_pk")
        assert decl.rank == 2
        assert decl.init_names == ("x", "y", "z")

    def test_semantics_preserved(self):
        p = self.kernel()
        out = regroup_arrays(p, ("x", "y", "z"))
        verify_equivalent(p, out)

    def test_addresses_interleave(self):
        from repro.machine import build_layout
        from repro.trace import generate_trace

        p = self.kernel(n=4)
        out = regroup_arrays(p, ("x", "y", "z"))
        layout = build_layout(out, None, LayoutPolicy(alignment=8, pad_bytes=0))
        t = generate_trace(out, layout=layout)
        # iteration i touches 3 consecutive slots: 24*i, 24*i+8, 24*i+16
        assert t.addresses.tolist() == [
            24 * i + 8 * j for i in range(4) for j in range(3)
        ]

    def test_writes_supported(self):
        b = ProgramBuilder("w", params={"N": 32})
        x = b.array("x", "N")
        y = b.array("y", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(x[i], x[i] + y[i])
            b.assign(s, s + x[i])
        p = b.build()
        out = regroup_arrays(p, ("x", "y"))
        verify_equivalent(p, out)

    def test_external_read_supported(self):
        b = ProgramBuilder("r", params={"N": 16})
        x = b.array("x", "N")
        y = b.array("y", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.read(x[i])
            b.read(y[i])
            b.assign(s, s + x[i] * y[i])
        p = b.build()
        out = regroup_arrays(p, ("x", "y"))
        verify_equivalent(p, out)

    def test_output_rejected(self):
        p = simple_stream_program()
        with pytest.raises(TransformError, match="output"):
            regroup_arrays(p, ("a", "b"))

    def test_shape_mismatch_rejected(self):
        b = ProgramBuilder("m", params={"N": 8})
        b.array("x", "N")
        b.array("y", ("N", "N"))
        s = b.scalar("s", output=True)
        b.assign(s, 0.0)
        with pytest.raises(TransformError, match="shapes differ"):
            regroup_arrays(b.build(), ("x", "y"))

    def test_too_few(self):
        with pytest.raises(TransformError):
            regroup_arrays(self.kernel(), ("x",))
        with pytest.raises(TransformError):
            regroup_arrays(self.kernel(), ("x", "x"))

    def test_regroupable_sets(self):
        p = self.kernel()
        sets = regroupable_sets(p)
        assert ("x", "y", "z") in sets

    def test_regrouping_breaks_direct_mapped_conflict(self, one_level_machine):
        """Two arrays one cache apart thrash; regrouped they cannot."""
        b = ProgramBuilder("c", params={"N": 96})
        x = b.array("x", "N")
        y = b.array("y", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(s, s + x[i] * y[i])
        p = b.build()
        conflicted = execute(
            p, one_level_machine, layout_policy=LayoutPolicy(alignment=8, pad_bytes=512)
        )
        grouped = execute(regroup_arrays(p, ("x", "y")), one_level_machine)
        assert grouped.counters.memory_bytes < conflicted.counters.memory_bytes / 2


class TestProgramOrderFusion:
    def test_fig4_baseline(self):
        from repro.fusion import FusionGraph, program_order_fusion

        g = FusionGraph.build(
            [
                {"A", "D", "E", "F"},
                {"A", "D", "E", "F"},
                {"A", "D", "E", "F"},
                {"B", "C", "D", "E", "F"},
                {"A"},
                {"B", "C"},
            ],
            deps=[(4, 5)],
            preventing=[(4, 5)],
        )
        sol = program_order_fusion(g)
        # sweeps 1..5 into one group, 6 alone: cost 6 + 2 = 8 (same as the
        # edge-weighted optimum; worse than the bandwidth optimum 7)
        assert sol.cost == 8
        assert sol.method == "program-order"

    def test_no_constraints_single_group(self):
        from repro.fusion import FusionGraph, program_order_fusion

        g = FusionGraph.build([{"a"}, {"b"}, {"c"}])
        assert program_order_fusion(g).partitioning.n_groups == 1


class TestNewExperiments:
    def test_e13(self):
        from repro.experiments import ExperimentConfig, run_e13

        r = run_e13(ExperimentConfig(scale=256))
        for row in r.detail.rows:
            assert row.opt_bytes <= row.lru_bytes
        fig7 = r.detail.row("fig7")
        assert fig7.compiler_gain > fig7.opt_gain  # rescheduling beats OPT
        assert "E13" in r.table().render()

    def test_e14(self):
        from repro.experiments import ExperimentConfig, run_e14

        r = run_e14(ExperimentConfig(scale=256))
        for row in r.detail.rows:
            assert row.measured_bytes >= row.intrinsic.total_bytes * 0.999
        # the transformed fig6 floor is ~N/2 times lower than the original's
        assert (
            r.detail.row("fig6_optimized").intrinsic.total_bytes
            < r.detail.row("fig6_original").intrinsic.total_bytes / 10
        )

    def test_e15(self):
        from repro.experiments import ExperimentConfig, run_e15

        r = run_e15(ExperimentConfig(scale=256))
        # The method's claim: exact across machines sharing cache geometry.
        assert r.detail.max_error(same_geometry=True) < 1e-9
        # Cross-geometry predictions degrade with the miss-count mismatch
        # (the experiment's own caveat); they stay the right order of
        # magnitude but are NOT exact — especially at extreme cache scales.
        assert r.detail.max_error(same_geometry=False) < 1.0

    def test_e16(self):
        from repro.experiments import ExperimentConfig, run_e16

        r = run_e16(ExperimentConfig(scale=256))
        assert r.detail.bandwidths["padded"] > 1.5 * r.detail.bandwidths["conflicted"]
        assert r.detail.bandwidths["regrouped"] > 1.5 * r.detail.bandwidths["conflicted"]
