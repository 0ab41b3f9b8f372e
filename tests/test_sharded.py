"""Set-sharded parallel simulation: bit-identity vs serial, and the edges.

The sharded hierarchy's contract is absolute: partitioning an access
stream by set index and merging the per-shard counters must reproduce
the serial counters *bit-identically* — for every engine, every chunk
boundary, pow2 and non-pow2 shard counts, mixed line sizes, and flushes
in the middle of the stream.  A hierarchy that cannot be partitioned
exactly must fall back to serial (same numbers, telemetry says why),
and a worker that dies must surface as :class:`MachineError`, never as
a hang or a wrong answer.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.experiments.config import ExperimentConfig
from repro.machine.cache import CacheGeometry
from repro.machine.engine.sharded import (
    ShardedHierarchy,
    build_hierarchy,
    collect_shard_telemetry,
    plan_shards,
    summarize_shards,
)
from repro.machine.hierarchy import Hierarchy
from repro.machine.presets import origin2000
from repro.machine.spec import CacheLevelSpec, MachineSpec
from repro.options import ExecOptions, current_options, use_options


def machine_of(*geometries: CacheGeometry, name: str = "M") -> MachineSpec:
    return MachineSpec(
        name=name,
        peak_flops=100e6,
        register_bandwidth=1e9,
        cache_levels=tuple(
            CacheLevelSpec(f"L{i + 1}", geom, 1e9, 1e-8)
            for i, geom in enumerate(geometries)
        ),
    )


def random_trace(seed: int, n: int, footprint_lines: int, line: int):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, footprint_lines, n) * (line // 4) * 4).astype(np.int64)
    writes = rng.random(n) < 0.3
    return addrs, writes


def assert_same_result(a, b) -> None:
    for sa, sb in zip(a.level_stats, b.level_stats):
        assert vars(sa) == vars(sb)
    assert a.downstream_bytes == b.downstream_bytes


def drive_both(spec, engine, shards, addrs, writes, chunk_size, mid_flush):
    """Run the same trace serially and sharded (with a flush and a
    mid-stream counter snapshot between two halves) and demand equality
    at both observation points."""
    serial = Hierarchy.from_spec(spec, engine)
    sharded = build_hierarchy(spec, engine, chunk_size=chunk_size, shards=shards)
    assert isinstance(sharded, ShardedHierarchy), "case must be feasible"
    try:
        half = len(addrs) // 2
        for h in (serial, sharded):
            h.run_trace(addrs[:half], writes[:half])
            if mid_flush:
                h.flush()
        assert_same_result(serial.result(), sharded.result())  # mid-stream
        for h in (serial, sharded):
            h.run_trace(addrs[half:], writes[half:])
            h.flush()
        assert_same_result(serial.result(), sharded.result())
    finally:
        sharded.close()


# -- planning ------------------------------------------------------------------


class TestPlanning:
    def test_one_shard_is_always_serial(self):
        spec = origin2000(32)
        caches = spec.build_caches("auto")
        plan = plan_shards(caches, 1)
        assert (plan.shards, plan.reason) == (1, None)
        assert isinstance(build_hierarchy(spec, shards=1), Hierarchy)
        assert not isinstance(build_hierarchy(spec, shards=1), ShardedHierarchy)

    def test_origin2000_nesting(self):
        # scale 32: L1 has 16 sets of 32B lines, L2 1024 sets of 128B
        # lines -> L_max = 128, so L1 admits at most 16/(128/32) = 4.
        caches = origin2000(32).build_caches("auto")
        assert plan_shards(caches, 2).shards == 2
        assert plan_shards(caches, 4).shards == 4
        plan = plan_shards(caches, 8)
        assert plan.shards == 1
        assert "8 shards" in plan.reason and "L1" in plan.reason

    def test_non_pow2_divisible_set_count(self):
        # 20 sets, one level: 2, 4, 5 shards are exact; 8 is not.
        caches = [machine_of(CacheGeometry(640, 32, 1)).build_caches("auto")[0]]
        for n in (2, 4, 5):
            assert plan_shards(caches, n).shards == n
        assert plan_shards(caches, 8).shards == 1

    def test_fully_associative_level_falls_back(self):
        # One set: no partition of set indices exists.
        caches = machine_of(CacheGeometry(512, 32, 16)).build_caches("auto")
        plan = plan_shards(caches, 2)
        assert plan.shards == 1 and "sets" in plan.reason

    def test_stack_engine_counts_as_one_set(self):
        # The stack-distance engine simulates full associativity (one
        # set), so a level it owns can never be sharded.
        caches = machine_of(CacheGeometry(512, 32, 16)).build_caches("stack")
        assert caches[0].engine == "stack"
        assert plan_shards(caches, 2).shards == 1

    def test_infeasible_build_falls_back_with_telemetry(self):
        spec = machine_of(CacheGeometry(512, 32, 16))
        with collect_shard_telemetry() as acc:
            h = build_hierarchy(spec, shards=4)
        assert not isinstance(h, ShardedHierarchy)
        summary = summarize_shards(acc)
        assert summary["requested"] == 4
        assert summary["effective"] == 1
        assert summary["fallback_runs"] == 1
        assert "sets" in summary["fallback_reason"]

    def test_shard_count_validation(self):
        with pytest.raises(MachineError):
            build_hierarchy(origin2000(32), shards=0)
        with pytest.raises(MachineError):
            ExecOptions(shards=0)
        with use_options(ExecOptions(shards=3)):
            assert current_options().shards == 3
        assert current_options().shards == 1


# -- differential bit-identity -------------------------------------------------


@st.composite
def shard_cases(draw):
    """A feasible sharded hierarchy plus a trace to drive it.

    Set counts are drawn as multiples of each level's exactness stride,
    so every generated case must shard — the fallback path has its own
    tests.  Shard counts cover both the pow2 bitmask and the general
    modulo partition key.
    """
    shards = draw(st.sampled_from([2, 3, 4, 5, 8]))
    line1 = draw(st.sampled_from([32, 64]))
    two_levels = draw(st.booleans())
    line2 = draw(st.sampled_from([line1, line1 * 2])) if two_levels else line1
    line_max = max(line1, line2)
    geoms = []
    a1 = draw(st.sampled_from([1, 2, 4]))
    n1 = shards * (line_max // line1) * draw(st.integers(1, 3))
    geoms.append(CacheGeometry(n1 * a1 * line1, line1, a1))
    if two_levels:
        a2 = draw(st.sampled_from([2, 4]))
        n2 = shards * draw(st.integers(2, 4))
        geoms.append(CacheGeometry(n2 * a2 * line2, line2, a2))
    engine = draw(st.sampled_from(["auto", "reference", "setassoc"]))
    chunk_size = draw(st.sampled_from([64, 257, 1 << 20]))
    mid_flush = draw(st.booleans())
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(200, 1500))
    footprint = draw(st.integers(8, 40)) * geoms[-1].n_lines // 4
    return geoms, shards, engine, chunk_size, mid_flush, seed, n, footprint


class TestDifferential:
    @given(case=shard_cases())
    @settings(settings.get_profile("repro-default"))
    def test_sharded_matches_serial_bit_identically(self, case):
        geoms, shards, engine, chunk_size, mid_flush, seed, n, footprint = case
        spec = machine_of(*geoms)
        addrs, writes = random_trace(seed, n, max(footprint, 4), geoms[0].line_size)
        drive_both(spec, engine, shards, addrs, writes, chunk_size, mid_flush)

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_origin2000_preset(self, shards, engine):
        spec = origin2000(32)
        addrs, writes = random_trace(11, 20_000, 4096, 32)
        drive_both(spec, engine, shards, addrs, writes, 1 << 14, mid_flush=True)

    def test_direct_mapped_engine(self):
        # Single direct-mapped level, non-pow2 sets, 5 shards: the
        # modulo partition key against the direct engine's fast path.
        spec = machine_of(CacheGeometry(640, 32, 1))
        addrs, writes = random_trace(23, 5_000, 200, 32)
        drive_both(spec, "direct", 5, addrs, writes, 301, mid_flush=False)

    def test_reset_starts_cold_again(self):
        spec = origin2000(32)
        addrs, writes = random_trace(5, 3_000, 1024, 32)
        sharded = build_hierarchy(spec, "auto", shards=2)
        try:
            sharded.run_trace(addrs, writes)
            sharded.flush()
            first = sharded.result()
            sharded.reset()
            sharded.run_trace(addrs, writes)
            sharded.flush()
            second = sharded.result()
        finally:
            sharded.close()
        # reset drops contents and counters: the second cold run is a
        # bit-identical replay of the first
        assert_same_result(first, second)
        serial = Hierarchy.from_spec(spec, "auto")
        serial.run_trace(addrs, writes)
        serial.flush()
        assert_same_result(serial.result(), second)

    def test_reset_stats_keeps_contents(self):
        # Warmup-pass protocol: reset_stats zeroes counters but keeps
        # cache contents, so the next pass measures the steady state.
        spec = origin2000(32)
        addrs, writes = random_trace(7, 3_000, 256, 32)

        def steady(h):
            h.run_trace(addrs, writes)
            h.reset_stats()
            h.run_trace(addrs, writes)
            h.flush()
            return h.result()

        serial = steady(Hierarchy.from_spec(spec, "auto"))
        sharded_h = build_hierarchy(spec, "auto", shards=4)
        try:
            sharded = steady(sharded_h)
        finally:
            sharded_h.close()
        assert_same_result(serial, sharded)
        # the warm pass must actually be warmer than a cold one
        cold = Hierarchy.from_spec(spec, "auto")
        cold.run_trace(addrs, writes)
        cold.flush()
        assert serial.level_stats[0].misses < cold.result().level_stats[0].misses


# -- telemetry -----------------------------------------------------------------


class TestTelemetry:
    def test_run_telemetry_shape(self):
        spec = origin2000(32)
        addrs, writes = random_trace(3, 8_000, 2048, 32)
        with collect_shard_telemetry() as acc:
            h = build_hierarchy(spec, "auto", shards=4)
            try:
                h.run_trace(addrs, writes)
                h.flush()
                h.result()
            finally:
                h.close()
        summary = summarize_shards(acc)
        assert summary["requested"] == summary["effective"] == 4
        assert summary["runs"] == 1
        workers = summary["workers"]
        assert [w["shard"] for w in workers] == [0, 1, 2, 3]
        assert sum(w["accesses"] for w in workers) == len(addrs)
        assert all(w["busy_s"] >= 0 for w in workers)
        assert summary["imbalance"] is None or summary["imbalance"] >= 1.0

    def test_repeated_result_calls_do_not_double_count(self):
        spec = origin2000(32)
        addrs, writes = random_trace(9, 4_000, 1024, 32)
        with collect_shard_telemetry() as acc:
            h = build_hierarchy(spec, "auto", shards=2)
            try:
                h.run_trace(addrs, writes)
                h.flush()
                first = h.result()
                again = h.result()  # same snapshot, no new work
            finally:
                h.close()
        assert_same_result(first, again)
        summary = summarize_shards(acc)
        # the delta-encoded replay attributes each access exactly once
        assert sum(w["accesses"] for w in summary["workers"]) == len(addrs)

    def test_no_telemetry_outside_collector(self):
        # Recording into zero collectors is a no-op, not an error.
        spec = machine_of(CacheGeometry(640, 32, 1))
        h = build_hierarchy(spec, shards=2)
        try:
            addrs, writes = random_trace(1, 500, 50, 32)
            h.run_trace(addrs, writes)
            h.result()
        finally:
            h.close()


# -- worker lifecycle ----------------------------------------------------------


class TestWorkerLifecycle:
    def test_close_reaps_children(self):
        h = build_hierarchy(origin2000(32), shards=4)
        pids = [w.pid for w in h._workers]
        assert len(pids) == 4
        h.close()
        for pid in pids:
            with pytest.raises((ProcessLookupError, PermissionError)):
                os.kill(pid, 0)  # reaped: pid no longer ours

    def test_close_is_idempotent_and_final(self):
        h = build_hierarchy(origin2000(32), shards=2)
        h.close()
        h.close()
        addrs, writes = random_trace(2, 100, 50, 32)
        with pytest.raises(MachineError, match="closed"):
            h.run_trace(addrs, writes)
        with pytest.raises(MachineError, match="closed"):
            h.result()

    def test_killed_worker_surfaces_as_machine_error(self):
        h = build_hierarchy(origin2000(32), shards=2)
        try:
            victim = h._workers[0].pid
            os.kill(victim, signal.SIGKILL)
            os.waitpid(victim, 0)
            addrs, writes = random_trace(4, 2_000, 512, 32)
            with pytest.raises(MachineError, match="shard worker"):
                h.run_trace(addrs, writes)
                h.result()
        finally:
            h.close()

    def test_child_error_report_reaches_parent(self):
        # Protocol-level failure inside the child (not a kill): the
        # child ships the exception text, then dies; the parent's next
        # synchronization raises it.
        h = build_hierarchy(origin2000(32), shards=2)
        try:
            h._workers[0].conn.send(("bogus-command",))
            with pytest.raises(MachineError, match="bogus-command"):
                h.shard_results()
        finally:
            h.close()


# -- configuration and API plumbing -------------------------------------------


class TestConfigAndApi:
    def test_experiment_config_applies_default(self):
        from types import SimpleNamespace

        from repro.experiments.report import Table
        from repro.experiments.result import experiment

        cfg = ExperimentConfig(shards=3)
        assert cfg.to_json()["shards"] == 3
        assert ExperimentConfig.from_json(cfg.to_json()).shards == 3
        seen = []

        @experiment("probe")
        def probe(config):
            seen.append(current_options().shards)
            return SimpleNamespace(table=lambda: Table("probe", ("shards",)))

        assert probe(cfg).ok
        assert seen == [3]  # the config is the active options inside the run
        assert current_options().shards == 1  # and is reset after it

    def test_default_feeds_build_hierarchy(self):
        with use_options(ExecOptions(shards=2)):
            h = build_hierarchy(origin2000(32))
        try:
            assert isinstance(h, ShardedHierarchy)
            assert h.plan.shards == 2
        finally:
            h.close()

    def test_api_simulate_is_bit_identical(self, two_loop_program):
        import repro

        spec = machine_of(
            CacheGeometry(640, 32, 1), name="TinyDM-sharded"
        )
        base = repro.simulate(two_loop_program, spec)
        sharded = repro.simulate(two_loop_program, spec, shards=4)
        assert sharded.run.counters == base.run.counters
        assert sharded.seconds == base.seconds

    def test_api_simulate_stream_composes_with_shards(self, two_loop_program):
        import repro

        spec = machine_of(CacheGeometry(640, 32, 1), name="TinyDM-sharded")
        base = repro.simulate(two_loop_program, spec)
        streamed = repro.simulate_stream(
            two_loop_program, spec, shards=5, chunk_accesses=256
        )
        assert streamed.run.counters == base.run.counters
        assert streamed.seconds == base.seconds

    def test_api_fallback_still_matches_serial(self, two_loop_program, tiny_machine):
        # tiny_machine's L1 (2 sets of 32B lines under a 64B L2) cannot
        # nest even 2 shards: the request must degrade to serial, not
        # change numbers or raise.
        import repro

        base = repro.simulate(two_loop_program, tiny_machine)
        requested = repro.simulate(two_loop_program, tiny_machine, shards=2)
        assert requested.run.counters == base.run.counters

    def test_executor_rejects_bad_shards(self, two_loop_program, tiny_machine):
        import repro
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            repro.simulate(two_loop_program, tiny_machine, shards=0)


@pytest.fixture
def two_loop_program():
    from repro.lang import ProgramBuilder

    b = ProgramBuilder("sharded-facade", params={"N": 512})
    res = b.array("res", "N")
    data = b.array("data", "N")
    total = b.scalar("sum", output=True)
    with b.loop("i", 0, "N") as i:
        b.assign(res[i], res[i] + data[i])
    with b.loop("i", 0, "N") as i:
        b.assign(total, total + res[i])
    return b.build()
