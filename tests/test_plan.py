"""The sweep query planner: shared-work batches must be bit-identical.

Every collapse rule — capacity profiles, trace sharing through the
level trie, prefix memoization, cache hits, per-point fallback — is
checked against pointwise ``execute`` on the same requests, counter for
counter.  The all-capacity :class:`StackProfile` is property-tested
against the reference cache, and the multi-consumer chunk fanout that
trace sharing rides on is exercised directly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp.executor import execute
from repro.machine.cache import Cache, CacheGeometry
from repro.machine.engine.simcache import SimulationCache
from repro.machine.engine.stack import StackProfile, stack_profile
from repro.machine.hierarchy import Hierarchy
from repro.machine.layout import LayoutPolicy
from repro.machine.spec import CacheLevelSpec, MachineSpec
from repro.options import override_options, use_options
from repro.trace.events import Trace
from repro.trace.stream import fanout_chunks
from repro.experiments.plan import (
    SimRequest,
    collect_plan_telemetry,
    execute_plan,
    request_key,
    run_batch,
    summarize_plan,
)

from .helpers import simple_stream_program, two_loop_chain

LINE = 32
LAYOUT = LayoutPolicy(alignment=32, pad_bytes=32)


def fa_machine(lines: int, name: str | None = None, line: int = LINE) -> MachineSpec:
    """Single-level fully-associative machine of ``lines`` lines."""
    return MachineSpec(
        name=name or f"fa{lines}",
        peak_flops=1e9,
        register_bandwidth=8e9,
        cache_levels=(
            CacheLevelSpec(
                name="C",
                geometry=CacheGeometry(lines * line, line, lines),
                downstream_bandwidth=1e9,
                downstream_latency=1e-7,
            ),
        ),
        default_layout=LAYOUT,
    )


def two_level_machine(name: str, l2_lines: int, l1_geom=(1024, 32, 2)) -> MachineSpec:
    """Two-level machine; every instance shares the same L1 geometry."""
    return MachineSpec(
        name=name,
        peak_flops=1e9,
        register_bandwidth=8e9,
        cache_levels=(
            CacheLevelSpec(
                name="L1",
                geometry=CacheGeometry(*l1_geom),
                downstream_bandwidth=4e9,
                downstream_latency=5e-8,
            ),
            CacheLevelSpec(
                name="L2",
                geometry=CacheGeometry(l2_lines * 64, 64, 4),
                downstream_bandwidth=1e9,
                downstream_latency=3e-7,
            ),
        ),
        default_layout=LAYOUT,
    )


def assert_same_run(a, b) -> None:
    """Bit-identical counters and timing-model outputs."""
    assert a.program == b.program
    assert a.counters.graduated_flops == b.counters.graduated_flops
    assert a.counters.loads == b.counters.loads
    assert a.counters.stores == b.counters.stores
    assert a.counters.downstream_bytes == b.counters.downstream_bytes
    assert len(a.counters.level_stats) == len(b.counters.level_stats)
    for sa, sb in zip(a.counters.level_stats, b.counters.level_stats):
        assert vars(sa) == vars(sb)
    assert a.seconds == b.seconds
    assert a.latency_time == b.latency_time
    assert a.overlap4_time == b.overlap4_time


def running(**options):
    """The given execution options (``None`` = unchanged) for a block."""
    return use_options(override_options(**options))


def pointwise(requests, **options):
    with running(**options):
        return [
            execute(
                r.program,
                r.machine,
                params=r.params,
                layout_policy=r.layout_policy,
                passes=r.passes,
                warmup_passes=r.warmup_passes,
                flush=r.flush,
                validate=r.validate,
                sim_cache=False,
            )
            for r in requests
        ]


# -- the all-capacity counter profile -----------------------------------------
class TestStackProfile:
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 60), st.booleans()), min_size=0, max_size=250
        ),
        capacity=st.sampled_from([1, 2, 3, 7, 16, 64]),
        flush=st.booleans(),
    )
    @settings(max_examples=60)
    def test_matches_reference_cache_at_any_capacity(self, data, capacity, flush):
        addrs = np.array([line * LINE for line, _ in data], dtype=np.int64)
        writes = np.array([w for _, w in data], dtype=bool)
        profile = stack_profile(addrs, writes, LINE)
        ref = Cache("L", CacheGeometry(capacity * LINE, LINE, capacity))
        if len(addrs):
            ref.run(addrs, writes)
        if flush:
            ref.flush()
        got = profile.stats(capacity, flush=flush)
        assert vars(got) == vars(ref.stats)

    def test_empty_trace_profile(self):
        profile = stack_profile(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), LINE
        )
        for capacity in (1, 8):
            stats = profile.stats(capacity)
            assert stats.accesses == 0 and stats.events_out == 0

    def test_rejects_bad_line_size(self):
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            stack_profile(np.zeros(2, dtype=np.int64), np.zeros(2, dtype=bool), 48)

    def test_stats_for_size(self):
        addrs = (np.arange(100, dtype=np.int64) % 7) * LINE
        writes = np.zeros(100, dtype=bool)
        profile = stack_profile(addrs, writes, LINE)
        assert vars(profile.stats_for_size(4 * LINE)) == vars(profile.stats(4))
        assert isinstance(profile, StackProfile)


# -- chunk fanout -------------------------------------------------------------
def _chunks(n_chunks: int, per: int = 8):
    for i in range(n_chunks):
        addrs = (np.arange(per, dtype=np.int64) + i * per) * 8
        yield Trace(addrs, np.zeros(per, dtype=bool), per, per, 0)


class TestFanout:
    def test_lockstep_consumers_see_identical_chunks(self):
        streams = fanout_chunks(_chunks(5), 3, depth=1)
        seen = [[] for _ in streams]
        for chunk_set in zip(*streams):
            first = chunk_set[0]
            for i, chunk in enumerate(chunk_set):
                assert np.array_equal(chunk.addresses, first.addresses)
                seen[i].append(chunk)
        assert all(len(s) == 5 for s in seen)

    def test_skewed_consumer_beyond_depth_raises(self):
        streams = fanout_chunks(_chunks(6), 2, depth=1)
        next(streams[0])
        with pytest.raises(RuntimeError, match="chunks ahead"):
            next(streams[0])

    def test_larger_depth_allows_skew(self):
        streams = fanout_chunks(_chunks(6), 2, depth=3)
        for _ in range(3):
            next(streams[0])
        with pytest.raises(RuntimeError, match="chunks ahead"):
            next(streams[0])
        # The slow consumer still reads everything already buffered plus
        # its own depth window past the (stuck) fast consumer.
        got = [next(streams[1]) for _ in range(6)]
        assert [chunk.addresses[0] for chunk in got] == [i * 8 * 8 for i in range(6)]

    def test_slow_consumer_bounds_the_buffer(self):
        produced = {"n": 0}

        def src():
            for chunk in _chunks(10):
                produced["n"] += 1
                yield chunk

        streams = fanout_chunks(src(), 2, depth=2)
        next(streams[0])
        next(streams[0])
        # The tee generated exactly the depth window: the idle consumer
        # holds generation back instead of letting the buffer grow.
        assert produced["n"] == 2
        with pytest.raises(RuntimeError, match="chunks ahead"):
            next(streams[0])
        assert produced["n"] == 2

    def test_closed_consumer_releases_backpressure(self):
        streams = fanout_chunks(_chunks(6), 2, depth=1)
        next(streams[0])  # at the depth bound: one more pull would raise
        streams[1].close()  # the idle consumer leaves the tee
        got = [chunk.addresses[0] for chunk in streams[0]]
        assert got == [i * 8 * 8 for i in range(1, 6)]

    def test_last_consumer_close_drops_buffer_and_closes_upstream(self):
        closed = {"flag": False}

        def src():
            try:
                yield from _chunks(10)
            finally:
                closed["flag"] = True

        streams = fanout_chunks(src(), 2, depth=2)
        next(streams[0])
        next(streams[1])
        streams[0].close()
        assert not closed["flag"]  # one consumer still live
        streams[1].close()
        assert closed["flag"]

    def test_exhausting_all_consumers_closes_upstream(self):
        closed = {"flag": False}

        def src():
            try:
                yield from _chunks(3)
            finally:
                closed["flag"] = True

        streams = fanout_chunks(src(), 2, depth=1)
        for _ in zip(*streams):
            pass
        assert closed["flag"]

    def test_closing_consumers_stops_prefetch_thread(self):
        import threading

        from repro.trace.stream import prefetch_chunks

        streams = fanout_chunks(prefetch_chunks(_chunks(50)), 2, depth=2)
        next(streams[0])
        next(streams[1])
        for s in streams:
            s.close()
        # Closing the last consumer closes the prefetch generator, whose
        # cleanup joins the producer thread — nothing is left running.
        assert not any(
            t.name == "repro-trace-producer" and t.is_alive()
            for t in threading.enumerate()
        )

    def test_run_stream_multi_matches_run_stream(self):
        def hierarchy():
            return Hierarchy([Cache("L", CacheGeometry(4 * LINE, LINE, 4))])

        solo = hierarchy()
        totals_solo = solo.run_stream(_chunks(4))
        pair = [hierarchy(), hierarchy()]
        totals_multi = Hierarchy.run_stream_multi(pair, _chunks(4))
        assert totals_multi == totals_solo
        for h in pair:
            for mine, ref in zip(h.caches, solo.caches):
                assert vars(mine.stats) == vars(ref.stats)

    def test_run_stream_multi_needs_a_hierarchy(self):
        with pytest.raises(ValueError):
            Hierarchy.run_stream_multi([], _chunks(1))


# -- planner bit-identity -----------------------------------------------------
class TestExecutePlan:
    def test_empty_batch(self):
        assert execute_plan([]) == []

    def test_capacity_ladder_collapses_to_one_profile(self):
        prog = simple_stream_program("stream", 2048)
        requests = [SimRequest(prog, fa_machine(c)) for c in (1, 4, 16, 64, 256)]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 5
        assert session.groups == 1
        assert session.traces_generated == 1
        # One trace simulated instead of five.
        assert session.accesses_requested == 5 * session.accesses_simulated

    def test_trie_shares_common_l1(self):
        prog = simple_stream_program("stream", 2048)
        requests = [
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, two_level_machine("B", 128)),  # same L1 as A
            SimRequest(prog, two_level_machine("C", 64, l1_geom=(2048, 32, 2))),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["prefix"] == 2  # A and B share their L1
        assert session.by_rule["trace"] == 1  # C shares only the trace
        assert session.traces_generated == 1

    def test_flush_and_no_flush_capacity_groups(self):
        prog = simple_stream_program("stream", 1024)
        for flush in (True, False):
            requests = [
                SimRequest(prog, fa_machine(c), flush=flush) for c in (2, 8, 32)
            ]
            with collect_plan_telemetry() as session:
                planned = execute_plan(requests, sim_cache=False)
            for got, ref in zip(planned, pointwise(requests)):
                assert_same_run(got, ref)
            assert session.by_rule["capacity"] == 3

    def test_warmup_passes_group_uses_trie_not_profile(self):
        prog = simple_stream_program("stream", 1024)
        requests = [
            SimRequest(prog, fa_machine(c), passes=2, warmup_passes=1)
            for c in (4, 16)
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 0
        assert session.by_rule["trace"] + session.by_rule["prefix"] == 2

    def test_singleton_group_falls_back_pointwise(self):
        prog = simple_stream_program("stream", 512)
        requests = [SimRequest(prog, fa_machine(8))]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        assert_same_run(planned[0], pointwise(requests)[0])
        assert session.by_rule["fallback"] == 1
        assert session.fallbacks[0]["reason"] == "no shared work in group"

    def test_mixed_programs_group_independently(self):
        a = simple_stream_program("stream", 1024)
        b = two_loop_chain("chain", 1024)
        requests = [
            SimRequest(a, fa_machine(4)),
            SimRequest(b, fa_machine(4)),
            SimRequest(a, fa_machine(32)),
            SimRequest(b, fa_machine(32)),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.groups == 2
        assert session.by_rule["capacity"] == 4

    def test_streamed_plan_is_bit_identical(self):
        prog = simple_stream_program("stream", 2048)
        requests = [
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, two_level_machine("B", 128)),
        ]
        with running(stream="overlap", chunk_accesses=500):
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)

    def test_sharded_plan_is_bit_identical(self):
        prog = simple_stream_program("stream", 2048)
        machines = [
            two_level_machine("A", 64),
            two_level_machine("B", 128),
        ]
        requests = [SimRequest(prog, m) for m in machines]
        with running(shards=2), collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        refs = pointwise(requests, shards=2)
        for got, ref in zip(planned, refs):
            assert_same_run(got, ref)
        assert session.by_rule["trace"] == 2  # sharded groups share the trace only

    def test_plan_telemetry_summary_shape(self):
        prog = simple_stream_program("stream", 512)
        with collect_plan_telemetry() as session:
            execute_plan(
                [SimRequest(prog, fa_machine(c)) for c in (2, 8)], sim_cache=False
            )
        summary = summarize_plan(session)
        assert summary["points"] == 2
        assert summary["by_rule"]["capacity"] == 2
        assert summary["accesses_requested"] > 0
        assert summarize_plan(None) == {}


class TestPerPointCapacity:
    """The capacity rule is chosen per point: rungs of a group collapse to
    one profile per line size even when other machines share the trace."""

    RUNGS = (1, 4, 16, 64, 256)

    def test_rungs_collapse_beside_two_level_machines(self):
        prog = two_loop_chain("chain", 1024)
        requests = [SimRequest(prog, fa_machine(c)) for c in self.RUNGS] + [
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, two_level_machine("B", 128)),
            SimRequest(prog, two_level_machine("C", 64, l1_geom=(2048, 32, 2))),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.groups == 1
        assert session.by_rule["capacity"] == len(self.RUNGS)
        assert session.by_rule["prefix"] == 2
        assert session.by_rule["trace"] == 1
        assert session.by_rule["fallback"] == 0
        # The column and the trie each generate the trace once.
        assert session.traces_generated == 2

    def test_two_line_sizes_make_two_capacity_passes(self):
        prog = two_loop_chain("chain", 1024)
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 8, 32)] + [
            SimRequest(prog, fa_machine(c, line=64)) for c in (2, 8, 32)
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 6
        # One trace, one profile pass per line size.
        assert session.traces_generated == 1
        assert session.accesses_requested == 3 * session.accesses_simulated

    def test_lone_point_after_split_is_not_a_fallback(self):
        prog = two_loop_chain("chain", 1024)
        requests = [
            SimRequest(prog, fa_machine(4)),
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, fa_machine(16)),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        summary = summarize_plan(session)
        assert summary["by_rule"]["capacity"] == 2
        assert summary["by_rule"]["trace"] == 1
        # The lone two-level point shared its group's work, so it is not
        # reported as "no shared work"; it runs on a trace of its own.
        assert summary["by_rule"]["fallback"] == 0
        assert summary["fallbacks"] == []
        assert summary["traces_generated"] == 2

    def test_lone_rung_at_its_own_line_size_takes_the_trie(self):
        prog = two_loop_chain("chain", 1024)
        requests = [
            SimRequest(prog, fa_machine(4)),
            SimRequest(prog, fa_machine(16)),
            SimRequest(prog, fa_machine(8, line=64)),
        ]
        with collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests)):
            assert_same_run(got, ref)
        assert session.by_rule["capacity"] == 2
        assert session.by_rule["trace"] == 1
        assert session.fallbacks == []

    def test_mixed_group_under_shards(self):
        prog = two_loop_chain("chain", 1024)
        requests = [SimRequest(prog, fa_machine(c)) for c in self.RUNGS] + [
            SimRequest(prog, two_level_machine("A", 64)),
            SimRequest(prog, two_level_machine("B", 128)),
        ]
        with running(shards=2), collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests, shards=2)):
            assert_same_run(got, ref)
        # Capacity collapse does not step aside under shards; the rest of
        # the group shares the trace across sharded hierarchies.
        assert session.by_rule["capacity"] == len(self.RUNGS)
        assert session.by_rule["trace"] == 2
        assert session.traces_generated == 2

    POOL = (
        fa_machine(1),
        fa_machine(3),
        fa_machine(16),
        fa_machine(64),
        fa_machine(4, line=64),
        fa_machine(32, line=64),
        two_level_machine("A", 64),
        two_level_machine("B", 128),
        two_level_machine("C", 32, l1_geom=(2048, 32, 2)),
        two_level_machine("D", 64, l1_geom=(512, 32, 1)),
    )

    @given(
        picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=7),
        shards=st.sampled_from([None, 2]),
        flush=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_mix_matches_pointwise(self, picks, shards, flush):
        prog = two_loop_chain("chain", 256)
        requests = [SimRequest(prog, self.POOL[k], flush=flush) for k in picks]
        with running(shards=shards), collect_plan_telemetry() as session:
            planned = execute_plan(requests, sim_cache=False)
        for got, ref in zip(planned, pointwise(requests, shards=shards)):
            assert_same_run(got, ref)
        columns: dict[int, int] = {}
        for r in requests:
            levels = r.machine.cache_levels
            if len(levels) == 1 and levels[0].geometry.n_sets == 1:
                line = levels[0].geometry.line_size
                columns[line] = columns.get(line, 0) + 1
        assert session.by_rule["capacity"] == sum(
            n for n in columns.values() if n > 1
        )
        assert session.points == len(requests)
        expect_fallback = 1 if len(requests) == 1 else 0
        assert session.by_rule["fallback"] == expect_fallback


class TestPlanMemoization:
    def test_second_plan_answers_from_cache(self):
        prog = simple_stream_program("stream", 1024)
        memo = SimulationCache()
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 8, 32)]
        first = execute_plan(requests, sim_cache=memo)
        with collect_plan_telemetry() as session:
            second = execute_plan(requests, sim_cache=memo)
        assert session.by_rule["cache"] == 3
        assert session.traces_generated == 0
        for a, b in zip(first, second):
            assert_same_run(a, b)

    def test_prefix_key_survives_machine_rename(self):
        # The chain key is name-independent: a renamed (but geometrically
        # identical) machine must hit the memo.
        prog = simple_stream_program("stream", 1024)
        memo = SimulationCache()
        first = execute_plan(
            [SimRequest(prog, fa_machine(16, name="one"))], sim_cache=memo
        )
        with collect_plan_telemetry() as session:
            second = execute_plan(
                [SimRequest(prog, fa_machine(16, name="two"))], sim_cache=memo
            )
        assert session.by_rule["cache"] == 1
        assert_same_run(first[0], second[0])

    def test_planned_results_seed_pointwise_cache(self):
        # A planned run must leave the same memo entries a pointwise run
        # would, so later execute() calls hit.
        prog = simple_stream_program("stream", 1024)
        memo = SimulationCache()
        planned = execute_plan(
            [SimRequest(prog, fa_machine(c)) for c in (4, 64)], sim_cache=memo
        )
        before = memo.counters.snapshot()
        for request, planned_run in zip(
            [SimRequest(prog, fa_machine(c)) for c in (4, 64)], planned
        ):
            again = execute(request.program, request.machine, sim_cache=memo)
            assert_same_run(again, planned_run)
        delta = memo.counters.since(before)
        assert delta.hits == 2 and delta.misses == 0


class TestPointIdentity:
    def test_params_are_snapshotted_at_construction(self):
        prog = simple_stream_program("stream", 1024)
        params = {"N": 512}
        request = SimRequest(prog, fa_machine(8), params=params)
        key = request_key(request)
        params["N"] = 256  # the caller's dict, mutated after the fact
        assert request.params == {"N": 512}
        assert request_key(request) == key
        assert request.identity.bound["N"] == 512
        assert key == request_key(SimRequest(prog, fa_machine(8), params={"N": 512}))
        assert key != request_key(SimRequest(prog, fa_machine(8), params={"N": 256}))

    def test_identity_is_derived_once_and_keys_like_execute(self):
        prog = simple_stream_program("stream", 1024)
        memo = SimulationCache()
        request = SimRequest(prog, fa_machine(8), params={"N": 512})
        assert request.identity is request.identity
        run = execute(prog, fa_machine(8), params={"N": 512}, sim_cache=memo)
        # execute stored the point under the key the request derives.
        cached = memo.get(request_key(request))
        assert cached is not None
        assert cached.result.level_stats == run.counters.level_stats


class TestRunBatch:
    def test_pointwise_default_matches_execute(self):
        prog = simple_stream_program("stream", 512)
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 8)]
        got = run_batch(requests, plan=False, sim_cache=False)
        for a, b in zip(got, pointwise(requests)):
            assert_same_run(a, b)

    def test_plan_follows_process_default(self):
        prog = simple_stream_program("stream", 512)
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 8)]
        with running(plan=True), collect_plan_telemetry() as session:
            run_batch(requests, sim_cache=False)
        assert session.points == 2

    def test_predict_composition_matches_pointwise_accounting(self):
        from repro.experiments.predict import collect_analytic_telemetry
        from repro.experiments.predict import run_or_predict

        prog = simple_stream_program("stream", 2048)
        requests = [SimRequest(prog, fa_machine(c)) for c in (2, 4, 16, 64, 256)]

        with running(predict=True, spot_check=0.5, predict_tolerance=10.0):
            with collect_analytic_telemetry() as ref_session:
                ref = [
                    run_or_predict(r.program, r.machine, sim_cache=False)
                    for r in requests
                ]
            with collect_analytic_telemetry() as plan_session:
                got = run_batch(requests, plan=True, sim_cache=False)

        for a, b in zip(got, ref):
            assert_same_run(a, b)
        assert plan_session.points == ref_session.points
        assert plan_session.predicted == ref_session.predicted
        assert plan_session.checked == ref_session.checked
        assert plan_session.fallbacks == ref_session.fallbacks

    def test_predict_without_session_simulates_only_unanalyzable(self):
        prog = simple_stream_program("stream", 1024)
        requests = [SimRequest(prog, fa_machine(c)) for c in (4, 16)]
        with running(predict=True, spot_check=0.05, predict_tolerance=10.0):
            got = run_batch(requests, plan=True, sim_cache=False)
        assert len(got) == 2  # analytic estimates ship unchecked
