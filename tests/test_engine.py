"""Engine subsystem: bit-identity, miss curves, chunking, simulation cache.

The vectorized engines exist to be *fast and invisible*: every counter,
event stream, and flush drain must match the reference ``Cache`` exactly.
These tests enforce that with property-based randomized traces, validate
``miss_curve()`` against repeated reference simulations, and check the
wiring (engine selection, chunked streaming, content-keyed memoization).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp.executor import execute
from repro.machine.cache import Cache, CacheGeometry
from repro.machine.engine import (
    DirectMappedEngine,
    SetAssociativeEngine,
    StackDistanceEngine,
    make_cache,
    miss_curve,
    select_engine,
)
from repro.machine.engine import distinct
from repro.machine.engine.distinct import (
    COLD,
    count_prior_leq,
    previous_occurrences,
    reuse_distances,
)
from repro.machine.engine.simcache import (
    SimulationCache,
    configure_sim_cache,
    get_sim_cache,
)
from repro.machine.engine.stack import stack_profile
from repro.machine.engine.verify import (
    STAT_FIELDS,
    assert_equivalent,
    check_equivalence,
)
from repro.machine.hierarchy import Hierarchy
from repro.machine.presets import exemplar, origin2000

LINE = 32


@pytest.fixture
def isolated_sim_cache():
    """Give a test its own process-default simulation cache."""
    old = get_sim_cache()
    fresh = configure_sim_cache()
    yield fresh
    import repro.machine.engine.simcache as simcache

    simcache._default = old


# -- offline reuse-distance machinery ----------------------------------------
def _brute_reuse(keys) -> list[int]:
    """Distinct keys strictly between each access and the previous one of
    its key, one set per access; COLD for first-ever accesses."""
    keys = np.asarray(keys).tolist()
    last, out = {}, []
    for i, k in enumerate(keys):
        j = last.get(k)
        out.append(COLD if j is None else len(set(keys[j + 1 : i])))
        last[k] = i
    return out


def _split_at(keys, k: int) -> np.ndarray:
    """Reuse distances with the window threshold forced to ``k``."""
    prev = previous_occurrences(np.asarray(keys, dtype=np.int64))
    return distinct._split_distances(prev, distinct._windows(prev), k)


#: Forced window thresholds: K = 0 is the merge count alone.
SPLIT_THRESHOLDS = [0, 1, 2, 8, 64]
#: Lengths around the merge count's brute-force head of 32 positions.
HEAD_LENGTHS = [1, 31, 32, 33, 63, 64, 65, 97]


class TestDistinct:
    @given(st.lists(st.integers(0, 12), max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_previous_occurrences_matches_brute_force(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        prev = previous_occurrences(keys)
        for i, k in enumerate(keys):
            expected = max((j for j in range(i) if keys[j] == k), default=-1)
            assert prev[i] == expected

    @given(st.lists(st.integers(-50, 50), max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_count_prior_leq_matches_brute_force(self, values):
        values = np.asarray(values, dtype=np.int64)
        out = count_prior_leq(values)
        for i, v in enumerate(values):
            assert out[i] == sum(1 for j in range(i) if values[j] <= v)

    # Sizes around every block boundary of the binary decomposition: the
    # brute-force head, a lone block, and 2^k - 1 (every block present).
    # k = 13 spans two base-case slabs.
    DECOMPOSITION_SIZES = sorted(
        {0, 1, 2, 31, 32, 33}
        | {n for k in range(1, 14) for n in (2**k - 1, 2**k, 2**k + 1)}
    )

    @pytest.mark.parametrize("n", DECOMPOSITION_SIZES)
    def test_count_prior_leq_at_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        # Few distinct values: most comparisons are ties.
        values = rng.integers(-1, max(2, n // 8), n)
        out = count_prior_leq(values)
        expected = [int((values[:i] <= values[i]).sum()) for i in range(n)]
        assert out.dtype == np.int64
        assert out.tolist() == expected

    @pytest.mark.parametrize("n", [1000, 4095, 4097])
    def test_count_prior_leq_in_level_pieces(self, n, monkeypatch):
        # A merge level runs in row-aligned pieces of `_SLICE` positions;
        # shrink it so levels split into many pieces at testable sizes.
        from repro.machine.engine import distinct

        monkeypatch.setattr(distinct, "_SLICE", 64)
        values = np.random.default_rng(n).integers(0, n // 4, n)
        expected = [int((values[:i] <= values[i]).sum()) for i in range(n)]
        assert count_prior_leq(values).tolist() == expected

    @given(st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_count_prior_leq_on_previous_occurrences(self, keys):
        prev = previous_occurrences(np.asarray(keys, dtype=np.int64))
        out = count_prior_leq(prev)
        expected = [int((prev[:i] <= prev[i]).sum()) for i in range(prev.size)]
        assert out.tolist() == expected

    @given(st.lists(st.integers(0, 9), max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_reuse_distances_match_brute_force(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        delta = reuse_distances(keys)
        seen_before = set()
        for i, k in enumerate(keys):
            prior = [j for j in range(i) if keys[j] == k]
            if not prior:
                assert delta[i] == COLD
                assert k not in seen_before
            else:
                distinct = len(set(keys[prior[-1] + 1 : i].tolist()))
                assert delta[i] == distinct
            seen_before.add(int(k))

    # -- the window split: short windows direct, long ones merge-counted --
    @given(
        keys=st.lists(st.integers(0, 149), max_size=400),
        k=st.sampled_from(SPLIT_THRESHOLDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_at_any_threshold(self, keys, k):
        assert _split_at(keys, k).tolist() == _brute_reuse(keys)

    @pytest.mark.parametrize("n_keys", [100, 400, 1500])
    def test_both_paths_taken_on_wide_key_ranges(self, n_keys):
        rng = np.random.default_rng(n_keys)
        keys = rng.integers(0, n_keys, 2500)
        expected = _brute_reuse(keys)
        window = distinct._windows(previous_occurrences(keys))
        for k in SPLIT_THRESHOLDS:
            if k:
                assert (window < k).any() and ((window >= k) & (window != COLD)).any()
            assert _split_at(keys, k).tolist() == expected
        assert reuse_distances(keys).tolist() == expected

    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_windows_at_the_threshold(self, k):
        # One reuse per window length K - 1, K and K + 1, each window
        # holding repeats so its distinct count is below its length.
        keys = []
        for w in (k - 1, k, k + 1):
            base = 1000 * (w + 1)
            period = max(1, w // 2)
            keys += [base] + [base + 1 + j % period for j in range(w)] + [base]
        assert _split_at(keys, k).tolist() == _brute_reuse(keys)

    @pytest.mark.parametrize("n", HEAD_LENGTHS)
    @pytest.mark.parametrize(
        "pattern",
        ["all_cold", "all_equal", "two_streams"],
    )
    def test_degenerate_and_interleaved_traces(self, n, pattern):
        i = np.arange(n, dtype=np.int64)
        keys = {
            "all_cold": i,
            "all_equal": np.zeros(n, dtype=np.int64),
            # Two streams of different speeds, alternating accesses.
            "two_streams": np.where(i % 2 == 0, i // 8, 10**6 + i // 6),
        }[pattern]
        expected = _brute_reuse(keys)
        for k in SPLIT_THRESHOLDS:
            assert _split_at(keys, k).tolist() == expected
        assert reuse_distances(keys).tolist() == expected

    def test_threshold_follows_the_window_histogram(self):
        # A streaming trace reuses every line within a few accesses: the
        # split takes those directly.  Random keys over a wide range have
        # long windows only: the merge count takes everything.
        stream = np.arange(4096, dtype=np.int64) // 4
        k = distinct._window_threshold(distinct._windows(previous_occurrences(stream)))
        assert 0 < k <= distinct._MAX_K
        wide = np.random.default_rng(0).integers(0, 10**6, 4096)
        assert distinct._window_threshold(distinct._windows(previous_occurrences(wide))) == 0

    def test_stack_profile_matches_engine_at_every_capacity(self):
        # Three arrays walked together (a += b * c) twice: 4 elements a
        # line, so every line reuses within a few accesses, and the second
        # pass reuses across the whole first one.
        n = 400
        i = np.arange(n, dtype=np.int64)
        a, b, c = 0, 8 * n + 64, 16 * n + 160
        one = np.stack([b + 8 * i, c + 8 * i, a + 8 * i, a + 8 * i], axis=1).ravel()
        addrs = np.concatenate([one, one])
        writes = np.tile(np.array([False, False, False, True]), 2 * n)
        profile = stack_profile(addrs, writes, LINE)
        for capacity in range(1, profile.distinct + 2):
            eng = StackDistanceEngine("L", CacheGeometry(capacity * LINE, LINE, capacity))
            eng.run(addrs, writes, collect_events=False)
            assert vars(profile.stats(capacity, flush=False)) == vars(eng.stats), capacity
            eng.flush()
            assert vars(profile.stats(capacity)) == vars(eng.stats), capacity


# -- property-based engine equivalence ---------------------------------------
POLICIES = [(True, True), (True, False), (False, False)]


def _drive_pair(ref, eng, batches, compare_events=True):
    """Run both simulators over the same batches, compare everything."""
    for addrs, writes in batches:
        r_out, r_w = ref.run(addrs, writes)
        if compare_events:
            e_out, e_w = eng.run(addrs, writes)
            np.testing.assert_array_equal(r_out, e_out)
            np.testing.assert_array_equal(r_w, e_w)
        else:
            eng.run(addrs, writes, collect_events=False)
    r_out, r_w = ref.flush()
    e_out, e_w = eng.flush()
    np.testing.assert_array_equal(r_out, e_out)
    np.testing.assert_array_equal(r_w, e_w)
    for f in STAT_FIELDS:
        assert getattr(ref.stats, f) == getattr(eng.stats, f), f


@st.composite
def trace_batches(draw, max_lines=64):
    n_batches = draw(st.integers(1, 3))
    n_lines = draw(st.integers(1, max_lines))
    batches = []
    for _ in range(n_batches):
        n = draw(st.integers(0, 120))
        lines = draw(
            st.lists(st.integers(0, n_lines - 1), min_size=n, max_size=n)
        )
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        addrs = np.asarray(lines, dtype=np.int64) * LINE
        batches.append((addrs, np.asarray(writes, dtype=bool)))
    return batches


class TestDirectMappedEquivalence:
    @given(
        n_sets=st.sampled_from([1, 2, 5, 8, 13, 32]),
        policy=st.sampled_from(POLICIES),
        batches=trace_batches(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_exactly(self, n_sets, policy, batches):
        wb, wa = policy
        geom = CacheGeometry(n_sets * LINE, LINE, 1)
        ref = Cache("L", geom, wb, wa)
        eng = DirectMappedEngine("L", geom, wb, wa)
        _drive_pair(ref, eng, batches)

    def test_randomized_harness_across_geometries(self):
        for n_sets in (1, 7, 64, 320):
            for wb, wa in POLICIES:
                assert_equivalent(
                    DirectMappedEngine,
                    CacheGeometry(n_sets * LINE, LINE, 1),
                    write_back=wb,
                    write_allocate=wa,
                    trials=20,
                    seed=n_sets + wb * 2 + wa,
                )

    def test_rejects_set_associative_geometry(self):
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            DirectMappedEngine("L", CacheGeometry(4 * LINE, LINE, 2))

    def test_single_access_api_matches_reference(self):
        geom = CacheGeometry(5 * LINE, LINE, 1)
        ref, eng = Cache("L", geom), DirectMappedEngine("L", geom)
        rng = np.random.default_rng(3)
        for _ in range(200):
            addr = int(rng.integers(0, 20)) * LINE
            w = bool(rng.random() < 0.5)
            assert ref.access(addr, w) == eng.access(addr, w)


class TestStackDistanceEquivalence:
    @given(
        capacity=st.integers(1, 16),
        batches=trace_batches(max_lines=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_counters_match_reference_exactly(self, capacity, batches):
        geom = CacheGeometry(capacity * LINE, LINE, capacity)
        assert geom.n_sets == 1
        ref = Cache("L", geom)
        eng = StackDistanceEngine("L", geom)
        _drive_pair(ref, eng, batches, compare_events=False)

    def test_randomized_harness(self):
        for capacity in (1, 3, 8, 32):
            assert_equivalent(
                StackDistanceEngine,
                CacheGeometry(capacity * LINE, LINE, capacity),
                trials=20,
                seed=capacity,
                compare_events=False,
            )

    def test_rejects_event_collection_and_bad_config(self):
        from repro.errors import MachineError

        geom = CacheGeometry(4 * LINE, LINE, 4)
        eng = StackDistanceEngine("L", geom)
        with pytest.raises(MachineError):
            eng.run(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=bool))
        with pytest.raises(MachineError):
            StackDistanceEngine("L", CacheGeometry(4 * LINE, LINE, 2))
        with pytest.raises(MachineError):
            StackDistanceEngine("L", geom, write_back=False, write_allocate=False)


# -- miss curves --------------------------------------------------------------
class TestMissCurve:
    def test_exact_at_many_sizes_against_reference(self):
        # The acceptance criterion: one pass must reproduce repeated
        # reference simulations at >= 5 cache sizes, exactly.
        rng = np.random.default_rng(11)
        # Mix of a streaming kernel and a reuse-heavy random trace.
        stream = np.arange(4000, dtype=np.int64) * 8
        hot = rng.integers(0, 300, 6000) * LINE
        for addrs in (stream, hot.astype(np.int64), np.concatenate([stream, hot])):
            curve = miss_curve(addrs, LINE)
            for capacity in (1, 2, 4, 8, 16, 64, 256):
                ref = Cache("L", CacheGeometry(capacity * LINE, LINE, capacity))
                ref.run(addrs, np.zeros(len(addrs), dtype=bool))
                assert curve.misses(capacity) == ref.stats.misses, capacity
                assert curve.hits(capacity) == ref.stats.hits, capacity

    def test_curve_is_monotone_and_vectorized(self):
        rng = np.random.default_rng(5)
        addrs = (rng.integers(0, 100, 3000) * LINE).astype(np.int64)
        curve = miss_curve(addrs, LINE)
        caps = np.arange(0, 130)
        values = curve.curve(caps)
        assert values[0] == curve.total  # capacity 0 misses everything
        assert np.all(np.diff(values) <= 0)  # more cache never hurts (LRU)
        assert values[-1] == curve.cold  # big enough -> only cold misses
        assert curve.misses_for_size(64 * LINE) == curve.misses(64)

    def test_empty_trace(self):
        curve = miss_curve(np.empty(0, dtype=np.int64), LINE)
        assert curve.total == 0 and curve.cold == 0
        for capacity in (0, 1, 7, 1024):
            assert curve.misses(capacity) == 0
            assert curve.hits(capacity) == 0
            assert curve.miss_ratio(capacity) == 0.0
        assert list(curve.curve(np.array([0, 1, 16]))) == [0, 0, 0]

    def test_single_distinct_line(self):
        # Every access lands in one line: one cold miss, all else hits at
        # any capacity >= 1 (and everything misses at capacity 0).
        addrs = np.zeros(57, dtype=np.int64) + 8  # same line, varied offset
        addrs[1::2] += 16
        curve = miss_curve(addrs, LINE)
        assert curve.cold == 1
        assert curve.misses(0) == 57
        for capacity in (1, 2, 100):
            assert curve.misses(capacity) == 1
            assert curve.hits(capacity) == 56

    @pytest.mark.parametrize("bad_line", [0, -32, 3, 24, 100])
    def test_non_power_of_two_line_size_rejected(self, bad_line):
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            miss_curve(np.zeros(4, dtype=np.int64), bad_line)

    @given(
        data=st.lists(st.integers(0, 200), min_size=0, max_size=400),
        line_shift=st.integers(5, 8),
    )
    @settings(max_examples=25)
    def test_curve_monotone_and_reference_exact_on_random_traces(
        self, data, line_shift
    ):
        line = 1 << line_shift
        addrs = (np.asarray(data, dtype=np.int64)) * 16  # sub-line strides
        curve = miss_curve(addrs, line)
        caps = np.arange(0, 70)
        values = curve.curve(caps)
        assert np.all(np.diff(values) <= 0)
        # Spot-check one mid-size capacity against the reference cache.
        for capacity in (1, 3, 17):
            ref = Cache("L", CacheGeometry(capacity * line, line, capacity))
            if len(addrs):
                ref.run(addrs, np.zeros(len(addrs), dtype=bool))
            assert curve.misses(capacity) == ref.stats.misses


# -- selection and hierarchy wiring -------------------------------------------
class TestSelectionAndHierarchy:
    def test_select_engine_rules(self):
        direct = CacheGeometry(13 * LINE, LINE, 1)
        full = CacheGeometry(8 * LINE, LINE, 8)
        twoway = CacheGeometry(8 * LINE, LINE, 2)
        assert select_engine(direct) is DirectMappedEngine
        assert select_engine(full) is StackDistanceEngine
        # A fully-associative *intermediate* level needs an event stream,
        # which the stack engine cannot emit; setassoc can.
        assert select_engine(full, last_level=False) is SetAssociativeEngine
        assert select_engine(full, write_back=False, write_allocate=False) is Cache
        assert select_engine(twoway) is SetAssociativeEngine
        assert select_engine(twoway, write_back=False) is Cache
        assert select_engine(direct, engine="reference") is Cache
        assert select_engine(twoway, engine="setassoc") is SetAssociativeEngine
        assert make_cache("L", direct).engine == "direct"
        assert make_cache("L", twoway).engine == "setassoc"

    def test_unknown_engine_name_is_a_machine_error(self):
        from repro.errors import MachineError

        geometry = CacheGeometry(8 * LINE, LINE, 2)
        with pytest.raises(MachineError, match="unknown engine 'bogus'.*setassoc"):
            select_engine(geometry, engine="bogus")
        with pytest.raises(MachineError, match="unknown engine 'bogus'"):
            make_cache("L", geometry, engine="bogus")
        with pytest.raises(MachineError, match="unknown engine 'bogus'"):
            origin2000(128).build_caches("bogus")

    def test_spec_builds_selected_engines(self):
        spec = exemplar(128)  # direct-mapped single level
        caches = spec.build_caches()
        assert [c.engine for c in caches] == ["direct"]
        assert [c.engine for c in spec.build_caches("reference")] == ["reference"]
        origin = origin2000(128)  # 2-way levels -> setassoc on every level
        assert [c.engine for c in origin.build_caches()] == ["setassoc", "setassoc"]

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    def test_chunked_streaming_is_invisible(self, engine):
        # Chunk boundaries must not change any counter: engines persist
        # cache contents between run() calls.
        spec = exemplar(128)
        rng = np.random.default_rng(9)
        addrs = (rng.integers(0, 2000, 5000) * 8).astype(np.int64)
        writes = rng.random(5000) < 0.3
        whole = Hierarchy.from_spec(spec, engine)
        whole.run_trace(addrs, writes)
        whole.flush()
        chunked = Hierarchy.from_spec(spec, engine, chunk_size=257)
        chunked.run_trace(addrs, writes)
        chunked.flush()
        for a, b in zip(whole.result().level_stats, chunked.result().level_stats):
            assert vars(a) == vars(b)
        assert whole.result().downstream_bytes == chunked.result().downstream_bytes

    def test_multi_level_auto_matches_reference(self):
        # Origin 2000: 2-way L1/L2 -> auto selects setassoc on both
        # levels, so this checks the full vectorized hierarchy (ordered
        # L1 events feeding L2) against the reference dict loop.
        spec = origin2000(256)
        rng = np.random.default_rng(21)
        addrs = (rng.integers(0, 4000, 8000) * 8).astype(np.int64)
        writes = rng.random(8000) < 0.25
        results = []
        for engine in ("reference", "auto"):
            h = Hierarchy.from_spec(spec, engine)
            h.run_trace(addrs, writes)
            h.flush()
            results.append(h.result())
        for a, b in zip(results[0].level_stats, results[1].level_stats):
            assert vars(a) == vars(b)


# -- the simulation cache ------------------------------------------------------
class TestSimulationCache:
    def test_executor_memoizes_identical_runs(self, isolated_sim_cache, tmp_path):
        from repro.programs import make_kernel

        prog = make_kernel("1w1r")
        spec = exemplar(512)
        memo = isolated_sim_cache
        r1 = execute(prog, spec, params={"N": 512})
        assert memo.counters.misses == 1 and memo.counters.hits == 0
        r2 = execute(prog, spec, params={"N": 512})
        assert memo.counters.hits == 1  # second run did zero simulation
        assert r1.counters == r2.counters
        assert r1.seconds == r2.seconds
        # Different params or machine -> different key, fresh simulation.
        execute(prog, spec, params={"N": 768})
        assert memo.counters.misses == 2
        execute(prog, exemplar(256), params={"N": 512})
        assert memo.counters.misses == 3
        # Opting out per call bypasses the memo entirely.
        before = memo.counters.snapshot()
        r3 = execute(prog, spec, params={"N": 512}, sim_cache=False)
        delta = memo.counters.since(before)
        assert delta.hits == delta.misses == 0
        assert r3.counters == r1.counters

    def test_disk_tier_survives_a_new_cache(self, tmp_path):
        from repro.programs import make_kernel

        prog = make_kernel("1w1r")
        spec = exemplar(512)
        cold = SimulationCache(tmp_path / "simc")
        r1 = execute(prog, spec, params={"N": 512}, sim_cache=cold)
        assert cold.counters.puts == 1
        # A brand-new cache instance (fresh process, same directory) hits
        # the persisted entry without simulating.
        warm = SimulationCache(tmp_path / "simc")
        r2 = execute(prog, spec, params={"N": 512}, sim_cache=warm)
        assert warm.counters.disk_hits == 1 and warm.counters.misses == 0
        assert r1.counters == r2.counters

    def test_cached_results_are_isolated_copies(self, tmp_path):
        from repro.programs import make_kernel

        prog = make_kernel("1w1r")
        spec = exemplar(512)
        memo = SimulationCache()
        r1 = execute(prog, spec, params={"N": 512}, sim_cache=memo)
        r1.counters.level_stats[0].misses += 999  # vandalize the returned copy
        r2 = execute(prog, spec, params={"N": 512}, sim_cache=memo)
        assert r2.counters.level_stats[0].misses != r1.counters.level_stats[0].misses

    def test_memo_hits_are_isolated_from_the_stored_entry(self):
        from repro.machine.cache import CacheStats
        from repro.machine.engine.simcache import SimulationResult
        from repro.machine.hierarchy import HierarchyResult

        stats = CacheStats(accesses=10, hits=6, misses=4, events_out=4)
        value = SimulationResult(HierarchyResult((stats,), (128,)), 5, 6, 7)
        memo = SimulationCache()
        memo.put("k", value)
        stats.misses += 100  # the caller's block, mutated after the put
        hit = memo.get("k")
        assert hit == SimulationResult(
            HierarchyResult((CacheStats(10, 6, 4, events_out=4),), (128,)), 5, 6, 7
        )
        hit.result.level_stats[0].misses += 999  # vandalize the returned copy
        again = memo.get("k")
        assert again.result.level_stats[0].misses == 4
        assert again.result.level_stats[0] is not hit.result.level_stats[0]

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        memo = SimulationCache(tmp_path / "simc")
        assert memo.get("00" * 32) is None
        path = memo._path("00" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("not json {")
        assert memo.get("00" * 32) is None


# -- single-access invariant (Cache.access satellite) -------------------------
class TestAccessInvariant:
    def test_access_returns_the_single_writeback(self):
        geom = CacheGeometry(2 * LINE, LINE, 1)
        c = Cache("L", geom)
        assert c.access(0 * LINE, True) == (False, None)  # cold write miss
        hit, wb = c.access(2 * LINE, False)  # evicts dirty line 0
        assert not hit and wb == 0


def test_verify_harness_reports_mismatches():
    # The harness must actually detect divergence, not vacuously pass: a
    # "cache" that lies about hits must be flagged.
    class Broken(Cache):
        def run(self, a, w, collect_events=True):
            out = super().run(a, w)
            self.stats.hits += 1
            return out

    mismatches = check_equivalence(
        Broken, CacheGeometry(4 * LINE, LINE, 1), trials=3, seed=0
    )
    assert any(m.what == "stats:hits" for m in mismatches)
