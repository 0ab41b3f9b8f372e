"""SetAssociativeEngine: bit-identity on counters, events, and state.

The set-associative engine is the one that runs the paper's headline
machine (every Origin2000/R10K level is 2-way), so its equivalence bar
is the full one: counters, the *ordered* downstream event stream, the
flush drain, and cache contents persisted across chunk boundaries must
all match the reference ``Cache`` exactly — on power-of-two and
non-power-of-two set counts, associativities past the closed-form A <= 2
fast path, and the Exemplar's footnote-3 conflict anomaly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.machine.cache import Cache, CacheGeometry
from repro.machine.engine import SetAssociativeEngine, select_engine
from repro.machine.engine.verify import (
    STAT_FIELDS,
    assert_equivalent,
    check_equivalence,
    random_geometry,
)
from repro.machine.hierarchy import Hierarchy
from repro.machine.presets import exemplar, origin2000
from tests.test_engine import LINE, _drive_pair, trace_batches


class TestSetAssociativeEquivalence:
    @given(
        assoc=st.integers(2, 8),
        n_sets=st.sampled_from([1, 2, 3, 5, 7, 8, 13, 150]),
        batches=trace_batches(max_lines=96),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_exactly(self, assoc, n_sets, batches):
        # Multiple batches per example drive the warm-state prologue: the
        # engine must splice persisted residents back in bit-identically.
        geom = CacheGeometry(n_sets * assoc * LINE, LINE, assoc)
        ref = Cache("L", geom)
        eng = SetAssociativeEngine("L", geom)
        _drive_pair(ref, eng, batches)

    @given(batches=trace_batches(max_lines=24))
    @settings(max_examples=40, deadline=None)
    def test_direct_mapped_geometry_matches_too(self, batches):
        # A == 1 exercises the degenerate closed form (every run is a
        # tenure); the direct engine normally owns this geometry, but
        # ``--engine setassoc`` forces it here and must stay exact.
        geom = CacheGeometry(8 * LINE, LINE, 1)
        _drive_pair(Cache("L", geom), SetAssociativeEngine("L", geom), batches)

    def test_randomized_harness_across_geometries(self):
        # Dense fixed sweep: closed-form (A <= 2) and general (A >= 3)
        # paths, tiny counting-sort set counts and radix-sorted ones.
        for assoc in (2, 3, 4, 8):
            for n_sets in (1, 2, 5, 7, 16, 33):
                assert_equivalent(
                    SetAssociativeEngine,
                    CacheGeometry(n_sets * assoc * LINE, LINE, assoc),
                    trials=15,
                    seed=assoc * 100 + n_sets,
                    flush_prob=0.4,
                )

    def test_randomized_harness_on_random_geometries(self):
        rng = np.random.default_rng(7)
        for trial in range(12):
            geom = random_geometry(rng)
            mismatches = check_equivalence(
                SetAssociativeEngine, geom, trials=10, seed=trial
            )
            assert not mismatches, (geom, mismatches[:3])

    def test_rejects_non_writeback_policies(self):
        geom = CacheGeometry(4 * LINE, LINE, 2)
        with pytest.raises(MachineError):
            SetAssociativeEngine("L", geom, write_back=False, write_allocate=False)
        with pytest.raises(MachineError):
            SetAssociativeEngine("L", geom, write_back=True, write_allocate=False)
        # auto never routes those policies here
        assert select_engine(geom, write_back=False, write_allocate=False) is Cache


def _ref_state(ref: Cache) -> list[tuple[int, bool]]:
    """The reference's contents as (line, dirty), in (set, oldest-first)
    order — the engine's resident-state format."""
    n_sets = ref.geometry.n_sets
    return [
        (tag * n_sets + s, dirty)
        for s, ways in enumerate(ref._sets)
        for tag, dirty in ways.items()
    ]


def _eng_state(eng: SetAssociativeEngine) -> list[tuple[int, bool]]:
    return list(zip(eng._res_line.tolist(), eng._res_dirty.tolist()))


def _blocked_pair(geom: CacheGeometry, block: int):
    eng = SetAssociativeEngine("L", geom)
    eng._block = block
    return Cache("L", geom), eng


def _drive_blocked(ref, eng, batches, collect=None):
    """Like ``_drive_pair``, also comparing resident state after every
    call; ``collect[i]`` False runs call ``i`` without events."""
    for i, (addrs, writes) in enumerate(batches):
        r_out, r_w = ref.run(addrs, writes)
        if collect is None or collect[i]:
            e_out, e_w = eng.run(addrs, writes)
            np.testing.assert_array_equal(r_out, e_out)
            np.testing.assert_array_equal(r_w, e_w)
        else:
            assert len(eng.run(addrs, writes, collect_events=False)[0]) == 0
        assert _eng_state(eng) == _ref_state(ref)
    for f in STAT_FIELDS:
        assert getattr(ref.stats, f) == getattr(eng.stats, f), f
    r_out, r_w = ref.flush()
    e_out, e_w = eng.flush()
    np.testing.assert_array_equal(r_out, e_out)
    np.testing.assert_array_equal(r_w, e_w)
    assert eng.stats.writebacks == ref.stats.writebacks


def _lines(seq, writes=None):
    addrs = np.asarray(seq, dtype=np.int64) * LINE
    if writes is None:
        writes = np.zeros(len(seq), dtype=bool)
    return addrs, np.asarray(writes, dtype=bool)


class TestBlocks:
    """``run`` works through its batch in blocks, the residents prepended
    to each; the other equivalence tests draw batches shorter than any
    real block, so these shrink the block to cross its boundaries."""

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("n_sets", [1, 3, 4, 5, 37])
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_matches_reference_across_block_boundaries(self, assoc, n_sets, block):
        geom = CacheGeometry(n_sets * assoc * LINE, LINE, assoc)
        rng = np.random.default_rng(assoc * 1000 + n_sets * 10 + block)
        n_lines = max(2, 2 * n_sets * assoc)
        batches = []
        for n in (300, 0, 5, 200):
            # Runs of repeated lines, as sequential sweeps produce.
            seq = np.repeat(rng.integers(0, n_lines, n), rng.integers(1, 5, n))[:n]
            batches.append(_lines(seq, rng.random(n) < 0.3))
        _drive_blocked(*_blocked_pair(geom, block), batches)

    def test_run_straddling_a_block_boundary(self):
        # One line's run spans positions 3..12 across blocks of 7; the
        # write in the second block must reach the run's tenure.
        geom = CacheGeometry(2 * LINE, LINE, 2)
        seq = [0, 1, 2] + [5] * 10 + [1, 6, 7]
        writes = [False] * 3 + [False] * 6 + [True] + [False] * 6
        _drive_blocked(*_blocked_pair(geom, 7), [_lines(seq, writes)])

    def test_line_dirtied_then_evicted_blocks_later(self):
        # Line 0 is written in block 0, stays resident through four
        # blocks of hits on line 1, then is evicted (and written back)
        # in block 6.
        geom = CacheGeometry(2 * LINE, LINE, 2)
        seq = [0, 1] + [1, 0] * 10 + [2, 3]
        writes = [True] + [False] * (len(seq) - 1)
        ref, eng = _blocked_pair(geom, 4)
        _drive_blocked(ref, eng, [_lines(seq, writes)])
        assert ref.stats.writebacks >= 1

    def test_sets_a_block_does_not_touch(self):
        # Fill all four sets, then run blocks that only touch set 0: the
        # other sets' residents (dirty bits included) must pass through.
        geom = CacheGeometry(4 * 2 * LINE, LINE, 2)
        fill = _lines(list(range(8)), [True] * 8)
        set0 = _lines([0, 4, 8, 12, 16, 0, 4] * 3)
        back = _lines([3, 7, 11, 1])
        _drive_blocked(*_blocked_pair(geom, 3), [fill, set0, back])

    def test_batch_shorter_than_a_block(self):
        geom = CacheGeometry(3 * 2 * LINE, LINE, 2)
        batches = [_lines([0, 1, 2, 3], [True, False, True, False]), _lines([4, 0, 7])]
        _drive_blocked(*_blocked_pair(geom, 64), batches)

    def test_events_off_then_on(self):
        geom = CacheGeometry(5 * 4 * LINE, LINE, 4)
        rng = np.random.default_rng(3)
        batches = [
            _lines(rng.integers(0, 60, 150), rng.random(150) < 0.4) for _ in range(3)
        ]
        _drive_blocked(
            *_blocked_pair(geom, 7), batches, collect=[False, True, True]
        )

    @given(
        assoc=st.sampled_from([1, 2, 3, 4, 8]),
        n_sets=st.sampled_from([1, 2, 3, 4, 5, 8, 37]),
        block=st.integers(1, 50),
        collect=st.lists(st.booleans(), min_size=3, max_size=3),
        batches=trace_batches(max_lines=96),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_block_size_equals_one_block(
        self, assoc, n_sets, block, collect, batches
    ):
        geom = CacheGeometry(n_sets * assoc * LINE, LINE, assoc)
        whole = SetAssociativeEngine("L", geom)
        blocked = SetAssociativeEngine("L", geom)
        blocked._block = block
        for (addrs, writes), ev in zip(batches, collect):
            a = whole.run(addrs, writes, collect_events=ev)
            b = blocked.run(addrs, writes, collect_events=ev)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
            assert _eng_state(whole) == _eng_state(blocked)
        np.testing.assert_array_equal(whole.flush()[0], blocked.flush()[0])
        assert vars(whole.stats) == vars(blocked.stats)


class TestChunkedStreaming:
    @pytest.mark.parametrize("spec_fn", [origin2000, exemplar])
    def test_chunk_boundaries_are_invisible(self, spec_fn):
        # Same trace, whole vs 257-access chunks: persisted state must
        # make every counter and the downstream traffic bit-identical.
        spec = spec_fn(128)
        rng = np.random.default_rng(13)
        addrs = (rng.integers(0, 3000, 6000) * 8).astype(np.int64)
        writes = rng.random(6000) < 0.3
        whole = Hierarchy.from_spec(spec, "setassoc")
        whole.run_trace(addrs, writes)
        whole.flush()
        chunked = Hierarchy.from_spec(spec, "setassoc", chunk_size=257)
        chunked.run_trace(addrs, writes)
        chunked.flush()
        for a, b in zip(whole.result().level_stats, chunked.result().level_stats):
            assert vars(a) == vars(b)
        assert whole.result().downstream_bytes == chunked.result().downstream_bytes

    def test_chunked_events_match_reference_stream(self):
        # The ordered event stream itself — not just counters — must be
        # identical across chunk boundaries, or downstream levels would
        # see a different trace.
        geom = CacheGeometry(6 * LINE, LINE, 2)
        rng = np.random.default_rng(29)
        addrs = (rng.integers(0, 40, 1200) * LINE).astype(np.int64)
        writes = rng.random(1200) < 0.4
        ref = Cache("L", geom)
        r_out = [ref.run(addrs, writes), ref.flush()]
        eng = SetAssociativeEngine("L", geom)
        e_lines, e_writes = [], []
        for start in range(0, 1200, 111):
            out, w = eng.run(addrs[start : start + 111], writes[start : start + 111])
            e_lines.append(out)
            e_writes.append(w)
        fl = eng.flush()
        np.testing.assert_array_equal(
            np.concatenate([r_out[0][0], r_out[1][0]]),
            np.concatenate(e_lines + [fl[0]]),
        )
        np.testing.assert_array_equal(
            np.concatenate([r_out[0][1], r_out[1][1]]),
            np.concatenate(e_writes + [fl[1]]),
        )
        for f in ("accesses", "hits", "misses", "evictions", "writebacks"):
            assert getattr(ref.stats, f) == getattr(eng.stats, f), f


class TestExemplarAnomaly:
    def test_footnote3_conflict_anomaly_stays_exact(self):
        # The 3w6r kernel's five arrays at C + C/5 spacing collide in the
        # Exemplar's direct-mapped cache (the paper's footnote 3).  Forcing
        # the setassoc engine onto that geometry must reproduce the
        # anomalous miss counts access-for-access, not just statistically.
        from repro.experiments.config import ExperimentConfig
        from repro.machine.layout import build_layout
        from repro.programs import make_kernel
        from repro.trace.generator import TraceGenerator

        cfg = ExperimentConfig()
        spec = cfg.exemplar
        prog = make_kernel("3w6r", cfg.exemplar_kernel_elements())
        bound = prog.bind_params(None)
        layout = build_layout(prog, bound, spec.default_layout)
        tr = TraceGenerator(prog, bound, layout).generate()
        geom = spec.cache_levels[0].geometry
        ref = Cache("L1", geom)
        eng = SetAssociativeEngine("L1", geom)
        _drive_pair(ref, eng, [(tr.addresses, tr.is_write)])
        # The anomaly is real on this geometry: conflict misses at least
        # double the compulsory floor (every distinct line once).
        distinct = len(np.unique(tr.addresses // geom.line_size))
        assert ref.stats.misses >= 2 * distinct
