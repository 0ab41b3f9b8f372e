"""Tests for 3C miss classification, trace serialization, and E18."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError, ReproError
from repro.machine import CacheGeometry, MissClassification
from repro.machine.three_c import classify_misses as classify
from repro.options import ExecOptions, use_options
from repro.trace import generate_trace, load_trace, save_trace

from tests.helpers import simple_stream_program


def arrs(addrs, writes=None):
    a = np.asarray(addrs, dtype=np.int64)
    w = np.asarray(writes if writes is not None else [False] * len(a), dtype=bool)
    return a, w


class TestThreeC:
    GEOM = CacheGeometry(64, 32, 1)  # 2 sets, direct-mapped

    def test_pure_compulsory(self):
        a, w = arrs([0, 32, 0, 32])
        c = classify(a, w, self.GEOM)
        assert (c.total, c.compulsory, c.capacity, c.conflict) == (2, 2, 0, 0)

    def test_pure_conflict(self):
        # lines 0 and 64 both map to set 0 of the direct-mapped cache, but
        # a fully associative cache of the same size holds both.
        a, w = arrs([0, 64, 0, 64])
        c = classify(a, w, self.GEOM)
        assert c.compulsory == 2
        assert c.conflict == 2
        assert c.capacity == 0

    def test_pure_capacity(self):
        # 3 distinct lines cycled through a 2-line cache: even fully
        # associative LRU misses every access.
        a, w = arrs([0, 32, 64, 0, 32, 64])
        c = classify(a, w, CacheGeometry(64, 32, 2))
        assert c.compulsory == 3
        assert c.capacity == 3
        assert c.conflict == 0

    def test_classes_sum(self):
        rng = np.random.default_rng(2)
        a = (rng.integers(0, 64, size=400) * 8).astype(np.int64)
        w = rng.random(400) < 0.5
        c = classify(a, w, CacheGeometry(128, 32, 2))
        assert c.compulsory + c.capacity + c.conflict == c.total

    def test_length_mismatch(self):
        with pytest.raises(MachineError):
            classify(np.zeros(2, dtype=np.int64), np.zeros(1, dtype=bool), self.GEOM)

    def test_describe(self):
        a, w = arrs([0, 64, 0])
        text = classify(a, w, self.GEOM).describe()
        assert "conflict" in text

    def test_validation_of_sum(self):
        with pytest.raises(MachineError):
            MissClassification(self.GEOM, 5, 1, 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(addrs=st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_invariants(self, addrs):
        a, w = arrs([x * 8 for x in addrs])
        c = classify(a, w, CacheGeometry(128, 32, 2))
        assert 0 <= c.compulsory <= c.total
        assert c.capacity >= 0 and c.conflict >= 0
        assert c.compulsory == len({x * 8 // 32 for x in addrs})

    def test_full_associativity_has_no_conflicts(self):
        rng = np.random.default_rng(3)
        a = (rng.integers(0, 64, size=300) * 8).astype(np.int64)
        w = np.zeros(300, dtype=bool)
        geom = CacheGeometry(128, 32, 4)  # fully associative already
        c = classify(a, w, geom)
        assert c.conflict == 0

    @settings(max_examples=40, deadline=None)
    @given(
        addrs=st.lists(st.integers(0, 95), min_size=1, max_size=300),
        geom=st.sampled_from([
            CacheGeometry(64, 32, 1),
            CacheGeometry(160, 32, 1),  # 5 sets, direct-mapped
            CacheGeometry(192, 32, 2),  # 3 sets, 2-way
            CacheGeometry(256, 32, 4),
            CacheGeometry(256, 32, 8),  # fully associative
        ]),
        data=st.data(),
    )
    def test_engines_match_reference_cache(self, addrs, geom, data):
        """The engine replays give the reference Cache's classes."""
        a, w = arrs([x * 8 for x in addrs],
                    data.draw(st.lists(st.booleans(), min_size=len(addrs),
                                       max_size=len(addrs))))
        fast = classify(a, w, geom)
        with use_options(ExecOptions(engine="reference")):
            assert classify(a, w, geom) == fast


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        p = simple_stream_program(n=32)
        t = generate_trace(p)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.addresses, t.addresses)
        assert np.array_equal(loaded.is_write, t.is_write)
        assert (loaded.flops, loaded.loads, loaded.stores) == (t.flops, t.loads, t.stores)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_trace(tmp_path / "nope.npz")

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            version=np.int64(99),
            addresses=np.zeros(1, dtype=np.int64),
            is_write=np.zeros(1, dtype=bool),
            counts=np.array([0, 1, 0], dtype=np.int64),
        )
        with pytest.raises(ReproError, match="format"):
            load_trace(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an npz")
        with pytest.raises(ReproError):
            load_trace(path)

    def test_analysis_on_loaded_trace(self, tmp_path):
        """A loaded trace feeds every downstream analysis unchanged."""
        from repro.balance import intrinsic_traffic
        from repro.machine import lru_vs_opt

        p = simple_stream_program(n=64)
        t = generate_trace(p)
        path = tmp_path / "t.npz"
        save_trace(t, path)
        loaded = load_trace(path)
        geom = CacheGeometry(128, 32, 2)
        assert lru_vs_opt(loaded.addresses, loaded.is_write, geom) == lru_vs_opt(
            t.addresses, t.is_write, geom
        )
        assert intrinsic_traffic(loaded, 32) == intrinsic_traffic(t, 32)


class TestE18:
    def test_footnote3_measured(self):
        from repro.experiments import ExperimentConfig
        from repro.experiments.e18_three_c import run_e18

        r = run_e18(ExperimentConfig(scale=256))
        ex = [row for row in r.detail.rows if row.machine.startswith("Exemplar")]
        anomaly = next(row for row in ex if row.kernel == "3w6r")
        clean = next(row for row in ex if row.kernel == "2w5r")
        assert anomaly.classification.conflict > 0
        assert anomaly.classification.conflict_fraction >= 0.4
        assert clean.classification.conflict == 0
        origin = [row for row in r.detail.rows if row.machine.startswith("Origin")]
        assert all(row.classification.conflict == 0 for row in origin)
        assert "E18" in r.table().render()
