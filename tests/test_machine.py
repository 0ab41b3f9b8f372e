"""Tests for hierarchy, layout, machine specs/presets, and timing models."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine import (
    CacheGeometry,
    CacheLevelSpec,
    Hierarchy,
    LayoutPolicy,
    MachineSpec,
    bandwidth_bound_time,
    build_layout,
    exemplar,
    future_machine,
    latency_bound_time,
    origin2000,
    overlap_time,
)
from repro.machine.layout import ArrayPlacement

from tests.helpers import simple_stream_program


class TestHierarchy:
    def test_two_level_traffic(self, tiny_machine):
        h = Hierarchy.from_spec(tiny_machine)
        # Stream 512 bytes (64 doubles), read-only: 16 L1 lines, 8 L2 lines.
        addrs = np.arange(64, dtype=np.int64) * 8
        h.run_trace(addrs, np.zeros(64, dtype=bool))
        res = h.result()
        assert res.level_stats[0].misses == 16
        assert res.level_stats[1].misses == 8
        assert res.downstream_bytes[0] == 16 * 32
        assert res.downstream_bytes[1] == 8 * 64
        assert res.memory_bytes == 512

    def test_write_traffic_with_flush(self, tiny_machine):
        h = Hierarchy.from_spec(tiny_machine)
        addrs = np.arange(64, dtype=np.int64) * 8
        h.run_trace(addrs, np.ones(64, dtype=bool))
        h.flush()
        res = h.result()
        # every line written then flushed: read fill + writeback both levels
        assert res.downstream_bytes[1] == 2 * 512

    def test_l2_filters_l1_misses(self, tiny_machine):
        h = Hierarchy.from_spec(tiny_machine)
        addrs = np.tile(np.arange(32, dtype=np.int64) * 8, 4)  # 256B, fits L2 not L1
        h.run_trace(addrs, np.zeros(len(addrs), dtype=bool))
        res = h.result()
        assert res.level_stats[0].misses > res.level_stats[1].misses
        assert res.level_stats[1].misses == 4  # 256B / 64B lines, only cold

    def test_merged(self, tiny_machine):
        h = Hierarchy.from_spec(tiny_machine)
        addrs = np.arange(16, dtype=np.int64) * 8
        h.run_trace(addrs, np.zeros(16, dtype=bool))
        r1 = h.result()
        merged = r1.merged(r1)
        assert merged.level_stats[0].misses == 2 * r1.level_stats[0].misses
        assert merged.downstream_bytes[0] == 2 * r1.downstream_bytes[0]

    def test_requires_cache(self):
        with pytest.raises(ValueError):
            Hierarchy([])


class TestLayout:
    def test_sequential_placement(self):
        p = simple_stream_program(n=8)
        layout = build_layout(p, policy=LayoutPolicy(alignment=32, pad_bytes=0))
        a, b = layout["a"], layout["b"]
        assert a.base == 0
        assert b.base == 64  # 8 doubles
        assert layout.total_bytes == 128

    def test_padding_and_alignment(self):
        p = simple_stream_program(n=3)  # 24 bytes
        layout = build_layout(p, policy=LayoutPolicy(alignment=64, pad_bytes=10))
        assert layout["a"].base == 0
        # end=24, +10 pad = 34, aligned up to 64
        assert layout["b"].base == 64

    def test_element_address_row_major(self):
        from repro.programs import matmul

        p = matmul(4)
        layout = build_layout(p)
        base = layout["a"].base
        assert layout.element_address("a", (1, 2)) == base + (1 * 4 + 2) * 8

    def test_element_address_bounds(self):
        p = simple_stream_program(n=4)
        layout = build_layout(p)
        with pytest.raises(MachineError):
            layout.element_address("a", (4,))
        with pytest.raises(MachineError):
            layout.element_address("a", (1, 1))

    def test_vectorized_addresses(self):
        p = simple_stream_program(n=8)
        layout = build_layout(p)
        subs = (np.array([0, 3, 7]),)
        out = layout.element_addresses("a", subs)
        assert list(out) == [0, 24, 56]

    def test_vectorized_addresses_open_grids(self):
        """Subscripts broadcast against each other; with ``out`` the
        addresses land in a strided view, and scalars fold in."""
        from repro.lang import ProgramBuilder

        b = ProgramBuilder("p", params={"N": 3, "M": 4})
        b.array("pad", 5)
        b.array("m", ("N", "M"))
        layout = build_layout(b.build(), None, LayoutPolicy(alignment=8))
        base = layout["m"].base
        i = np.arange(3).reshape(3, 1)
        j = np.arange(4).reshape(1, 4)
        expected = base + 8 * (4 * i + j)
        assert np.array_equal(layout.element_addresses("m", (i, j)), expected)
        block = np.zeros((3, 4, 2), dtype=np.int64)
        out = layout.element_addresses("m", (i, j), out=block[..., 1])
        assert np.shares_memory(out, block)
        assert np.array_equal(block[..., 1], expected)
        assert not block[..., 0].any()
        layout.element_addresses("m", (2, j), out=block[..., 0])
        assert np.array_equal(block[..., 0], np.broadcast_to(base + 8 * (8 + j), (3, 4)))
        assert int(layout.element_addresses("m", (1, 3))) == base + 8 * 7
        with pytest.raises(MachineError, match="rank mismatch"):
            layout.element_addresses("m", (i,))

    def test_no_overlap(self):
        from repro.programs import nas_sp

        layout = build_layout(nas_sp(8, 8))
        spans = sorted((pl.base, pl.end) for pl in layout.placements.values())
        for (b1, e1), (b2, e2) in zip(spans, spans[1:]):
            assert e1 <= b2

    def test_unknown_array(self):
        p = simple_stream_program()
        layout = build_layout(p)
        with pytest.raises(MachineError):
            layout["zzz"]

    def test_policy_validation(self):
        with pytest.raises(MachineError):
            LayoutPolicy(alignment=48)
        with pytest.raises(MachineError):
            LayoutPolicy(pad_bytes=-1)

    def test_strides(self):
        pl = ArrayPlacement("x", 0, (3, 4, 5), 8)
        assert pl.strides == (20, 5, 1)
        assert pl.size_bytes == 3 * 4 * 5 * 8


class TestSpecs:
    def test_level_names_two_cache(self):
        m = origin2000()
        assert m.level_names == ("L1-Reg", "L2-L1", "Mem-L2")

    def test_level_names_one_cache(self):
        m = exemplar()
        assert m.level_names == ("L1-Reg", "Mem-L1")

    def test_origin_balance_matches_paper(self):
        m = origin2000()
        balance = m.balance
        assert balance[0] == pytest.approx(4.0)
        assert balance[1] == pytest.approx(4.0)
        assert balance[2] == pytest.approx(0.8)

    def test_origin_memory_bandwidth_near_stream_value(self):
        assert origin2000().memory_bandwidth == pytest.approx(312e6)

    def test_exemplar_direct_mapped(self):
        m = exemplar()
        assert m.cache_levels[0].geometry.associativity == 1
        assert m.cache_levels[0].geometry.size_bytes % 5 == 0

    def test_scaled_preserves_balance(self):
        for scale in (4, 16, 64):
            m = origin2000(scale)
            assert m.balance == origin2000().balance
            assert m.cache_levels[0].geometry.size_bytes == 32 * 1024 // scale

    def test_scale_one_identity(self):
        assert origin2000(1).name == "Origin2000"

    def test_future_machine_worse_balance(self):
        base = origin2000()
        fut = future_machine(4.0)
        assert fut.balance[-1] == pytest.approx(base.balance[-1] / 4.0)
        assert fut.balance[0] == pytest.approx(base.balance[0])

    def test_validation(self):
        with pytest.raises(MachineError):
            MachineSpec("x", 0, 1e6, (CacheLevelSpec("L1", CacheGeometry(128, 32, 2), 1e6, 0),))
        with pytest.raises(MachineError):
            MachineSpec("x", 1e6, 1e6, ())
        with pytest.raises(MachineError):
            CacheLevelSpec("L1", CacheGeometry(128, 32, 2), -1, 0)

    def test_describe(self):
        text = origin2000().describe()
        assert "Origin2000" in text and "MB/s" in text


class TestTiming:
    def test_bandwidth_bound_picks_max(self, tiny_machine):
        t = bandwidth_bound_time(tiny_machine, flops=100, register_bytes=400, downstream_bytes=[400, 1000])
        # cpu 1us, reg 1us, L2-L1 1us, mem 10us
        assert t.total == pytest.approx(10e-6)
        assert t.bound == "Mem-L2"
        assert t.cpu_utilization == pytest.approx(0.1)

    def test_cpu_bound(self, tiny_machine):
        t = bandwidth_bound_time(tiny_machine, flops=10000, register_bytes=8, downstream_bytes=[8, 8])
        assert t.bound == "cpu"
        assert t.cpu_utilization == 1.0

    def test_wrong_channel_count(self, tiny_machine):
        with pytest.raises(MachineError):
            bandwidth_bound_time(tiny_machine, 1, 1, [1])

    def test_latency_model(self, tiny_machine):
        t = latency_bound_time(tiny_machine, flops=100, level_misses=[10, 5])
        expected = 100 / 100e6 + 10 * 10e-9 + 5 * 100e-9
        assert t == pytest.approx(expected)

    def test_overlap_never_beats_bandwidth(self, tiny_machine):
        bw = bandwidth_bound_time(tiny_machine, 100, 400, [400, 1000]).total
        for outstanding in (1, 2, 8, 64):
            t = overlap_time(tiny_machine, 100, 400, [400, 1000], [10, 5], outstanding)
            assert t >= bw

    def test_overlap_converges_to_bandwidth(self, tiny_machine):
        t = overlap_time(tiny_machine, 100, 400, [400, 1000], [1000, 1000], 10**9)
        bw = bandwidth_bound_time(tiny_machine, 100, 400, [400, 1000]).total
        assert t == pytest.approx(bw)

    def test_overlap_validation(self, tiny_machine):
        with pytest.raises(MachineError):
            overlap_time(tiny_machine, 1, 1, [1, 1], [0, 0], 0)

    def test_describe(self, tiny_machine):
        t = bandwidth_bound_time(tiny_machine, 100, 400, [400, 1000])
        assert "bound" in t.describe()
