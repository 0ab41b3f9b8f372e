"""Streaming trace pipeline: chunked generation, producer/consumer
overlap, streamed hierarchy simulation, and the plumbing around them.

The contract under test is *bit-identity*: chunked generation concatenates
to exactly the materialized trace, ``run_stream`` over arbitrary chunk
boundaries produces exactly the counters of ``run_trace``, and a streamed
``execute`` matches a materialized one down to the last writeback — the
streaming pipeline buys bounded memory, never different numbers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.experiments.config import ExperimentConfig
from repro.experiments.result import SCHEMA_VERSION, ExperimentResult
from repro.interp.executor import execute
from repro.options import ExecOptions, current_options, use_options
from repro.machine import LayoutPolicy, build_layout
from repro.machine.cache import Cache, CacheGeometry
from repro.machine.engine import (
    DirectMappedEngine,
    SetAssociativeEngine,
    StackDistanceEngine,
)
from repro.machine.engine.verify import STAT_FIELDS, random_geometry, random_trace
from repro.machine.hierarchy import Hierarchy
from repro.machine.presets import origin2000
from repro.programs import (
    convolution,
    fft,
    fig6_fused,
    matmul,
    matmul_blocked,
    nas_sp,
    sweep3d,
)
from repro.trace import (
    DEFAULT_CHUNK_ACCESSES,
    TraceGenerator,
    concat_traces,
    prefetch_chunks,
)
from repro.trace.events import Trace
from repro.trace.stream import serial_chunks
from repro.trace.telemetry import (
    collect_trace_telemetry,
    peak_rss_bytes,
    summarize_memory,
    summarize_stream,
)

from tests.helpers import simple_stream_program, two_loop_chain

FLAT = LayoutPolicy(alignment=8, pad_bytes=0)


def generator_for(program):
    layout = build_layout(program, None, FLAT)
    return TraceGenerator(program, dict(program.params), layout)


def assert_traces_equal(a: Trace, b: Trace) -> None:
    assert np.array_equal(a.addresses, b.addresses)
    assert np.array_equal(a.is_write, b.is_write)
    assert (a.flops, a.loads, a.stores) == (b.flops, b.loads, b.stores)


#: Programs spanning the generator's structural space: perfect nests,
#: guard-heavy bodies, imperfect nests, multi-statement top level, tiling
#: (inner bounds depending on outer loop variables).
PROGRAMS = {
    "stream": simple_stream_program(n=64),
    "chain": two_loop_chain(n=48),
    "matmul": matmul(12),
    "matmul_blocked": matmul_blocked(30, tile=15),
    "convolution": convolution(50),
    "fig6_fused": fig6_fused(40),
    "nas_sp": nas_sp(8, 6),
    "sweep3d": sweep3d(6),
    "fft": fft(64),
}


class TestChunkedGeneration:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_chunks_concatenate_to_generate(self, name):
        gen = generator_for(PROGRAMS[name])
        full = gen.generate()
        for max_accesses in (1, 17, 256, DEFAULT_CHUNK_ACCESSES):
            chunks = list(gen.chunks(max_accesses))
            assert_traces_equal(concat_traces(chunks), full)

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_chunk_counts_are_exact_per_chunk(self, name):
        """Every chunk's loads/stores describe that chunk alone (not a
        smeared share of the totals)."""
        gen = generator_for(PROGRAMS[name])
        for chunk in gen.chunks(64):
            assert chunk.stores == int(chunk.is_write.sum())
            assert chunk.loads == len(chunk) - chunk.stores

    def test_chunks_are_bounded_for_nested_loops(self):
        # matmul at N=12: 12 iterations of the outer loop, each generating
        # 12*12*width accesses; a cap above one outer iteration must bound
        # every chunk by whole outer iterations.
        gen = generator_for(matmul(12))
        full = gen.generate()
        per_outer = len(full) // 12
        for chunk in gen.chunks(per_outer * 3):
            assert len(chunk) <= per_outer * 3

    def test_tiny_cap_still_yields_whole_outer_iterations(self):
        # A cap below one outer iteration cannot split an iteration; it
        # degrades to one outer iteration per chunk, never corruption.
        gen = generator_for(matmul(6))
        full = gen.generate()
        chunks = list(gen.chunks(1))
        assert len(chunks) == 6
        assert_traces_equal(concat_traces(chunks), full)

    def test_invalid_cap_rejected(self):
        gen = generator_for(simple_stream_program(n=4))
        with pytest.raises(ValueError):
            list(gen.chunks(0))

    @given(
        n=st.integers(min_value=1, max_value=30),
        cap=st.integers(min_value=1, max_value=5000),
    )
    @settings(settings.get_profile("repro-thorough"))
    def test_random_caps_random_sizes(self, n, cap):
        gen = generator_for(two_loop_chain(n=n))
        assert_traces_equal(concat_traces(list(gen.chunks(cap))), gen.generate())

    def test_generate_matches_multi_statement_presize(self):
        # generate() pre-sizes one buffer for multi-statement bodies; the
        # chain program has two top-level loops, exercising that path.
        gen = generator_for(two_loop_chain(n=16))
        full = gen.generate()
        assert full.loads + full.stores == len(full)
        assert_traces_equal(concat_traces(list(gen.chunks(10))), full)


class TestPrefetch:
    def test_order_and_content_preserved(self):
        gen = generator_for(matmul(10))
        direct = list(gen.chunks(500))
        prefetched = list(prefetch_chunks(gen.chunks(500)))
        assert len(direct) == len(prefetched)
        for a, b in zip(direct, prefetched):
            assert_traces_equal(a, b)

    def test_exception_propagates(self):
        def boom():
            yield next(iter(generator_for(simple_stream_program(n=4)).chunks(2)))
            raise RuntimeError("producer failed")

        it = prefetch_chunks(boom())
        next(it)
        with pytest.raises(RuntimeError, match="producer failed"):
            list(it)

    def test_early_close_stops_producer(self):
        produced = []

        def source():
            gen = generator_for(simple_stream_program(n=64))
            for chunk in gen.chunks(8):
                produced.append(chunk)
                yield chunk

        it = prefetch_chunks(source(), depth=1)
        next(it)
        it.close()  # must not hang or leak the producer thread
        assert len(produced) < 24  # bounded buffering: far from everything

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            next(prefetch_chunks(iter([]), depth=0))

    def test_records_overlap_telemetry(self):
        gen = generator_for(matmul(8))
        with collect_trace_telemetry() as acc:
            list(prefetch_chunks(gen.chunks(100)))
        summary = summarize_stream(acc)
        assert summary["runs"] == 1
        assert summary["chunks"] == len(list(gen.chunks(100)))
        assert summary["overlap"] is None or 0.0 <= summary["overlap"] <= 1.0

    def test_serial_pipeline_records_the_same_accounting(self):
        gen = generator_for(matmul(8))
        with collect_trace_telemetry() as acc:
            got = list(serial_chunks(gen.chunks(100)))
        for a, b in zip(got, gen.chunks(100), strict=True):
            assert_traces_equal(a, b)
        summary = summarize_stream(acc)
        assert summary["runs"] == 1
        assert summary["chunks"] == len(got)
        assert summary["wait_s"] == summary["produce_s"] > 0
        assert summary["overlap"] == 0.0


ENGINE_CLASSES = {
    "reference": Cache,
    "direct": DirectMappedEngine,
    "setassoc": SetAssociativeEngine,
    "stack": StackDistanceEngine,
}


def _geometry_for(name: str, rng: np.random.Generator) -> CacheGeometry:
    if name == "direct":
        n_sets = int(rng.integers(1, 33))
        return CacheGeometry(n_sets * 32, 32, 1)
    if name == "stack":  # fully associative
        lines = int(rng.integers(2, 33))
        return CacheGeometry(lines * 32, 32, lines)
    return random_geometry(rng)


class TestRunStreamEquivalence:
    @pytest.mark.parametrize("engine", sorted(ENGINE_CLASSES))
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(settings.get_profile("repro-fast"))
    def test_bit_identical_to_run_trace(self, engine, seed):
        """run_stream over random chunk boundaries == run_trace, for every
        engine, including flush — the core streamed-simulation contract."""
        rng = np.random.default_rng(seed)
        geometry = _geometry_for(engine, rng)
        cls = ENGINE_CLASSES[engine]
        n = int(rng.integers(1, 600))
        addrs, writes = random_trace(rng, n, n_lines=40, line_size=32)
        loads = int((~writes).sum())
        trace = Trace(addrs, writes, 0, loads, n - loads)

        mono = Hierarchy([cls("L", geometry)])
        mono.run_trace(addrs, writes)
        mono.flush()

        # random chunk boundaries, including empty chunks
        cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(0, 6))))
        bounds = [0, *cuts, n]
        chunks = []
        for lo, hi in zip(bounds, bounds[1:]):
            w = writes[lo:hi]
            s = int(w.sum())
            chunks.append(Trace(addrs[lo:hi], w, 0, (hi - lo) - s, s))
        streamed = Hierarchy([cls("L", geometry)])
        totals = streamed.run_stream(chunks)
        streamed.flush()

        assert totals.accesses == n
        assert totals.loads == trace.loads and totals.stores == trace.stores
        for f in STAT_FIELDS:
            assert getattr(mono.caches[0].stats, f) == getattr(
                streamed.caches[0].stats, f
            ), f

    def test_multi_level_hierarchy_stream(self):
        spec = origin2000(256)
        gen_prog = matmul(18)
        layout = build_layout(gen_prog, None, FLAT)
        gen = TraceGenerator(gen_prog, dict(gen_prog.params), layout)
        full = gen.generate()

        mono = Hierarchy.from_spec(spec)
        mono.run_trace(full.addresses, full.is_write)
        mono.flush()

        streamed = Hierarchy.from_spec(spec)
        totals = streamed.run_stream(prefetch_chunks(gen.chunks(700)))
        streamed.flush()

        assert totals.accesses == len(full)
        assert mono.result() == streamed.result()


class TestStreamedExecute:
    @pytest.mark.parametrize("mode", [True, "serial", "overlap"])
    def test_counters_match_materialized(self, mode):
        prog = matmul(18)
        machine = origin2000(256)
        base = execute(prog, machine, sim_cache=False, passes=2, warmup_passes=1)
        with use_options(ExecOptions(stream=mode, chunk_accesses=500)):
            run = execute(prog, machine, sim_cache=False, passes=2, warmup_passes=1)
        assert run.counters == base.counters
        assert run.time == base.time

    @pytest.mark.parametrize("mode", ["serial", "overlap"])
    def test_every_streamed_pipeline_records_its_chunks(self, mode):
        prog = matmul(18)
        chunks = len(list(TraceGenerator(prog).chunks(500)))
        with collect_trace_telemetry() as acc:
            with use_options(ExecOptions(stream=mode, chunk_accesses=500)):
                execute(prog, origin2000(256), sim_cache=False, passes=2)
        summary = summarize_stream(acc)
        assert (summary["runs"], summary["chunks"]) == (2, 2 * chunks)
        if mode == "serial":
            assert summary["overlap"] == 0.0

    def test_no_work_detected(self):
        from repro.lang import ProgramBuilder

        b = ProgramBuilder("empty", params={"N": 0})
        a = b.array("a", 4, output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i], a[i])
        with pytest.raises(ExecutionError, match="no work"):
            with use_options(ExecOptions(stream=True)):
                execute(b.build(), origin2000(256), sim_cache=False)

    def test_invalid_stream_value(self):
        with pytest.raises(ExecutionError, match="stream"):
            ExecOptions(stream="bogus")

    def test_process_default_roundtrip(self):
        with use_options(ExecOptions(stream="serial", chunk_accesses=123)):
            assert (current_options().stream, current_options().chunk_accesses) == (
                "serial",
                123,
            )
            run = execute(matmul(12), origin2000(256), sim_cache=False)
        assert current_options() == ExecOptions()
        base = execute(matmul(12), origin2000(256), sim_cache=False)
        assert run.counters == base.counters
        with pytest.raises(ExecutionError):
            ExecOptions(stream="nope")
        with pytest.raises(ValueError):
            ExecOptions(stream=True, chunk_accesses=0)

    def test_sim_cache_shared_between_pipelines(self):
        from repro.machine.engine.simcache import SimulationCache

        memo = SimulationCache()
        with use_options(ExecOptions(stream="overlap")):
            first = execute(matmul(12), origin2000(256), sim_cache=memo)
        second = execute(matmul(12), origin2000(256), sim_cache=memo)
        assert first.counters == second.counters
        assert memo.counters.hits == 1

    def test_simulate_stream_api(self):
        import repro

        prog = matmul(12)
        machine = origin2000(256)
        a = repro.simulate(prog, machine)
        b = repro.simulate_stream(prog, machine, chunk_accesses=300)
        c = repro.simulate_stream(prog, machine, overlap=False)
        assert a.memory_bytes == b.memory_bytes == c.memory_bytes
        assert a.seconds == b.seconds == c.seconds


class TestChunkedIOAndStats:
    def test_trace_nbytes(self):
        gen = generator_for(simple_stream_program(n=16))
        t = gen.generate()
        assert t.nbytes == t.addresses.nbytes + t.is_write.nbytes == 9 * len(t)

    def test_concat_singleton_no_copy(self):
        t = generator_for(simple_stream_program(n=8)).generate()
        assert concat_traces([t]) is t


class TestExperimentPlumbing:
    def test_config_roundtrip_and_apply(self):
        cfg = ExperimentConfig(scale=256, stream=True, chunk_accesses=4096)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg
        with use_options(cfg):
            assert (current_options().stream, current_options().chunk_accesses) == (
                True,
                4096,
            )

    def test_result_schema_has_memory_and_stream(self):
        assert SCHEMA_VERSION >= 3  # v3 introduced memory/stream telemetry
        res = ExperimentResult(
            experiment="x",
            memory={"peak_rss_bytes": 1, "trace_bytes": 2},
            stream={"runs": 1, "chunks": 3, "produce_s": 0.1, "wait_s": 0.0,
                    "overlap": 1.0},
        )
        data = res.to_json()
        assert data["memory"]["trace_bytes"] == 2
        assert data["stream"]["chunks"] == 3
        back = ExperimentResult.from_json(data)
        assert back.memory == res.memory and back.stream == res.stream
        # volatile telemetry must not affect equivalence comparisons
        comparable = res.comparable_json()
        assert "memory" not in comparable and "stream" not in comparable

    def test_experiment_decorator_populates_telemetry(self):
        from repro.experiments.fig1_balance import run_fig1

        cfg = ExperimentConfig(
            scale=256, sim_cache=False, stream=True, chunk_accesses=10_000
        )
        result = run_fig1(cfg)
        assert result.ok
        assert result.memory.get("trace_bytes", 0) > 0
        assert result.stream.get("runs", 0) > 0
        assert result.config["stream"] is True

    def test_peak_rss_positive_on_posix(self):
        rss = peak_rss_bytes()
        assert rss is None or rss > 0
        with collect_trace_telemetry() as acc:
            pass
        summary = summarize_memory(acc)
        if rss is not None:
            assert summary["peak_rss_bytes"] >= rss
