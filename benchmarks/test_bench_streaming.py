"""Streaming trace pipeline — bounded memory at full throughput.

The paper's expensive artifact is the mm trace: O(N^3) accesses that the
materialized pipeline must hold before the first access reaches the
cache simulator.  The streaming pipeline
generates the trace in execution-order chunks fused with simulation, so
peak memory is O(chunk); the overlap variant additionally prefetches
generation on a background thread.

Two claims are asserted here:

* counters are bit-identical across all three pipelines (the streaming
  machinery exists to change memory, never numbers);
* streamed throughput is at worst modestly below materialized (both
  write each address once into its output buffer; streaming adds only
  per-chunk overhead and saves the page faults of one trace-sized
  buffer).

Peak RSS is measured in one subprocess per pipeline (this module run
as a script, see ``_streaming_worker``) because the peak is a
process-lifetime high-water mark: measuring all modes in one process
would charge the streamed modes with the default mode's footprint.
The default pipeline is no longer the one streaming beats: its trace
is lazy (a set-associative first level builds only the rows it
simulates), so it never holds the trace as arrays either.  The budget
both are held to is the largest program's trace as arrays, what the
default pipeline held before traces were lazy: each must peak at no
more than half of it.  ``docs/bench_history.md`` archives the ≥5x
reduction streaming measured at scale 16 against that pipeline; here a
moderate scale keeps CI fast and the assertion conservative.

Timing uses best-of-N on both sides: container wall clocks are noisy and
a single round can swing either comparison by tens of percent.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest
from conftest import attempt_rounds, once

from repro.interp.executor import execute
from repro.options import ExecOptions, use_options
from repro.programs import KERNEL_NAMES, blas1, make_kernel, matmul

#: Accesses per streamed chunk — small enough that the RSS gap is visible
#: even at benchmark scale.
CHUNK = 1 << 19


@pytest.fixture(scope="module")
def workload(cfg):
    """The mm program at benchmark scale on the Origin2000."""
    from repro.experiments.config import ExperimentConfig

    bench_cfg = ExperimentConfig(scale=64)
    return bench_cfg.origin, matmul(bench_cfg.mm_side())


def _run(spec, prog, stream):
    start = time.perf_counter()
    with use_options(ExecOptions(stream=stream, chunk_accesses=CHUNK if stream else None)):
        run = execute(prog, spec, sim_cache=False)
    return time.perf_counter() - start, run


def test_bench_streaming_throughput(benchmark, workload):
    spec, prog = workload

    def compare():
        _run(spec, prog, False)  # warm allocator and caches
        best = lambda runs: min(runs, key=lambda r: r[0])  # noqa: E731
        mat_s, mat = best(_run(spec, prog, False) for _ in range(3))
        ser_s, ser = best(_run(spec, prog, "serial") for _ in range(3))
        ovl_s, ovl = best(_run(spec, prog, "overlap") for _ in range(3))
        return mat_s, mat, ser_s, ser, ovl_s, ovl

    def timing_ok(measured):
        mat_s, _, ser_s, _, ovl_s, _ = measured
        return ser_s <= mat_s * 1.25 and ovl_s <= mat_s * 1.25

    # Best-of-3 per side per attempt, plus up to 3 attempts before the
    # comparison is allowed to fail: a real regression survives all of
    # them, a scheduler hiccup does not.
    mat_s, mat, ser_s, ser, ovl_s, ovl = once(
        benchmark, lambda: attempt_rounds(compare, timing_ok)
    )

    # Exactness first: all three pipelines are the same instrument.
    assert ser.counters == mat.counters
    assert ovl.counters == mat.counters
    assert ser.time == mat.time and ovl.time == mat.time

    accesses = mat.counters.loads + mat.counters.stores
    benchmark.extra_info["accesses"] = accesses
    benchmark.extra_info["materialized_ms"] = round(mat_s * 1e3, 1)
    benchmark.extra_info["streamed_ms"] = round(ser_s * 1e3, 1)
    benchmark.extra_info["overlap_ms"] = round(ovl_s * 1e3, 1)
    print(f"\n  mm trace: {accesses} accesses")
    print(f"  materialized {mat_s * 1e3:8.1f} ms")
    print(f"  streamed     {ser_s * 1e3:8.1f} ms  (x{ser_s / mat_s:.2f})")
    print(f"  overlap      {ovl_s * 1e3:8.1f} ms  (x{ovl_s / mat_s:.2f})")

    # The acceptance bar is <=10% regression; best-of-3 in a noisy
    # container gets a little headroom on top of that.
    assert ser_s <= mat_s * 1.25, "streamed pipeline regressed throughput"
    assert ovl_s <= mat_s * 1.25, "overlap pipeline regressed throughput"


def _streaming_worker(stream) -> dict:
    """Subprocess body: the fig1/fig3 Origin2000/32 programs (mm, the
    BLAS-1 quartet, the fig3 kernel suite) once under one pipeline, and
    this process's peak RSS with a digest of every program's counters
    and the size of the largest trace as arrays (9 bytes an access)."""
    from repro.experiments.config import ExperimentConfig
    from repro.trace.telemetry import peak_rss_bytes

    cfg = ExperimentConfig(scale=32)
    programs = [matmul(cfg.mm_side())]
    programs += [blas1(kind, cfg.stream_elements()) for kind in ("copy", "scal", "axpy", "dot")]
    programs += [make_kernel(name, cfg.exemplar_kernel_elements()) for name in KERNEL_NAMES]
    digest = []
    trace_bytes = 0
    with use_options(ExecOptions(stream=stream, chunk_accesses=CHUNK if stream else None)):
        for prog in programs:
            c = execute(prog, cfg.origin, sim_cache=False).counters
            digest.append([
                c.memory_bytes, c.graduated_flops, c.loads, c.stores,
                [st.misses for st in c.level_stats],
                [st.writebacks for st in c.level_stats],
            ])
            trace_bytes = max(trace_bytes, 9 * (c.loads + c.stores))
    return {"peak_rss_bytes": peak_rss_bytes(), "trace_bytes": trace_bytes, "digest": digest}


def test_bench_streaming_peak_rss(benchmark):
    """Subprocess-per-mode RSS comparison at benchmark scale."""

    def measure():
        results = {}
        for mode, stream in (("default", "false"), ("streamed", "serial")):
            out = subprocess.run(
                [sys.executable, __file__, stream],
                capture_output=True, text=True, timeout=600, check=True,
            )
            results[mode] = json.loads(out.stdout)
        return results

    results = once(benchmark, measure)
    assert results["streamed"]["digest"] == results["default"]["digest"]
    trace_bytes = results["default"]["trace_bytes"]
    assert results["streamed"]["trace_bytes"] == trace_bytes
    def_rss = results["default"]["peak_rss_bytes"]
    str_rss = results["streamed"]["peak_rss_bytes"]
    benchmark.extra_info["trace_mb"] = round(trace_bytes / 2**20)
    benchmark.extra_info["default_rss_mb"] = round(def_rss / 2**20)
    benchmark.extra_info["streamed_rss_mb"] = round(str_rss / 2**20)
    print(f"\n  largest trace as arrays {trace_bytes / 2**20:.0f} MB; peak RSS: "
          f"default (lazy) {def_rss / 2**20:.0f} MB, streamed {str_rss / 2**20:.0f} MB")
    # At this moderate scale the interpreter baseline (~40 MB) dilutes the
    # ratio; docs/bench_history.md archives >=5x at scale 16.
    assert str_rss <= trace_bytes / 2, "streaming no longer bounds generation memory"
    assert def_rss <= trace_bytes / 2, "the default pipeline holds the trace as arrays"


if __name__ == "__main__":
    stream = sys.argv[1]
    print(json.dumps(_streaming_worker(False if stream == "false" else stream)))
