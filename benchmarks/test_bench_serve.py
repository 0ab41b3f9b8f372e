"""Micro-batching service — N concurrent clients, one execution.

Four clients submit the same capacity-ladder sweep concurrently through
the daemon; the baseline runs the identical workload per-request and
pointwise, once per client.  The daemon's content-keyed dedup collapses
identical in-flight points onto one future and the micro-batcher hands
each coalesced batch to the sweep planner, so the service side simulates
a small fraction of the accesses the baseline pays.

Three claims are asserted here:

* every client's every point is bit-identical to pointwise execution
  (the service exists to change wall clock, never numbers);
* dedup fired (hits > 0) — concurrency collapsed onto shared work;
* the served side is several times faster end to end.

``docs/bench_history.md`` archives the headline figure at the acceptance
scale; the repository benchmark's serve workload (``perfbench/``) tracks
it now.  Here a moderate scale keeps the run fast and the assertion
conservative.
"""

from __future__ import annotations

import threading
import time

from conftest import attempt_rounds, once

from repro.experiments.config import ExperimentConfig
from repro.experiments.ladder_capacity import ladder_requests
from repro.interp.executor import execute
from repro.machine.engine import simcache
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer, ServeConfig

CLIENTS = 4


def _pointwise(requests):
    start = time.perf_counter()
    runs = [
        execute(
            r.program,
            r.machine,
            r.params,
            layout_policy=r.layout_policy,
            sim_cache=False,
        )
        for r in requests
    ]
    return time.perf_counter() - start, runs


def _served(requests):
    """All clients' sweeps through one fresh daemon; returns the elapsed
    wall clock, per-client results, and the daemon's final stats block."""
    previous = simcache.get_sim_cache()
    simcache.configure_sim_cache(True)  # fresh cache: dedup must earn it
    try:
        with BackgroundServer(ServeConfig(max_batch=64)) as bg:
            results: dict[int, list] = {}
            errors: list[BaseException] = []

            def one_client(i):
                try:
                    with ServiceClient(bg.address, tenant=f"bench{i}") as c:
                        results[i] = c.simulate_batch(requests)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=one_client, args=(i,))
                for i in range(CLIENTS)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            if errors:
                raise errors[0]
            with ServiceClient(bg.address) as c:
                stats = c.stats()
        return elapsed, results, stats
    finally:
        simcache._default = previous


def test_bench_serve_concurrent_clients(benchmark):
    requests = ladder_requests(ExperimentConfig(scale=128))

    def compare():
        _served(requests)  # warm allocator, imports, socket machinery
        sv_s, sv_results, stats = min(
            (_served(requests) for _ in range(2)), key=lambda r: r[0]
        )
        pw_s, pw_runs = 0.0, None
        for _ in range(CLIENTS):  # the baseline pays every client's sweep
            s, runs = _pointwise(requests)
            pw_s, pw_runs = pw_s + s, pw_runs or runs
        return pw_s, pw_runs, sv_s, sv_results, stats

    def timing_ok(measured):
        pw_s, _, sv_s, _, _ = measured
        return pw_s / sv_s >= 3.0

    pw_s, pw_runs, sv_s, sv_results, stats = once(
        benchmark, lambda: attempt_rounds(compare, timing_ok)
    )

    # Exactness first: every client, every point, bit-identical.
    assert sorted(sv_results) == list(range(CLIENTS))
    for i in range(CLIENTS):
        for req, pw, sv in zip(requests, pw_runs, sv_results[i]):
            assert sv.run.counters == pw.counters, (
                f"client {i}: {req.program.name} on {req.machine.name} "
                "diverged under the service"
            )
            assert sv.run.time == pw.time

    total_points = CLIENTS * len(requests)
    requested = CLIENTS * sum(r.counters.level_stats[0].accesses for r in pw_runs)
    simulated = stats["plan"].get("accesses_simulated", 0)
    reduction = requested / max(1, simulated)
    dedup_rate = stats["dedup_hits"] / total_points
    benchmark.extra_info["clients"] = CLIENTS
    benchmark.extra_info["points"] = total_points
    benchmark.extra_info["dedup_hits"] = stats["dedup_hits"]
    benchmark.extra_info["dedup_rate"] = round(dedup_rate, 3)
    benchmark.extra_info["batches"] = stats["batches"]
    benchmark.extra_info["access_reduction"] = round(reduction, 1)
    benchmark.extra_info["pointwise_ms"] = round(pw_s * 1e3, 1)
    benchmark.extra_info["served_ms"] = round(sv_s * 1e3, 1)
    print(f"\n  served sweep: {CLIENTS} clients x {len(requests)} points, "
          f"{stats['batches']} batches (max {stats['batch_max']})")
    print(f"  dedup: {stats['dedup_hits']} hits ({dedup_rate:.0%} of points)")
    print(f"  accesses: {requested} requested, {simulated} simulated "
          f"({reduction:.1f}x fewer)")
    print(f"  pointwise {pw_s * 1e3:8.1f} ms")
    print(f"  served    {sv_s * 1e3:8.1f} ms  ({pw_s / sv_s:.1f}x)")

    # Concurrency collapsed onto shared work: at least the duplicate
    # sweeps from the other clients must have hit in-flight futures or
    # the (fresh) sim cache rather than re-simulating.
    assert stats["dedup_hits"] > 0, "no in-flight dedup across clients"
    assert reduction >= 3.0, "service lost its simulated-access reduction"
    # Conservative wall-clock bar; docs/bench_history.md has the headline.
    assert pw_s / sv_s >= 3.0, "served sweep regressed against pointwise"
