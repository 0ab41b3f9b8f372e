#!/usr/bin/env python
"""End-to-end smoke test of the micro-batching service daemon.

Boots ``repro serve`` as a real subprocess on a unix socket, points N
concurrent clients at it with the same capacity-ladder sweep, and then
SIGTERMs it.  Four properties are enforced, each fatal on failure:

1. every client's every point is bit-identical to a local
   ``repro.simulate_batch`` of the same requests;
2. the daemon deduplicated concurrent work (``dedup_hits > 0``);
3. new work sent after SIGTERM, while an uncached batch is still in
   flight, gets an explicit ``draining`` reject on a connection opened
   before the signal — never a hang, and never a refused connection;
4. SIGTERM drains cleanly — exit code 0, a ``drained`` banner, a
   manifest in ``--results-dir`` with the service telemetry block and
   no leftover ``*.tmp``.

Exits 0 only when all four hold::

    PYTHONPATH=src python tools/serve_smoke.py --clients 4 --results-dir results/serve

``--jobs N`` is passed through to ``repro serve --jobs``: 0 (the
default) runs batches on the daemon's worker thread, N > 0 on a fork
pool of N processes, so parsed points cross a pickle boundary.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(_ROOT / "src"))

import repro  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.ladder_capacity import ladder_requests  # noqa: E402
from repro.experiments.plan import SimRequest  # noqa: E402
from repro.machine.presets import origin2000  # noqa: E402
from repro.programs import matmul  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402


def _spawn(sock: str, results_dir: str, jobs: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.service",
            "--unix", sock,
            "--max-batch", "64",
            "--results-dir", results_dir,
            "--jobs", str(jobs),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = proc.stdout.readline()
    if "listening on" not in banner:
        proc.kill()
        raise SystemExit(f"daemon failed to start: {banner!r}")
    return proc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--scale", type=int, default=128)
    parser.add_argument("--results-dir", default="results/serve")
    parser.add_argument("--jobs", type=int, default=0,
                        help="daemon worker processes (0 = in-process thread)")
    args = parser.parse_args(argv)

    requests = ladder_requests(ExperimentConfig(scale=args.scale))
    direct = repro.simulate_batch(requests, plan=True)
    reference = [(r.run.counters, r.run.time) for r in direct]

    sock = tempfile.mktemp(suffix=".sock", prefix="repro-smoke-")
    proc = _spawn(sock, args.results_dir, args.jobs)
    try:
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def one_client(i: int) -> None:
            try:
                with ServiceClient(f"unix:{sock}", tenant=f"smoke{i}") as c:
                    results[i] = c.simulate_batch(requests)
            except BaseException as exc:  # noqa: BLE001 — checked below
                errors.append(exc)

        start = time.perf_counter()
        threads = [
            threading.Thread(target=one_client, args=(i,))
            for i in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        elapsed = time.perf_counter() - start
        if errors:
            raise SystemExit(f"client failed: {errors[0]!r}")
        if sorted(results) != list(range(args.clients)):
            raise SystemExit(f"missing client results: {sorted(results)}")

        # 1. bit-identity against local execution, every client, every point.
        for i in range(args.clients):
            served = [(r.run.counters, r.run.time) for r in results[i]]
            if served != reference:
                raise SystemExit(f"client {i}: served counters diverged")
        total = args.clients * len(requests)
        print(f"bit-identical: {args.clients} clients x {len(requests)} points "
              f"match local simulate_batch ({elapsed:.1f}s, "
              f"{total / elapsed:.0f} points/s)")

        # 2. concurrent duplicates collapsed onto in-flight futures.
        with ServiceClient(f"unix:{sock}") as c:
            stats = c.stats()
        if not stats["dedup_hits"]:
            raise SystemExit("dedup_hits == 0: concurrent sweeps never shared work")
        print(f"dedup: {stats['dedup_hits']} hits across {total} points "
              f"({stats['batches']} batches, max {stats['batch_max']})")

        # 3. New work after SIGTERM gets an explicit draining reject.  An
        # uncached batch is put in flight first, so the drain is still
        # waiting on it when the probe's request arrives; the probe's
        # connection is opened before the signal.  A refused or closed
        # connection is a failure, not a pass.
        slow_result: list = []

        def slow_client() -> None:
            try:
                with ServiceClient(f"unix:{sock}", tenant="slow") as c:
                    slow_result.extend(c.simulate_batch(slow))
            except BaseException as exc:  # noqa: BLE001 — checked below
                errors.append(exc)

        slow = [
            SimRequest(matmul(96, order), origin2000(args.scale), passes=2)
            for order in ("ijk", "ikj", "jik", "kij", "kji")
        ]
        slow_thread = threading.Thread(target=slow_client)
        try:
            with ServiceClient(f"unix:{sock}") as probe:
                slow_thread.start()
                deadline = time.monotonic() + 30
                while not probe.stats()["inflight"]:
                    if time.monotonic() > deadline:
                        raise SystemExit("uncached batch never went in flight")
                    time.sleep(0.005)
                proc.send_signal(signal.SIGTERM)
                # New work sent before the daemon handles the signal would be
                # admitted (and answered), so wait for the drain to begin.
                while not (stats := probe.stats())["draining"]:
                    if time.monotonic() > deadline:
                        raise SystemExit("daemon never began draining after SIGTERM")
                    time.sleep(0.005)
                if not stats["inflight"]:
                    raise SystemExit("uncached batch finished before the probe: no drain to observe")
                try:
                    probe.simulate_batch(requests[:1])
                except ServiceError as exc:
                    if exc.code != "draining":
                        raise SystemExit(f"expected a draining reject, got {exc.code}")
                else:
                    raise SystemExit("work sent during the drain was admitted")
        except (ConnectionError, OSError) as exc:
            raise SystemExit(f"connection failed during the drain: {exc!r}") from None
        slow_thread.join(timeout=600)
        if errors:
            raise SystemExit(f"in-flight batch failed during the drain: {errors[0]!r}")
        if len(slow_result) != len(slow):
            raise SystemExit("in-flight batch was not answered before the drain finished")
        print(f"draining reject: explicit, while {len(slow)} uncached points drained")

        # 4. SIGTERM drains cleanly.
        out, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"daemon exited {proc.returncode}:\n{out}")
        if "drained" not in out:
            raise SystemExit(f"no drain banner in daemon output:\n{out}")
        manifests = list(Path(args.results_dir).glob("run-*.json"))
        if len(manifests) != 1:
            raise SystemExit(f"expected one manifest, found {manifests}")
        if list(Path(args.results_dir).glob("*.tmp")):
            raise SystemExit("leftover .tmp in results dir after drain")
        print(f"clean drain: exit 0, manifest {manifests[0]}")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
