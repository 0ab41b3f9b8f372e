"""The repository benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 12 --trace 0

Runs the workload in a fresh worker process (so peak RSS is the
workload's own), after a few set-up-only workers that time set-up in
fresh processes too.  Prints a table of every metric by name and unit, a
``record`` line with provenance, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``.  Exits 1 after printing the result when an output
check failed, and non-zero without a result when the program under test
is missing or the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("battery", "sweep", "serve", "predict")

#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5

#: Wall-clock limit for all workers of one run, set-up included.
TIMEOUT_S = 170.0

#: End-to-end metrics printed for the reader but not gated in
#: BENCHMARK.json (see README.md: they are 0 on most workloads).
REPORTED_ONLY = {"failed_ratio": "ratio", "predict_max_error": "ratio"}


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process whose stdout protocol lines are timestamped as
    they arrive."""

    def __init__(self, argv: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line.rstrip("\n")))
        self._lines.put((time.perf_counter(), None))

    def expect(self, prefix: str, deadline: float) -> tuple[float, str]:
        try:
            stamp, line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise WorkerError(f"worker gave no {prefix!r} line in time") from None
        if line is None or not line.startswith(prefix):
            raise WorkerError(f"worker ended without a {prefix!r} line (got {line!r})")
        return stamp, line[len(prefix):].strip()

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise WorkerError("worker did not exit in time") from None
        self._reader.join(timeout=5)
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5)


def time_setup(argv: list[str], deadline: float) -> float:
    """Set-up seconds of one fresh worker."""
    worker = Worker([*argv, "--setup-only"])
    try:
        stamp, _ = worker.expect("ready", deadline)
        worker.finish(deadline)
    finally:
        worker.kill()
    return stamp - worker.started


def run_workload(args) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [time_setup(argv, deadline) for _ in range(SETUP_SAMPLES - 1)]
    worker = Worker([*argv, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    try:
        stamp, _ = worker.expect("ready", deadline)
        setups.append(stamp - worker.started)
        _, payload = worker.expect("result", deadline)
        worker.finish(deadline)
    finally:
        worker.kill()
    result = json.loads(payload)
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def source_version() -> str:
    """The commit when the tree is a git checkout, else a digest of the
    program sources (a benchmark checkout need not be a repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result = run_workload(args)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    correct = result["failed"] == 0 and result["attempted"] > 0
    e2e, per_layer = result["end_to_end"], result.get("per_layer", {})
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<28} {e2e[m['name']]:>14.6g} {m['unit']}")
    for name, unit in REPORTED_ONLY.items():
        print(f"  {name:<28} {e2e[name]:>14.6g} {unit}")
    print(f"  {'latency samples':<28} {e2e['latency_samples']:>14d} "
          f"({e2e['samples_beyond_p95']} beyond p95, {e2e['operations']} operations)")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<32} {per_layer[m['name']]:>14.6g} {m['unit']}")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": source_version(),
        "cpus": result["cpus"],
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "params": result["params"],
        "setup_samples_s": result["setup_samples_s"],
        "end_to_end": e2e,
        "per_layer": per_layer or None,
        "spans_file": result.get("spans_file"),
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
