"""One workload in a fresh process (started by ``run.py``).

Protocol on stdout, one line each: ``ready`` once set-up is done (the
parent times set-up up to this line), then ``result <json>`` after the
timed operations and the output checks.  Everything else the program
prints goes to stderr.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/worker.py --workload serve --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(ops, verdict, peak_rss_kb: int) -> dict[str, float]:
    """Times at the reference host speed (see calibrate.py); rates are
    medians over operations."""
    durations = [op.duration * op.scale for op in ops]
    latencies = [ms * op.scale for op in ops for ms in op.latencies_ms]
    p95 = percentile(latencies, 95)
    return {
        "wall_s": statistics.median(durations),
        "points_per_s": statistics.median(op.points / d for op, d in zip(ops, durations)),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": p95,
        "requests_per_s": statistics.median(
            len(op.latencies_ms) / d for op, d in zip(ops, durations)),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "failed_ratio": verdict.failed / max(1, verdict.attempted),
        "predict_max_error": verdict.max_error,
        "latency_samples": len(latencies),
        "samples_beyond_p95": sum(1 for ms in latencies if ms > p95),
        "operations": len(ops),
        "raw_operation_s": [op.duration for op in ops],
        "host_speed_scale": [op.scale for op in ops],
    }


def timed_op(workload, tracer=None):
    """One operation between two host-speed calibrations."""
    from calibrate import calibrate, scale

    before = calibrate()
    op = workload.run_op(tracer)
    op.scale = scale(before, calibrate())
    return op


def measure(workload, seconds: float):
    """Repeat the operation until ``seconds`` have passed (at least once)."""
    from workloads import clock

    ops = []
    deadline = clock() + seconds
    while not ops or clock() < deadline:
        ops.append(timed_op(workload))
    return ops


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced operations until ``seconds`` have
    passed (at least one of each); returns both lists and the spans of
    the traced ones."""
    import layers
    from tracer import Tracer
    from workloads import clock

    tracer = Tracer()
    plain, traced = [], []
    deadline = clock() + seconds
    while not traced or clock() < deadline:
        plain.append(timed_op(workload))
        layers.install(tracer)
        try:
            traced.append(timed_op(workload, tracer))
        finally:
            tracer.uninstall()
    return plain, traced, tracer.take()


def write_spans(spans, workload: str, seed: int) -> Path:
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.jsonl"
    with path.open("w") as f:
        for sp in spans:
            f.write(json.dumps(sp.to_json(), default=str) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol lines alone on stdout

    def emit(line: str) -> None:
        protocol.write(line + "\n")
        protocol.flush()

    import numpy
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    emit("ready")
    if args.setup_only:
        workload.close()
        return 0

    try:
        if args.trace:
            ops, traced, spans = measure_traced(workload, args.seconds)
        else:
            ops = measure(workload, args.seconds)
        # Before the output checks, which do work of their own.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        workload.close()

    verdict = workload.check(ops + traced if args.trace else ops)
    result = {
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "errors": verdict.errors[:20],
        "end_to_end": end_to_end(ops, verdict, peak_rss_kb),
        "params": workload.params,
        "cpus": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
    }
    if args.trace:
        import layers

        per_layer = layers.aggregate(spans, len(traced))
        per_layer.update(workload.layer_extras(traced, spans))
        per_layer["predict.max_error"] = verdict.max_error
        plain_wall = statistics.median(op.duration * op.scale for op in ops)
        traced_wall = statistics.median(op.duration * op.scale for op in traced)
        per_layer["tracing.overhead_s"] = traced_wall - plain_wall
        result["per_layer"] = per_layer
        result["traced_operations"] = len(traced)
        result["spans_file"] = str(write_spans(spans, args.workload, args.seed).relative_to(ROOT))
    emit("result " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
