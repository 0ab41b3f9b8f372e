"""Record the exact references the benchmark's output checks compare to.

Run once from the commit whose results are the reference, and again only
when a change is meant to alter simulated results::

    python3 perfbench/record_refs.py battery sweep predict

* ``battery`` — every experiment's comparable record and the digest of
  every counter set simulated, from two batteries in opposite orders
  (which must agree).
* ``sweep`` — counters of every candidate sweep point from pointwise
  ``execute(sim_cache=False)``.
* ``predict`` — exact counters of every fig1/fig3 point at every valid
  scale, with predict mode off and the simulation cache off.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from repro import api  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.ladder_capacity import ladder_requests  # noqa: E402
from repro.interp.executor import execute  # noqa: E402
from repro.machine.engine import simcache  # noqa: E402


def record_battery() -> dict:
    names = [n for n in w.EXPERIMENTS if n != "ladder"]
    runs = []
    for order in (names, names[::-1]):
        cache = simcache.configure_sim_cache(True)
        results = api.run_experiments(order, jobs=1)
        failed = [r.describe_failure() for r in results if not r.ok]
        if failed:
            raise SystemExit(f"battery failed: {failed}")
        runs.append((
            {r.experiment: json.loads(json.dumps(r.comparable_json())) for r in results},
            w.cache_digest(cache),
            cache.counters.hits + cache.counters.misses,
        ))
    if runs[0] != runs[1]:
        raise SystemExit("battery results depend on experiment order; not recording")
    experiments, digest, points = runs[0]
    return {"experiments": experiments, "counters_digest": digest, "points": points}


def record_sweep() -> dict:
    simcache.configure_sim_cache(False)
    cfg = ExperimentConfig()
    candidates = ladder_requests(cfg) + [
        req for reqs in w.sweep_variants(cfg).values() for req in reqs
    ]
    points = {}
    for req in candidates:
        run = execute(req.program, req.machine, req.params, layout_policy=req.layout_policy,
                      passes=req.passes, sim_cache=False)
        points[w.request_point_key(req)] = w.digest(w.counters_json(run.counters))
    return {"points": points}


def record_predict() -> dict:
    simcache.configure_sim_cache(False)
    capture = w.PointCapture()
    capture.install()
    try:
        scales = [s for s in w.CANDIDATE_SCALES if w.scale_is_valid(s)]
        results = api.run_experiments(list(w.PREDICT_EXPERIMENTS), scales=scales)
        failed = [r.describe_failure() for r in results if not r.ok]
        if failed:
            raise SystemExit(f"predict references failed: {failed}")
        points = {
            pt.key(): {"digest": w.digest(w.counters_json(pt.run.counters)),
                       "memory_bytes": pt.run.counters.memory_bytes}
            for pt in capture.take()
        }
    finally:
        capture.uninstall()
    return {"scales": scales, "points": points}


RECORDERS = {"battery": record_battery, "sweep": record_sweep, "predict": record_predict}


def main(argv: list[str]) -> int:
    for name in argv or list(RECORDERS):
        data = RECORDERS[name]()
        w.REFS.mkdir(exist_ok=True)
        path = w.REFS / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(ROOT)} written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
