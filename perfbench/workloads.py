"""The four benchmark workloads.

Each workload turns a seed into inputs (``__init__``), pays its one-off
costs (``setup``: server start and a warm-up call), runs one timed
operation per ``run_op`` call through the public API, and afterwards
checks every operation's outputs against exact references (``check``).

* ``battery`` — every registered experiment except ``ladder``, serially,
  through ``api.run_experiments(jobs=1)`` at the default scale, each
  battery starting from an empty in-memory simulation cache.  What a
  reader runs to reproduce the paper.  The seed orders the experiments.
* ``sweep`` — one design-space batch through
  ``api.simulate_batch(plan=True)`` with the simulation cache off: the
  36-point fully-associative capacity ladder mixed with 15 seeded
  set-associative Origin L2 variants of two of its programs.
* ``serve`` — an in-process ``BackgroundServer`` with two closed-loop
  client threads sending seeded 1–4 point requests from a pool with
  repeats.  An operation is one block of requests from each client.
* ``predict`` — predict-then-verify through
  ``api.run_experiments(["fig1", "fig3"], predict=True, scales=...)``
  over every scale in 24..128 at which both experiments run, in seeded
  order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import api
from repro.errors import ReproError
from repro.experiments import predict as predict_mode
from repro.experiments.config import DEFAULT_SCALE, ExperimentConfig
from repro.experiments.ladder_capacity import ladder_requests, ladder_workloads
from repro.experiments.plan import SimRequest
from repro.experiments.registry import EXPERIMENTS
from repro.lang.printer import render
from repro.machine.cache import CacheGeometry
from repro.machine.engine import simcache
from repro.machine.layout import build_layout
from repro.programs import make_kernel
from repro.programs.kernels import KERNEL_NAMES, kernel_spec
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import BackgroundServer, ServeConfig

REFS = Path(__file__).resolve().parent / "refs"

clock = time.perf_counter


@dataclass
class Op:
    """One timed operation: its wall time, the latency of every request it
    made (ms), the sweep points it answered, and its raw outputs.
    ``scale`` converts its times to the reference host speed."""

    duration: float
    latencies_ms: list[float]
    points: int
    output: Any = None
    stats: dict[str, float] = field(default_factory=dict)  # serve: server counters
    scale: float = 1.0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    max_error: float = 0.0  # predict only

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# -- shared helpers ---------------------------------------------------------------
def counters_json(counters) -> dict[str, Any]:
    """The counters a run's timings are derived from, as plain JSON."""
    return {
        "flops": counters.graduated_flops,
        "loads": counters.loads,
        "stores": counters.stores,
        "levels": [vars(st) for st in counters.level_stats],
        "downstream": list(counters.downstream_bytes),
    }


def digest(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def point_key(program, machine, params=None, *, layout=None, layout_policy=None,
              passes: int = 1) -> str:
    """Content key of one simulation point (the simulation cache's key)."""
    bound = program.bind_params(params)
    if layout is None:
        layout = build_layout(program, bound, layout_policy or machine.default_layout)
    return simcache.simulation_key(
        render(program), bound, layout.placements, simcache.machine_signature(machine),
        passes=passes, warmup_passes=0, flush=True,
    )


def request_point_key(req: SimRequest) -> str:
    return point_key(req.program, req.machine, req.params,
                     layout_policy=req.layout_policy, passes=req.passes)


def load_ref(name: str) -> dict[str, Any]:
    return json.loads((REFS / f"{name}.json").read_text())


def origin_variant(cfg: ExperimentConfig, size: int, assoc: int):
    """The scaled Origin2000 with its L2 resized and re-associated."""
    origin = cfg.origin
    l2 = origin.cache_levels[-1]
    geometry = CacheGeometry(size, l2.geometry.line_size, assoc)
    return dataclasses.replace(
        origin,
        name=f"{origin.name}-L2-{size}B-{assoc}way",
        cache_levels=(*origin.cache_levels[:-1], dataclasses.replace(l2, geometry=geometry)),
    )


# -- battery -----------------------------------------------------------------------
class Battery:
    """The paper's experiment battery, as a reader runs it."""

    name = "battery"

    def __init__(self, seed: int):
        names = [n for n in EXPERIMENTS if n != "ladder"]
        random.Random(seed).shuffle(names)
        self.names = names
        self.params = {"experiments": names, "scale": DEFAULT_SCALE, "jobs": 1,
                       "sim_cache": "in-memory, emptied before each battery"}

    def setup(self) -> None:
        simcache.configure_sim_cache(True)
        api.run_experiments(["e16"], jobs=1)  # warm-up: lazy imports, allocator

    def run_op(self, tracer=None) -> Op:
        cache = simcache.configure_sim_cache(True)
        start = clock()
        results = api.run_experiments(self.names, jobs=1)
        duration = clock() - start
        points = cache.counters.hits + cache.counters.misses
        return Op(duration, [duration * 1e3], points, (results, cache))

    def check(self, ops: list[Op]) -> Verdict:
        ref = load_ref("battery")
        verdict = Verdict()
        for op in ops:
            results, cache = op.output
            for result in results:
                verdict.attempted += 1
                got = json.loads(json.dumps(result.comparable_json()))
                if not result.ok:
                    verdict.fail(f"{result.experiment}: {result.status}: {result.error}")
                elif got != ref["experiments"].get(result.experiment):
                    verdict.fail(f"{result.experiment}: rows differ from the reference")
            if cache_digest(cache) != ref["counters_digest"]:
                verdict.fail("simulation counters digest differs from the reference")
        return verdict

    def layer_extras(self, ops: list[Op], spans) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def cache_digest(cache) -> str:
    """Digest of every counter set a battery simulated: the simulation
    cache's entries (content key -> counters), in key order."""
    entries = getattr(cache, "_memory", None)
    if entries is None:
        return "unavailable"
    return digest(sorted((k, v.to_json()) for k, v in entries.items()))


# -- sweep -------------------------------------------------------------------------
#: Ladder programs that also get set-associative Origin L2 variants; the
#: third (FFT) keeps a pure capacity column.  Mixing a column with
#: variants of its own trace is what costs the planner its capacity rule.
VARIANT_PROGRAMS = ("convolution", "dmxpy")
VARIANT_SIZES = (-3, -2, -1, 0, 1, 2, 3)  # L2 size = base x 2^k
VARIANT_ASSOCS = (1, 2, 4, 8)
VARIANTS_PER_PROGRAM = (8, 7)


def sweep_variants(cfg: ExperimentConfig) -> dict[str, list[SimRequest]]:
    """Every candidate L2 variant, per variant program."""
    base = cfg.origin.cache_levels[-1].geometry.size_bytes
    programs = dict(ladder_workloads(cfg))
    out = {}
    for name in VARIANT_PROGRAMS:
        out[name] = [
            SimRequest(programs[name], origin_variant(
                cfg, base << k if k >= 0 else base >> -k, assoc))
            for k in VARIANT_SIZES
            for assoc in VARIANT_ASSOCS
        ]
    return out


class Sweep:
    """A mixed design-space batch through the sweep planner."""

    name = "sweep"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cfg = ExperimentConfig()
        candidates = sweep_variants(cfg)
        counts = list(VARIANTS_PER_PROGRAM)
        rng.shuffle(counts)
        variants = [
            req
            for name, n in zip(VARIANT_PROGRAMS, counts)
            for req in rng.sample(candidates[name], n)
        ]
        requests = ladder_requests(cfg) + variants
        rng.shuffle(requests)
        self.requests = requests
        self.params = {
            "scale": cfg.scale, "points": len(requests), "ladder_points": len(requests) - len(variants),
            "variants": [f"{r.program.name}@{r.machine.name}" for r in variants],
            "sim_cache": "off", "plan": True,
        }

    def setup(self) -> None:
        simcache.configure_sim_cache(False)
        # Warm-up: a small mixed batch takes the capacity, trie and
        # engine paths once.
        small = ExperimentConfig(scale=4 * DEFAULT_SCALE)
        ladder = ladder_requests(small)[:2]
        variant = SimRequest(ladder[0].program, small.origin)
        api.simulate_batch([*ladder, variant], plan=True)

    def run_op(self, tracer=None) -> Op:
        start = clock()
        results = api.simulate_batch(self.requests, plan=True)
        duration = clock() - start
        return Op(duration, [duration * 1e3], len(results), results)

    def check(self, ops: list[Op]) -> Verdict:
        ref = load_ref("sweep")["points"]
        keys = [request_point_key(r) for r in self.requests]
        verdict = Verdict()
        for op in ops:
            for req, key, result in zip(self.requests, keys, op.output):
                verdict.attempted += 1
                if digest(counters_json(result.run.counters)) != ref.get(key):
                    verdict.fail(f"{req.program.name} on {req.machine.name}: "
                                 "planned counters differ from pointwise execute")
        return verdict

    def layer_extras(self, ops: list[Op], spans) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# -- serve -------------------------------------------------------------------------
CLIENTS = 2
BLOCK_REQUESTS = 32  # requests per client per operation
NEW_EVERY = 7  # one request in this many carries a never-requested point
SHARED_SHARE = 0.5  # share of new points both clients request at once
TARGET_ACCESSES = 1 << 20  # trace length of every pool point
SCHEDULE_LENGTH = 4000  # requests scheduled per client, more than a run completes


class _ServePool:
    """Seeded point descriptors -> SimRequests, built lazily.

    A descriptor ``(kernel, serial)`` names a kernel on the scaled
    Origin2000, sized so its trace has about :data:`TARGET_ACCESSES`
    accesses; ``serial`` adds elements so no two descriptors collide."""

    def __init__(self, seed: int):
        self.cfg = ExperimentConfig()
        self._rng = random.Random(seed)
        self._serial = 0
        self._built: dict[tuple, SimRequest] = {}
        self._lock = threading.Lock()

    def fresh(self) -> tuple:
        self._serial += 1
        return (self._rng.choice(KERNEL_NAMES), self._serial)

    def request(self, desc: tuple) -> SimRequest:
        with self._lock:
            req = self._built.get(desc)
            if req is None:
                kernel, serial = desc
                w, r = kernel_spec(kernel)
                req = self._built[desc] = SimRequest(
                    make_kernel(kernel, TARGET_ACCESSES // (w + r) + serial), self.cfg.origin
                )
            return req


def serve_schedule(seed: int, clients: int, length: int) -> tuple[list, _ServePool]:
    """Each client's request sequence: lists of 1-4 point descriptors.

    In every run of :data:`NEW_EVERY` requests, the request at one seeded
    position carries a new (never requested) point: the same point for
    all clients with probability :data:`SHARED_SHARE` (in-flight dedup
    across clients), else one per client.  Every other point repeats one
    the client requested before."""
    pool = _ServePool(seed)
    rng = random.Random(seed + 1)
    histories: list[list[tuple]] = [[] for _ in range(clients)]
    schedules: list[list[list[tuple]]] = [[] for _ in range(clients)]
    for start in range(0, length, NEW_EVERY):
        slot = start if start == 0 else start + rng.randrange(NEW_EVERY)
        shared = pool.fresh() if rng.random() < SHARED_SHARE else None
        for history, seq in zip(histories, schedules):
            for j in range(start, min(start + NEW_EVERY, length)):
                size = rng.randint(1, 4)
                if j == slot:
                    history.append(shared or pool.fresh())
                    points = [history[-1]] + [rng.choice(history) for _ in range(size - 1)]
                    rng.shuffle(points)
                else:
                    points = [rng.choice(history) for _ in range(size)]
                seq.append(points)
    return schedules, pool


class Serve:
    """Closed-loop clients against an in-process daemon."""

    name = "serve"

    def __init__(self, seed: int):
        self.schedules, self.pool = serve_schedule(seed, CLIENTS, SCHEDULE_LENGTH)
        self.cursor = [0] * CLIENTS
        self.server: BackgroundServer | None = None
        self.clients: list[ServiceClient] = []
        self.params = {
            "clients": CLIENTS, "loop": "closed", "block_requests": BLOCK_REQUESTS,
            "requests_per_new_point": NEW_EVERY, "shared_new_share": SHARED_SHARE,
            "points_per_request": "1-4", "trace_accesses": TARGET_ACCESSES,
            "server": "BackgroundServer(thread executor, plan on, empty in-memory sim cache)",
        }

    def setup(self) -> None:
        simcache.configure_sim_cache(True)
        self.server = BackgroundServer(ServeConfig(jobs=0, plan=True)).start()
        self.clients = [ServiceClient(self.server.address, tenant=f"client{i}")
                        for i in range(CLIENTS)]
        cfg = ExperimentConfig()
        warm = SimRequest(make_kernel("1w1r", 1024), cfg.origin)
        self.clients[0].simulate_batch([warm])  # warm-up: sockets, planner, engines
        simcache.configure_sim_cache(True)  # the server starts measuring from empty

    def _client_block(self, i: int, tracer, records: list) -> None:
        client = self.clients[i]
        seq = self.schedules[i]
        for _ in range(BLOCK_REQUESTS):
            descs = seq[self.cursor[i] % len(seq)]
            self.cursor[i] += 1
            reqs = [self.pool.request(d) for d in descs]
            rid = f"c{i}-{self.cursor[i]}"
            start = clock()
            try:
                if tracer is None:
                    results = client.simulate_batch(reqs)
                else:
                    with tracer.request(rid), tracer.span("serve.request", "client"):
                        results = client.simulate_batch(reqs)
                error = None
            except ServiceError as exc:
                results, error = None, str(exc)
            done = clock()
            records.append({"rid": rid, "sent": start, "done": done, "descs": descs,
                            "reqs": reqs, "results": results, "error": error})

    def run_op(self, tracer=None) -> Op:
        before = self._stats()
        per_client: list[list] = [[] for _ in range(CLIENTS)]
        threads = [threading.Thread(target=self._client_block, args=(i, tracer, per_client[i]))
                   for i in range(CLIENTS)]
        start = clock()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        duration = clock() - start
        records = [r for recs in per_client for r in recs]
        after = self._stats()
        ok = [r for r in records if r["error"] is None]
        return Op(duration, [(r["done"] - r["sent"]) * 1e3 for r in ok],
                  sum(len(r["descs"]) for r in ok), records,
                  _stats_delta(before, after, records))

    def _stats(self) -> dict[str, Any]:
        with ServiceClient(self.server.address, tenant="stats") as client:
            return client.stats()

    def check(self, ops: list[Op]) -> Verdict:
        """Every served point must be bit-identical to a local
        ``simulate_batch`` of the same point."""
        verdict = Verdict()
        distinct: dict[tuple, SimRequest] = {}
        for op in ops:
            for rec in op.output:
                for desc, req in zip(rec["descs"], rec["reqs"]):
                    distinct.setdefault(desc, req)
        simcache.configure_sim_cache(False)
        local = dict(zip(distinct, api.simulate_batch(list(distinct.values()), plan=True)))
        for op in ops:
            for rec in op.output:
                verdict.attempted += 1
                if rec["error"] is not None:
                    verdict.fail(f"{rec['rid']}: rejected: {rec['error']}")
                    continue
                for desc, got in zip(rec["descs"], rec["results"]):
                    if _summary(got) != _summary(local[desc]):
                        verdict.fail(f"{rec['rid']}: {desc} differs from local simulate_batch")
                        break
        return verdict

    def layer_extras(self, ops: list[Op], spans) -> dict[str, float]:
        """The ``service.*`` metrics: the answering batch of each request
        is matched by the wire form of its points."""
        from repro.service.protocol import sim_request_to_json

        requests = [
            {"sent": r["sent"], "done": r["done"],
             "keys": {json.dumps(sim_request_to_json(q), sort_keys=True) for q in r["reqs"]}}
            for op in ops for r in op.output if r["error"] is None
        ]
        stats: dict[str, float] = {}
        for op in ops:
            for key, value in op.stats.items():
                stats[key] = stats.get(key, 0) + value
        import layers

        return layers.service_metrics(spans, requests, stats, len(ops))

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
            self.server = None


def _summary(result) -> tuple:
    return (result.seconds, result.mflops, result.flops, result.loads, result.stores,
            tuple(result.channel_bytes), result.memory_bytes, result.effective_bandwidth,
            digest(counters_json(result.run.counters)))


def _stats_delta(before: dict, after: dict, records: list) -> dict[str, float]:
    def points(stats):
        return (stats["batch_mean"] or 0) * stats["batches"]

    return {
        "batches": after["batches"] - before["batches"],
        "batch_points": points(after) - points(before),
        "dedup_hits": after["dedup_hits"] - before["dedup_hits"],
        "rejects": sum(after["rejected"].values()) - sum(before["rejected"].values()),
        "points": sum(len(r["descs"]) for r in records),
    }


# -- predict -----------------------------------------------------------------------
PREDICT_EXPERIMENTS = ("fig1", "fig3")
CANDIDATE_SCALES = tuple(range(24, 129, 2))


def scale_is_valid(scale: int) -> bool:
    """Input validity guard: every size the predict experiments derive
    from the config can be built at ``scale`` (``fig3`` needs an Exemplar
    cache divisible by five, for one)."""
    cfg = ExperimentConfig(scale=scale)
    try:
        cfg.stream_elements(cfg.origin)
        cfg.grid_side(cfg.origin)
        cfg.mm_side()
        cfg.fft_elements()
        cfg.exemplar_kernel_elements()
    except (AssertionError, ReproError):
        return False
    return True


@dataclass
class CapturedPoint:
    program: Any
    machine: Any
    params: Any
    layout: Any
    layout_policy: Any
    passes: int
    run: Any
    analytic: bool

    def key(self) -> str:
        return point_key(self.program, self.machine, self.params, layout=self.layout,
                         layout_policy=self.layout_policy, passes=self.passes)


class PointCapture:
    """Records every sweep point the predict experiments answer, and
    whether the analytic estimate or the exact simulator answered it, by
    wrapping ``run_or_predict`` where those experiments bind it.  A list
    append per point; keys are computed only when checking."""

    def __init__(self) -> None:
        self.points: list[CapturedPoint] = []
        self._undo: list[Callable[[], None]] = []

    def install(self) -> None:
        import importlib

        original = predict_mode.run_or_predict
        capture = self

        def recording(program, machine, params=None, **kwargs):
            session = predict_mode._session.get()
            before = session.predicted if session is not None else 0
            run = original(program, machine, params, **kwargs)
            capture.points.append(CapturedPoint(
                program, machine, params, kwargs.get("layout"), kwargs.get("layout_policy"),
                kwargs.get("passes", 1), run,
                session is not None and session.predicted > before,
            ))
            return run

        for module in ("repro.experiments.fig1_balance", "repro.experiments.fig3_bandwidth"):
            mod = importlib.import_module(module)
            setattr(mod, "run_or_predict", recording)
            self._undo.append(lambda mod=mod: setattr(mod, "run_or_predict", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def take(self) -> list[CapturedPoint]:
        points, self.points = self.points, []
        return points


class Predict:
    """Predict-then-verify over a ladder of machine scales."""

    name = "predict"

    def __init__(self, seed: int):
        candidates = list(CANDIDATE_SCALES)
        random.Random(seed).shuffle(candidates)
        self.scales = [s for s in candidates if scale_is_valid(s)]
        self.capture = PointCapture()
        self.params = {"experiments": list(PREDICT_EXPERIMENTS), "scales": self.scales,
                       "candidate_scales": f"{CANDIDATE_SCALES[0]}..{CANDIDATE_SCALES[-1]} even",
                       "sim_cache": "in-memory, emptied before each ladder"}

    def setup(self) -> None:
        self.capture.install()
        simcache.configure_sim_cache(True)
        api.run_experiments(["fig1"], predict=True, scales=[max(self.scales)])
        self.capture.take()

    def run_op(self, tracer=None) -> Op:
        simcache.configure_sim_cache(True)
        start = clock()
        results = api.run_experiments(list(PREDICT_EXPERIMENTS), predict=True, scales=self.scales)
        duration = clock() - start
        points = sum(r.analytic.get("points", 0) for r in results)
        return Op(duration, [duration * 1e3], points, (results, self.capture.take()))

    def check(self, ops: list[Op]) -> Verdict:
        """Exact answers (spot checks and fallbacks) must equal the
        recorded exact counters; analytic answers give the error."""
        ref = load_ref("predict")["points"]
        verdict = Verdict()
        for op in ops:
            results, points = op.output
            for result in results:
                if not result.ok:
                    verdict.attempted += 1
                    verdict.fail(f"{result.experiment}: {result.status}: {result.error}")
            for pt in points:
                verdict.attempted += 1
                exact = ref.get(pt.key())
                if exact is None:
                    verdict.fail(f"{pt.program.name} on {pt.machine.name}: no reference")
                elif pt.analytic:
                    got = pt.run.counters.memory_bytes
                    error = abs(got - exact["memory_bytes"]) / max(exact["memory_bytes"], 1)
                    verdict.max_error = max(verdict.max_error, error)
                elif digest(counters_json(pt.run.counters)) != exact["digest"]:
                    verdict.fail(f"{pt.program.name} on {pt.machine.name}: "
                                 "exact answer differs from the reference")
        return verdict

    def layer_extras(self, ops: list[Op], spans) -> dict[str, float]:
        points = predicted = checked = fallbacks = 0
        for op in ops:
            for result in op.output[0]:
                block = result.analytic
                points += block.get("points", 0)
                predicted += block.get("predicted", 0)
                checked += block.get("checked", 0)
                fallbacks += block.get("fallbacks", 0)
        n = max(1, len(ops))
        return {
            "predict.checked": checked / n,
            "predict.fallbacks": fallbacks / n,
            "predict.exact_share": (points - predicted) / points if points else 0.0,
        }

    def close(self) -> None:
        self.capture.uninstall()


WORKLOADS = {w.name: w for w in (Battery, Sweep, Serve, Predict)}
