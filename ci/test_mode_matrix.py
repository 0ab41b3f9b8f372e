"""Mode-equivalence matrix: every execution mode reproduces the default run.

The paper's numbers are exact cache counters, so an execution mode (an
engine, the streamed pipeline, set-sharded simulation, the sweep
planner, an explicit ``cores=1``) may change wall clock and memory but
never a row.  Each case runs the experiment runner in process with one
:class:`~repro.options.ExecOptions` variant over a few experiments and
checks three things:

* every manifest is at ``SCHEMA_VERSION`` and validates against
  ``docs/result.schema.json``;
* the variant's ``comparable_manifest`` equals the default run's once the
  config keys the variant sets are popped;
* the runner's output shows that the mode ran (the telemetry it prints).

The default run of each scale simulates cold into a fresh simulation-cache
directory.  A cold variant passes ``--no-sim-cache`` so it re-simulates
too: the memo key leaves the execution mode out on purpose, so a hit
would prove nothing.  A warm variant reruns against the default's
directory and must simulate nothing.  Every run starts from a fresh
process memo, so warm hits come from disk, as in a new process.

The matrix runs outside tier-1 (about two minutes on two CPUs)::

    PYTHONPATH=src python -m pytest ci/test_mode_matrix.py
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import importlib.util
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable
from unittest import mock

import pytest

from repro import api
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.ladder_capacity import ladder_requests, ladder_workloads
from repro.experiments.orchestrator import comparable_manifest
from repro.experiments.plan import SimRequest, collect_plan_telemetry
from repro.experiments.result import SCHEMA_VERSION
from repro.machine.cache import CacheGeometry
from repro.machine.engine import simcache

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "result.schema.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "validate_manifest", ROOT / "tools" / "validate_manifest.py"
)
validate_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate_manifest)

#: Options whose runner flag is a bare switch (only ``True`` has a flag).
SWITCHES = ("stream", "plan", "predict")
#: Options whose runner flag takes the value.
VALUED = ("engine", "chunk_accesses", "shards", "cores")
#: What tells the default's cold memo run from a ``--no-sim-cache`` variant.
MEMO_KEYS = ("sim_cache", "sim_cache_dir")


@dataclass(frozen=True)
class Run:
    log: str
    manifest: dict[str, Any]


def run_runner(
    results_dir: Path, argv: list[str], injected: dict[str, Any] | None = None
) -> Run:
    """``runner.main(argv)`` in process: its stdout and its validated
    manifest.  ``injected`` options have no runner flag, so they are set
    on the config the runner builds."""
    simcache.configure_sim_cache()
    patch = contextlib.nullcontext()
    if injected:
        patch = mock.patch.object(
            runner,
            "ExperimentConfig",
            lambda **kw: ExperimentConfig(**{**kw, **injected}),
        )
    out = io.StringIO()
    with patch, contextlib.redirect_stdout(out):
        code = runner.main([*argv, "--results-dir", str(results_dir)])
    log = out.getvalue()
    assert code == 0, log
    (path,) = results_dir.glob("run-*.json")
    manifest = json.loads(path.read_text())
    assert manifest["schema_version"] == SCHEMA_VERSION
    validate_manifest.validate(manifest, SCHEMA)
    failed = [r["experiment"] for r in manifest["results"] if r["status"] != "ok"]
    assert not failed, f"failed: {failed}\n{log}"
    return Run(log, manifest)


def flags(options: dict[str, Any]) -> tuple[list[str], dict[str, Any]]:
    """The runner flags that set ``options``, and the options no flag sets
    (``stream="serial"``: ``--stream`` selects the overlap pipeline)."""
    argv, injected = [], {}
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if key in SWITCHES and value is True:
            argv.append(flag)
        elif key in VALUED:
            argv += [flag, str(value)]
        else:
            injected[key] = value
    return argv, injected


def scale_flags(scale: int | None) -> list[str]:
    return [] if scale is None else ["--scale", str(scale)]


class Defaults:
    """The default run's records, per scale and experiment.  Each scale's
    experiments run cold into that scale's own sim-cache directory, at
    most once per experiment, when a case first needs them."""

    def __init__(self, root: Path):
        self.root = root
        self.runs: dict[tuple[int | None, str], tuple[dict[str, Any], Run]] = {}
        self._count = 0

    def results_dir(self) -> Path:
        self._count += 1
        return self.root / f"results-{self._count}"

    def cache_dir(self, scale: int | None) -> Path:
        return self.root / f"cache-{scale or 'default'}"

    def ensure(self, names, scale: int | None) -> None:
        missing = [n for n in dict.fromkeys(names) if (scale, n) not in self.runs]
        if missing:
            argv = [*missing, *scale_flags(scale), "--sim-cache-dir", str(self.cache_dir(scale))]
            run = run_runner(self.results_dir(), argv)
            for record in comparable_manifest(run.manifest):
                self.runs[(scale, record["experiment"])] = (record, run)

    def record(self, name: str, scale: int | None) -> dict[str, Any]:
        self.ensure([name], scale)
        return self.runs[(scale, name)][0]


@pytest.fixture(scope="module", autouse=True)
def restore_process_memo():
    """Every run installs a fresh process memo; put the original back."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simcache, "_default", simcache.get_sim_cache())
        yield


@pytest.fixture(scope="module")
def defaults(tmp_path_factory):
    return Defaults(tmp_path_factory.mktemp("matrix"))


def assert_matches_default(
    run: Run, defaults: Defaults, scale: int | None, popped
) -> None:
    """Each experiment of ``run`` equals the default's record once the
    ``popped`` config keys are removed from both."""
    records = comparable_manifest(run.manifest)
    assert records, "no results"
    for record in records:
        name = record["experiment"]
        got, want = copy.deepcopy(record), copy.deepcopy(defaults.record(name, scale))
        for key in popped:
            got["config"].pop(key)
            want["config"].pop(key)
        assert got == want, f"{name}: comparable manifest differs from the default run"


# -- per-mode checks of what the runner recorded --------------------------------


def check_plan(manifest: dict[str, Any]) -> None:
    tel = [r["plan"] for r in manifest["results"] if r.get("plan")]
    assert tel, "no plan telemetry recorded under --plan"
    ladder = next(t for t in tel if t["by_rule"].get("capacity"))
    assert ladder["accesses_requested"] >= 10 * ladder["accesses_simulated"], (
        "capacity collapse simulated more than a tenth of the requested accesses"
    )


def check_predict(manifest: dict[str, Any]) -> None:
    tel = [r["analytic"] for r in manifest["results"] if r.get("analytic")]
    assert tel, "no analytic telemetry recorded under --predict"
    assert any(t["predicted"] > 0 for t in tel), "nothing was predicted"
    assert all(t["checked"] >= 1 for t in tel), "spot checks missing"


def check_dedup(manifest: dict[str, Any]) -> None:
    assert manifest["dedup_hits"] == 1, manifest["dedup_hits"]


@dataclass(frozen=True)
class Case:
    experiments: tuple[str, ...]
    options: dict[str, Any]  # the ExecOptions values the variant sets
    scale: int | None = None  # None: the runner's default scale
    expect: tuple[str, ...] = ()  # patterns the variant's runner output shows
    check: Callable[[dict[str, Any]], None] | None = None
    identity: bool = True  # counters equal the default's (all but predict)
    warm: bool = False  # also rerun against the default's sim cache

    @property
    def id(self) -> str:
        opts = "+".join(f"{k}={v}" for k, v in self.options.items()) or "default"
        at = f"@{self.scale}" if self.scale else ""
        return f"{opts}{at}-{'-'.join(self.experiments)}"


#: contention drives the A >= 3 set-associative path of the multicore
#: presets; e10, e11 and fig4 are the families whose L1 windows the
#: engine extrapolates; fig3's stride-one kernels pass derived hints to L2.
ENGINE_BATTERY = ("fig1", "fig3", "contention", "e10", "e11", "fig4")
FIGS = ("fig1", "fig3")
CHUNK = {"chunk_accesses": 500_000}

CASES = [
    Case(ENGINE_BATTERY, {"engine": "reference"}),
    Case(ENGINE_BATTERY, {"engine": "setassoc"}),
    # e13's LRU side and e18's three replays, through Cache.
    Case(("e13", "e18"), {"engine": "reference"}),
    # At scale 32 the Origin2000's L1 keeps 16 sets of 32 B lines under a
    # 128 B-line L2, enough to nest 2 shards; the streamed side proves
    # the fork composes with the prefetch thread.
    Case(FIGS, {"shards": 2, "stream": True}, scale=32,
         expect=(r"2 shards x \d+ sims",), warm=True),
    Case(("ladder", "fig1"), {"plan": True}, scale=16,
         expect=(r"plan \d+ pts/\d+ groups", r"[\d.]+x fewer accesses"),
         check=check_plan, warm=True),
    # The serial pipeline records no stream telemetry; the config check
    # shows it was selected.
    Case(FIGS, {"stream": "serial", **CHUNK}),
    Case(FIGS, {"stream": True, **CHUNK}, expect=(r"stream \d+ chunks, \d+% gen hidden",)),
    Case(FIGS, {"cores": 1}, expect=(r"timing: 1 core",), warm=True),
    Case(FIGS, {"predict": True}, expect=(r"analytic \d+/\d+ predicted",),
         check=check_predict, identity=False),
    # Two identical tasks are answered by one execution, and both equal
    # the default's record.
    Case(("e9", "e9"), {}, expect=(r"scheduler dedup: 1 duplicate",), check=check_dedup),
]


def run_variant(case: Case, defaults: Defaults, memo: list[str]) -> Run:
    argv, injected = flags(case.options)
    return run_runner(
        defaults.results_dir(),
        [*case.experiments, *argv, *scale_flags(case.scale), *memo],
        injected,
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
def test_cold(case: Case, defaults: Defaults):
    run = run_variant(case, defaults, ["--no-sim-cache"])
    for record in run.manifest["results"]:
        for key, value in case.options.items():
            assert record["config"][key] == value, (record["experiment"], key)
    for pattern in case.expect:
        assert re.search(pattern, run.log), f"{pattern!r} not in output:\n{run.log}"
    if case.check:
        case.check(run.manifest)
    if case.identity:
        assert_matches_default(run, defaults, case.scale, [*case.options, *MEMO_KEYS])


@pytest.mark.parametrize("case", [c for c in CASES if c.warm], ids=lambda c: c.id)
def test_warm_rerun_simulates_nothing(case: Case, defaults: Defaults):
    """The memo key leaves sharding, planning and contention out, so a
    variant rerun after the default serves every point from disk."""
    defaults.ensure(case.experiments, case.scale)
    run = run_variant(case, defaults, ["--sim-cache-dir", str(defaults.cache_dir(case.scale))])
    for name in case.experiments:
        pattern = rf"\[{name}: .*cached / 0 simulated \(\d+ from disk\)"
        assert re.search(pattern, run.log), f"{name} simulated warm:\n{run.log}"
    assert_matches_default(run, defaults, case.scale, list(case.options))


def test_planned_run_seeds_the_pointwise_cache(tmp_path):
    """The planner stores every point under the key pointwise execution
    looks up, so a pointwise rerun after a planned one simulates nothing."""
    cache = ["--scale", "16", "--sim-cache-dir", str(tmp_path / "cache")]
    run_runner(tmp_path / "planned", ["ladder", "--plan", *cache])
    run = run_runner(tmp_path / "pointwise", ["ladder", *cache])
    assert re.search(r"\[ladder: .*cached / 0 simulated \(\d+ from disk\)", run.log), run.log


def test_contention_telemetry(defaults: Defaults):
    """The contention experiment's manifest carries the contended-timing
    block."""
    defaults.ensure(["contention"], None)
    _, run = defaults.runs[(None, "contention")]
    assert re.search(r"\d+ cores \(.* gap [\d.]+x\)", run.log), run.log
    tel = [r["contention"] for r in run.manifest["results"] if r.get("contention")]
    assert tel, "no contention telemetry recorded"
    block = tel[0]
    assert block["cores"] > 1 and block["runs"] > 0
    assert block["source"] == "weak-scaling"
    for channel in block["channels"]:
        assert 0.0 < channel["saturation"] <= 1.0
        assert channel["balance_gap"] >= 1.0


def test_mixed_ladder_and_setassoc_batch_uses_the_capacity_rule():
    """The planner picks its rule per point: the ladder's fully-associative
    rungs still collapse to stack profiles when set-associative Origin L2
    variants of the same programs share their trace groups, and every
    point stays bit-identical to pointwise execution."""
    simcache.configure_sim_cache(False)
    cfg = ExperimentConfig(scale=16)
    origin, l2 = cfg.origin, cfg.origin.cache_levels[-1]

    def variant(size, assoc):
        geometry = CacheGeometry(size, l2.geometry.line_size, assoc)
        return dataclasses.replace(
            origin,
            name=f"{origin.name}-L2-{size}B-{assoc}way",
            cache_levels=(
                *origin.cache_levels[:-1],
                dataclasses.replace(l2, geometry=geometry),
            ),
        )

    ladder = ladder_requests(cfg)
    base = l2.geometry.size_bytes
    batch = ladder + [
        SimRequest(prog, variant(size, assoc))
        for _, prog in list(ladder_workloads(cfg))[:2]
        for size in (base // 2, base, base * 2)
        for assoc in (1, 2, 4)
    ]
    with collect_plan_telemetry() as session:
        planned = api.simulate_batch(batch, plan=True)
    pointwise = api.simulate_batch(batch, plan=False)
    for req, a, b in zip(batch, planned, pointwise):
        assert a == b, f"{req.program.name} on {req.machine.name}: planned != pointwise"
    assert session.by_rule["capacity"] == len(ladder), session.by_rule
    assert session.by_rule["trace"] == 0 and session.by_rule["fallback"] == 0, session.by_rule
