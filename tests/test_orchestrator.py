"""The experiment orchestrator: parallel == serial, graceful degradation,
structured results and run manifests."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import (
    ExperimentTask,
    OrchestratorOptions,
    RunStats,
    build_manifest,
    build_plan,
    comparable_manifest,
    run_battery,
    run_tasks,
    summary_table,
    write_manifest,
)
from repro.experiments.result import ExperimentResult, failed_result

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "result.schema.json"


# -- injected experiments (module level: importable after fork/spawn) ----------


def _ok_experiment(config):
    return ExperimentResult(
        experiment="fake_ok",
        title="Fake",
        headers=("k", "v"),
        rows=[["answer", 42]],
        config=config.to_json(),
    )


def _crash_experiment(config):
    raise RuntimeError("boom")


def _hang_experiment(config):
    time.sleep(60)


def _flaky_experiment(config):
    flag = Path(os.environ["REPRO_TEST_FLAKY_FLAG"])
    if not flag.exists():
        flag.write_text("crashed once")
        raise RuntimeError("first attempt fails")
    return _ok_experiment(config)


def _count_experiment(config):
    # Append-mode writes are atomic enough for the line counts these
    # tests assert (single writer at a time by construction).
    with Path(os.environ["REPRO_TEST_COUNT_FILE"]).open("a") as fh:
        fh.write("ran\n")
    return ExperimentResult(
        experiment="count",
        title="Count",
        headers=("k", "v"),
        rows=[["answer", 42]],
        config=config.to_json(),
    )


def _shard_spec():
    from repro.machine.presets import origin2000

    return origin2000(32)


def _shard_trace():
    import numpy as np

    rng = np.random.default_rng(77)
    addrs = (rng.integers(0, 2048, 6000) * 8).astype(np.int64)
    writes = rng.random(6000) < 0.3
    return addrs, writes


def _record_pids(pids):
    with Path(os.environ["REPRO_TEST_SHARD_PIDS"]).open("a") as fh:
        fh.writelines(f"{p}\n" for p in pids)


def _shard_crash_experiment(config):
    """First attempt: SIGKILL one shard worker mid-stream (the crash must
    surface, not hang or corrupt).  Second attempt: clean sharded run."""
    import signal

    from repro.machine.engine.sharded import ShardedHierarchy, build_hierarchy

    flag = Path(os.environ["REPRO_TEST_SHARD_FLAG"])
    h = build_hierarchy(_shard_spec(), "auto", shards=2)
    assert isinstance(h, ShardedHierarchy)
    _record_pids([w.pid for w in h._workers])
    addrs, writes = _shard_trace()
    try:
        h.run_trace(addrs[:3000], writes[:3000])
        h.shard_results()  # sync point: both workers alive and caught up
        if not flag.exists():
            flag.write_text("killed a shard")
            os.kill(h._workers[0].pid, signal.SIGKILL)
            h.run_trace(addrs[3000:], writes[3000:])
            h.result()  # must raise MachineError at the merge sync
            raise AssertionError("dead shard worker went unnoticed")
        h.run_trace(addrs[3000:], writes[3000:])
        h.flush()
        res = h.result()
    finally:
        h.close()
    return ExperimentResult(
        experiment="shard_crash",
        title="Sharded",
        headers=("k", "v"),
        rows=[["memory_bytes", res.memory_bytes]],
        config=config.to_json(),
    )


def _shard_hang_experiment(config):
    """Simulate with live shard workers and a fresh disk sim-cache entry,
    then wedge: the orchestrator's timeout kill must take the whole
    process tree down and leave no temp files behind."""
    from repro.machine.engine import simcache
    from repro.machine.engine.sharded import build_hierarchy

    h = build_hierarchy(_shard_spec(), "auto", shards=2)
    _record_pids([os.getpid()] + [w.pid for w in h._workers])
    addrs, writes = _shard_trace()
    h.run_trace(addrs, writes)
    res = h.result()  # partial per-shard results exist when the axe falls
    cache = simcache.get_sim_cache()
    cache.put("hangkey", simcache.SimulationResult(res, 1, 2, 3))
    time.sleep(60)


def _slow_ok_experiment(config):
    time.sleep(1.5)
    return _ok_experiment(config)


def _drain_trigger_experiment(config):
    from repro.experiments.orchestrator import request_drain

    request_drain()
    return _ok_experiment(config)


REGISTRY = {
    "ok": _ok_experiment,
    "boom": _crash_experiment,
    "hang": _hang_experiment,
    "flaky": _flaky_experiment,
    "count": _count_experiment,
    "slow_ok": _slow_ok_experiment,
    "drain_trigger": _drain_trigger_experiment,
    "shard_crash": _shard_crash_experiment,
    "shard_hang": _shard_hang_experiment,
}


def _tasks(*names):
    cfg = ExperimentConfig(sim_cache=False)
    return [ExperimentTask(n, cfg, n) for n in names]


class TestPlan:
    def test_single_scale(self):
        tasks = build_plan(["fig1", "fig5"], ExperimentConfig(), [64])
        assert [t.display() for t in tasks] == ["fig1", "fig5"]
        assert all(t.config.scale == 64 for t in tasks)

    def test_sweep_labels_and_order(self):
        tasks = build_plan(["fig1", "fig5"], ExperimentConfig(), [16, 32])
        assert [t.display() for t in tasks] == [
            "fig1@1/16",
            "fig5@1/16",
            "fig1@1/32",
            "fig5@1/32",
        ]

    def test_unknown_experiment_rejected(self):
        options = OrchestratorOptions(registry=REGISTRY)
        with pytest.raises(ReproError):
            options.resolve("nope")


class TestSchedulerDedup:
    """Identical in-flight tasks are answered by one execution."""

    def test_inline_duplicates_run_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(tmp_path / "count"))
        stats = RunStats()
        results = list(
            run_tasks(
                _tasks("count", "count", "count"),
                OrchestratorOptions(registry=REGISTRY),
                stats,
            )
        )
        assert [r.ok for r in results] == [True, True, True]
        assert all(r.rows == results[0].rows for r in results)
        assert stats.dedup_hits == 2
        assert (tmp_path / "count").read_text().count("ran") == 1

    def test_pool_duplicates_join_inflight_worker(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(tmp_path / "count"))
        stats = RunStats()
        results = list(
            run_tasks(
                _tasks("count", "count", "count"),
                OrchestratorOptions(jobs=3, registry=REGISTRY),
                stats,
            )
        )
        assert [r.ok for r in results] == [True, True, True]
        assert all(r.rows == results[0].rows for r in results)
        assert stats.dedup_hits == 2
        assert (tmp_path / "count").read_text().count("ran") == 1

    def test_distinct_configs_are_not_deduped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(tmp_path / "count"))
        tasks = [
            ExperimentTask("count", ExperimentConfig(scale=s, sim_cache=False), "count")
            for s in (16, 32)
        ]
        stats = RunStats()
        results = list(
            run_tasks(tasks, OrchestratorOptions(registry=REGISTRY), stats)
        )
        assert [r.ok for r in results] == [True, True]
        assert stats.dedup_hits == 0
        assert (tmp_path / "count").read_text().count("ran") == 2

    def test_failed_leader_fails_followers_in_pool(self, monkeypatch):
        stats = RunStats()
        results = list(
            run_tasks(
                _tasks("boom", "boom"),
                OrchestratorOptions(jobs=2, retries=0, registry=REGISTRY),
                stats,
            )
        )
        assert [r.status for r in results] == ["failed", "failed"]
        assert stats.dedup_hits == 1

    def test_manifest_records_dedup_hits(self):
        manifest = build_manifest([], dedup_hits=3)
        assert manifest["dedup_hits"] == 3
        assert build_manifest([])["dedup_hits"] == 0


class TestGracefulDegradation:
    def test_inline_crash_is_recorded_not_raised(self):
        options = OrchestratorOptions(jobs=1, retries=1, registry=REGISTRY)
        results = list(run_tasks(_tasks("boom", "ok"), options))
        assert [r.status for r in results] == ["failed", "ok"]
        assert results[0].attempts == 2
        assert "boom" in results[0].error
        assert results[1].rows == [["answer", 42]]

    def test_pool_crash_is_recorded_not_raised(self):
        options = OrchestratorOptions(jobs=2, retries=1, registry=REGISTRY)
        results = list(run_tasks(_tasks("boom", "ok"), options))
        assert [r.status for r in results] == ["failed", "ok"]
        assert results[0].attempts == 2

    def test_pool_timeout_terminates_worker(self):
        options = OrchestratorOptions(
            jobs=2, timeout=1.0, retries=0, registry=REGISTRY
        )
        start = time.monotonic()
        results = list(run_tasks(_tasks("hang", "ok"), options))
        assert time.monotonic() - start < 30
        assert [r.status for r in results] == ["timeout", "ok"]
        assert "timed out" in results[0].error

    def test_pool_retry_succeeds_second_attempt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_FLAG", str(tmp_path / "flag"))
        options = OrchestratorOptions(jobs=2, retries=1, registry=REGISTRY)
        results = list(run_tasks(_tasks("flaky"), options))
        assert results[0].status == "ok"
        assert results[0].attempts == 2

    def test_results_come_back_in_plan_order(self):
        options = OrchestratorOptions(jobs=3, timeout=5.0, retries=0, registry=REGISTRY)
        results = list(run_tasks(_tasks("ok", "boom", "ok"), options))
        assert [r.status for r in results] == ["ok", "failed", "ok"]


class TestDrain:
    """SIGTERM drain: in-flight experiments finish, pending ones are
    cancelled (not abandoned), and the manifest still validates."""

    def test_pool_drain_finishes_inflight_cancels_pending(self):
        from repro.experiments.orchestrator import request_drain, reset_drain

        # Distinct configs so the scheduler does not dedup the two slow
        # tasks into one execution: both must be genuinely in flight.
        tasks = [
            ExperimentTask(name, ExperimentConfig(scale=scale, sim_cache=False), name)
            for name, scale in (("slow_ok", 64), ("slow_ok", 65), ("ok", 66))
        ]
        options = OrchestratorOptions(jobs=2, timeout=60, retries=0, registry=REGISTRY)
        timer = threading.Timer(0.3, request_drain)
        timer.start()
        try:
            results = list(run_tasks(tasks, options))
        finally:
            timer.cancel()
            reset_drain()
        assert [r.status for r in results] == ["ok", "ok", "cancelled"]
        assert "drained" in results[2].error

    def test_inline_drain_cancels_the_rest(self):
        from repro.experiments.orchestrator import reset_drain

        options = OrchestratorOptions(jobs=1, retries=0, registry=REGISTRY)
        try:
            results = list(run_tasks(_tasks("drain_trigger", "ok", "ok"), options))
        finally:
            reset_drain()
        assert [r.status for r in results] == ["ok", "cancelled", "cancelled"]
        assert all("drained" in r.error for r in results[1:])

    def test_drained_manifest_validates_and_leaves_no_tmp(self, tmp_path):
        from repro.experiments.orchestrator import reset_drain

        options = OrchestratorOptions(jobs=1, retries=0, registry=REGISTRY)
        try:
            results = list(run_tasks(_tasks("drain_trigger", "ok"), options))
        finally:
            reset_drain()
        manifest = build_manifest(results, jobs=1, run_id="drained")
        sys.path.insert(0, str(TOOLS))
        try:
            from validate_manifest import validate
        finally:
            sys.path.remove(str(TOOLS))
        validate(manifest, json.loads(SCHEMA.read_text()))
        path = write_manifest(manifest, tmp_path)
        statuses = [r["status"] for r in json.loads(path.read_text())["results"]]
        assert statuses == ["ok", "cancelled"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_runner_sigterm_drains_cleanly(self, tmp_path):
        """End to end: SIGTERM a running battery process.  The in-flight
        experiment finishes, the rest are cancelled, a valid manifest is
        written (no .tmp litter), and the exit code flags the gap."""
        results_dir = tmp_path / "results"
        code = textwrap.dedent(
            """
            import sys, time

            import repro.experiments.registry as registry
            from repro.experiments import runner
            from repro.experiments.result import ExperimentResult

            def _fast(config):
                return ExperimentResult(
                    experiment="fast", title="Fast", headers=("k", "v"),
                    rows=[["answer", 42]], config=config.to_json(),
                )

            def _slow(config):
                time.sleep(2.5)
                return _fast(config)

            registry.EXPERIMENTS.clear()
            registry.EXPERIMENTS.update({"slow": _slow, "fast": _fast})
            print("READY", flush=True)
            sys.exit(runner.main([
                "slow", "fast", "fast", "--jobs", "1", "--timeout", "60",
                "--retries", "0", "--no-sim-cache",
                "--results-dir", sys.argv[1],
            ]))
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(results_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            for line in proc.stdout:
                if "READY" in line:
                    break
            time.sleep(1.0)  # SIGTERM lands while "slow" is in flight
            proc.send_signal(signal.SIGTERM)
            out = proc.stdout.read()
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert rc == 1, out
        assert "drained on SIGTERM" in out
        manifests = list(results_dir.glob("run-*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        statuses = [r["status"] for r in manifest["results"]]
        assert statuses == ["ok", "cancelled", "cancelled"]
        sys.path.insert(0, str(TOOLS))
        try:
            from validate_manifest import validate
        finally:
            sys.path.remove(str(TOOLS))
        validate(manifest, json.loads(SCHEMA.read_text()))
        assert not list(results_dir.glob("*.tmp"))


class TestShardedFailurePaths:
    """A sharded simulation dying inside an orchestrator worker: the
    failure must stay contained (retry -> clean manifest), and neither
    path may leak shard worker processes or cache temp files."""

    @staticmethod
    def _assert_all_gone(pid_file: Path, deadline_s: float = 15.0):
        pids = [int(line) for line in pid_file.read_text().split()]
        assert pids, "experiment never recorded its worker pids"
        deadline = time.monotonic() + deadline_s
        for pid in pids:
            while True:
                try:
                    os.kill(pid, 0)
                except (ProcessLookupError, PermissionError):
                    break  # reaped (or reused by another uid): not ours
                assert time.monotonic() < deadline, f"pid {pid} still alive"
                time.sleep(0.05)
        return pids

    def test_crash_mid_shard_retries_to_clean_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SHARD_FLAG", str(tmp_path / "flag"))
        monkeypatch.setenv("REPRO_TEST_SHARD_PIDS", str(tmp_path / "pids"))
        options = OrchestratorOptions(jobs=2, retries=1, registry=REGISTRY)
        results = list(run_tasks(_tasks("shard_crash"), options))
        assert results[0].status == "ok"
        assert results[0].attempts == 2  # first attempt lost a shard worker

        # the retried run's numbers equal an undisturbed serial run
        from repro.machine.hierarchy import Hierarchy

        serial = Hierarchy.from_spec(_shard_spec(), "auto")
        addrs, writes = _shard_trace()
        serial.run_trace(addrs, writes)
        serial.flush()
        assert results[0].rows == [["memory_bytes", serial.result().memory_bytes]]

        # 2 shard pids per attempt, all reaped: no zombies, no orphans
        pids = self._assert_all_gone(tmp_path / "pids")
        assert len(pids) == 4

        manifest = build_manifest(results, jobs=2, run_id="shardcrash")
        out = tmp_path / "results"
        write_manifest(manifest, out)
        assert json.loads((out / "run-shardcrash.json").read_text())["results"][0][
            "status"
        ] == "ok"
        assert not list(out.glob("*.tmp"))

    def test_timeout_with_partial_shards_reaps_process_tree(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_SHARD_PIDS", str(tmp_path / "pids"))
        cache_dir = tmp_path / "cache"
        cfg = ExperimentConfig(sim_cache=True, sim_cache_dir=str(cache_dir))
        tasks = [ExperimentTask("shard_hang", cfg, "shard_hang")]
        options = OrchestratorOptions(
            jobs=2, timeout=2.0, retries=0, registry=REGISTRY
        )
        start = time.monotonic()
        results = list(run_tasks(tasks, options))
        assert time.monotonic() - start < 30
        assert results[0].status == "timeout"

        # orchestrator worker + its 2 shard children, all gone
        pids = self._assert_all_gone(tmp_path / "pids")
        assert len(pids) == 3

        # the disk put before the hang landed atomically; the kill left
        # no .repro_cache temp files behind
        assert any(cache_dir.rglob("*")), "disk sim-cache entry missing"
        assert not list(cache_dir.rglob("*.tmp"))


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        """The same battery serially and with 4 workers, sharing one
        on-disk sim cache (the second run also exercises warm reads)."""
        cache_dir = str(tmp_path_factory.mktemp("simcache"))
        cfg = ExperimentConfig(scale=256, sim_cache=True, sim_cache_dir=cache_dir)
        names = ["fig1", "fig3", "fig5"]
        serial = run_battery(names, cfg, jobs=1)
        parallel = run_battery(names, cfg, jobs=4)
        return (
            build_manifest(serial, jobs=1, run_id="serial"),
            build_manifest(parallel, jobs=4, run_id="parallel"),
        )

    def test_all_ok(self, manifests):
        for manifest in manifests:
            assert [r["status"] for r in manifest["results"]] == ["ok"] * 3

    def test_bit_identical_comparable_portion(self, manifests):
        serial, parallel = manifests
        assert comparable_manifest(serial) == comparable_manifest(parallel)

    def test_rendered_tables_identical(self, manifests):
        serial, parallel = manifests
        for a, b in zip(serial["results"], parallel["results"]):
            ta = ExperimentResult.from_json(a).table()
            tb = ExperimentResult.from_json(b).table()
            if not ta.volatile and not tb.volatile:
                assert ta.render() == tb.render()

    def test_manifest_validates_against_schema(self, manifests, tmp_path):
        sys.path.insert(0, str(TOOLS))
        try:
            from validate_manifest import validate
        finally:
            sys.path.remove(str(TOOLS))
        schema = json.loads(SCHEMA.read_text())
        for manifest in manifests:
            validate(manifest, schema)

    def test_write_manifest_atomic_and_readable(self, manifests, tmp_path):
        path = write_manifest(manifests[0], tmp_path)
        assert path == tmp_path / "run-serial.json"
        data = json.loads(path.read_text())
        from repro.experiments.result import SCHEMA_VERSION

        assert data["schema_version"] == SCHEMA_VERSION
        assert not list(tmp_path.glob("*.tmp"))


class TestResultRecord:
    def test_json_roundtrip_renders_identically(self):
        cfg = ExperimentConfig(sim_cache=False)
        result = run_battery(["fig4"], cfg)[0]
        clone = ExperimentResult.from_json(result.to_json())
        assert clone.table().render() == result.table().render()
        assert clone.comparable_json() == result.comparable_json()
        assert clone.detail is None  # detail never crosses serialization

    def test_comparable_json_masks_volatile_columns(self):
        r = ExperimentResult(
            experiment="x",
            headers=("name", "time (ms)"),
            rows=[["a", 1.23], ["b", 4.56]],
            volatile_columns=("time (ms)",),
            timings={"total": 9.0},
        )
        data = r.comparable_json()
        assert data["rows"] == [["a", None], ["b", None]]
        assert "timings" not in data and "attempts" not in data

    def test_failed_result_schema(self):
        r = failed_result("fig1", ExperimentConfig(), "boom", status="timeout", attempts=3)
        assert not r.ok
        assert "timeout" in r.describe_failure()
        data = ExperimentResult.from_json(r.to_json())
        assert data.status == "timeout" and data.attempts == 3

    def test_unknown_attribute_raises_without_warning(self):
        import warnings

        cfg = ExperimentConfig(sim_cache=False)
        result = run_battery(["fig4"], cfg)[0]
        assert result.detail.optimal_cost == 7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AttributeError):
                result.optimal_cost

    def test_summary_table_lists_failures(self):
        ok = ExperimentResult(experiment="fig1", timings={"total": 0.1})
        bad = failed_result("e9", ExperimentConfig(), "boom", attempts=2)
        table = summary_table([ok, bad])
        assert "e9" in table.note and "boom" in table.note
        assert len(table.rows) == 2
