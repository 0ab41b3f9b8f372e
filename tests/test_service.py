"""The micro-batching service: wire protocol, bit-identity with local
execution, dedup, admission control, progress streaming, drain."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.errors import ReproError
from repro.experiments.plan import SimRequest
from repro.service import executor, protocol
from repro.service import server as server_module
from repro.service.client import (
    ServiceClient,
    ServiceConnectionClosed,
    ServiceError,
    _parse_address,
)
from repro.service.protocol import (
    ProtocolError,
    decode,
    encode,
    sim_request_from_json,
    sim_request_to_json,
)
from repro.service.server import BackgroundServer, ServeConfig

from .helpers import reduction_program, simple_stream_program

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "result.schema.json"


def _requests(machine, sizes=(32, 64, 96), program=None):
    program = program or simple_stream_program(n=128)
    return [
        SimRequest(program=program, machine=machine, params={"N": n}) for n in sizes
    ]


def _counters(result):
    return (result.run.counters, result.run.time, result.seconds)


def _validate_manifest(manifest):
    sys.path.insert(0, str(TOOLS))
    try:
        from validate_manifest import validate
    finally:
        sys.path.remove(str(TOOLS))
    validate(manifest, json.loads(SCHEMA.read_text()))


@pytest.fixture
def held_worker(monkeypatch):
    """Hold every simulate batch on the worker until ``release`` is set;
    ``started`` is set when the first batch reaches the worker."""
    gate = SimpleNamespace(started=threading.Event(), release=threading.Event())
    run = executor.run_simulate_job

    def held(*args, **kwargs):
        gate.started.set()
        gate.release.wait(60)
        return run(*args, **kwargs)

    monkeypatch.setattr(executor, "run_simulate_job", held)
    yield gate
    gate.release.set()


def _wait_queued(client, depth):
    """Poll ``stats`` until ``depth`` points wait in the queue."""
    deadline = time.monotonic() + 30
    while client.stats()["queue_depth"] < depth:
        assert time.monotonic() < deadline, "points never queued"
        time.sleep(0.005)


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        msg = {"op": "ping", "id": 7, "nested": {"a": [1, 2]}}
        assert decode(encode(msg)) == msg

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")

    def test_sim_request_roundtrip(self, tiny_machine):
        request = SimRequest(
            program=simple_stream_program(),
            machine=tiny_machine,
            params={"N": 48},
            passes=2,
            warmup_passes=1,
            flush=False,
        )
        clone = sim_request_from_json(sim_request_to_json(request))
        from repro.experiments.plan import request_key

        assert request_key(clone) == request_key(request)
        assert clone.passes == 2 and clone.warmup_passes == 1 and clone.flush is False

    def test_a_resent_request_is_rendered_once(self, tiny_machine, monkeypatch):
        from repro.experiments import plan
        from repro.lang.printer import render

        calls = []
        monkeypatch.setattr(plan, "render", lambda p: calls.append(p) or render(p))
        request = SimRequest(program=simple_stream_program(), machine=tiny_machine)
        wires = [sim_request_to_json(request) for _ in range(5)]
        assert len(calls) == 1
        assert all(w["program"] == render(request.program) for w in wires)
        # The identity's content key reads the same text: still one render.
        assert request.identity.text is request.text
        plan.request_key(request)
        assert len(calls) == 1

    def test_sim_request_validation(self, tiny_machine):
        good = sim_request_to_json(
            SimRequest(program=simple_stream_program(), machine=tiny_machine)
        )
        for breakage in (
            lambda d: d.pop("program"),
            lambda d: d.update(program="not a program {"),
            lambda d: d.pop("machine"),
            lambda d: d.update(machine={"name": "x"}),
            lambda d: d.update(params=[1, 2]),
            lambda d: d.update(passes=0),
            lambda d: d.update(passes="many"),
        ):
            broken = json.loads(json.dumps(good))
            breakage(broken)
            with pytest.raises(ProtocolError):
                sim_request_from_json(broken)

    def test_parse_address_forms(self):
        assert _parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert _parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert _parse_address("tcp:127.0.0.1:9178") == ("tcp", ("127.0.0.1", 9178))
        assert _parse_address("127.0.0.1:9178") == ("tcp", ("127.0.0.1", 9178))
        with pytest.raises(ReproError):
            _parse_address("9178")


class TestServedBitIdentity:
    @pytest.fixture(scope="class")
    def background(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("sock") / "repro.sock")
        with BackgroundServer(ServeConfig(unix_path=path)) as bg:
            yield bg

    def test_single_point_matches_local_simulate(self, background, tiny_machine):
        program = simple_stream_program(n=128)
        direct = repro.simulate(program, tiny_machine, params={"N": 64})
        with ServiceClient(background.address) as client:
            served = client.simulate(program, tiny_machine, params={"N": 64})
        assert _counters(served) == _counters(direct)

    def test_sweep_matches_simulate_batch(self, background, tiny_machine):
        requests = _requests(tiny_machine) + _requests(
            tiny_machine, sizes=(16, 48), program=reduction_program()
        )
        direct = repro.simulate_batch(requests, plan=True)
        with ServiceClient(background.address) as client:
            served = client.simulate_batch(requests)
        assert [_counters(s) for s in served] == [_counters(d) for d in direct]

    def test_predict_matches_local_predict(self, background, tiny_machine):
        program = simple_stream_program(n=128)
        direct = repro.predict(program, tiny_machine, params={"N": 64})
        with ServiceClient(background.address) as client:
            served = client.predict_batch(
                [SimRequest(program=program, machine=tiny_machine, params={"N": 64})]
            )
        assert _counters(served[0]) == _counters(direct)

    def test_progress_events_stream_in_order(self, background, tiny_machine):
        events = []
        with ServiceClient(background.address) as client:
            client.simulate_batch(
                _requests(tiny_machine), progress=lambda d, t: events.append((d, t))
            )
        assert events == [(1, 3), (2, 3), (3, 3)]

    def test_concurrent_clients_all_bit_identical(self, background, tiny_machine):
        requests = _requests(tiny_machine, sizes=(32, 64, 96, 128))
        direct = [_counters(r) for r in repro.simulate_batch(requests, plan=True)]
        outcomes: dict[int, object] = {}

        def one_client(i):
            try:
                with ServiceClient(background.address, tenant=f"t{i}") as client:
                    outcomes[i] = [_counters(r) for r in client.simulate_batch(requests)]
            except Exception as exc:  # noqa: BLE001 — surfaced by the assert below
                outcomes[i] = exc

        threads = [threading.Thread(target=one_client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert outcomes and all(outcomes[i] == direct for i in outcomes), outcomes

    def test_duplicate_points_dedup_onto_one_future(self, background, tiny_machine):
        # Fresh machine name -> fresh content keys -> the duplicates in
        # this sweep must be answered by the one in-flight execution.
        from dataclasses import replace

        machine = replace(tiny_machine, name="TinyDedup")
        r = _requests(machine, sizes=(40,))[0]
        with ServiceClient(background.address) as client:
            before = client.stats()["dedup_hits"]
            served = client.simulate_batch([r, r, r])
            after = client.stats()["dedup_hits"]
        assert after - before == 2
        assert _counters(served[0]) == _counters(served[1]) == _counters(served[2])

    def test_stats_shape_and_telemetry(self, background):
        with ServiceClient(background.address, tenant="probe") as client:
            assert client.ping()
            stats = client.stats()
        assert stats["requests"] > 0 and stats["completed"] > 0
        assert stats["batches"] > 0 and stats["batch_max"] >= 1
        assert stats["latency_p50_ms"] is not None
        assert stats["uptime_s"] > 0
        assert "probe" in stats["tenants"]
        # The block is exactly what the manifest schema pins down.
        from repro.experiments.orchestrator import build_manifest

        _validate_manifest(build_manifest([], jobs=1, service=stats))


def _submit(address, requests, outcomes, i):
    """One client's sweep (thread target); the result or error lands in
    ``outcomes[i]``."""
    try:
        with ServiceClient(address, tenant=f"t{i}") as client:
            outcomes[i] = [_counters(r) for r in client.simulate_batch(requests)]
    except Exception as exc:  # noqa: BLE001 — surfaced by the caller's assert
        outcomes[i] = exc


class TestContinuousBatching:
    def test_points_queued_behind_a_running_batch_form_one_batch(
        self, tiny_machine, held_worker
    ):
        """While the worker is held, points from three clients queue up;
        once it is free, exactly one next batch answers all of them."""
        sweeps = [_requests(tiny_machine, sizes=(n,)) for n in (24, 40, 56, 72)]
        direct = [[_counters(r) for r in repro.simulate_batch(s, plan=True)] for s in sweeps]
        outcomes: dict[int, object] = {}
        with BackgroundServer(ServeConfig()) as bg, ServiceClient(bg.address) as probe:
            threads = [
                threading.Thread(target=_submit, args=(bg.address, sweep, outcomes, i))
                for i, sweep in enumerate(sweeps)
            ]
            threads[0].start()
            assert held_worker.started.wait(30)  # batch 1 is on the worker
            for t in threads[1:]:
                t.start()
            _wait_queued(probe, 3)
            held_worker.release.set()
            for t in threads:
                t.join(timeout=120)
            stats = probe.stats()
        assert [outcomes.get(i) for i in range(4)] == direct
        assert (stats["batches"], stats["batch_max"]) == (2, 3)

    def test_lone_request_on_idle_server_is_its_own_batch(self, tiny_machine):
        with BackgroundServer(ServeConfig()) as bg, ServiceClient(bg.address) as client:
            client.simulate_batch(_requests(tiny_machine, sizes=(16,)))
            stats = client.stats()
            assert (stats["batches"], stats["batch_max"]) == (1, 1)
            client.simulate_batch(_requests(tiny_machine, sizes=(8, 24, 40)))
            stats = client.stats()
            assert (stats["batches"], stats["batch_max"]) == (2, 3)

    def test_each_point_is_parsed_once(self, tiny_machine, monkeypatch):
        calls: list = []
        parse = protocol.sim_request_from_json

        def counting(data):
            calls.append(data)
            return parse(data)

        for module in (protocol, server_module, executor):
            if getattr(module, "sim_request_from_json", None) is parse:
                monkeypatch.setattr(module, "sim_request_from_json", counting)
        requests = _requests(tiny_machine, sizes=(16, 32, 48))
        with BackgroundServer(ServeConfig()) as bg, ServiceClient(bg.address) as client:
            client.simulate_batch(requests)
            client.predict_batch(requests[:2])
        # The predict points repeat two simulate points: the admission
        # memo answers them without a second parse.
        assert len(calls) == 3

    def test_fork_pool_server_is_bit_identical(self, tiny_machine):
        """``jobs=1``: parsed points cross a pickle boundary to a forked
        worker and still answer bit-identically."""
        requests = _requests(tiny_machine) + _requests(
            tiny_machine, sizes=(16, 48), program=reduction_program()
        )
        direct = [_counters(r) for r in repro.simulate_batch(requests, plan=True)]
        predicted = repro.predict(requests[0].program, tiny_machine, params=requests[0].params)
        with BackgroundServer(ServeConfig(jobs=1)) as bg, ServiceClient(bg.address) as client:
            served = client.simulate_batch(requests)
            served_predict = client.predict_batch(requests[:1])
        assert [_counters(s) for s in served] == direct
        assert _counters(served_predict[0]) == _counters(predicted)


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call."""
    calls: list = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestAdmissionMemo:
    def test_point_sent_in_many_requests_is_parsed_and_keyed_once(
        self, tiny_machine, monkeypatch
    ):
        from repro.experiments import plan as plan_module
        from repro.interp import executor as interp_executor

        parses = _counting(monkeypatch, protocol, "sim_request_from_json")
        identities = _counting(monkeypatch, plan_module, "point_identity")
        keys = _counting(monkeypatch, interp_executor, "simulation_key")
        requests = _requests(tiny_machine, sizes=(16, 32, 48))
        direct = [_counters(r) for r in repro.simulate_batch(requests, plan=True)]
        with BackgroundServer(ServeConfig()) as bg, ServiceClient(bg.address) as client:
            first = client.simulate_batch(requests)
            parsed, derived, keyed = len(parses), len(identities), len(keys)
            again = [client.simulate_batch(requests) for _ in range(4)]
            stats = client.stats()
        assert [_counters(r) for r in first] == direct
        assert all([_counters(r) for r in served] == direct for served in again)
        assert parsed == 3 and derived == 3 + len(requests)  # + the local run
        # Four more requests of the same points: no parse, no identity,
        # no hash — only sim-cache hits in the worker.
        assert (len(parses), len(identities), len(keys)) == (parsed, derived, keyed)
        assert stats["sim_cache"]["hits"] >= 4 * len(requests)

    def test_memo_evicts_past_its_bound_and_stays_bit_identical(
        self, tiny_machine, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_ADMISSION_MEMO_POINTS", 2)
        parses = _counting(monkeypatch, protocol, "sim_request_from_json")
        requests = _requests(tiny_machine, sizes=(8, 16, 24, 32))
        direct = [_counters(r) for r in repro.simulate_batch(requests, plan=True)]
        with BackgroundServer(ServeConfig()) as bg, ServiceClient(bg.address) as client:
            for request in requests:
                client.simulate_batch([request])
            memo = bg.server._admission_memo
            assert len(memo) == 2
            assert [p.request.params for p in memo.values()] == [{"N": 24}, {"N": 32}]
            # The evicted points are parsed again and answer as before.
            served = client.simulate_batch(requests[:2])
            assert [p.request.params for p in memo.values()] == [{"N": 8}, {"N": 16}]
        assert [_counters(r) for r in served] == direct[:2]
        assert len(parses) == 4 + 2

    def test_malformed_point_is_rejected_every_time_never_memoized(
        self, tiny_machine, monkeypatch
    ):
        parses = _counting(monkeypatch, protocol, "sim_request_from_json")
        good = sim_request_to_json(_requests(tiny_machine, sizes=(16,))[0])
        unknown = dict(good, params={"M": 4})  # parses, but fails binding
        with BackgroundServer(ServeConfig()) as bg, ServiceClient(bg.address) as client:
            for bad in ({"program": "x("}, unknown, unknown, {"program": "x("}):
                with pytest.raises(ServiceError) as info:
                    client._call({"op": "simulate", "request": bad})
                assert info.value.code == "invalid"
            assert len(bg.server._admission_memo) == 0
            assert client._call({"op": "simulate", "request": good})
            assert len(bg.server._admission_memo) == 1
            assert client.stats()["rejected"] == {"invalid": 4}
        assert len(parses) == 5  # a rejected point is parsed anew each time


class TestAdmissionControl:
    def test_oversized_sweep_rejected_queue_full(self, tiny_machine):
        config = ServeConfig(max_queue=2)
        with BackgroundServer(config) as bg, ServiceClient(bg.address) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as info:
                client.simulate_batch(_requests(tiny_machine, sizes=(8, 16, 32, 64)))
            assert info.value.code == "queue_full"
            assert time.monotonic() - start < 10  # explicit reject, no hang
            # The connection survives a reject and smaller work succeeds.
            assert len(client.simulate_batch(_requests(tiny_machine, sizes=(8,)))) == 1
            assert client.stats()["rejected"] == {"queue_full": 1}

    def test_tenant_quota_rejected_over_quota(self, tiny_machine):
        config = ServeConfig(tenant_quota=2)
        with BackgroundServer(config) as bg, ServiceClient(bg.address, tenant="greedy") as client:
            with pytest.raises(ServiceError) as info:
                client.simulate_batch(_requests(tiny_machine, sizes=(8, 16, 32)))
            assert info.value.code == "over_quota"
            stats = client.stats()
            assert stats["tenants"]["greedy"]["rejected"] == 1

    def test_invalid_requests_rejected_not_fatal(self, tiny_machine):
        with BackgroundServer(ServeConfig()) as bg:
            with ServiceClient(bg.address) as client:
                # Raw garbage line: explicit invalid reject, connection lives.
                client._file.write(b"this is not json\n")
                client._file.flush()
                reply = decode(client._file.readline())
                assert reply["ok"] is False and reply["error"]["code"] == "invalid"
                with pytest.raises(ServiceError) as info:
                    client._call({"op": "frobnicate"})
                assert info.value.code == "invalid"
                with pytest.raises(ServiceError) as info:
                    client._call({"op": "simulate", "request": {"program": "x("}})
                assert info.value.code == "invalid"
                assert client.ping()

    def test_draining_server_rejects_new_work(self, tiny_machine, held_worker):
        """While a drain is in progress (in-flight sweep held on the
        worker), new submissions get an explicit ``draining`` reject —
        and the in-flight sweep still completes."""
        requests = _requests(tiny_machine, sizes=(32, 64))
        direct = [_counters(r) for r in repro.simulate_batch(requests, plan=True)]
        with BackgroundServer(ServeConfig()) as bg:
            served: list = []

            def submit():
                with ServiceClient(bg.address) as client:
                    served.extend(client.simulate_batch(requests))

            worker = threading.Thread(target=submit)
            worker.start()
            assert held_worker.started.wait(30)  # the sweep's batch is on the worker
            with ServiceClient(bg.address) as other:
                other.shutdown()
                with pytest.raises(ServiceError) as info:
                    other.simulate_batch(_requests(tiny_machine, sizes=(8,)))
                assert info.value.code == "draining"
            held_worker.release.set()
            worker.join(timeout=120)
        assert [_counters(s) for s in served] == direct


class TestClientErrors:
    def test_end_of_stream_before_reply_is_a_connection_error(self):
        """A server that reads the request and closes without replying
        (a drain or a crash) raises an error that is both a
        ``ReproError`` and a ``ConnectionError``."""
        listener = socket.create_server(("127.0.0.1", 0))

        def read_then_close():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                stream.readline()

        server = threading.Thread(target=read_then_close)
        server.start()
        try:
            with ServiceClient(f"tcp:127.0.0.1:{listener.getsockname()[1]}") as client:
                with pytest.raises(ServiceConnectionClosed) as info:
                    client.ping()
        finally:
            server.join(timeout=30)
            listener.close()
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, ConnectionError)


class TestDrainAndManifest:
    def test_drain_writes_manifest_with_service_block(self, tiny_machine, tmp_path):
        config = ServeConfig(results_dir=str(tmp_path), unix_path=str(tmp_path / "s.sock"))
        with BackgroundServer(config) as bg:
            with ServiceClient(bg.address) as client:
                result = client.run_experiment("fig4", {"sim_cache": False})
                assert result.status == "ok"
                client.simulate_batch(_requests(tiny_machine, sizes=(16,)))
        manifests = list(tmp_path.glob("run-*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        _validate_manifest(manifest)
        assert [r["experiment"] for r in manifest["results"]] == ["fig4"]
        service = manifest["service"]
        assert service["completed"] == 2
        assert service["batches"] >= 2  # experiment batch + simulate batch
        assert not list(tmp_path.glob("*.tmp"))

    def test_inflight_work_finishes_during_drain(self, tiny_machine, held_worker):
        """shutdown() while a sweep is in flight: the waiting client still
        gets its (bit-identical) answer before the server exits."""
        requests = _requests(tiny_machine, sizes=(32, 64))
        direct = [_counters(r) for r in repro.simulate_batch(requests, plan=True)]
        with BackgroundServer(ServeConfig()) as bg:
            served: list = []

            def submit():
                with ServiceClient(bg.address) as client:
                    served.extend(client.simulate_batch(requests))

            worker = threading.Thread(target=submit)
            worker.start()
            # The held worker keeps the sweep in flight while shutdown lands.
            assert held_worker.started.wait(30)
            with ServiceClient(bg.address) as other:
                other.shutdown()
            held_worker.release.set()
            worker.join(timeout=120)
        assert [_counters(s) for s in served] == direct


class TestExperimentOp:
    def test_unknown_experiment_is_a_failed_record(self):
        with BackgroundServer(ServeConfig()) as bg:
            with ServiceClient(bg.address) as client:
                result = client.run_experiment("not_an_experiment")
        assert result.status == "failed"
        assert "unknown experiment" in result.error

    def test_experiment_config_is_scoped_to_its_job(self, tiny_machine, monkeypatch):
        """A served experiment runs under its own config; the daemon's
        memo and the options its next batch runs under are untouched."""
        from repro.machine.engine.simcache import get_sim_cache
        from repro.options import ExecOptions, current_options

        seen = []
        run = executor.run_simulate_job

        def recording(*args, **kwargs):
            seen.append(current_options())
            return run(*args, **kwargs)

        monkeypatch.setattr(executor, "run_simulate_job", recording)
        memo = get_sim_cache()
        program = simple_stream_program(n=128)
        request = SimRequest(program=program, machine=tiny_machine, params={"N": 64})
        config = {"engine": "reference", "sim_cache": False, "predict": True, "cores": 4}
        with BackgroundServer(ServeConfig()) as bg:
            with ServiceClient(bg.address) as client:
                result = client.run_experiment("fig4", config)
                served = client.simulate(program, tiny_machine, params={"N": 64})
        assert result.status == "ok"
        assert result.config["engine"] == "reference" and result.config["cores"] == 4
        assert get_sim_cache() is memo
        assert seen == [ExecOptions()]
        assert current_options() == ExecOptions()
        (direct,) = repro.simulate_batch([request])
        assert _counters(served) == _counters(direct)

    def test_misspelled_experiment_option_is_rejected_invalid(self):
        with BackgroundServer(ServeConfig()) as bg:
            with ServiceClient(bg.address) as client:
                with pytest.raises(ServiceError) as info:
                    client.run_experiment("fig4", {"coers": 4})
                assert info.value.code == "invalid"
                assert "'coers'" in str(info.value)
                assert client.stats()["rejected"] == {"invalid": 1}

    def test_bad_experiment_config_is_rejected_invalid(self):
        from repro.machine.engine.simcache import get_sim_cache

        bad = (
            {"sim_cache_dir": "elsewhere"},
            {"cores": 0},
            {"shards": "x"},
            {"shards": 2.5},
            {"chunk_accesses": "5"},
            {"scale": 0},
            {"scale": "x"},
        )
        memo = get_sim_cache()
        with BackgroundServer(ServeConfig()) as bg:
            with ServiceClient(bg.address) as client:
                for config in bad:
                    with pytest.raises(ServiceError) as info:
                        client.run_experiment("fig4", config)
                    assert info.value.code == "invalid"
                assert client.ping()
                stats = client.stats()
        assert stats["rejected"].get("invalid") == len(bad)
        assert "internal" not in stats["rejected"]
        assert get_sim_cache() is memo
