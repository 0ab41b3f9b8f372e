"""The analytic balance predictor and its predict-then-verify machinery.

Two layers under test:

* :mod:`repro.balance.analytic` — the trace-free traffic model.  The
  differential suite runs it against the exact simulator over streaming
  kernels (where the model is provably tight) and random geometries
  (where only the documented bands and structural invariants hold).
* :mod:`repro.experiments.predict` — the trust machinery: spot-check
  sampling, the tolerance gate, fallback accounting, and the manifest
  ``analytic`` block (SCHEMA_VERSION 5).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.balance.analytic import (
    _collect,
    _covered_sets,
    _Group,
    _lines,
    _sampled_traffic,
    analyze,
    predict_run,
)
from repro.errors import AnalysisError
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import build_manifest, run_battery
from repro.experiments.predict import (
    channel_errors,
    collect_analytic_telemetry,
    run_or_predict,
    summarize_analytic,
)
from repro.experiments.result import SCHEMA_VERSION
from repro.interp.executor import execute
from repro.machine import exemplar, origin2000
from repro.machine.layout import build_layout
from repro.options import ExecOptions, use_options
from repro import programs
from repro.programs import (
    BLAS1_KERNELS,
    KERNEL_NAMES,
    blas1,
    convolution,
    dmxpy,
    fft,
    jacobi,
    make_kernel,
    matmul,
    matmul_blocked,
    nas_sp,
    paper_examples,
    sweep3d,
)

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "result.schema.json"
TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _predicting(spot_check, tolerance):
    """Predict mode on for the enclosed block."""
    return use_options(
        ExecOptions(predict=True, spot_check=spot_check, predict_tolerance=tolerance)
    )


def _channel_rel_errors(prog, machine, **kwargs):
    est = analyze(prog, machine, **kwargs)
    run = execute(prog, machine, sim_cache=False, **kwargs)
    exact = run.counters.channel_bytes
    return [
        (p - e) / max(e, 1) for p, e in zip(est.channel_bytes, exact)
    ], est, run


class TestModelExactCases:
    """Streaming kernels: the model's miss counts are compulsory-only and
    match the simulator (near-)exactly."""

    @pytest.mark.parametrize("name", ["1w1r", "1w2r", "2w3r"])
    def test_streaming_kernels_tight(self, name):
        machine = origin2000(scale=256)
        errs, est, run = _channel_rel_errors(make_kernel(name, 4096), machine)
        # Register channel is counted, not modelled: exact by construction.
        assert est.register_bytes == run.counters.register_bytes
        for err in errs:
            assert abs(err) < 0.02

    def test_convolution_tight(self):
        machine = origin2000(scale=256)
        errs, _, _ = _channel_rel_errors(convolution(4096), machine)
        for err in errs:
            assert abs(err) < 0.02

    def test_jacobi_memory_tight_mid_banded(self):
        """2D stencil: the memory channel is compulsory-dominated and
        tight; the L2-L1 channel carries unmodelled 2-way conflict
        misses between the row streams — the documented-loose band."""
        machine = origin2000(scale=256)
        errs, est, run = _channel_rel_errors(jacobi(96), machine)
        assert est.register_bytes == run.counters.register_bytes
        assert abs(errs[-1]) < 0.02  # memory channel
        assert abs(errs[1]) < 0.70  # mid channel: documented band

    def test_exemplar_conflict_term(self):
        """Footnote 3: the direct-mapped Exemplar thrashes lockstep
        kernels placed cache-size apart; padding removes the conflict.
        The model reproduces both from the same layout math."""
        machine = exemplar(scale=256)
        errs, _, _ = _channel_rel_errors(make_kernel("1w1r", 4096), machine)
        assert abs(errs[-1]) < 0.02
        from repro.machine import LayoutPolicy

        errs, _, _ = _channel_rel_errors(
            make_kernel("1w1r", 4096),
            machine,
            layout_policy=LayoutPolicy(alignment=32, pad_bytes=32),
        )
        assert abs(errs[-1]) < 0.02

    def test_multi_pass_steady_state(self):
        machine = origin2000(scale=256)
        prog = make_kernel("1w2r", 4096)
        errs, _, _ = _channel_rel_errors(prog, machine, passes=4)
        for err in errs:
            assert abs(err) < 0.02


class TestModelDifferential:
    """Random geometries: documented bands + structural invariants."""

    @given(
        n=st.integers(min_value=64, max_value=3000),
        name=st.sampled_from(
            ["1w1r", "2w2r", "1w2r", "1w3r", "1w4r", "2w3r", "2w5r", "3w6r"]
        ),
        scale=st.sampled_from([16, 64, 256]),
    )
    @settings(settings.get_profile("repro-default"))
    # Resonance windows (array strides near a multiple of half an L2
    # way), where the working-set model alone was off by up to 95%.
    @example(n=357, name="2w5r", scale=256)
    @example(n=362, name="2w5r", scale=256)
    @example(n=361, name="3w6r", scale=256)
    @example(n=865, name="1w3r", scale=256)
    @example(n=875, name="3w6r", scale=256)
    @example(n=1385, name="2w5r", scale=256)
    @example(n=1897, name="3w6r", scale=64)
    def test_streaming_band(self, n, name, scale):
        machine = origin2000(scale=scale)
        prog = make_kernel(name, n)
        errs, est, run = _channel_rel_errors(prog, machine)
        assert est.register_bytes == run.counters.register_bytes
        # Memory channel: tight band plus a few-lines floor for tiny
        # working sets straddling a cache-size boundary.
        line = machine.cache_levels[-1].geometry.line_size
        exact = run.counters.channel_bytes[-1]
        assert abs(est.channel_bytes[-1] - exact) <= max(0.10 * exact, 8 * line)

    def test_cross_group_set_pressure(self):
        """Five 840 B arrays under an 8 KiB 2-way L2 stack three deep in
        half the sets: a resident-by-size working set still thrashes.
        The cross-group pressure term must keep the memory channel in
        band where the pure capacity model was ~9x under."""
        machine = origin2000(scale=512)
        errs, _, _ = _channel_rel_errors(make_kernel("2w5r", 105), machine)
        assert abs(errs[-1]) < 0.30

    @given(
        n=st.integers(min_value=32, max_value=1500),
        scale=st.sampled_from([64, 256]),
        passes=st.integers(min_value=1, max_value=3),
    )
    @settings(settings.get_profile("repro-fast"))
    def test_structural_invariants(self, n, scale, passes):
        machine = origin2000(scale=scale)
        est = analyze(convolution(n), machine, passes=passes)
        accesses = est.loads + est.stores
        for lv in est.levels:
            assert 0 <= lv.misses <= lv.accesses
            assert 0 <= lv.writebacks <= lv.misses
        assert est.levels[0].accesses == accesses
        # Each level consumes the previous level's outgoing events.
        for above, below in zip(est.levels, est.levels[1:]):
            assert below.accesses == above.events_out


def _only_nest(prog, machine):
    bound = prog.bind_params(None)
    layout = build_layout(prog, bound, machine.default_layout)
    (nest,), _, _ = _collect(prog, bound, layout)
    return nest


class TestResonance:
    """Lockstep streams crowding one set window: the nest's counts come
    from short exact windows, extrapolated over the trip count."""

    @pytest.mark.parametrize(
        "name,n,scale",
        [
            ("3w6r", 361, 256),  # three streams in one L2 set
            ("2w5r", 357, 256),  # three streams within one line
            ("1w3r", 865, 256),
            ("3w6r", 1897, 64),
        ],
    )
    def test_every_level_tracks_the_simulator(self, name, n, scale):
        machine = origin2000(scale=scale)
        prog = make_kernel(name, n)
        assert _sampled_traffic(_only_nest(prog, machine), machine) is not None
        est = analyze(prog, machine)
        run = execute(prog, machine, sim_cache=False)
        for lv, exact in zip(est.levels, run.counters.level_stats):
            assert abs(lv.misses - exact.misses) <= max(0.05 * exact.misses, 2)
            assert abs(lv.writebacks - exact.writebacks) <= max(
                0.05 * exact.writebacks, 2
            )

    def test_spread_streams_left_to_the_model(self):
        """Padding spreads 2w3r's streams over the sets at Origin/16:
        no window is crowded, so the working-set model answers."""
        machine = origin2000(scale=16)
        nest = _only_nest(make_kernel("2w3r", 1000), machine)
        assert _sampled_traffic(nest, machine) is None


# Every program builder of repro.programs, at sizes small enough to
# simulate: builder name -> programs.
_BUILDERS = {
    "make_kernel": [make_kernel(k, 512) for k in KERNEL_NAMES],
    "blas1": [blas1(k, 512) for k in BLAS1_KERNELS],
    "convolution": [convolution(512)],
    "dmxpy": [dmxpy(256, 4)],
    "fft": [fft(256)],
    "jacobi": [jacobi(24, 2)],
    "matmul": [matmul(24, order) for order in ("ijk", "jki")],
    "matmul_blocked": [matmul_blocked(24, tile=6)],
    "nas_sp": [nas_sp(12, 12)],
    "sweep3d": [sweep3d(8)],
    **{
        name: [getattr(paper_examples, name)(n)]
        for name, n in (
            ("sec21_program", 512),
            ("sec21_write_loop", 512),
            ("sec21_read_loop", 512),
            ("fig4_program", 64),
            ("fig6_original", 32),
            ("fig6_fused", 32),  # guarded
            ("fig6_optimized", 32),  # guarded
            ("fig7_original", 512),
            ("fig7_fused", 512),
            ("fig7_store_eliminated", 512),
        )
    },
}
# Suites of the builders above, and the one non-builder helper.
_NOT_BUILDERS = {"all_kernels", "blas1_suite", "kernel_spec"}


class TestSingleWalk:
    """``analyze`` counts flops, loads and stores in the same walk that
    collects the reference nests, and builds iteration grids only where
    a guard reads them."""

    def test_every_builder_covered(self):
        public = {n for n in programs.__all__ if callable(getattr(programs, n))}
        assert public - _NOT_BUILDERS == set(_BUILDERS)

    @pytest.mark.parametrize(
        "prog",
        [p for progs in _BUILDERS.values() for p in progs],
        ids=lambda p: p.name,
    )
    def test_counts_match_executor(self, prog):
        machine = origin2000(scale=256)
        est = analyze(prog, machine)
        c = execute(prog, machine, sim_cache=False).counters
        assert (est.flops, est.loads, est.stores) == (
            c.graduated_flops,
            c.loads,
            c.stores,
        )

    def test_unguarded_nest_allocates_no_grid(self):
        # A 2**40-element stride-one kernel: one int64 iteration grid
        # alone would take 8 TiB.
        n = 2**40
        est = analyze(make_kernel("2w3r", n), origin2000())
        assert (est.loads, est.stores) == (3 * n, 2 * n)
        assert est.levels[-1].misses > 0


class TestFootprintPrimitives:
    def test_lines_contiguous(self):
        assert _lines((8,), (100,), 8, 32) == 25

    def test_lines_strided_blocks(self):
        # Stride larger than the line: every iteration its own line.
        assert _lines((128,), (10,), 8, 32) == 10

    def test_lines_span_cap(self):
        # Overlapping copies cannot exceed span/line.
        assert _lines((8, 8), (10, 10), 8, 32) <= 5

    def test_covered_sets_folds_power_of_two_stride(self):
        # A 1024-byte stride in a 32-line x 32B (1 KiB) span folds onto
        # one set no matter the trip count.
        assert _covered_sets((1024,), (64,), 8, 32, 32) == 1

    def test_depth_lines_folds_stencil_members(self):
        """rhs[j][i] / rhs[j+1][i] under a row-stride inner loop: the
        second member is one lattice step away and must extend the trip,
        not densify the span (the nas_sp regression)."""
        g = _Group(
            "rhs",
            (8, 1920),
            base=0,
            width=1928,
            members=2,
            writes=1,
            extents=[(0, 8), (1920, 8)],
        )
        inner = g.depth_lines(1, (240, 238), 128)
        assert inner <= 240  # one column of lines, not the 3571-line span
        assert g.depth_lines(2, (240, 238), 128) == 2  # the members' lines

    def test_depth_lines_residual_offsets_counted(self):
        # An offset that is NOT a stride multiple stays a residual extent.
        g = _Group(
            "a",
            (8,),
            base=0,
            width=1004,
            members=2,
            writes=0,
            extents=[(0, 4), (1000, 4)],
        )
        assert g.depth_lines(0, (10,), 32) >= 2


class TestPredictSession:
    def test_disabled_by_default(self):
        with collect_analytic_telemetry() as session:
            assert not session.enabled
            run_or_predict(make_kernel("1w1r", 256), origin2000(scale=512))
            assert session.points == 1
            assert session.predicted == 0
        assert summarize_analytic(session) == {}

    def test_spot_check_sampling(self):
        prog = make_kernel("1w1r", 256)
        machine = origin2000(scale=512)
        with _predicting(0.5, 0.5), collect_analytic_telemetry() as session:
            assert session.stride == 2
            for _ in range(4):
                run_or_predict(prog, machine)
        assert session.points == 4
        assert session.checked == 2  # indices 0 and 2
        assert session.predicted == 2
        assert session.fallbacks == 0
        summary = summarize_analytic(session)
        assert summary["points"] == 4
        assert summary["sample_rate"] == 0.5
        assert summary["outliers"] == []

    def test_first_point_always_checked(self):
        with _predicting(0.01, 0.5), collect_analytic_telemetry() as session:
            run_or_predict(make_kernel("1w1r", 256), origin2000(scale=512))
        assert session.checked == 1

    def test_checked_point_returns_exact_run(self):
        prog = make_kernel("1w2r", 256)
        machine = origin2000(scale=512)
        with _predicting(1.0, 0.9), collect_analytic_telemetry():
            got = run_or_predict(prog, machine)
        exact = execute(prog, machine)
        assert got.counters.channel_bytes == exact.counters.channel_bytes

    def test_fallback_gate_trips_on_over_tolerance(self, monkeypatch):
        """Inject an estimate 3x over the exact bytes: the spot check
        must trip the gate, record the outlier, and every later point
        must simulate exactly."""
        import repro.experiments.predict as predict_mod

        real_analyze = predict_mod.analyze

        def inflated(program, machine, params=None, **kwargs):
            est = real_analyze(program, machine, params, **kwargs)
            levels = tuple(
                type(lv)(lv.name, lv.line_size, lv.accesses, lv.misses * 3, lv.writebacks)
                for lv in est.levels
            )
            return type(est)(
                est.program,
                est.machine,
                est.params,
                est.flops,
                est.loads,
                est.stores,
                levels,
                est.approximate,
            )

        monkeypatch.setattr(predict_mod, "analyze", inflated)
        prog = make_kernel("1w1r", 512)
        machine = origin2000(scale=512)
        with _predicting(0.05, 0.10), collect_analytic_telemetry() as session:
            got = run_or_predict(prog, machine)
            assert session.fallback_active
            run_or_predict(prog, machine)  # must simulate, not predict
        exact = execute(prog, machine)
        assert got.counters.channel_bytes == exact.counters.channel_bytes
        assert session.fallbacks == 1
        assert session.predicted == 0
        assert session.points == 2
        (outlier,) = session.outliers
        assert outlier["program"] == prog.name
        assert outlier["error"] > 0.10
        assert outlier["tolerance"] == 0.10
        assert summarize_analytic(session)["fallbacks"] == 1

    def test_analysis_error_falls_back_but_keeps_predicting(self, monkeypatch):
        import repro.experiments.predict as predict_mod

        def boom(*args, **kwargs):
            raise AnalysisError("injected: not affine")

        monkeypatch.setattr(predict_mod, "analyze", boom)
        with _predicting(0.05, 0.10), collect_analytic_telemetry() as session:
            run_or_predict(make_kernel("1w1r", 256), origin2000(scale=512))
        assert session.fallbacks == 1
        assert not session.fallback_active  # analyzer gap, not model error
        (outlier,) = session.outliers
        assert "injected" in outlier["reason"]

    def test_channel_errors_labelled(self):
        machine = origin2000(scale=512)
        prog = make_kernel("1w1r", 256)
        run = execute(prog, machine)
        errs = channel_errors(run, run)
        assert [name for name, _ in errs] == list(machine.level_names)
        assert all(err == 0.0 for _, err in errs)

    def test_configure_predict_validates(self):
        with pytest.raises(ValueError):
            ExecOptions(predict=True, spot_check=0.0)
        with pytest.raises(ValueError):
            ExecOptions(predict=True, spot_check=1.5)
        with pytest.raises(ValueError):
            ExecOptions(predict=True, predict_tolerance=-0.1)


class TestPredictBattery:
    """End to end: --predict manifests carry the v5 analytic block."""

    @pytest.fixture(scope="class")
    def manifest(self):
        cfg = ExperimentConfig(scale=256, sim_cache=False, predict=True)
        results = run_battery(["fig1"], cfg)
        return build_manifest(results, jobs=1, run_id="predict")

    def test_battery_ok_and_predicted(self, manifest):
        (res,) = manifest["results"]
        assert res["status"] == "ok"
        analytic = res["analytic"]
        assert analytic["points"] >= 7
        assert analytic["checked"] >= 1
        assert analytic["predicted"] + analytic["checked"] + analytic[
            "fallbacks"
        ] >= analytic["points"] - len(analytic["outliers"])

    def test_config_knobs_serialized(self, manifest):
        (res,) = manifest["results"]
        assert res["config"]["predict"] is True
        assert res["config"]["spot_check"] == pytest.approx(0.05)
        assert res["config"]["predict_tolerance"] == pytest.approx(0.10)

    def test_manifest_validates_against_v5_schema(self, manifest):
        assert manifest["schema_version"] == SCHEMA_VERSION >= 5
        sys.path.insert(0, str(TOOLS))
        try:
            from validate_manifest import validate
        finally:
            sys.path.remove(str(TOOLS))
        validate(manifest, json.loads(SCHEMA.read_text()))


class TestApiPredict:
    def test_predict_mirrors_simulate(self):
        machine = origin2000(scale=256)
        prog = make_kernel("1w2r", 2048)
        est = repro.predict(prog, machine)
        sim = repro.simulate(prog, machine)
        assert est.channel_names == sim.channel_names
        assert est.flops == sim.flops
        assert est.loads == sim.loads
        assert est.memory_bytes == pytest.approx(sim.memory_bytes, rel=0.02)
        assert est.seconds == pytest.approx(sim.seconds, rel=0.02)

    def test_predict_run_is_machine_run(self):
        machine = origin2000(scale=256)
        run = predict_run(make_kernel("1w1r", 512), machine)
        assert run.seconds > 0
        assert len(run.counters.channel_bytes) == machine.n_levels

    def test_run_experiments_predict_flag(self):
        results = repro.run_experiments(
            ["fig5"], ExperimentConfig(scale=256, sim_cache=False), predict=True
        )
        (res,) = results
        assert res.status == "ok"
        # fig5 sweeps through run_or_predict only if it uses it; at
        # minimum the knob must round-trip into the recorded config.
        assert res.config["predict"] is True
