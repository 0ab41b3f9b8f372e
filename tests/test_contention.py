"""Differential + property suite for the multicore contention model.

The contended timing overlay (repro.machine.contention) must be a strict
*extension* of the paper's model, never a reinterpretation:

* at ``cores=1`` it reduces **bit-identically** to
  ``bandwidth_bound_time`` — asserted here over real simulated counters
  on every preset x paper workload, and over hypothesis-random counters;
* adding cores can only slow a weak-scaled workload down (the saturation
  curves are validated concave, so the contended total is monotonically
  non-decreasing in the core count);
* contention can never beat the bandwidth floor: no channel runs faster
  contended than a core running the same work alone;
* the analytic predictor prices the contended channel inside the same
  ±10% per-channel band it already guarantees for byte counts.

The last section property-tests ``overlap_time`` convergence (the
paper's "latency cannot be fully tolerated without infinite bandwidth")
and pins the ``cpu_utilization`` zero-work edge.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.contention import (
    CoreWork,
    collect_contention_telemetry,
    contended_balance,
    contended_bound_time,
    contended_time,
    machine_balance_at,
    resolve_cores,
    split_work,
)
from repro.machine.presets import (
    PRESETS,
    ddr_multicore,
    future_multicore,
    hbm_multicore,
)
from repro.machine.timing import (
    TimeBreakdown,
    bandwidth_bound_time,
    latency_bound_time,
    overlap_time,
)
from repro.options import ExecOptions, use_options

SCALE = 128  # the experiments' default: tiny caches, fast traces

WORKLOADS = ("convolution", "dmxpy", "1w2r")


def _workload(name: str, spec):
    from repro.experiments.config import ExperimentConfig
    from repro.programs import convolution, dmxpy
    from repro.programs.kernels import make_kernel

    n = ExperimentConfig(scale=SCALE).stream_elements(spec)
    if name == "convolution":
        return convolution(n)
    if name == "dmxpy":
        return dmxpy(n, 16)
    return make_kernel(name, n)


@pytest.fixture(scope="module")
def simulated_counters():
    """(preset, workload) -> (spec, flops, register_bytes, downstream) from
    the real simulator — the shared input of the differential tests."""
    from repro.interp.executor import execute

    out = {}
    for preset, factory in PRESETS.items():
        spec = factory(SCALE)
        for wname in WORKLOADS:
            run = execute(_workload(wname, spec), spec, sim_cache=False)
            out[(preset, wname)] = (
                spec,
                run.counters.graduated_flops,
                run.counters.register_bytes,
                tuple(run.counters.downstream_bytes),
            )
    return out


# -- cores=1 differential: bit-identical to the paper's model ------------------


class TestCores1BitIdentity:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_simulated_counters(self, simulated_counters, preset, workload):
        spec, flops, reg, down = simulated_counters[(preset, workload)]
        base = bandwidth_bound_time(spec, flops, reg, down)
        cont = contended_time(spec, split_work(flops, reg, down, 1))
        # Bit-identity, not approx: n=1 must run the very same float ops.
        assert cont.flop_time == base.flop_time
        assert cont.channel_times == base.channel_times
        assert cont.total == base.total
        assert cont.bound == base.bound
        assert cont.cpu_utilization == base.cpu_utilization
        assert cont.saturation == (1.0,) * len(cont.channel_times)
        assert cont.per_core == (base,)

    def test_execute_cores1_has_no_overlay(self, simulated_counters):
        """cores=1 runs carry no contended breakdown: manifests stay
        bit-identical to the pre-contention baseline."""
        from repro.interp.executor import execute

        spec = ddr_multicore(SCALE)
        with use_options(ExecOptions(cores=1)):
            run = execute(_workload("1w2r", spec), spec, sim_cache=False)
        assert run.contended is None
        assert run.effective_time is run.time

    def test_machine_balance_at_one_core_is_spec_balance(self):
        for factory in PRESETS.values():
            spec = factory(SCALE)
            assert machine_balance_at(spec, 1) == spec.balance
            assert contended_balance(spec, 1) == (1.0,) * len(spec.balance)


# -- weak-scaling properties over random counters ------------------------------

MULTICORE = (ddr_multicore, hbm_multicore, future_multicore)

counters_st = st.tuples(
    st.integers(min_value=0, max_value=10**12),  # flops
    st.integers(min_value=0, max_value=10**12),  # register bytes
    st.lists(
        st.integers(min_value=0, max_value=10**12), min_size=2, max_size=2
    ),  # downstream bytes (both multicore presets have two levels)
)


class TestWeakScaling:
    @given(factory=st.sampled_from(MULTICORE), counters=counters_st)
    def test_cores1_identity_on_random_counters(self, factory, counters):
        spec = factory()
        flops, reg, down = counters
        base = bandwidth_bound_time(spec, flops, reg, down)
        cont = contended_bound_time(spec, 1, flops, reg, down)
        assert cont.flop_time == base.flop_time
        assert cont.channel_times == base.channel_times
        assert cont.total == base.total

    @given(factory=st.sampled_from(MULTICORE), counters=counters_st)
    def test_total_monotone_in_cores(self, factory, counters):
        """Weak scaling: every core runs the same work, so adding a core
        can only contend — the total never improves."""
        spec = factory()
        flops, reg, down = counters
        work = CoreWork(flops, reg, tuple(down))
        totals = [
            contended_time(spec, (work,) * n).total
            for n in range(1, spec.cores + 1)
        ]
        assert all(a <= b + 1e-12 * max(1.0, b) for a, b in zip(totals, totals[1:]))

    @given(
        factory=st.sampled_from(MULTICORE),
        counters=counters_st,
        data=st.data(),
    )
    def test_bandwidth_floor_never_beaten(self, factory, counters, data):
        """No channel runs faster contended than a core running the same
        work alone at the full single-core bandwidth."""
        spec = factory()
        flops, reg, down = counters
        n = data.draw(st.integers(min_value=1, max_value=spec.cores))
        work = CoreWork(flops, reg, tuple(down))
        cont = contended_time(spec, (work,) * n)
        alone = bandwidth_bound_time(spec, flops, reg, down)
        for contended_t, alone_t in zip(cont.channel_times, alone.channel_times):
            assert contended_t >= alone_t - 1e-12 * max(1.0, alone_t)
        assert cont.total >= alone.total - 1e-12 * max(1.0, alone.total)
        for sat, gap in zip(cont.saturation, cont.balance_gap):
            assert 0.0 < sat <= 1.0
            assert gap >= 1.0

    @given(factory=st.sampled_from(MULTICORE))
    def test_balance_gap_monotone_in_cores(self, factory):
        spec = factory()
        for channel in range(len(spec.balance)):
            gaps = [
                contended_balance(spec, n)[channel]
                for n in range(1, spec.cores + 1)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_resolve_cores_clamps_with_telemetry(self):
        spec = ddr_multicore()
        with collect_contention_telemetry() as acc:
            assert resolve_cores(spec, spec.cores + 7) == spec.cores
        assert acc["fallback_runs"] == 1
        assert str(spec.cores + 7) in acc["fallback_reason"]
        assert resolve_cores(spec, 3) == 3


# -- analytic predictor prices the contended channel ---------------------------


class TestAnalyticContended:
    @pytest.mark.parametrize("factory", [ddr_multicore, hbm_multicore])
    def test_predicted_contended_total_in_band(self, factory):
        """predict-then-verify stays valid under --cores: the analytic
        contended total lands inside the ±10% per-channel byte band the
        predictor already guarantees (same arithmetic, predicted bytes)."""
        from repro.balance.analytic import predict_run
        from repro.interp.executor import execute

        spec = factory(SCALE)
        prog = _workload("convolution", spec)
        with use_options(ExecOptions(cores=spec.cores)):
            exact = execute(prog, spec, sim_cache=False)
        predicted = predict_run(prog, spec, cores=spec.cores)
        assert exact.contended is not None and predicted.contended is not None
        assert predicted.contended.cores == exact.contended.cores == spec.cores
        err = abs(predicted.contended.total - exact.contended.total)
        assert err <= 0.10 * exact.contended.total
        # Saturation depends only on the spec, so it must agree exactly.
        assert predicted.contended.saturation == exact.contended.saturation


# -- overlap_time convergence + cpu_utilization edge (satellite) ---------------

overlap_counters_st = st.tuples(
    st.integers(min_value=0, max_value=10**9),  # flops
    st.integers(min_value=0, max_value=10**9),  # register bytes
    st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=2),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=2),
)


def _tiny_spec():
    """The conftest tiny_machine, rebuilt inline (hypothesis forbids
    function-scoped fixtures inside @given; the spec is immutable so
    sharing one instance is safe)."""
    from repro.machine import CacheGeometry, CacheLevelSpec, LayoutPolicy, MachineSpec

    return MachineSpec(
        name="Tiny",
        peak_flops=100e6,
        register_bandwidth=400e6,
        cache_levels=(
            CacheLevelSpec("L1", CacheGeometry(128, 32, 2), 400e6, 10e-9),
            CacheLevelSpec("L2", CacheGeometry(1024, 64, 2), 100e6, 100e-9),
        ),
        default_layout=LayoutPolicy(alignment=32, pad_bytes=0),
    )


class TestOverlapConvergence:
    @given(counters=overlap_counters_st)
    @settings(max_examples=50)
    def test_converges_to_bandwidth_bound_from_above(self, counters):
        """As outstanding -> infinity, latency is amortized away and only
        the bandwidth floor remains — approached from above, never crossed
        (the paper's "latency cannot be fully tolerated without infinite
        bandwidth")."""
        spec = _tiny_spec()
        flops, reg, down, misses = counters
        floor = bandwidth_bound_time(spec, flops, reg, down).total
        lat = latency_bound_time(spec, flops, misses)
        cpu = flops / spec.peak_flops
        previous = float("inf")
        for outstanding in (1, 2, 4, 16, 256, 1 << 20):
            t = overlap_time(spec, flops, reg, down, misses, outstanding)
            assert t >= floor  # the floor is never beaten
            assert t <= previous + 1e-12 * max(1.0, previous)  # monotone
            previous = t
        # Convergence rate: the gap above the bandwidth bound shrinks as
        # (residual latency) / outstanding, so at 2**20 it is negligible.
        assert previous - floor <= (lat - cpu) / (1 << 20) + 1e-15

    def test_cpu_utilization_zero_work(self):
        """A run with no flops and no traffic uses none of the CPU."""
        empty = TimeBreakdown("m", 0.0, (0.0, 0.0), ("reg", "mem"))
        assert empty.total == 0.0
        assert empty.cpu_utilization == 0.0

    def test_cpu_utilization_flop_bound_is_one(self):
        b = TimeBreakdown("m", 2.0, (1.0, 0.5), ("reg", "mem"))
        assert b.cpu_utilization == 1.0
