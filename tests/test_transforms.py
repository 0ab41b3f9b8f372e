"""Tests for the compiler transformations (paper section 3)."""

import pytest

from repro.errors import TransformError, VerificationError
from repro.lang import ProgramBuilder, render
from repro.lang.analysis import access_sets, static_counts
from repro.transforms import (
    contract_arrays,
    contractible_arrays,
    eliminate_stores,
    is_equivalent,
    optimize,
    peel_array,
    permute_nest,
    replace_scalars,
    shrink_array,
    tile_nest,
    verify_equivalent,
)

from tests.helpers import two_loop_chain


def fused_fig7(n=64):
    b = ProgramBuilder("fig7f", params={"N": n})
    res = b.array("res", "N")
    data = b.array("data", "N")
    s = b.scalar("sum", output=True)
    with b.loop("i", 0, "N") as i:
        b.assign(res[i], res[i] + data[i])
        b.assign(s, s + res[i])
    return b.build()


class TestStoreElimination:
    def test_fig7(self):
        p = fused_fig7()
        out = eliminate_stores(p)
        loop = out.body[0]
        # no array store remains
        writes = access_sets(loop).writes
        assert writes == frozenset()
        verify_equivalent(p, out)

    def test_reads_of_old_value_kept(self):
        """The rhs still reads res[i] from memory (old value semantics)."""
        p = fused_fig7()
        out = eliminate_stores(p)
        assert access_sets(out.body[0]).reads == {"res", "data"}

    def test_store_count_drops(self):
        p = fused_fig7(n=32)
        out = eliminate_stores(p)
        assert static_counts(out).array_stores == 0
        assert static_counts(p).array_stores == 32

    def test_output_array_protected(self):
        b = ProgramBuilder("p", params={"N": 16})
        a = b.array("a", "N", output=True)
        d = b.array("d", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i], d[i] * 2.0)
            b.assign(s, s + a[i])
        p = b.build()
        with pytest.raises(TransformError, match="output"):
            eliminate_stores(p, arrays=["a"])
        assert eliminate_stores(p) is p  # auto mode skips silently

    def test_later_read_blocks(self):
        p = two_loop_chain()  # tmp read in second loop
        with pytest.raises(TransformError, match="read after"):
            eliminate_stores(p, arrays=["tmp"])

    def test_different_subscript_blocks(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 1, "N") as i:
            b.assign(t[i], 1.0 + s)
            b.assign(s, s + t[i - 1])  # reads previous iteration
        with pytest.raises(TransformError, match="different"):
            eliminate_stores(b.build(), arrays=["t"])

    def test_read_under_guard_after_store_blocks(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(t[i], 2.0)
            with b.if_(i < 4):
                b.assign(s, s + t[i])
        with pytest.raises(TransformError, match="guard"):
            eliminate_stores(b.build(), arrays=["t"])

    def test_externalread_filled_array_skipped(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.read(t[i])
            b.assign(s, s + t[i])
        with pytest.raises(TransformError, match="read\\(\\)"):
            eliminate_stores(b.build(), arrays=["t"])

    def test_two_arrays_eliminated(self):
        b = ProgramBuilder("p", params={"N": 16})
        x = b.array("x", "N")
        y = b.array("y", "N")
        d = b.array("d", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(x[i], d[i] + 1.0)
            b.assign(y[i], d[i] * 2.0)
            b.assign(s, s + x[i] * y[i])
        p = b.build()
        out = eliminate_stores(p)
        assert static_counts(out).array_stores == 0
        verify_equivalent(p, out)

    def test_multiple_stores_same_array(self):
        """A second write to the same element forwards through scalars."""
        b = ProgramBuilder("p", params={"N": 16})
        x = b.array("x", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(x[i], 1.0 + s * 0.0)
            b.assign(x[i], x[i] * 2.0)
            b.assign(s, s + x[i])
        p = b.build()
        out = eliminate_stores(p)
        assert static_counts(out).array_stores == 0
        verify_equivalent(p, out)


class TestContraction:
    def chain(self, n=32):
        b = ProgramBuilder("p", params={"N": n})
        t = b.array("t", "N")
        src = b.array("src", "N")
        dst = b.array("dst", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(t[i], src[i] * 2.0)
            b.assign(dst[i], t[i] + 1.0)
        return b.build()

    def test_candidates(self):
        assert contractible_arrays(self.chain()) == {"t"}

    def test_contract(self):
        p = self.chain()
        out = contract_arrays(p)
        assert not out.has_array("t")
        assert any(s.name == "_tc" for s in out.scalars)
        verify_equivalent(p, out)

    def test_register_traffic_drops(self):
        p = self.chain(n=16)
        out = contract_arrays(p)
        assert static_counts(out).array_refs < static_counts(p).array_refs

    def test_read_before_write_rejected(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        dst = b.array("dst", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(dst[i], t[i])  # reads t's initial values
            b.assign(t[i], 1.0)
        with pytest.raises(TransformError, match="read before"):
            contract_arrays(b.build(), arrays=["t"])

    def test_cross_iteration_rejected(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        dst = b.array("dst", "N", output=True)
        with b.loop("i", 1, "N") as i:
            b.assign(t[i], 1.0)
            b.assign(dst[i], t[i - 1])
        with pytest.raises(TransformError, match="multiple subscripts"):
            contract_arrays(b.build(), arrays=["t"])

    def test_live_across_loops_rejected(self):
        with pytest.raises(TransformError, match="live across"):
            contract_arrays(two_loop_chain(), arrays=["tmp"])

    def test_output_rejected(self):
        p = self.chain()
        with pytest.raises(TransformError, match="output"):
            contract_arrays(p, arrays=["dst"])

    def test_2d_contraction(self):
        b = ProgramBuilder("p", params={"N": 8})
        t = b.array("t", ("N", "N"))
        src = b.array("src", ("N", "N"))
        dst = b.array("dst", ("N", "N"), output=True)
        with b.loop("i", 0, "N") as i:
            with b.loop("j", 0, "N") as j:
                b.assign(t[i, j], src[i, j] * 3.0)
                b.assign(dst[i, j], t[i, j] - 1.0)
        p = b.build()
        out = contract_arrays(p)
        assert not out.has_array("t")
        verify_equivalent(p, out, params_list=[{"N": 8}])


class TestShrinking:
    def stencil(self, n=16):
        """b[i,j] computed from carried a-values — Figure 6 shape."""
        b = ProgramBuilder("p", params={"N": n})
        a = b.array("a", ("N", "N"))
        s = b.scalar("s", output=True)
        with b.loop("j", 1, "N") as j:
            with b.loop("i", 0, "N") as i:
                b.read(a[i, j])
                b.assign(s, s + a[i, j - 1] * 0.5 + a[i, j])
        return b.build()

    def test_needs_peel_first_for_initial_column(self):
        """The raw stencil reads a[i,0] (initial contents) at j=1 — the
        shrink is statically constructible but semantically wrong, and the
        oracle catches it."""
        p = self.stencil()
        out = shrink_array(p, "a")
        assert not is_equivalent(p, out, sizes=(4, 6))

    def test_shrink_after_init_loop(self):
        """With the first column produced by reads too, shrinking is valid."""
        n = 16
        b = ProgramBuilder("p", params={"N": n})
        a = b.array("a", ("N", "N"))
        s = b.scalar("s", output=True)
        with b.loop("j", 0, "N") as j:
            with b.loop("i", 0, "N") as i:
                b.read(a[i, j])
                with b.if_(j >= 1):
                    b.assign(s, s + a[i, j - 1] * 0.5 + a[i, j])
        p = b.build()
        out = shrink_array(p, "a")
        assert not out.has_array("a")
        assert out.has_array("_abuf")
        assert any(sc.name == "_acur" for sc in out.scalars)
        verify_equivalent(p, out, sizes=(3, 6, 9))

    def test_storage_reduction_amount(self):
        p = self.stencil(n=16)
        out = shrink_array(p, "a")
        assert out.data_bytes() == 16 * 8  # N buffer instead of N^2
        assert p.data_bytes() == 16 * 16 * 8

    def test_distance_zero_scalar_only(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        d = b.array("d", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(t[i], d[i] * 2.0)
            b.assign(s, s + t[i])
        p = b.build()
        out = shrink_array(p, "t")
        assert not out.has_array("_tbuf")  # no carried values -> no buffer
        verify_equivalent(p, out)

    def test_distance_two_rejected(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 2, "N") as i:
            b.assign(t[i], 1.0 + s * 0.0)
            b.assign(s, s + t[i - 2])
        with pytest.raises(TransformError, match="distances 0 and 1"):
            shrink_array(b.build(), "t")

    def test_two_writes_same_subscript_accepted(self):
        """Re-updates of the same element (Figure 6's boundary fix) shrink
        fine: every write becomes a current-scalar update."""
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(t[i], 1.0 + s * 0.0)
            b.assign(t[i], t[i] * 2.0)
            b.assign(s, s + t[i])
        p = b.build()
        out = shrink_array(p, "t")
        verify_equivalent(p, out)

    def test_two_writes_different_subscripts_rejected(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 1, b.sym("N") - 1) as i:
            b.assign(t[i], 1.0 + s * 0.0)
            b.assign(t[i + 1], 2.0 + s * 0.0)
            b.assign(s, s + t[i])
        with pytest.raises(TransformError, match="different subscripts"):
            shrink_array(b.build(), "t")

    def test_guarded_first_write_rejected(self):
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            with b.if_(i < 8):
                b.assign(t[i], 1.0 + s * 0.0)
            b.assign(s, s + t[i])
        with pytest.raises(TransformError, match="first write under a guard"):
            shrink_array(b.build(), "t")

    def test_auto_derives_fig6c(self):
        """The headline: normalize + peel + shrink mechanically derives the
        paper's Figure 6(c) from Figure 6(b), verified equivalent and with
        identical storage (two N-vectors plus two scalars)."""
        from repro.programs import fig6_fused, fig6_optimized

        p = fig6_fused(16)
        result = optimize(p)
        assert "normalize" in result.applied_stages
        assert "peeling" in result.applied_stages
        assert "shrinking" in result.applied_stages
        assert result.final.data_bytes() == fig6_optimized(16).data_bytes()
        verify_equivalent(p, result.final, sizes=(2, 3, 5, 9))

    def test_output_rejected(self):
        b = ProgramBuilder("p", params={"N": 8})
        t = b.array("t", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(t[i], 1.0)
        with pytest.raises(TransformError, match="output"):
            shrink_array(b.build(), "t")

    def test_carried_read_before_write_ok(self):
        """Distance-1 read textually before the write (the buffer serves it)."""
        b = ProgramBuilder("p", params={"N": 16})
        t = b.array("t", "N")
        d = b.array("d", "N")
        s = b.scalar("s", output=True)
        with b.loop("i", 1, "N") as i:
            b.assign(s, s + t[i - 1])
            b.assign(t[i], d[i] * 1.5)
        p = b.build()
        out = shrink_array(p, "t")
        # first iteration reads t[0]'s initial value -> oracle must reject
        assert not is_equivalent(p, out, sizes=(4, 8))


class TestPeeling:
    def test_exact_slice_refs(self):
        b = ProgramBuilder("p", params={"N": 8})
        a = b.array("a", ("N", "N"))
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i, 0], 1.0 + s * 0.0)
            b.assign(s, s + a[i, 0])
        p = b.build()
        out = peel_array(p, "a", dim=1, at=0)
        assert out.has_array("a_peel1")
        verify_equivalent(p, out, sizes=(4, 8))

    def test_alias_split_inserts_guard(self):
        b = ProgramBuilder("p", params={"N": 8})
        a = b.array("a", ("N", "N"))
        s = b.scalar("s", output=True)
        with b.loop("j", 0, "N") as j:
            with b.loop("i", 0, "N") as i:
                b.assign(a[i, j], 2.0 + s * 0.0)
        with b.loop("j2", 1, "N") as j:
            with b.loop("i2", 0, "N") as i:
                b.assign(s, s + a[i, j - 1])  # hits slice 0 at j2=1
        p = b.build()
        out = peel_array(p, "a", dim=1, at=0)
        from repro.lang.stmt import If

        assert any(isinstance(st, If) for st in out.walk())
        verify_equivalent(p, out, sizes=(4, 7))

    def test_fig6_like_peel(self):
        """Peel the first column of the fused Figure 6 program and verify."""
        from repro.programs import fig6_fused

        p = fig6_fused(8)
        out = peel_array(p, "a", dim=1, at=0)
        verify_equivalent(p, out, sizes=(4, 7))

    def test_never_aliasing_constant_left_alone(self):
        b = ProgramBuilder("p", params={"N": 8})
        a = b.array("a", ("N", 4))
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i, 0], 1.0 + s * 0.0)
            b.assign(s, s + a[i, 2])  # constant 2 != 0: untouched
        p = b.build()
        out = peel_array(p, "a", dim=1, at=0)
        from repro.lang.analysis import access_sets

        assert "a" in access_sets(out.body[0]).reads  # a[i,2] still on a

    def test_output_rejected(self):
        from repro.programs import matmul

        with pytest.raises(TransformError, match="output"):
            peel_array(matmul(4), "c", dim=1, at=0)

    def test_no_touching_refs_rejected(self):
        b = ProgramBuilder("p", params={"N": 8})
        a = b.array("a", ("N", "N"))
        s = b.scalar("s", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(s, s + a[i, 3])
        with pytest.raises(TransformError, match="no reference"):
            peel_array(b.build(), "a", dim=1, at=Affine_of_zero())

    def test_bad_dim(self):
        b = ProgramBuilder("p", params={"N": 8})
        b.array("a", "N")
        s = b.scalar("s", output=True)
        b.assign(s, 0.0)
        with pytest.raises(TransformError):
            peel_array(b.build(), "a", dim=3, at=0)


def Affine_of_zero():
    from repro.lang.affine import Affine

    return Affine.const_of(0)


class TestScalarReplacement:
    def test_matmul_register_traffic(self):
        from repro.programs import matmul

        p = matmul(6, order="jki")
        out = replace_scalars(p)
        # b[j,k] invariant in inner i: 1 load hoisted out of N iterations
        before = static_counts(p)
        after = static_counts(out)
        assert after.array_loads < before.array_loads
        verify_equivalent(p, out, params_list=[{"N": 6}])

    def test_written_invariant_gets_store(self):
        b = ProgramBuilder("p", params={"N": 8})
        acc = b.array("acc", 4, output=True)
        d = b.array("d", "N")
        with b.loop("i", 0, "N") as i:
            b.assign(acc[2], acc[2] + d[i])
        p = b.build()
        out = replace_scalars(p)
        # hoisted: load before, store after, scalar inside
        assert len(out.body) == 3
        verify_equivalent(p, out)

    def test_no_candidates_identity(self):
        from tests.helpers import simple_stream_program

        p = simple_stream_program()
        assert replace_scalars(p) is p

    def test_variant_subscripts_not_hoisted(self):
        b = ProgramBuilder("p", params={"N": 8})
        a = b.array("a", ("N", "N"), output=True)
        with b.loop("i", 0, "N") as i:
            with b.loop("j", 0, "N") as j:
                b.assign(a[i, j], a[i, 0] + 1.0)  # two subscripts of a
        p = b.build()
        assert replace_scalars(p) is p


class TestInterchangeAndTiling:
    def test_all_orders_equivalent(self):
        from repro.programs import matmul

        base = matmul(5, order="ijk")
        for order in ("ikj", "jik", "jki", "kij", "kji"):
            permuted = permute_nest(base, 0, list(order))
            verify_equivalent(base, permuted, params_list=[{"N": 5}])

    def test_permute_validation(self):
        from repro.programs import matmul

        p = matmul(4)
        with pytest.raises(TransformError):
            permute_nest(p, 0, ["i", "j"])  # missing k
        with pytest.raises(TransformError):
            permute_nest(two_loop_chain(), 0, ["i", "j"])

    def test_tile_divisibility(self):
        from repro.programs import matmul

        with pytest.raises(TransformError, match="divide"):
            tile_nest(matmul(5), 0, {"k": 2})

    def test_tile_order_constraints(self):
        from repro.programs import matmul

        p = matmul(4)
        with pytest.raises(TransformError, match="enclose"):
            tile_nest(p, 0, {"k": 2}, order=["j", "k", "k_t", "i"])
        with pytest.raises(TransformError, match="permutation"):
            tile_nest(p, 0, {"k": 2}, order=["k_t", "j", "k"])

    def test_tiled_equivalent(self):
        from repro.programs import matmul

        base = matmul(6)
        tiled = tile_nest(base, 0, {"k": 3, "j": 2}, order=["k_t", "j_t", "j", "i", "k"])
        verify_equivalent(base, tiled, params_list=[{"N": 6}])

    def test_unknown_var(self):
        from repro.programs import matmul

        with pytest.raises(TransformError, match="no loop variable"):
            tile_nest(matmul(4), 0, {"z": 2})

    def test_blocked_matmul_reduces_memory_traffic(self, tiny_machine):
        from repro.interp import execute
        from repro.programs import matmul, matmul_blocked

        n = 16  # arrays 2 KiB each, > 1 KiB tiny L2
        plain = execute(matmul(n, order="jki"), tiny_machine)
        blocked = execute(matmul_blocked(n, tile=4), tiny_machine)
        assert blocked.counters.memory_bytes < plain.counters.memory_bytes


class TestVerifier:
    def test_detects_wrong_transform(self):
        p = two_loop_chain(n=16)
        # a "transform" that changes the constant is caught
        text = render(p).replace("* 2)", "* 3)")
        from repro.lang import parse

        broken = parse(text)
        with pytest.raises(VerificationError):
            verify_equivalent(p, broken)

    def test_detects_missing_output(self):
        p = two_loop_chain(n=16)
        from dataclasses import replace

        stripped = replace(p, scalars=tuple(
            type(s)(s.name, s.dtype, False, s.initial) for s in p.scalars
        ))
        with pytest.raises(VerificationError, match="output scalars"):
            verify_equivalent(p, stripped)

    def test_detects_crash(self):
        b = ProgramBuilder("bad", params={"N": 8})
        a = b.array("a", "N", output=True)
        with b.loop("i", 0, "N") as i:
            b.assign(a[i + 1], 1.0)  # out of bounds at runtime
        from tests.helpers import simple_stream_program

        with pytest.raises(VerificationError, match="run failed"):
            verify_equivalent(simple_stream_program(), b.build())

    def test_is_equivalent_bool(self):
        p = two_loop_chain(n=8)
        assert is_equivalent(p, p)

    def test_pipeline_interprets_the_original_once_per_size_and_seed(self, monkeypatch):
        from collections import Counter

        from repro.experiments.e12_pipeline import multi_stage_workload
        from repro.transforms import verify

        program = multi_stage_workload(16)
        runs = Counter()
        evaluate = verify.evaluate

        def counting(prog, params=None, input_seed=20001, **kwargs):
            runs[prog is program, tuple(sorted(params.items())), input_seed] += 1
            return evaluate(prog, params, input_seed=input_seed, **kwargs)

        monkeypatch.setattr(verify, "evaluate", counting)
        result = optimize(program)
        assert len(result.applied_stages) >= 2  # several candidates, one reference
        original = {key: n for key, n in runs.items() if key[0]}
        assert len(original) == len(verify.DEFAULT_SIZES) * len(verify.DEFAULT_SEEDS)
        assert set(original.values()) == {1}

    def test_reference_runs_belong_to_their_original(self):
        from repro.transforms.verify import ReferenceRuns

        p = two_loop_chain(n=8)
        with pytest.raises(ValueError, match="another program"):
            verify_equivalent(p, p, reference=ReferenceRuns(two_loop_chain(n=8)))


class TestPipeline:
    def test_full_chain(self):
        from repro.experiments.e12_pipeline import multi_stage_workload

        p = multi_stage_workload(32)
        result = optimize(p)
        assert "fusion" in result.applied_stages
        assert "store-elim" in result.applied_stages
        verify_equivalent(p, result.final)

    def test_traffic_monotonically_improves(self, tiny_machine):
        from repro.interp import execute
        from repro.machine import LayoutPolicy
        from repro.experiments.e12_pipeline import multi_stage_workload

        # Pad arrays apart: 4 KiB arrays on the tiny machine's 8-set L2
        # would otherwise alias set-for-set and fusing loops then *hurts*
        # (a genuine effect; the Figure 3 experiment studies it), which
        # would mask the pipeline's improvement being tested here.
        policy = LayoutPolicy(alignment=32, pad_bytes=96)
        p = multi_stage_workload(512)
        result = optimize(p)
        times = [execute(p, tiny_machine, layout_policy=policy).seconds]
        for stage in result.stages:
            if stage.applied:
                times.append(
                    execute(stage.program, tiny_machine, layout_policy=policy).seconds
                )
        assert all(b <= a * 1.001 for a, b in zip(times, times[1:]))
        assert times[-1] < times[0]

    def test_single_loop_no_fusion(self):
        from tests.helpers import simple_stream_program

        result = optimize(simple_stream_program())
        fusion = [s for s in result.stages if s.stage == "fusion"][0]
        assert not fusion.applied

    def test_describe(self):
        result = optimize(two_loop_chain(n=16))
        assert "pipeline" in result.describe()

    def test_stages_disable(self):
        p = two_loop_chain(n=16)
        result = optimize(p, fuse=False, reduce_storage=False, eliminate=False)
        assert result.final is p
