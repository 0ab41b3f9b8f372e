"""Tests for the CLIs, charts, the extra workloads, and E17."""

import re

import pytest

from repro.experiments.charts import BarChart, bar
from repro.interp import evaluate, execute
from repro.lang.cli import main as loopc_main
from repro.machine import origin2000
from repro.programs import (
    BLAS1_KERNELS,
    EXPECTED_MEMORY_BALANCE,
    blas1,
    blas1_suite,
    jacobi,
)

SOURCE = """\
program demo(N=256)
array x[N]
array y[N]
scalar s out

for i = 0, N {
  y[i] = x[i] * 2
}
for i = 0, N {
  s = s + y[i]
}
"""


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "demo.loop"
    path.write_text(SOURCE)
    return str(path)


class TestLoopcCLI:
    def test_measure(self, loop_file, capsys):
        assert loopc_main([loop_file]) == 0
        out = capsys.readouterr().out
        assert "demo on Origin2000/64" in out
        assert "B/flop" in out

    def test_optimize_reports_speedup(self, loop_file, capsys):
        assert loopc_main([loop_file, "--optimize"]) == 0
        captured = capsys.readouterr()
        assert "pipeline[demo]" in captured.err
        assert "speedup over unoptimized" in captured.out

    def test_emit(self, loop_file, capsys):
        assert loopc_main([loop_file, "--optimize", "--emit"]) == 0
        emitted = capsys.readouterr().out
        from repro.lang import parse

        program = parse(emitted)  # the emitted text is valid source
        assert program.name.startswith("demo")

    def test_set_override(self, loop_file, capsys):
        assert loopc_main([loop_file, "--set", "N=512"]) == 0

    def test_bad_override(self, loop_file, capsys):
        assert loopc_main([loop_file, "--set", "N=abc"]) == 1
        assert loopc_main([loop_file, "--set", "whoops"]) == 1

    def test_machine_choice(self, loop_file, capsys):
        assert loopc_main([loop_file, "--machine", "exemplar"]) == 0
        assert "Exemplar" in capsys.readouterr().out

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("program (\n")
        assert loopc_main([str(bad)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert loopc_main(["/nonexistent.loop"]) == 2

    def test_no_run(self, loop_file, capsys):
        assert loopc_main([loop_file, "--no-run"]) == 0
        assert "2 top-level statements" in capsys.readouterr().out

    def test_example_loop_file(self, capsys):
        assert loopc_main(["examples/loops/pipeline_demo.loop", "--no-run"]) == 0


class TestExperimentsRunnerCLI:
    def test_subset_run(self, capsys):
        from repro.experiments.runner import main

        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "bandwidth-minimal" in out

    def test_charts_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["fig3", "--charts"]) == 0
        out = capsys.readouterr().out
        assert "█" in out

    def test_scale_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["e9", "--scale", "256"]) == 0

    def test_plan_flag_runs_ladder_planned(self, capsys, tmp_path):
        from repro.experiments.runner import main

        assert main(
            ["ladder", "--plan", "--no-sim-cache", "--results-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "batches: planned" in out
        assert ", plan 36 pts" in out  # planner suffix with telemetry
        assert "fewer accesses" in out

    @pytest.mark.parametrize(
        "argv,stream",
        [(["--stream"], True), (["--stream", "overlap"], "overlap"), (["--stream", "serial"], "serial")],
    )
    def test_stream_flag_selects_the_pipeline(self, capsys, tmp_path, argv, stream):
        import json

        from repro.experiments.runner import main

        assert main(
            ["fig1", *argv, "--chunk-accesses", "20000", "--scale", "256", "--no-sim-cache",
             "--results-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert re.search(r"\[fig1: .*stream \d+ chunks, \d+% gen hidden\]", out), out
        if stream == "serial":
            assert "0% gen hidden" in out
        manifest = json.loads(next(tmp_path.glob("run-*.json")).read_text())
        assert manifest["results"][0]["config"]["stream"] == stream

    def test_duplicate_tasks_deduped(self, capsys, tmp_path):
        import json

        from repro.experiments.runner import main

        assert main(["e9", "e9", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scheduler dedup: 1 duplicate" in out
        manifest = json.loads(next(tmp_path.glob("run-*.json")).read_text())
        assert manifest["dedup_hits"] == 1


class TestCharts:
    def test_bar_widths(self):
        assert bar(0, 10, width=10) == ""
        assert bar(10, 10, width=10) == "█" * 10
        assert len(bar(5, 10, width=10)) == 5
        assert bar(1, 0) == ""

    def test_partial_blocks(self):
        # 1/16 of width 2 = one eighth of a cell
        assert bar(1, 16, width=2) == "▏"

    def test_chart_renders(self):
        chart = BarChart("demo", width=10, unit="x")
        chart.add("alpha", v=10.0)
        chart.add("beta", v=5.0)
        text = chart.render()
        assert "alpha" in text and "beta" in text
        assert "10.0x" in text

    def test_multi_series(self):
        chart = BarChart("demo", width=8)
        chart.add("row", a=4.0, b=2.0)
        text = chart.render()
        assert " a " in text and " b " in text

    def test_empty(self):
        assert BarChart("nothing").render() == "nothing"

    def test_fig3_chart_shows_dip(self):
        from repro.experiments import ExperimentConfig, run_fig3
        from repro.experiments.charts import fig3_chart

        text = fig3_chart(run_fig3(ExperimentConfig(scale=256)))
        assert "3w6r" in text and "Exemplar" in text


class TestBlas1:
    @pytest.mark.parametrize("kind", BLAS1_KERNELS)
    def test_builds_and_evaluates(self, kind):
        evaluate(blas1(kind, 32))

    def test_suite(self):
        assert set(blas1_suite(16)) == set(BLAS1_KERNELS)

    def test_bad_kind(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            blas1("gemm")

    @pytest.mark.parametrize("kind", ["scal", "axpy", "dot"])
    def test_memory_balance_matches_closed_form(self, kind):
        """The calibration property: measured balance == textbook value."""
        from repro.balance import program_balance

        machine = origin2000(scale=256)
        n = 4 * machine.cache_levels[-1].geometry.size_bytes // 8
        run = execute(blas1(kind, n), machine)
        measured = program_balance(run).memory_balance
        assert measured == pytest.approx(EXPECTED_MEMORY_BALANCE[kind], rel=0.02)

    def test_dot_value_correct(self):
        import numpy as np
        from repro.interp.evaluator import Evaluator

        p = blas1("dot", 64)
        ev = Evaluator(p)
        x, y = ev.arrays["x"].copy(), ev.arrays["y"].copy()
        out = ev.run()
        assert out.scalars["dotp"] == pytest.approx(float(np.dot(x, y)))


class TestJacobi:
    def test_evaluates(self):
        evaluate(jacobi(8, sweeps=2))

    def test_relaxation_converges_toward_mean(self):
        """Sanity on the numerics: sweeps reduce the residual."""
        from repro.interp import evaluate as ev

        small = ev(jacobi(10, sweeps=1)).scalars["resid"]
        more = ev(jacobi(10, sweeps=4)).scalars["resid"]
        assert more < small

    def test_pipeline_rejects_shrinking(self):
        """Both grids live across top-level statements: the storage stages
        must decline, and the verified pipeline must still end legal."""
        from repro.transforms import optimize, verify_equivalent

        p = jacobi(8, sweeps=2)
        result = optimize(p)
        assert "shrinking" not in result.applied_stages
        verify_equivalent(p, result.final, params_list=[{"N": 8}])

    def test_e17_survey(self):
        from repro.experiments import ExperimentConfig, run_e17

        r = run_e17(ExperimentConfig(scale=256))
        for kind in ("scal", "axpy", "dot"):
            row = r.detail.row(f"blas1_{kind}")
            assert row.balance.memory_balance == pytest.approx(
                row.expected_memory, rel=0.02
            )
            assert row.memory_ratio > 5
        assert r.detail.row("jacobi").memory_ratio > 3
        assert "E17" in r.table().render()
