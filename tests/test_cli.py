import json
from pathlib import Path
import shlex
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (TRACE_COLUMNS, BoxBounds, LinearEquality,
                     QuadraticObjective, SolverConfig, bcv_solve, build_market,
                     build_problem, error_bound, gen_convex_log,
                     gen_nonsmooth_l1, gen_quadratic, load_market_json,
                     project, save_problem, to_document)
from bicoord.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _printed_point(out):
    line = [l for l in out.splitlines() if l.startswith("point: ")][0]
    return np.array([float(v) for v in line[len("point: "):].split(",")])


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "quadratic.json"
    save_problem(gen_quadratic(6, 3.0), path)
    return str(path)


@pytest.fixture()
def market_file(tmp_path):
    doc = {"traders": [{"p": 1.0, "q": 1.0, "cap": 4.0}],
           "buyers": [{"p": 3.0, "q": -1.0, "cap": 2.0}], "b": 0.0}
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def svm_file(tmp_path):
    rng = np.random.default_rng(5)
    pos = rng.normal(loc=(2.0, 2.0), scale=0.4, size=(8, 2))
    neg = rng.normal(loc=(-2.0, -2.0), scale=0.4, size=(8, 2))
    rows = ["1,%r,%r" % (float(r[0]), float(r[1])) for r in pos] + \
           ["-1,%r,%r" % (float(r[0]), float(r[1])) for r in neg]
    path = tmp_path / "points.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestSolve:
    def test_converges_with_exit_zero(self, problem_file, capsys):
        assert main(["solve", problem_file]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "error bound:" in out

    def test_budget_exhaustion_exit_three(self, problem_file, capsys):
        assert main(["solve", problem_file, "--max-iters", "1"]) == 3
        assert "converged: False (budget)" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["bcv", "cgm"])
    def test_stage_cap_exit_three(self, tmp_path, method, capsys):
        # every unconverged stop but "linesearch" exits 3
        path = tmp_path / "l1.json"
        save_problem(gen_nonsmooth_l1(10, 5.0), path)
        assert main(["solve", str(path), "--method", method,
                     "--max-stages", "1"]) == 3
        assert "converged: False (max_stages)" in capsys.readouterr().out

    def test_trace_csv(self, problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", problem_file, "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) >= 2

    def test_alternate_strategy_flags(self, problem_file, capsys):
        code = main(["solve", problem_file, "--linesearch", "graddiff",
                     "--method", "bcv"])
        assert code == 0
        assert "converged: True" in capsys.readouterr().out

    def test_cgm_refuses_the_gradient_difference_rule(self, problem_file,
                                                      capsys):
        code = main(["solve", problem_file, "--method", "cgm",
                     "--linesearch", "graddiff"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cgm takes only linesearch 'armijo'" in captured.err

    @pytest.mark.parametrize("method", ["cgm", "mbc"])
    def test_other_methods(self, problem_file, method, capsys):
        assert main(["solve", problem_file, "--method", method,
                     "--mu", "0.5"]) == 0
        assert "converged: True" in capsys.readouterr().out

    def test_custom_start_point(self, problem_file, capsys):
        assert main(["solve", problem_file, "--start",
                     "0.5,0.5,0.5,0.5,0.5,0.5"]) == 0

    def test_start_that_is_not_finite_exits_two(self, problem_file, capsys):
        # a NaN start once ran 21 stages and ended "stalled" at a NaN point
        assert main(["solve", problem_file, "--start",
                     "nan,0.5,0.5,0.5,0.5,0.5"]) == 2
        captured = capsys.readouterr()
        assert "is not finite" in captured.err
        assert captured.out == ""

    def test_linesearch_stall_exit_four(self, tmp_path, capsys):
        path = tmp_path / "q10.json"
        save_problem(gen_quadratic(10, 5.0), path)
        code = main(["solve", str(path), "--method", "mbc", "--mu", "1e-8",
                     "--start", ",".join(["0.5"] * 10)])
        out = capsys.readouterr().out
        assert code == 4
        assert "converged: False (linesearch)" in out
        assert "iterations: 142" in out
        assert "point:" in out

    def test_cgm_linesearch_failure_exit_four(self, tmp_path, capsys):
        path = tmp_path / "q10.json"
        save_problem(gen_quadratic(10, 5.0), path)
        code = main(["solve", str(path), "--method", "cgm",
                     "--max-backtracks", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert "converged: False (linesearch)" in captured.out
        assert "point:" in captured.out
        assert captured.err == ""

    def test_pair_flag_is_gone(self, problem_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", problem_file, "--pair", "sweep"])
        assert exc.value.code == 2
        assert "--pair" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_document_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3}')
        assert main(["solve", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_missing_objective_param_exit_two(self, tmp_path, capsys):
        doc = to_document(gen_convex_log(4, 2.0))
        del doc["objective"]["params"]["c"]
        path = tmp_path / "no_c.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'c'" in err and "Traceback" not in err

    def test_null_objective_param_exit_two(self, tmp_path, capsys):
        doc = to_document(gen_convex_log(4, 2.0))
        doc["objective"]["params"]["xi"] = None
        path = tmp_path / "null_xi.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'xi'" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["bcv", "cgm", "mbc"])
    def test_negative_coefficients(self, tmp_path, method, capsys):
        # a = (1, -1, 2): every method solves the document's problem
        # directly, in its coordinates
        a = np.array([1.0, -1.0, 2.0])
        p = build_problem(BoxBounds(np.zeros(3), np.ones(3)),
                          LinearEquality(a, 1.0),
                          QuadraticObjective(np.diag([1.0, 2.0, 3.0])))
        path = tmp_path / "signed.json"
        save_problem(p, path)
        trace = tmp_path / "trace.csv"
        assert main(["solve", str(path), "--method", method, "--mu", "1e-3",
                     "--max-iters", "5000", "--start", "0.5,0.5,0.5",
                     "--trace", str(trace)]) == 0
        x = _printed_point(capsys.readouterr().out)
        assert abs(a @ x - 1.0) <= 1e-12
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert error_bound(p, x) <= 1e-3
        # --start is read in the document's coordinates, where (0.5, 0.5,
        # 0.5) is feasible: the first step starts there
        first = trace.read_text().splitlines()[1].split(",")
        f_before = float(first[TRACE_COLUMNS.index("f_before")])
        assert f_before == p.objective.value(np.full(3, 0.5))

    @pytest.mark.parametrize("flag", ["--delta-min", "--eps-min", "--tau-min"])
    def test_floor_flags_are_gone(self, problem_file, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", problem_file, flag, "1e-6"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("make, mu", [(lambda: gen_quadratic(10, 5.0), "1e-6"),
                                          (lambda: gen_nonsmooth_l1(10, 5.0), "1e-3")])
    def test_default_schedule_matches_library(self, tmp_path, make, mu, capsys):
        # the CLI at default flags and bcv_solve with no schedule run the
        # same stages, so every step and the point agree
        p = make()
        path = tmp_path / "p.json"
        save_problem(p, path)
        trace = tmp_path / "trace.csv"
        assert main(["solve", str(path), "--mu", mu, "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        res = bcv_solve(p, SolverConfig(target_accuracy=float(mu)))
        assert f"iterations: {res.inner_iterations_total}" in out
        assert f"stages: {res.stages_completed}" in out
        assert np.array_equal(_printed_point(out), res.point)
        rows = trace.read_text().strip().split("\n")[1:]
        assert [int(r.split(",")[0]) for r in rows] == [e.stage for e in res.trace]


class TestProjectAndCheck:
    def test_project_matches_library(self, problem_file, capsys):
        assert main(["project", problem_file, "--point", "1,1,1,1,1,1"]) == 0
        got = np.array([float(v) for v in
                        capsys.readouterr().out.strip().split(",")])
        expect = project(np.ones(6), gen_quadratic(6, 3.0))
        assert_allclose(got, expect, atol=1e-12)

    def test_check_feasible_point(self, problem_file, capsys):
        assert main(["check", problem_file, "--point",
                     "0.5,0.5,0.5,0.5,0.5,0.5"]) == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out
        assert "multiplier interval:" in out
        assert "stationary at tol" in out

    def test_check_signed_coefficients(self, tmp_path, capsys):
        # a_1 < 0: x_1 at its lower bound can give balance by rising, so it
        # sets no lower limit on the multiplier
        p = build_problem(BoxBounds(np.zeros(3), np.ones(3)),
                          LinearEquality(np.array([1.0, -1.0, 2.0]), 1.0),
                          QuadraticObjective(np.diag([1.0, 2.0, 3.0])))
        path = tmp_path / "signed.json"
        save_problem(p, path)
        assert main(["check", str(path), "--tol", "1e-6", "--point",
                     "0.42857143237812373,9.251858538542975e-18,"
                     "0.2857142838109381"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "error bound: 2.85502e-09" in lines
        worst = float(lines[lines.index("error bound: 2.85502e-09") + 1]
                      .split(":")[1])
        assert 5e-9 < worst < 1e-8
        assert lines[-1] == "stationary at tol 1e-06: True"

    def test_check_infeasible_exit_two(self, problem_file, capsys):
        assert main(["check", problem_file, "--point", "0,0,0,0,0,0"]) == 2
        out = capsys.readouterr().out
        assert "feasible: False" in out
        assert "stationary" not in out

    def test_unparsable_point_exit_two(self, problem_file, capsys):
        assert main(["project", problem_file, "--point", "a,b"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["project", "check"])
    def test_point_that_is_not_finite_exits_two(self, problem_file, command,
                                                capsys):
        # project once printed nan,0.0,... and exited 0
        assert main([command, problem_file, "--point",
                     "nan,0.5,0.5,0.5,0.5,inf"]) == 2
        captured = capsys.readouterr()
        assert "is not finite" in captured.err
        assert captured.out == ""

    def test_check_bounds_the_gap_at_the_point_it_accepts(self, tmp_path,
                                                          capsys):
        # a box violation within --tol is feasible; the gap was once
        # refused at a box tolerance of 1e-12, after "feasible: True"
        p = build_problem(BoxBounds(np.zeros(3), np.ones(3)),
                          LinearEquality(np.ones(3), 1.0),
                          QuadraticObjective(np.eye(3)))
        path = tmp_path / "simplex.json"
        save_problem(p, path)
        assert main(["check", str(path), "--point=-0.000001,0.500001,0.5"]) == 0
        captured = capsys.readouterr()
        assert "feasible: True" in captured.out
        assert "error bound: 0.500002" in captured.out
        assert captured.err == ""

    def test_check_boundary_tol_decides_which_coordinates_sit_at_a_bound(
            self, tmp_path, capsys):
        # x_0 is 1e-3 above its lower bound with the largest scaled
        # gradient: within --boundary-tol 1e-2 it is at the bound and gives
        # no balance, and the point is stationary
        p = build_problem(BoxBounds(np.zeros(3), np.ones(3)),
                          LinearEquality(np.ones(3), 1.0),
                          QuadraticObjective(np.diag([1000.0, 1.0, 1.0])))
        path = tmp_path / "simplex.json"
        save_problem(p, path)
        point = "--point=0.001,0.4995,0.4995"
        assert main(["check", str(path), point]) == 0
        default = capsys.readouterr().out.splitlines()
        assert main(["check", str(path), point, "--boundary-tol", "1e-2"]) == 0
        wide = capsys.readouterr().out.splitlines()
        assert "worst violation: 0.5005" in default
        assert "stationary at tol 0.0001: False" in default
        assert "worst violation: 0" in wide
        assert "stationary at tol 0.0001: True" in wide


class TestBench:
    def test_markdown_table(self, capsys):
        assert main(["bench", "--series", "1", "--beta", "5", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "| beta | n | CGM | BCV | MBC |" in out
        assert "(ref 30)" in out

    def test_csv_output_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        assert main(["bench", "--series", "1", "--beta", "5", "--n", "10",
                     "--methods", "bcv", "--format", "csv",
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("series,beta,n,method,")
        assert len(lines) == 2
        assert lines[1].startswith("1,5,10,bcv,1,")

    def test_unknown_method_exits_two(self, capsys):
        assert main(["bench", "--series", "1", "--beta", "5", "--n", "10",
                     "--methods", "foo"]) == 2
        assert "'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("tau0, iterations", [(None, ("84", "24")),
                                                  ("0.8", ("88", "23"))])
    def test_tau0_sets_the_first_stage(self, tau0, iterations, capsys):
        argv = ["bench", "--series", "3", "--beta", "5", "--n", "10",
                "--format", "csv"]
        assert main(argv + ([] if tau0 is None else ["--tau0", tau0])) == 0
        rows = [line.split(",")
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[3], r[5]) for r in rows] == list(zip(("cgm", "bcv"),
                                                        iterations))

    def test_tau0_zero_exits_two(self, capsys):
        assert main(["bench", "--series", "3", "--beta", "5", "--n", "10",
                     "--tau0", "0"]) == 2
        assert "tau must be positive" in capsys.readouterr().err

    def test_csv_byte_stable_across_processes(self):
        cmd = [sys.executable, "-m", "bicoord.cli", "bench", "--series", "2",
               "--beta", "5", "--n", "10,20", "--format", "csv"]
        first = subprocess.run(cmd, capture_output=True, text=True, check=True)
        second = subprocess.run(cmd, capture_output=True, text=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.count("\n") == 7  # header + 3 methods x 2 sizes


class TestApplicationsCli:
    def test_svm_reports_weights(self, svm_file, capsys):
        assert main(["svm", svm_file, "--mu", "1e-3"]) == 0
        captured = capsys.readouterr()
        assert "weights:" in captured.out
        assert "support rows:" in captured.out
        assert "warning" not in captured.err

    def test_svm_point_is_dual_weights(self, svm_file, capsys):
        # the dual's own coordinates: weights in [0, cap] with
        # sum_i label_i y_i = 0
        assert main(["svm", svm_file, "--mu", "1e-3"]) == 0
        y = _printed_point(capsys.readouterr().out)
        labels = np.array([1.0] * 8 + [-1.0] * 8)
        assert y.min() >= 0.0 and y.max() <= 1e3
        assert abs(labels @ y) <= 1e-9 * max(1.0, y.max())

    def test_svm_ladder_keeps_a_tighter_smoothing(self, svm_file, capsys):
        # --smooth-eps below --mu is the objective's own tau; no stage
        # raises it to the target
        assert main(["svm", svm_file, "--p", "1", "--smooth-eps", "1e-4"]) == 0
        assert "smoothing: 0.0001\n" in capsys.readouterr().out

    def test_svm_cap_warning(self, svm_file, capsys):
        assert main(["svm", svm_file, "--cap", "1e-4", "--mu", "1e-6"]) == 0
        assert "raise --cap" in capsys.readouterr().err

    def test_market_equilibrium_report(self, market_file, capsys):
        assert main(["market", market_file]) == 0
        out = capsys.readouterr().out
        assert "equilibrium at tol 0.01: True" in out
        price = float([l for l in out.splitlines()
                       if l.startswith("clearing price:")][0].split(":")[1])
        assert price == pytest.approx(2.0, abs=1e-2)

    def test_market_point_in_document_coordinates(self, market_file, capsys):
        # buyer quantities are positive in the document, and so in the point
        assert main(["market", market_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        point = [l for l in lines if l.startswith("point:")][0]
        buyers = [l for l in lines if l.startswith("buyer quantities:")][0]
        x = [float(v) for v in point.split(":")[1].split(",")]
        assert x[1] > 0.0
        assert x[1] == float(buyers.split(":")[1])

    def test_market_start_in_document_coordinates(self, market_file, capsys):
        # (1, 1) clears the market exactly: one unit sold and bought at 2
        assert main(["market", market_file, "--start", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "iterations: 0\n" in out
        assert "point: 1.0,1.0\n" in out

    def test_market_quote_without_slope_exit_two(self, tmp_path, capsys):
        doc = {"traders": [{"p": 1.0, "cap": 4.0}],
               "buyers": [{"p": 3.0, "q": -1.0, "cap": 2.0}], "b": 0.0}
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        assert main(["market", str(path)]) == 2
        assert "'q'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ([], "market document is not a JSON object"),
        ({"traders": [[1.0, 1.0, 4.0]]}, "trader quotes must be a list of objects")])
    def test_market_of_the_wrong_shape_exits_two(self, tmp_path, doc, message,
                                                capsys):
        # a document that is a list once ended in an AttributeError
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        assert main(["market", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_market_with_null_b_exits_two_naming_the_field(self, tmp_path,
                                                           capsys):
        # a null b once escaped as a TypeError traceback with exit 1
        doc = {"traders": [{"p": 1.0, "q": 1.0, "cap": 4.0}],
               "buyers": [{"p": 3.0, "q": -1.0, "cap": 2.0}], "b": None}
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        assert main(["market", str(path)]) == 2
        assert "market field 'b' is not numeric" in capsys.readouterr().err


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("flags, golden", [
    ((), "market_demo.out"),
    (("--method", "mbc", "--mu", "1e-6"), "market_demo_mbc.out")])
def test_market_output_is_byte_identical_to_golden(flags, golden, capsys):
    # tests/data/market_demo.json holds the four agents of
    # demos/market_clearing.py; the second buyer is priced out
    assert main(["market", str(DATA / "market_demo.json"), *flags]) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


def test_market_document_is_byte_identical_to_golden(tmp_path):
    path = tmp_path / "market.json"
    save_problem(build_market(load_market_json(DATA / "market_demo.json"))[0], path)
    assert path.read_bytes() == (DATA / "market_demo_problem.json").read_bytes()


def test_market_with_nan_quote_exits_two_naming_the_field(tmp_path, capsys):
    # Python's json reads NaN; this market once printed "converged: True"
    # with objective nan and error bound 0
    path = tmp_path / "market.json"
    path.write_text('{"traders": [{"p": NaN, "q": 1.0, "cap": 4.0}], '
                    '"buyers": [{"p": 3.0, "q": -1.0, "cap": 2.0}], "b": 0.0}')
    assert main(["market", str(path)]) == 2
    captured = capsys.readouterr()
    assert "trader quote field 'p' must be finite" in captured.err
    assert captured.out == ""


def test_fractional_n_exits_two_naming_the_field(tmp_path, capsys):
    doc = to_document(gen_quadratic(3, 1.5))
    doc["n"] = 3.9
    path = tmp_path / "quadratic.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert "field 'n' is not an integer" in capsys.readouterr().err


def test_readme_commands_parse():
    # every `bicoord ...` line of the README's command block names only
    # subcommands and flags that exist
    lines = [l.strip() for l in README.read_text().splitlines()
             if l.startswith("bicoord ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
