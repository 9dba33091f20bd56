import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import TRACE_COLUMNS, gen_quadratic, project, save_problem
from bicoord.cli import main


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

    def test_trace_csv(self, problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["solve", problem_file, "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) >= 2

    def test_alternate_strategy_flags(self, problem_file, capsys):
        code = main(["solve", problem_file, "--pair", "sweep",
                     "--linesearch", "graddiff", "--method", "bcv"])
        assert code == 0
        assert "converged: True" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["cgm", "mbc"])
    def test_other_methods(self, problem_file, method, capsys):
        assert main(["solve", problem_file, "--method", method,
                     "--mu", "0.5"]) == 0
        assert "converged: True" in capsys.readouterr().out

    def test_custom_start_point(self, problem_file, capsys):
        assert main(["solve", problem_file, "--start",
                     "0.5,0.5,0.5,0.5,0.5,0.5"]) == 0

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

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_document_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3}')
        assert main(["solve", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err


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

    def test_check_infeasible_exit_two(self, problem_file, capsys):
        assert main(["check", problem_file, "--point", "0,0,0,0,0,0"]) == 2
        out = capsys.readouterr().out
        assert "feasible: False" in out
        assert "stationary" not in out

    def test_unparsable_point_exit_two(self, problem_file, capsys):
        assert main(["project", problem_file, "--point", "a,b"]) == 2
        assert "cannot parse" in capsys.readouterr().err


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
