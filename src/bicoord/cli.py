"""Command line interface.

Subcommands: solve, bench, project, check, svm, market. Exit codes:
0 success, 2 infeasible or malformed input, 3 solver finished without
reaching the target accuracy (every other stop reason), 4 linesearch
failure (the result, with stop reason "linesearch", is still printed).
"""

from __future__ import annotations

import argparse
import sys
import numpy as np

from .applications import (build_svm_dual, build_market, load_market_json,
                           load_svm_csv, split_market_point, svm_cap_binding, svm_primal,
                           verify_market_equilibrium)
from .benchmark import BenchmarkSpec, render_csv, render_markdown, run_benchmark
from .diagnostics import check_stationarity, write_trace_csv
from .geometry import check_feasibility, linear_gap, project
from .problem import GeometricSchedule, ProblemError, SignMap
from .serialization import load_problem
from .solvers import METHODS, SolverConfig, solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_LINESEARCH = 4


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ProblemError(f"cannot parse vector {text!r}: {exc}") from exc
    if not np.isfinite(vec).all():
        raise ProblemError(f"vector {text!r} is not finite")
    return vec


def _format_vector(x: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in x)


def _add_solver_options(sp: argparse.ArgumentParser, mu: float = 0.1,
                        max_iter: int = 500) -> None:
    sp.add_argument("--method", choices=METHODS, default="bcv")
    sp.add_argument("--mu", type=float, default=mu,
                    help="target accuracy for the error bound")
    sp.add_argument("--max-iters", type=int, default=max_iter)
    sp.add_argument("--max-stages", type=int, default=1000)
    sp.add_argument("--sigma", type=float, default=0.5)
    sp.add_argument("--theta", type=float, default=0.5)
    sp.add_argument("--nu", type=float, default=0.5)
    sp.add_argument("--delta0", type=float, default=1.0)
    sp.add_argument("--eps0", type=float, default=1.0)
    sp.add_argument("--linesearch", choices=("armijo", "graddiff"),
                    default="armijo")
    sp.add_argument("--max-backtracks", type=int, default=60)
    sp.add_argument("--start", type=str, default=None,
                    help="comma separated start point")
    sp.add_argument("--trace", type=str, default=None,
                    help="write the iteration trace to this CSV file")


def _run_solver(problem, args, signs: SignMap | None = None):
    rule = {"armijo": "armijo", "graddiff": "gradient-difference"}[args.linesearch]
    cfg = SolverConfig(
        sigma=args.sigma, theta=args.theta, target_accuracy=args.mu,
        max_inner_iterations=args.max_iters, max_stages=args.max_stages,
        max_backtracks=args.max_backtracks, linesearch=rule)
    z0 = _parse_vector(args.start) if args.start else None
    if z0 is not None and signs is not None:
        z0 = signs.apply(z0)
    stages = None if args.method == "mbc" else GeometricSchedule(
        problem, args.mu, delta0=args.delta0, eps0=args.eps0, nu=args.nu)
    return solve(problem, args.method, cfg, stages, z0)


def _print_result(result, trace_path=None) -> None:
    print(f"converged: {result.converged} ({result.stop_reason})")
    print(f"iterations: {result.inner_iterations_total}")
    print(f"stages: {result.stages_completed}")
    print(f"objective: {result.objective_value:.10g}")
    print(f"error bound: {result.error_bound:.6g}")
    if result.smoothing is not None:
        print(f"smoothing: {result.smoothing:g}")
    print(f"point: {_format_vector(result.point)}")
    if trace_path:
        write_trace_csv(result.trace, trace_path)
        print(f"trace written to {trace_path}")


def _exit_code(result) -> int:
    if result.converged:
        return EXIT_OK
    return EXIT_LINESEARCH if result.stop_reason == "linesearch" else EXIT_BUDGET


def _cmd_solve(args) -> int:
    result = _run_solver(load_problem(args.problem), args)
    _print_result(result, args.trace)
    return _exit_code(result)


def _cmd_bench(args) -> int:
    if args.series == "all":
        series: tuple[int, ...] = (1, 2, 3)
    else:
        series = tuple(int(s) for s in args.series.split(","))
    spec = BenchmarkSpec(
        series=series,
        betas=tuple(float(b) for b in args.beta.split(",")),
        sizes=tuple(int(n) for n in args.n.split(",")),
        methods=tuple(args.methods.split(",")) if args.methods else None,
        cap=args.cap, accuracy=args.mu, tau0=args.tau0)
    report = run_benchmark(spec)
    text = render_csv(report) if args.format == "csv" else render_markdown(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_project(args) -> int:
    problem = load_problem(args.problem)
    x = project(_parse_vector(args.point), problem)
    print(_format_vector(x))
    return EXIT_OK


def _cmd_check(args) -> int:
    problem = load_problem(args.problem)
    x = _parse_vector(args.point)
    feas = check_feasibility(x, problem, tol=max(args.tol, 1e-10),
                             box_tol=args.tol)
    print(f"balance residual: {feas.balance_residual:.6g}")
    print(f"max box violation: {feas.max_box_violation:.6g}")
    print(f"feasible: {feas.feasible}")
    if not feas.feasible:
        return EXIT_INFEASIBLE
    # the gap at the point the report above accepted, at --tol
    gap = linear_gap(problem.objective.gradient(x), x, problem)
    rep = check_stationarity(problem, x, tol=args.tol,
                             boundary_tol=args.boundary_tol)
    lo, hi = rep.multiplier_interval
    print(f"error bound: {gap:.6g}")
    print(f"worst violation: {rep.worst_violation:.6g}")
    print(f"multiplier interval: [{lo:.6g}, {hi:.6g}]")
    print(f"stationary at tol {args.tol:g}: {rep.stationary}")
    return EXIT_OK


def _cmd_svm(args) -> int:
    data = load_svm_csv(args.data)
    problem = build_svm_dual(data, tau=args.tau, p=args.p,
                             smooth_eps=args.smooth_eps, upper_cap=args.cap)
    result = _run_solver(problem, args)
    _print_result(result, args.trace)
    binding = svm_cap_binding(result.point, args.cap)
    if binding.size:
        print(f"warning: {binding.size} dual weight(s) at the box cap "
              f"{args.cap:g}; raise --cap", file=sys.stderr)
    w, bias, support = svm_primal(data, result.point)
    print(f"weights: {_format_vector(w)}")
    print(f"bias: {bias:.10g}")
    print(f"support rows: {support} of {data.n_rows}")
    return _exit_code(result)


def _cmd_market(args) -> int:
    model = load_market_json(args.model)
    problem, sign_map = build_market(model)
    # --start and the printed point are in the document's coordinates, the
    # solve in the sign-normalized ones
    result = _run_solver(problem, args, sign_map)
    x, y = split_market_point(model, result.point, sign_map)
    result.point = sign_map.apply(result.point)
    _print_result(result, args.trace)
    rep = verify_market_equilibrium(model, x, y, tol=args.tol)
    print(f"trader quantities: {_format_vector(x)}")
    print(f"buyer quantities: {_format_vector(y)}")
    print(f"clearing price: {rep.price:.10g}")
    print(f"price violation: {rep.max_violation:.6g}")
    print(f"balance residual: {rep.balance_residual:.6g}")
    print(f"equilibrium at tol {args.tol:g}: {rep.equilibrium}")
    return _exit_code(result)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bicoord",
        description="Bi-coordinate descent over a box and one linear equality")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a problem document")
    sp.add_argument("problem", help="problem JSON file")
    _add_solver_options(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("bench", help="run the benchmark grid")
    sp.add_argument("--series", default="all",
                    help="'all' or comma separated family numbers")
    sp.add_argument("--beta", default="5,10,20")
    sp.add_argument("--n", default="10,20,50,100")
    sp.add_argument("--methods", default=None,
                    help="comma separated subset of cgm,bcv,mbc")
    sp.add_argument("--cap", type=int, default=500)
    sp.add_argument("--mu", type=float, default=0.1)
    sp.add_argument("--tau0", type=float, default=1.6)
    sp.add_argument("--format", choices=("md", "csv"), default="md")
    sp.add_argument("--out", default=None, help="write tables to this file")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("project", help="project a point onto the feasible set")
    sp.add_argument("problem")
    sp.add_argument("--point", required=True, help="comma separated point")
    sp.set_defaults(func=_cmd_project)

    sp = sub.add_parser("check", help="feasibility and stationarity report")
    sp.add_argument("problem")
    sp.add_argument("--point", required=True)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--boundary-tol", type=float, default=None)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("svm", help="train a separating surface via the dual")
    sp.add_argument("data", help="CSV rows label,f1,f2,... with labels +-1")
    sp.add_argument("--tau", type=float, default=10.0)
    sp.add_argument("--p", type=int, choices=(1, 2), default=2)
    sp.add_argument("--smooth-eps", type=float, default=1e-4)
    sp.add_argument("--cap", type=float, default=1e3,
                    help="upper bound for the dual variables")
    _add_solver_options(sp, mu=0.1, max_iter=2000)
    sp.set_defaults(func=_cmd_svm)

    sp = sub.add_parser("market", help="single-commodity market equilibrium")
    sp.add_argument("model", help="JSON {traders, buyers, b}")
    sp.add_argument("--tol", type=float, default=1e-2,
                    help="equilibrium verification tolerance")
    _add_solver_options(sp, mu=1e-4, max_iter=5000)
    sp.set_defaults(func=_cmd_market)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ProblemError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
