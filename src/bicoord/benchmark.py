"""Benchmark grid over the three instance families.

Protocol: start at (beta/n) e, sigma = theta = nu = 0.5, pair tolerances
delta_0 = eps_0 = 1 halving per stage with floors 1e-6, accuracy 0.1,
iteration cap 500. The smoothed family runs tau_0 = 1.6 with
tau_{l+1} = max(accuracy, nu tau_l) and reports the final tau alongside the
error bound. Wall time is kept on the in-memory report only, so rendered
tables are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
import io
import time

from .generators import gen_convex_log, gen_nonsmooth_l1, gen_quadratic, protocol_start
from .problem import GeometricSchedule, ProblemInstance
from .reference import ReferenceCell, reference_cell
from .solvers import SolveResult, SolverConfig, bcv_solve, cgm_solve, mbc_solve

__all__ = ["BenchmarkSpec", "BenchmarkCell", "BenchmarkReport", "CellRun",
           "run_cell_detailed", "run_benchmark", "render_csv", "render_markdown"]

_FAMILY_TITLES = {
    1: "quadratic",
    2: "quadratic with log term",
    3: "quadratic with log and smoothed l1 terms",
}


@dataclass(frozen=True)
class BenchmarkSpec:
    series: tuple[int, ...] = (1, 2, 3)
    betas: tuple[float, ...] = (5.0, 10.0, 20.0)
    sizes: tuple[int, ...] = (10, 20, 50, 100)
    methods: tuple[str, ...] | None = None  # None: cgm/bcv/mbc, no mbc in family 3
    cap: int = 500
    accuracy: float = 0.1
    tau0: float = 1.6

    def methods_for(self, series: int) -> tuple[str, ...]:
        if self.methods is not None:
            return self.methods
        return ("cgm", "bcv") if series == 3 else ("cgm", "bcv", "mbc")


@dataclass(frozen=True)
class BenchmarkCell:
    series: int
    beta: float
    n: int
    method: str
    converged: bool
    iterations: int
    delta: float
    tau: float | None
    seconds: float  # in memory only, never rendered


@dataclass(frozen=True)
class BenchmarkReport:
    spec: BenchmarkSpec
    cells: tuple[BenchmarkCell, ...]

    @property
    def total_seconds(self) -> float:
        return sum(c.seconds for c in self.cells)


def _make_instance(series: int, n: int, beta: float, tau0: float) -> ProblemInstance:
    if series == 1:
        return gen_quadratic(n, beta)
    if series == 2:
        return gen_convex_log(n, beta)
    if series == 3:
        return gen_nonsmooth_l1(n, beta, tau0)
    raise ValueError(f"unknown series {series}")


@dataclass(frozen=True)
class CellRun:
    """One benchmark solve with everything needed to audit it."""

    cell: BenchmarkCell
    result: SolveResult
    instance: ProblemInstance
    stages: GeometricSchedule | None
    config: SolverConfig


def run_cell_detailed(series: int, beta: float, n: int, method: str,
                      spec: BenchmarkSpec | None = None) -> CellRun:
    """Solve one cell; the trace keeps every iterate for the audit."""
    spec = spec or BenchmarkSpec()
    inst = _make_instance(series, n, beta, spec.tau0)
    z0 = protocol_start(inst)
    cfg = SolverConfig(target_accuracy=spec.accuracy,
                       max_inner_iterations=spec.cap, max_stages=10_000,
                       record_points=True)
    stages = None
    t0 = time.perf_counter()
    if method == "bcv":
        stages = GeometricSchedule(inst, tau_min=spec.accuracy)
        result: SolveResult = bcv_solve(inst, cfg, stages=stages, z0=z0)
    elif method == "cgm":
        if series == 3:
            stages = GeometricSchedule(inst, tau_min=spec.accuracy)
        result = cgm_solve(inst, cfg, stages=stages, z0=z0)
    elif method == "mbc":
        result = mbc_solve(inst, cfg, z0=z0)
    else:
        raise ValueError(f"unknown method {method!r}")
    seconds = time.perf_counter() - t0
    cell = BenchmarkCell(
        series=series, beta=beta, n=n, method=method,
        converged=result.converged, iterations=result.inner_iterations_total,
        delta=result.error_bound, tau=result.smoothing, seconds=seconds)
    return CellRun(cell=cell, result=result, instance=inst, stages=stages,
                   config=cfg)


def run_benchmark(spec: BenchmarkSpec | None = None) -> BenchmarkReport:
    spec = spec or BenchmarkSpec()
    cells = [
        run_cell_detailed(series, beta, n, method, spec).cell
        for series in spec.series
        for beta in spec.betas
        for n in spec.sizes
        for method in spec.methods_for(series)
    ]
    return BenchmarkReport(spec=spec, cells=tuple(cells))


def _num(v: float) -> str:
    return f"{v:g}"


def _cell_text(c: BenchmarkCell, cap: int) -> str:
    if c.converged:
        return str(c.iterations)
    text = f"Δ_{cap} ≈ {c.delta:.3g}"
    if c.tau is not None:
        text += f", τ = {_num(c.tau)}"
    return text


def _ref_text(ref: ReferenceCell | None, cap: int) -> str:
    if ref is None:
        return ""
    if ref.converged:
        return str(ref.iterations)
    if ref.exceeds_one:
        return f"Δ_{cap} > 1"
    text = f"Δ_{cap} ≈ {_num(ref.delta)}"
    if ref.tau is not None:
        text += f", τ = {_num(ref.tau)}"
    return text


def render_markdown(report: BenchmarkReport) -> str:
    """One table per family, published reference values in parentheses."""
    spec = report.spec
    by_key = {(c.series, c.beta, c.n, c.method): c for c in report.cells}
    out = io.StringIO()
    out.write("# Benchmark results\n")
    out.write(f"\nAccuracy {_num(spec.accuracy)}, iteration cap {spec.cap}, "
              f"start (beta/n) e.\n")
    for series in spec.series:
        methods = spec.methods_for(series)
        out.write(f"\n## Family {series}: {_FAMILY_TITLES.get(series, '?')}\n\n")
        out.write("| beta | n | " + " | ".join(m.upper() for m in methods) + " |\n")
        out.write("|---:|---:|" + ":---|" * len(methods) + "\n")
        for beta in spec.betas:
            for n in spec.sizes:
                row = [f"| {_num(beta)} | {n} "]
                for m in methods:
                    c = by_key.get((series, beta, n, m))
                    if c is None:
                        row.append("| ")
                        continue
                    text = _cell_text(c, spec.cap)
                    ref = _ref_text(reference_cell(series, beta, n, m), spec.cap)
                    row.append(f"| {text} (ref {ref}) " if ref else f"| {text} ")
                out.write("".join(row) + "|\n")
    return out.getvalue()


def render_csv(report: BenchmarkReport) -> str:
    """Flat rows, one per (family, beta, n, method), reference columns last."""
    out = io.StringIO()
    out.write("series,beta,n,method,converged,iterations,delta,tau,"
              "ref_iterations,ref_delta,ref_tau\n")
    for c in report.cells:
        ref = reference_cell(c.series, c.beta, c.n, c.method)
        ref_it = "" if ref is None or ref.iterations is None else str(ref.iterations)
        if ref is None:
            ref_d = ref_t = ""
        else:
            ref_d = ">1" if ref.exceeds_one else (
                "" if ref.delta is None else _num(ref.delta))
            ref_t = "" if ref.tau is None else _num(ref.tau)
        out.write(",".join([
            str(c.series), _num(c.beta), str(c.n), c.method,
            "1" if c.converged else "0", str(c.iterations),
            f"{c.delta:.12g}", "" if c.tau is None else _num(c.tau),
            ref_it, ref_d, ref_t,
        ]) + "\n")
    return out.getvalue()
