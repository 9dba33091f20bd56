"""One run of one benchmark workload; started by run.py, which pins threads.

Phases of a run:
1. prepare: make the workload's inputs from the seed (untimed);
2. setup: build the instances from those inputs, several times, each timed;
3. warm-up: one whole round of the workload's solves, checked, not timed;
4. measure: whole rounds until the run length is used up, each solve call
   timed on its own, every result checked after its round.

A round is the same list of solves every time, so the share of failed
solves is the same in every run. solve_s sums, over the round's solves,
the fastest time each solve took in any round of the run. With --trace 1 the measure phase is split:
untraced rounds first, then rounds with every layer wrapped in spans. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
from dataclasses import dataclass, field
import gc
import json
from pathlib import Path
import statistics
import sys
import time

import numpy as np

from bicoord import applications, benchmark, generators, objectives, problem, solvers

import checker
from tracer import SpanTable, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

BALANCE_RTOL = 1e-10
# |reported gap - checker gap| <= GAP_RTOL * max(1, checker.gap_scale(...)).
# The largest disagreement seen is 2e-16 of that scale on the families and
# 4e-15 on the market, whose sums run over 1e5 terms.
GAP_RTOL = 1e-12

clock = time.perf_counter


@dataclass
class Round:
    solve_seconds: list[float] = field(default_factory=list)  # one per job
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    trace_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def check_point(chk, x, reported_gap: float) -> tuple[list[str], float, float]:
    """Box, balance and gap of a final iterate against the checker.

    Returns the errors found, the checker's gap and objective value at x.
    """
    errors = []
    if not checker.in_box(x, chk.lower, chk.upper):
        errors.append("final iterate leaves the box")
    bal = checker.balance_error(x, chk.a, chk.beta)
    if not bal <= BALANCE_RTOL:
        errors.append(f"balance residual {bal:.3e} relative")
    f, g = chk.value_and_gradient(x)
    gap = checker.gap(g, x, chk.a, chk.lower, chk.upper, chk.beta)
    tol = GAP_RTOL * max(1.0, checker.gap_scale(g, chk.lower, chk.upper))
    if not abs(reported_gap - gap) <= tol:
        errors.append(f"reported gap {reported_gap!r}, checker gap {gap!r}")
    return errors, gap, f


class PaperGrid:
    """The 96 cells of `bicoord bench`, through bicoord.benchmark."""

    setup_repeats = 15

    def __init__(self, seed: int):
        self.spec = benchmark.BenchmarkSpec()
        self.cells = [(series, beta, n, method)
                      for series in self.spec.series
                      for beta in self.spec.betas
                      for n in self.spec.sizes
                      for method in self.spec.methods_for(series)]

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        gens = {1: generators.gen_quadratic, 2: generators.gen_convex_log}
        for series, beta, n, _ in self.cells:
            if series == 3:
                generators.gen_nonsmooth_l1(n, beta, self.spec.tau0)
            else:
                gens[series](n, beta)

    def release(self) -> None:
        pass

    def jobs(self):
        # run_cell_detailed builds its own instance, so solve_s on this
        # workload includes one small build per cell
        for cell in self.cells:
            yield cell, lambda cell=cell: benchmark.run_cell_detailed(*cell, self.spec).result

    def check(self, cell, r) -> list[str]:
        series, beta, n, _ = cell
        tau = r.smoothing if series == 3 else None
        errors, gap, _ = check_point(checker.Family(series, n, beta, tau), r.point,
                                     r.error_bound)
        if r.converged:
            if not gap <= self.spec.accuracy:
                errors.append(f"converged with checker gap {gap!r}")
            if series == 3 and not tau <= self.spec.accuracy:
                errors.append(f"converged with tau {tau!r}")
        elif not (r.stop_reason == "budget" and r.inner_iterations_total == self.spec.cap):
            errors.append(f"stopped by {r.stop_reason!r} after "
                          f"{r.inner_iterations_total} steps, not at the cap")
        return errors


class Budgeted:
    """bcv and mbc for a fixed number of accepted steps each.

    The accuracy is far below any gap these instances reach within the
    budget, so every solve runs the whole budget; everything else is a
    SolverConfig default.
    """

    setup_repeats = 5
    budget: int
    accuracy = 1e-12

    def __init__(self, seed: int):
        self.seed = seed
        self.instance = None

    def release(self) -> None:
        self.instance = None

    def config(self) -> solvers.SolverConfig:
        return solvers.SolverConfig(target_accuracy=self.accuracy,
                                    max_inner_iterations=self.budget,
                                    max_stages=10_000)

    def jobs(self):
        z0 = self.start
        yield "bcv", lambda: solvers.bcv_solve(self.instance, self.config(), z0=z0)
        yield "mbc", lambda: solvers.mbc_solve(self.instance, self.config(), z0=z0)

    def check(self, method, r) -> list[str]:
        errors, _, f_end = check_point(self.chk, r.point, r.error_bound)
        if not (r.stop_reason == "budget" and r.inner_iterations_total == self.budget):
            errors.append(f"{method} stopped by {r.stop_reason!r} after "
                          f"{r.inner_iterations_total} of {self.budget} steps")
        if not f_end < self.f_start:
            errors.append(f"{method} objective {f_end!r} not below start {self.f_start!r}")
        return errors


class DenseN3000(Budgeted):
    """Family 2 at n = 3000, beta = 10, from the protocol start (beta/n) e."""

    budget = 20
    n, beta = 3000, 10.0

    def prepare(self) -> None:
        self.chk = checker.Family(2, self.n, self.beta)
        self.start = np.full(self.n, self.beta / self.n)
        self.f_start, _ = self.chk.value_and_gradient(self.start)

    def setup(self) -> None:
        self.instance = generators.gen_convex_log(self.n, self.beta)


class MarketN1e5(Budgeted):
    """A seeded market of 1e5 agents, loaded from its JSON document.

    Half are traders (asks p ~ U(1, 3), slopes q ~ U(0.5, 2)), half buyers
    (bids p ~ U(2, 4), slopes -q with q ~ U(0.5, 2)); capacities ~ U(0.5, 2);
    net supply b = 0. The solves start from "no trade", the zero allocation.
    """

    budget = 5
    agents = 100_000

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        m = self.agents // 2
        k = self.agents - m
        traders = np.column_stack([rng.uniform(1.0, 3.0, m), rng.uniform(0.5, 2.0, m),
                                   rng.uniform(0.5, 2.0, m)])
        buyers = np.column_stack([rng.uniform(2.0, 4.0, k), -rng.uniform(0.5, 2.0, k),
                                  rng.uniform(0.5, 2.0, k)])
        doc = {"traders": [dict(zip("p q cap".split(), row)) for row in traders.tolist()],
               "buyers": [dict(zip("p q cap".split(), row)) for row in buyers.tolist()],
               "b": 0.0}
        OUT.mkdir(parents=True, exist_ok=True)
        self.path = OUT / f"market-seed{self.seed}.json"
        self.path.write_text(json.dumps(doc))
        self.chk = checker.Market(traders, buyers, 0.0)
        self.start = np.zeros(self.agents)
        self.f_start, _ = self.chk.value_and_gradient(self.start)

    def setup(self) -> None:
        model = applications.load_market_json(self.path)
        self.instance, _ = applications.build_market(model)


WORKLOADS = {"paper_grid": PaperGrid, "dense_n3000": DenseN3000,
             "market_n1e5": MarketN1e5}


def outcome(r) -> tuple:
    """Everything the checks read from a result."""
    return (r.point.tobytes(), r.error_bound, r.inner_iterations_total,
            r.stop_reason, r.converged, r.smoothing)


def run_round(wl, verified: dict, tracer: Tracer | None = None) -> Round:
    """One pass over the workload's solves, then their checks.

    A result bit-identical to one that already passed the checker is not
    checked again; `verified` maps each job to that result's outcome.
    """
    rnd = Round()
    results = []
    gc.collect()
    with tracer.span("bench.round") if tracer else nullcontext():
        for label, solve in wl.jobs():
            rnd.attempted += 1
            t0 = clock()
            try:
                r = solve()
            except Exception as exc:  # a failed solve is counted, the run goes on
                rnd.solve_seconds.append(clock() - t0)
                rnd.failed += 1
                rnd.failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            rnd.solve_seconds.append(clock() - t0)
            results.append((label, r))
    for label, r in results:
        rnd.steps += r.inner_iterations_total
        rnd.trace_bytes += sum(ev.point_after.nbytes for ev in r.trace
                               if ev.point_after is not None)
        key = outcome(r)
        if verified.get(label) != key:
            errors = wl.check(label, r)
            rnd.errors += [f"{label}: {e}" for e in errors]
            if not errors:
                verified[label] = key
    return rnd


def best_pass(rounds: list[Round]) -> float:
    """Wall time of one pass over the workload's solves, each solve at the
    fastest it ran in any of the rounds.

    Contention from outside the process only ever adds time, and on a shared
    host it comes in phases of seconds: per-solve minima over many rounds
    drop those phases where a median over rounds keeps them.
    """
    return sum(min(times) for times in zip(*(r.solve_seconds for r in rounds)))


def measure(wl, seconds: float, verified: dict,
            tracer: Tracer | None = None) -> list[Round]:
    rounds = []
    t0 = clock()
    while not rounds or clock() - t0 < seconds:
        rounds.append(run_round(wl, verified, tracer))
    return rounds


def trace_targets():
    """(owner, attribute, span name, weight) for every name the tracer wraps.

    Each name is wrapped where its caller looks it up: solvers reach the
    geometry kernels through bicoord.solvers, bicoord.benchmark holds its own
    references to the generators and solvers, and build_problem is a global
    of each module that calls it.
    """
    def matrix_bytes(args):
        P = getattr(args[0], "P", None)
        return float(P.nbytes) if P is not None else 0.0

    def row_bytes(args):
        P = getattr(args[0], "P", None)
        return float(P.shape[1] * P.itemsize) if P is not None else 0.0

    targets = []
    for name in ("bcv_solve", "cgm_solve", "mbc_solve"):
        for mod in (solvers, benchmark):
            targets.append((mod, name, f"solvers.{name}", None))
    for name in ("select_pair", "armijo_linesearch"):
        targets.append((solvers, name, f"solvers.{name}", None))
    for name in ("minimize_linear", "project", "check_feasibility"):
        targets.append((solvers, name, f"geometry.{name}", None))
    targets.append((problem.GeometricSchedule, "stage", "problem.stage", None))
    for name in ("gen_quadratic", "gen_convex_log", "gen_nonsmooth_l1"):
        for mod in (generators, benchmark):
            targets.append((mod, name, f"generators.{name}", None))
    for name in ("load_market_json", "build_market"):
        targets.append((applications, name, f"applications.{name}", None))
    for mod in (problem, generators, applications):
        targets.append((mod, "build_problem", "problem.build_problem", None))
    for cls in vars(objectives).values():
        if isinstance(cls, type) and issubclass(cls, objectives.Objective):
            for meth, weight in (("value", matrix_bytes), ("gradient", matrix_bytes),
                                 ("partial", row_bytes)):
                if meth in cls.__dict__:
                    targets.append((cls, meth, f"objectives.{meth}", weight))
    return targets


SOLVE_SPANS = ("solvers.bcv_solve", "solvers.cgm_solve", "solvers.mbc_solve")


def layer_metrics(table: SpanTable, rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer figures of each traced round and each setup; medians of them."""
    is_obj = table.of("objectives.value", "objectives.gradient", "objectives.partial")
    has_parent = table.parent >= 0
    parent = np.where(has_parent, table.parent, 0)
    under_obj = has_parent & is_obj[parent]
    top_obj = is_obj & ~under_obj
    # a matrix pass is counted once, at the outermost objective call that has one
    dense = is_obj & (table.weight > 0)
    counted_bytes = dense & ~(has_parent & dense[parent])
    in_armijo = has_parent & table.of("solvers.armijo_linesearch")[parent]

    per_round: dict[str, list[float]] = {}

    def add(key, value):
        per_round.setdefault(key, []).append(float(value))

    round_ids = np.flatnonzero(table.of("bench.round") & ~has_parent)
    for rid, rnd in zip(round_ids, rounds):
        mine = table.root == rid
        dur, self_t = table.duration, table.self_time

        def calls(*names):
            return int(np.count_nonzero(mine & table.of(*names)))

        def total(*names, times=dur):
            return float(times[mine & table.of(*names)].sum())

        for meth in ("value", "gradient", "partial"):
            sel = mine & top_obj & table.of(f"objectives.{meth}")
            add(f"objectives.{meth}.calls", np.count_nonzero(sel))
            if meth != "partial":
                add(f"objectives.{meth}.s", dur[sel].sum())
        add("objectives.bytes_computed", table.weight[mine & counted_bytes].sum())
        for name in ("minimize_linear", "project"):
            add(f"geometry.{name}.calls", calls(f"geometry.{name}"))
            add(f"geometry.{name}.s", total(f"geometry.{name}"))
        add("geometry.check_feasibility.calls", calls("geometry.check_feasibility"))
        add("problem.stage.calls", calls("problem.stage"))
        add("solvers.select_pair.calls", calls("solvers.select_pair"))
        add("solvers.select_pair.s", total("solvers.select_pair"))
        searches = calls("solvers.armijo_linesearch")
        trials = int(np.count_nonzero(mine & in_armijo & table.of("objectives.value")))
        add("solvers.armijo_linesearch.calls", searches)
        add("solvers.armijo_linesearch.self_s",
            total("solvers.armijo_linesearch", times=self_t))
        add("solvers.loop.self_s", total(*SOLVE_SPANS, times=self_t))
        add("solvers.trials_per_step", trials / rnd.steps if rnd.steps else 0.0)
        add("solvers.backtracks", trials - searches)
        add("solvers.trace_bytes", rnd.trace_bytes)

    for sid in np.flatnonzero(table.of("bench.setup") & ~has_parent):
        mine = table.root == sid
        for name in ("generators.gen_convex_log", "applications.load_market_json",
                     "applications.build_market", "problem.build_problem"):
            add(f"{name}.s", table.duration[mine & table.of(name)].sum())

    units = {"calls": "count", "s": "s", "self_s": "s", "bytes_computed": "B",
             "trials_per_step": "ratio", "backtracks": "count", "trace_bytes": "B"}
    return {key: (statistics.median(vals), units[key.rsplit(".", 1)[1]])
            for key, vals in per_round.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare()
    tracer = Tracer() if args.trace else None
    targets = trace_targets() if tracer else None

    setup_s = []
    for _ in range(wl.setup_repeats):
        wl.release()
        gc.collect()
        with tracer.patched(targets) if tracer else nullcontext():
            with tracer.span("bench.setup") if tracer else nullcontext():
                t0 = clock()
                wl.setup()
                setup_s.append(clock() - t0)

    verified: dict = {}
    rounds = [run_round(wl, verified)]  # warm-up
    if tracer:
        plain = measure(wl, args.seconds / 2, verified)
        with tracer.patched(targets):
            traced = measure(wl, args.seconds / 2, verified, tracer)
        rounds += plain + traced
    else:
        timed = measure(wl, args.seconds, verified)
        rounds += timed
    wl.release()

    errors = [e for r in rounds for e in r.errors]
    if len({r.steps for r in rounds}) != 1:
        errors.append(f"accepted steps differ between rounds: {[r.steps for r in rounds]}")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    for f in sorted({f for r in rounds for f in r.failures}):
        print(f"solve failed: {f}", file=sys.stderr)

    if tracer:
        table = SpanTable.from_tracer(tracer)
        metrics = layer_metrics(table, traced)
        overhead = best_pass(traced) - best_pass(plain)
        metrics["tracing.overhead_s"] = (overhead, "s")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        solve_s = best_pass(timed)
        steps = timed[0].steps
        metrics = {"solve_s": (solve_s, "s"),
                   "us_per_step": (solve_s / max(steps, 1) * 1e6, "us"),
                   "steps": (steps, "count"),
                   "setup_s": (statistics.median(setup_s), "s")}
        print("round seconds: " + " ".join(f"{sum(r.solve_seconds):.3f}" for r in timed),
              file=sys.stderr)

    if isinstance(wl, MarketN1e5):
        wl.path.unlink(missing_ok=True)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
