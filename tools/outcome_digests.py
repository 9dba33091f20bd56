"""Digest of every solve outcome and projection over a fixed case list.

    PYTHONPATH=src python3 tools/outcome_digests.py > digests.txt

Each line is `case sha256-prefix`. For a solve the hash covers every
SolveResult field (the point's bytes, so the sign of zero counts; floats as
float.hex), every trace row and every recorded point; for a projection
(cases `project/...`) it covers the projected point's bytes. Run it on two
checkouts and diff the files to check that a change leaves outcomes
bit-identical. The solves: the 96 cells of the benchmark grid, families 1-3
at further accuracies, budgets and linesearch rules, markets (with 5
budgeted steps at 1e5 agents, the benchmark's market shape), signed
instances, every stop reason of the pair methods, SVM duals, portfolios
(markets, SVM duals and portfolios under both linesearch rules for bcv and
mbc), budgeted dense solves at n = 1500 and, for families 1-3, at
n = 3000 with 20 and 120 steps, and cgm on signed instances, families
1-3 at 1e-8 and 1e-10, a start outside the log domain, and 5 budgeted
steps on 1e5-agent markets; and Armijo solves of bcv, mbc and cgm at sigma
and theta of 0.1 and 0.9, on families 1-3 and 200-agent markets, where the
first trial that a linesearch evaluates falls at other backtracks; and the
stage ladder's stops: cgm on family 3 capped at one and two stages, and bcv
and cgm on schedules built for an accuracy coarser than the target. The
projections:
the grid's protocol starts, 1e5-agent market starts, signed, tied and
beta-at-the-ends instances, and points far from the box. The knapsacks
(cases `knapsack/...`, the argmin's bytes and the value) are direct linear
minimizations at n from 4096 to 12288, where `minimize_linear` selects the
prefix of the cost order that its fill reaches, and at n from 10 to 256,
across the size below which it fills in a Python loop: distinct, tied,
signed and NaN costs, budgets at and near both ends, and fills that a
guess from the average cap undercounts. The documents (cases `document/...`, the sha256
of `json.dumps(to_document(p), sort_keys=True)`) are families 1-3 at n = 6,
SVM duals and portfolios at p = 1 and 2, and tests/data/market_demo.json.
Only the public API is used, so the script runs unchanged on older
checkouts. It pins the BLAS and OpenMP pools to one
thread before numpy loads, so two checkouts compare on the same summation
order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

# one BLAS thread: a threaded dot sums in another order, so at large n the
# bits of an outcome would depend on the thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

from bicoord import (
    BenchmarkSpec,
    BoxBounds,
    GeometricSchedule,
    LinearEquality,
    LinearObjective,
    MarketModel,
    PortfolioData,
    QuadraticObjective,
    SeparableQuadraticObjective,
    SolverConfig,
    SvmDataset,
    bcv_solve,
    build_market,
    build_portfolio,
    build_problem,
    build_svm_dual,
    cgm_solve,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    load_market_json,
    mbc_solve,
    minimize_linear,
    project,
    protocol_start,
    run_cell_detailed,
    to_document,
)

SOLVERS = {"bcv": bcv_solve, "mbc": mbc_solve, "cgm": cgm_solve}
FAMILIES = {1: gen_quadratic, 2: gen_convex_log, 3: gen_nonsmooth_l1}


def _num(v) -> str:
    return "None" if v is None else float(v).hex()


def digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(res.point, dtype=float).tobytes())
    h.update(repr((_num(res.objective_value), _num(res.error_bound),
                   res.inner_iterations_total, res.stages_completed,
                   res.converged, res.stop_reason,
                   _num(res.smoothing))).encode())
    for e in res.trace:
        h.update(repr((e.stage, e.k, e.i, e.j, _num(e.gamma), _num(e.lam),
                       _num(e.mu), _num(e.f_before), _num(e.f_after),
                       e.backtracks)).encode())
        if e.point_after is not None:
            h.update(e.point_after.tobytes())
    return h.hexdigest()[:16]


def solve(method: str, p, z0, **options):
    options.setdefault("max_stages", 10_000)
    cfg = SolverConfig(record_points=True, **options)
    return SOLVERS[method](p, cfg, z0=z0)


def grid_cases():
    spec = BenchmarkSpec()
    for series in spec.series:
        for beta, n in itertools.product(spec.betas, spec.sizes):
            for method in spec.methods_for(series):
                run = run_cell_detailed(series, beta, n, method, spec)
                yield f"grid/{series}/{beta:g}/{n}/{method}", run.result


def family_cases():
    for series, n, acc in itertools.product((1, 2, 3), (10, 40), (1e-3, 1e-6)):
        p = FAMILIES[series](n, 5.0)
        z0 = protocol_start(p)
        for method, rule in (("bcv", "armijo"), ("bcv", "gradient-difference"),
                             ("mbc", "armijo"), ("mbc", "gradient-difference"),
                             ("cgm", "armijo")):
            res = solve(method, p, z0, target_accuracy=acc,
                        max_inner_iterations=300, linesearch=rule)
            yield f"family/{series}/{n}/{acc:g}/{method}/{rule}", res
    # budgets on both sides of the quadratic state's rebuild interval
    for series, budget in itertools.product((1, 2, 3), (7, 49, 50, 51, 120)):
        p = FAMILIES[series](40, 10.0)
        for method in ("bcv", "mbc"):
            res = solve(method, p, protocol_start(p), target_accuracy=1e-9,
                        max_inner_iterations=budget)
            yield f"budget/{series}/{budget}/{method}", res


def seeded_market(agents: int, seed: int):
    rng = np.random.default_rng(seed)
    m = agents // 2
    k = agents - m
    traders = np.column_stack([rng.uniform(1.0, 3.0, m), rng.uniform(0.5, 2.0, m),
                               rng.uniform(0.5, 2.0, m)])
    buyers = np.column_stack([rng.uniform(2.0, 4.0, k), -rng.uniform(0.5, 2.0, k),
                              rng.uniform(0.5, 2.0, k)])
    return build_market(MarketModel(traders, buyers, 0.0))[0]


def market_cases():
    for agents, seed in ((12, 0), (12, 3), (40, 1), (40, 7), (200, 2), (200, 5)):
        p = seeded_market(agents, seed)
        for method, acc in itertools.product(("bcv", "mbc", "cgm"), (1e-2, 1e-6)):
            res = solve(method, p, np.zeros(p.n), target_accuracy=acc,
                        max_inner_iterations=2000)
            yield f"market/{agents}/{seed}/{method}/{acc:g}", res
    # the benchmark's market_n1e5 shape: 5 budgeted steps from no trade
    for seed in (0, 1):
        p = seeded_market(100_000, seed)
        for method in ("bcv", "mbc"):
            res = solve(method, p, np.zeros(p.n), target_accuracy=1e-12,
                        max_inner_iterations=5)
            yield f"market/100000/{seed}/{method}/budget5", res
    # the gradient-difference rule on the separable pair state
    for agents, seed in ((12, 0), (12, 3), (40, 1), (40, 7), (200, 2), (200, 5)):
        p = seeded_market(agents, seed)
        for method, acc in itertools.product(("bcv", "mbc"), (1e-2, 1e-6)):
            res = solve(method, p, np.zeros(p.n), target_accuracy=acc,
                        max_inner_iterations=2000,
                        linesearch="gradient-difference")
            yield (f"market/{agents}/{seed}/{method}/{acc:g}"
                   "/gradient-difference"), res
    for seed in (0, 1):
        p = seeded_market(100_000, seed)
        for method in ("bcv", "mbc"):
            res = solve(method, p, np.zeros(p.n), target_accuracy=1e-12,
                        max_inner_iterations=5,
                        linesearch="gradient-difference")
            yield f"market/100000/{seed}/{method}/budget5/gradient-difference", res


def signed_instance(seed: int):
    """A random instance with signed equality coefficients: separable or
    quadratic-family objective, n from 2 to 8, a start inside the box."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = rng.choice([-1.0, 1.0], n) * rng.choice([0.5, 1.0, 2.0, 3.0], n)
    lower = rng.choice([-2.0, -0.5, 0.0, 1.0], n)
    upper = lower + rng.choice([1.0, 0.5, 3.0, 5.0], n)
    z0 = rng.uniform(lower, upper)
    kind = seed % 4
    if kind == 0:
        obj = SeparableQuadraticObjective(rng.uniform(-5.0, 5.0, n),
                                          rng.uniform(0.0, 2.0, n))
    else:
        M = rng.standard_normal((n, n))
        P = 0.5 * (M + M.T) + n * np.eye(n)
        if kind == 1:
            obj = QuadraticObjective(P)
        else:
            c = rng.uniform(-2.0, 2.0, n)
            radius = np.maximum(np.abs(lower), np.abs(upper))
            xi = float(np.abs(c) @ radius) + 1.0
            obj = QuadraticObjective(P, c, xi, 0.5 if kind == 3 else None)
    p = build_problem(BoxBounds(lower, upper), LinearEquality(a, float(a @ z0)), obj)
    return p, z0


def signed_cases():
    for seed in range(20):
        p, z0 = signed_instance(seed)
        for method, rule, acc, budget in itertools.product(
                ("bcv", "mbc"), ("armijo", "gradient-difference"), (1e-2, 1e-6),
                (3, 300)):
            res = solve(method, p, z0, target_accuracy=acc,
                        max_inner_iterations=budget, linesearch=rule)
            yield f"signed/{seed}/{method}/{rule}/{acc:g}/{budget}", res


def log_domain_problem():
    """f = 50 x0^2 - ln(x0 - x1 + 0.1) on x0 + x1 = 1, [0, 1]^2. From
    (1, 0) the first full step lands at (0, 1), outside the log domain."""
    obj = QuadraticObjective(np.diag([100.0, 0.0]), np.array([1.0, -1.0]), 0.1)
    return build_problem(BoxBounds(np.zeros(2), np.ones(2)),
                         LinearEquality(np.ones(2), 1.0), obj)


def cgm_cases():
    """cgm's Armijo trials: signed instances, families 1-3 at accuracies
    where trials sit within rounding of the Armijo threshold, and a start
    whose first trials leave the log domain."""
    for seed in range(20):
        p, z0 = signed_instance(seed)
        for acc, budget in itertools.product((1e-2, 1e-6), (3, 300)):
            res = solve("cgm", p, z0, target_accuracy=acc,
                        max_inner_iterations=budget)
            yield f"cgm/signed/{seed}/{acc:g}/{budget}", res
    for series, n, acc in itertools.product((1, 2, 3), (10, 40), (1e-8, 1e-10)):
        p = FAMILIES[series](n, 5.0)
        res = solve("cgm", p, protocol_start(p), target_accuracy=acc,
                    max_inner_iterations=1000)
        yield f"cgm/family/{series}/{n}/{acc:g}", res
    res = solve("cgm", log_domain_problem(), np.array([1.0, 0.0]))
    yield "cgm/log_domain", res
    # every direction of these steps is a knapsack at n = 1e5
    for seed in (0, 1):
        p = seeded_market(100_000, seed)
        res = solve("cgm", p, np.zeros(p.n), target_accuracy=1e-12,
                    max_inner_iterations=5)
        yield f"cgm/market/100000/{seed}/budget5", res


def armijo_cases():
    """The Armijo rule at sigma and theta away from 0.5: the first trial a
    linesearch evaluates, and the accepted one, fall at other backtracks."""
    rules = list(itertools.product((0.1, 0.9), (0.1, 0.9)))
    for series, n, (sigma, theta) in itertools.product((1, 2, 3), (10, 50), rules):
        p = FAMILIES[series](n, 5.0)
        for method in ("bcv", "mbc", "cgm"):
            res = solve(method, p, protocol_start(p), sigma=sigma, theta=theta,
                        target_accuracy=1e-6, max_inner_iterations=300)
            yield f"armijo/family/{series}/{n}/{sigma:g}/{theta:g}/{method}", res
    for seed, (sigma, theta) in itertools.product((2, 5), rules):
        p = seeded_market(200, seed)
        for method in ("bcv", "mbc", "cgm"):
            res = solve(method, p, np.zeros(p.n), sigma=sigma, theta=theta,
                        target_accuracy=1e-6, max_inner_iterations=2000)
            yield f"armijo/market/200/{seed}/{sigma:g}/{theta:g}/{method}", res


def ladder_cases():
    """cgm on family 3 at a cap of one and two stages, where the gap meets
    the target before tau does, and bcv and cgm at target 0.1 on schedules
    built for 0.5 and 2.0, whose tau floor stays above the target."""
    for n, max_stages in itertools.product((10, 40), (1, 2)):
        p = gen_nonsmooth_l1(n, 5.0)
        res = solve("cgm", p, protocol_start(p), max_stages=max_stages)
        yield f"ladder/cgm/3/{n}/max_stages{max_stages}", res
    for n, coarse, method in itertools.product((10, 40), (0.5, 2.0),
                                               ("bcv", "cgm")):
        p = gen_nonsmooth_l1(n, 5.0)
        cfg = SolverConfig(max_stages=10_000, record_points=True)
        res = SOLVERS[method](p, cfg, stages=GeometricSchedule(p, coarse),
                              z0=protocol_start(p))
        yield f"ladder/{method}/3/{n}/schedule{coarse:g}", res


def stall_problem(kind: str):
    """Balance 1000 over [0, 1000]^2 with a scaled-gradient difference of
    about 5e-9 across the pair, below the threshold floor at accuracy 1e-6."""
    if kind == "quadratic":
        obj = QuadraticObjective(np.zeros((2, 2)), np.array([-1.0, -1.0 - 5e-6]),
                                 2000.0)
    else:
        obj = SeparableQuadraticObjective(np.array([1.0, 1.0 + 5e-9]), np.zeros(2))
    return build_problem(BoxBounds(np.zeros(2), np.full(2, 1000.0)),
                         LinearEquality(np.ones(2), 1000.0), obj)


# every stop reason of the pair methods: (method, options, label)
EXITS = [
    ("bcv", {}, "converged"),
    ("mbc", {}, "converged"),
    ("mbc", {"target_accuracy": 1e-9, "max_inner_iterations": 7}, "budget"),
    ("mbc", {"target_accuracy": 1e-8}, "linesearch"),
    ("mbc", {"target_accuracy": 1e-12, "linesearch": "gradient-difference"},
     "no_descent_pair"),
    ("bcv", {"target_accuracy": 1e-8, "max_stages": 2}, "max_stages"),
]


def exit_cases():
    quadratic = gen_quadratic(10, 5.0)
    market = seeded_market(12, 3)
    for (method, options, label), (name, p, z0) in itertools.product(
            EXITS, (("quadratic", quadratic, protocol_start(quadratic)),
                    ("market", market, np.zeros(market.n)))):
        yield f"exit/{name}/{method}/{label}", solve(method, p, z0, **options)
    for kind, method in itertools.product(("quadratic", "separable"),
                                          ("bcv", "mbc")):
        res = solve(method, stall_problem(kind), np.array([500.0, 500.0]),
                    target_accuracy=1e-6)
        yield f"exit/stall/{kind}/{method}", res


def svm_data(seed: int, rows: int) -> SvmDataset:
    rng = np.random.default_rng(seed)
    labels = np.where(np.arange(rows) % 2 == 0, 1.0, -1.0)
    features = rng.standard_normal((rows, 3)) + labels[:, None]
    return SvmDataset(features, labels)


def svm_cases():
    for seed, rows in ((0, 12), (1, 20), (2, 30)):
        data = svm_data(seed, rows)
        for p_norm, method, acc in itertools.product(
                (1, 2), ("bcv", "mbc", "cgm"), (0.1, 1e-3)):
            p = build_svm_dual(data, p=p_norm, upper_cap=10.0)
            res = solve(method, p, None, target_accuracy=acc,
                        max_inner_iterations=1000)
            yield f"svm/{seed}/{p_norm}/{method}/{acc:g}", res
        # the gradient-difference rule on the generic pair state
        for p_norm, method, acc in itertools.product(
                (1, 2), ("bcv", "mbc"), (0.1, 1e-3)):
            p = build_svm_dual(data, p=p_norm, upper_cap=10.0)
            res = solve(method, p, None, target_accuracy=acc,
                        max_inner_iterations=1000,
                        linesearch="gradient-difference")
            yield f"svm/{seed}/{p_norm}/{method}/{acc:g}/gradient-difference", res


def portfolio_data(seed: int) -> PortfolioData:
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((8, 8))
    return PortfolioData(B @ B.T / 8.0, rng.uniform(0.0, 0.2, 8), 0.12)


def portfolio_cases():
    for seed in (0, 1):
        data = portfolio_data(seed)
        for p_norm, method in itertools.product((1, 2), ("bcv", "mbc", "cgm")):
            p = build_portfolio(data, p=p_norm)
            res = solve(method, p, None, target_accuracy=1e-3,
                        max_inner_iterations=1000)
            yield f"portfolio/{seed}/{p_norm}/{method}", res
        for p_norm, method in itertools.product((1, 2), ("bcv", "mbc")):
            p = build_portfolio(data, p=p_norm)
            res = solve(method, p, None, target_accuracy=1e-3,
                        max_inner_iterations=1000,
                        linesearch="gradient-difference")
            yield f"portfolio/{seed}/{p_norm}/{method}/gradient-difference", res


def budgeted_dense_cases():
    for series in (1, 2):
        p = FAMILIES[series](1500, 10.0)
        for method in ("bcv", "mbc"):
            res = solve(method, p, protocol_start(p), target_accuracy=1e-9,
                        max_inner_iterations=40)
            yield f"dense/{series}/1500/{method}", res
    # the benchmark's dense_n3000 shape, and 120 steps across the quadratic
    # state's rebuilds every 50 moves
    for series in (1, 2, 3):
        p = FAMILIES[series](3000, 10.0)
        for budget, method in itertools.product((20, 120), ("bcv", "mbc")):
            res = solve(method, p, protocol_start(p), target_accuracy=1e-9,
                        max_inner_iterations=budget)
            yield f"dense/{series}/3000/{budget}/{method}", res


def projection_instance(seed: int):
    """A random projection: n from 2 to 2000; a positive, signed, or signed
    integers over an integer box (tied breakpoints); beta at the low end,
    the high end or inside; z feasible, on the bounds, clipped or far."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 7, 50, 2000]))
    kind = seed % 3
    if kind == 2:
        a = rng.choice([-1.0, 1.0], n) * rng.integers(1, 4, n)
        lower = rng.integers(-3, 2, n).astype(float)
        upper = lower + rng.integers(1, 3, n)
    else:
        a = rng.uniform(0.1, 3.0, n)
        if kind == 1:
            a *= rng.choice([-1.0, 1.0], n)
        lower = rng.uniform(-2.0, 0.0, n)
        upper = lower + rng.uniform(0.01, 3.0, n)
    lo_balance = float(np.minimum(a * lower, a * upper).sum())
    hi_balance = float(np.maximum(a * lower, a * upper).sum())
    where = seed // 3 % 3
    beta = (lo_balance, hi_balance,
            lo_balance + rng.uniform(0.1, 0.9) * (hi_balance - lo_balance))[where]
    start = seed // 9 % 4
    if start == 0:
        z = rng.uniform(lower, upper)
        if where == 2:
            beta = float(a @ z)
    elif start == 1:
        z = np.where(rng.random(n) < 0.5, lower, upper)
    elif start == 2:
        z = rng.uniform(lower - 1.0, upper + 1.0)
    else:
        z = rng.uniform(lower, upper) + rng.choice([-1e6, 1e6])
    p = build_problem(BoxBounds(lower, upper), LinearEquality(a, beta),
                      LinearObjective(np.zeros(n)))
    return p, z


def project_cases():
    spec = BenchmarkSpec()
    for series, beta, n in itertools.product(spec.series, spec.betas, spec.sizes):
        p = FAMILIES[series](n, beta)
        yield f"project/grid/{series}/{beta:g}/{n}", project(protocol_start(p), p)
    for seed in (0, 1):
        p = seeded_market(100_000, seed)
        yield f"project/market/100000/{seed}", project(np.zeros(p.n), p)
    for seed in range(360):
        p, z = projection_instance(seed)
        yield f"project/random/{seed}/{p.n}", project(z, p)


def knapsack_instance(seed: int, low: int = 4096, high: int = 12288):
    """A linear minimization at n from low to high. By seed % 4: distinct
    ratios; power-of-two a with three-valued costs (long tie runs); signed a;
    NaN costs. The budget sits at 0, 1e-9, 0.05, 0.3, 0.5, 1 - 1e-9 or 1 of
    the caps' sum (seed // 4 % 7)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(low, high + 1))
    kind = seed % 4
    if kind == 1:
        a = 2.0 ** rng.integers(-2, 3, n)
        c = rng.choice([-1.5, 0.0, 2.0], n) * a
    else:
        a = rng.uniform(0.1, 5.0, n)
        c = rng.standard_normal(n)
    if kind == 2:
        a *= rng.choice([-1.0, 1.0], n)
    if kind == 3:
        c[rng.random(n) < rng.choice([0.01, 0.6])] = np.nan
    lower = rng.uniform(-3.0, 3.0, n)
    upper = lower + rng.uniform(0.01, 4.0, n)
    lo_sum = float(np.sum(np.minimum(a * lower, a * upper)))
    hi_sum = float(np.sum(np.maximum(a * lower, a * upper)))
    t = (0.0, 1e-9, 0.05, 0.3, 0.5, 1.0 - 1e-9, 1.0)[seed // 4 % 7]
    beta = lo_sum if t == 0.0 else hi_sum if t == 1.0 else (
        lo_sum + t * (hi_sum - lo_sum))
    p = build_problem(BoxBounds(lower, upper), LinearEquality(a, beta),
                      LinearObjective(np.zeros(n)))
    return p, c


def short_guess_knapsack(share: float):
    """8192 coordinates, a = 1: the cheaper half has caps 1e-3 and the
    dearer half caps 1, with the budget at `share` of the caps' sum."""
    n = 8192
    c = np.random.default_rng(n).permutation(n).astype(float)
    upper = np.where(c < n // 2, 1e-3, 1.0)
    p = build_problem(BoxBounds(np.zeros(n), upper),
                      LinearEquality(np.ones(n), share * float(upper.sum())),
                      LinearObjective(np.zeros(n)))
    return p, c


def knapsack_cases():
    for seed in range(28):
        p, c = knapsack_instance(seed)
        yield f"knapsack/random/{seed}/{p.n}", minimize_linear(c, p)
    for share in (0.3, 0.35):
        p, c = short_guess_knapsack(share)
        yield f"knapsack/short_guess/{share:g}", minimize_linear(c, p)
    # the sizes of the benchmark grid and of the small-n fill loop
    for seed in range(28):
        p, c = knapsack_instance(seed, 10, 256)
        yield f"knapsack/small/{seed}/{p.n}", minimize_linear(c, p)


def document_cases():
    for series in (1, 2, 3):
        yield f"document/family/{series}/6", FAMILIES[series](6, 5.0)
    for p_norm in (1, 2):
        yield (f"document/svm/0/{p_norm}",
               build_svm_dual(svm_data(0, 12), p=p_norm, upper_cap=10.0))
        yield f"document/portfolio/0/{p_norm}", build_portfolio(portfolio_data(0),
                                                                p=p_norm)
    demo = Path(__file__).resolve().parent.parent / "tests/data/market_demo.json"
    yield "document/market/market_demo", build_market(load_market_json(demo))[0]


def document_digest(p) -> str:
    text = json.dumps(to_document(p), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def point_digest(x) -> str:
    return hashlib.sha256(np.asarray(x, dtype=float).tobytes()).hexdigest()[:16]


def knapsack_digest(y, value) -> str:
    h = hashlib.sha256(np.asarray(y, dtype=float).tobytes())
    h.update(_num(value).encode())
    return h.hexdigest()[:16]


def main() -> None:
    for source in (grid_cases, family_cases, market_cases, signed_cases,
                   cgm_cases, armijo_cases, ladder_cases, exit_cases, svm_cases,
                   portfolio_cases, budgeted_dense_cases):
        for case, res in source():
            print(case, digest(res), flush=True)
    for case, x in project_cases():
        print(case, point_digest(x), flush=True)
    for case, (y, value) in knapsack_cases():
        print(case, knapsack_digest(y, value), flush=True)
    for case, p in document_cases():
        print(case, document_digest(p), flush=True)


if __name__ == "__main__":
    main()
