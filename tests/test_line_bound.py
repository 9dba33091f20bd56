"""The quadratic family's line bound, which settles cgm's Armijo trials.

`QuadraticObjective.line_bound(x, d)` gives lb(lam), a lower bound on the
computed value(x + lam d). armijo_linesearch rejects a trial unevaluated
when lb(lam) exceeds the Armijo threshold, so the bound must hold with the
rounding of value and of the trial point included. These tests check it
over the benchmark families and random instances: PSD, slightly asymmetric
and zero P, signed coefficients, d from a knapsack vertex, tiny steps, log
arguments near zero and the smoothed-l1 term alone; and count the full
trial values cgm makes on the benchmark grid.
"""

import itertools

from hypothesis import given, settings, strategies as st
import numpy as np

from bicoord import (
    BenchmarkSpec,
    BoxBounds,
    DomainError,
    LinearEquality,
    QuadraticObjective,
    build_problem,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    minimize_linear,
    run_cell_detailed,
)
from bicoord import objectives

FAMILIES = {1: gen_quadratic, 2: gen_convex_log, 3: gen_nonsmooth_l1}


def random_problem(rng, matrix: str, log: str | None, l1: bool, scale: float):
    """An instance with signed coefficients over a box of size `scale`; P
    is PSD, PSD with asymmetric entries that is_symmetric still admits, or
    zero; the log term is absent, random, near zero at the box's middle,
    or constant (c = 0)."""
    n = int(rng.integers(2, 9))
    a = rng.choice([-1.0, 1.0], n) * rng.choice([0.5, 1.0, 2.0, 3.0], n)
    lower = scale * rng.choice([-2.0, -0.5, 0.0, 1.0], n)
    upper = lower + scale * rng.choice([0.5, 1.0, 3.0], n)
    M = rng.standard_normal((n, n))
    P = M @ M.T + n * np.eye(n)
    if matrix == "asymmetric":
        P = P * (1.0 + 4e-6 * rng.uniform(-1.0, 1.0, (n, n)))
    elif matrix == "zero":
        P = np.zeros((n, n))
    c, xi = None, 0.0
    if log == "constant":
        c, xi = np.zeros(n), 1.0
    elif log is not None:
        c = rng.uniform(-2.0, 2.0, n)
        if log == "random":
            radius = np.maximum(np.abs(lower), np.abs(upper))
            xi = float(np.abs(c) @ radius) + 1.0
        else:
            middle = 0.5 * (lower + upper)
            xi = float(10.0 ** -rng.integers(1, 15) - c @ middle)
    tau = float(rng.choice([1e-3, 0.1, 1.6])) if l1 else None
    obj = QuadraticObjective(P, c, xi, tau)
    z = rng.uniform(lower, upper)
    return build_problem(BoxBounds(lower, upper),
                         LinearEquality(a, float(a @ z)), obj)


@st.composite
def lines(draw):
    """(objective, x, d): x in the box or at its middle, d toward a
    knapsack vertex, maybe shrunk to a tiny step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["family", "psd", "asymmetric", "zero"]))
    if source == "family":
        family = FAMILIES[draw(st.sampled_from([1, 2, 3]))]
        p = family(draw(st.sampled_from([2, 10, 40])),
                   draw(st.sampled_from([5.0, 20.0])))
    else:
        log = draw(st.sampled_from([None, "random", "near_zero", "constant"]))
        l1 = log is not None and draw(st.booleans())
        p = random_problem(rng, source, log, l1,
                           draw(st.sampled_from([1.0, 100.0])))
    lo, hi = p.bounds.lower, p.bounds.upper
    # at the box's middle a "near_zero" log argument is 1e-14 to 0.1
    x = rng.uniform(lo, hi) if draw(st.booleans()) else 0.5 * (lo + hi)
    y, _ = minimize_linear(rng.standard_normal(p.n), p)
    d = (y - x) * draw(st.sampled_from([1.0, 1e-9, 1e-15]))
    obj = p.objective
    if obj.smoothing is not None:
        obj = obj.with_smoothing(draw(st.sampled_from([1.6, 1e-3, 1e-7])))
    return obj, x, d


@settings(max_examples=300, deadline=None)
@given(lines())
def test_line_bound_never_exceeds_the_computed_value(line):
    obj, x, d = line
    lb = obj.line_bound(x, d)
    for m in range(61):
        lam = 0.5**m
        try:
            value = obj.value(x + lam * d)
        except DomainError:
            continue
        assert lb(lam) <= value, (m, lb(lam), value)


def test_line_bound_settles_trials_outside_the_log_domain():
    # f = -ln(x0 - x1 + 0.1): from (1, 0) toward (0, 1) the log argument is
    # 1.1 - 2 lam, so every trial with lam > 0.55 lies outside the domain
    obj = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, -1.0]), 0.1)
    x, d = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
    lb = obj.line_bound(x, d)
    assert lb(1.0) == np.inf and lb(0.75) == np.inf
    assert lb(0.5) <= obj.value(x + 0.5 * d)


def test_only_the_quadratic_family_has_a_line_bound():
    p = gen_quadratic(4, 5.0)
    x = d = np.ones(4)
    assert p.objective.line_bound(x, d) is not None
    assert objectives.LinearObjective(np.ones(4)).line_bound(x, d) is None
    assert objectives.SeparableQuadraticObjective(
        np.ones(4), np.ones(4)).line_bound(x, d) is None


def test_cgm_makes_about_one_full_value_per_step_on_the_grid(monkeypatch):
    calls = []
    value = QuadraticObjective.value
    monkeypatch.setattr(QuadraticObjective, "value",
                        lambda self, x: calls.append(1) or value(self, x))
    spec = BenchmarkSpec()
    steps = 0
    for series in spec.series:
        for beta, n in itertools.product(spec.betas, spec.sizes):
            steps += run_cell_detailed(series, beta, n, "cgm",
                                       spec).result.inner_iterations_total
    # 11.2 values per step when every trial is evaluated
    assert steps == 10619
    assert len(calls) <= 1.1 * steps
