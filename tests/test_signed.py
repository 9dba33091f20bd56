"""Signed equality coefficients in the pair rule.

bcv and mbc read a_i < 0 through the knapsack form y = signs * x, where every
coefficient is positive. Negation is exact, so a solve of a signed instance
is, bit for bit up to the sign of zero, the solve of its sign-normalized
mirror: a -> |a|, the bounds of y_i = -x_i where a_i < 0, and the objective
composed with the sign change (P -> S P S, c -> S c, lin -> S lin). The
mirror is built here, independently of the knapsack form.
"""

from hypothesis import given, settings, strategies as st
import numpy as np

from bicoord import (
    BoxBounds,
    GeometricSchedule,
    LinearEquality,
    PairState,
    QuadraticObjective,
    SeparableQuadraticObjective,
    SolverConfig,
    Stage,
    audit_trace,
    bcv_solve,
    build_problem,
    check_stationarity,
    error_bound,
    mbc_solve,
    select_pair,
)

KINDS = ("separable", "quadratic", "quadratic_log", "quadratic_log_l1")
MAGNITUDES = st.sampled_from([0.5, 1.0, 2.0, 3.0])
# a width of 1e-9 makes a coordinate's box nearly a point; hypothesis
# favours the first value of each list
WIDTHS = st.sampled_from([1.0, 0.5, 3.0, 5.0, 1e-9])


def objectives(kind: str, s, radius, rng):
    """An objective of the kind and its composition with x = s * y."""
    n = s.shape[0]
    if kind == "separable":
        lin, quad = rng.uniform(-5.0, 5.0, n), rng.uniform(0.0, 2.0, n)
        return (SeparableQuadraticObjective(lin, quad),
                SeparableQuadraticObjective(s * lin, quad))
    M = rng.standard_normal((n, n))
    P = 0.5 * (M + M.T) + n * np.eye(n)
    SPS = s[:, None] * P * s
    if kind == "quadratic":
        return QuadraticObjective(P), QuadraticObjective(SPS)
    c = rng.uniform(-2.0, 2.0, n)
    # <c, x> + xi > 0 over the whole box
    xi = float(np.abs(c) @ radius) + 1.0
    tau = 0.5 if kind == "quadratic_log_l1" else None
    return QuadraticObjective(P, c, xi, tau), QuadraticObjective(SPS, s * c, xi, tau)


@st.composite
def mirrored_pairs(draw):
    """(p, q, s, z0): a signed instance, its mirror, the signs and a start
    point of p (None for the default). n from 2, degenerate widths, beta at
    either end of its range or inside it."""
    n = draw(st.integers(2, 6))
    s = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    a = s * np.array(draw(st.lists(MAGNITUDES, min_size=n, max_size=n)))
    lower = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0]),
                                   min_size=n, max_size=n)))
    upper = lower + np.array(draw(st.lists(WIDTHS, min_size=n, max_size=n)))
    end = draw(st.sampled_from(["inside", "inside", "inside", "low", "high"]))
    if end == "inside":
        t = np.array(draw(st.lists(st.sampled_from([0.5, 0.3, 0.0, 1.0]),
                                   min_size=n, max_size=n)))
    else:
        t = ((a > 0.0) == (end == "high")).astype(float)
    beta = float(a @ (lower + t * (upper - lower)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    radius = np.maximum(np.abs(lower), np.abs(upper))
    f, f_mirror = objectives(draw(st.sampled_from(KINDS)), s, radius, rng)
    p = build_problem(BoxBounds(lower, upper), LinearEquality(a, beta), f)
    q = build_problem(BoxBounds(np.where(s > 0, lower, -upper),
                                np.where(s > 0, upper, -lower)),
                      LinearEquality(s * a, beta), f_mirror)
    z0 = rng.uniform(lower, upper) if draw(st.booleans()) else None
    return p, q, s, z0


def outcome(res):
    rows = [(e.stage, e.k, e.i, e.j, e.gamma, e.lam, e.mu, e.f_before,
             e.f_after, e.backtracks) for e in res.trace]
    return (res.objective_value, res.error_bound, res.inner_iterations_total,
            res.stages_completed, res.stop_reason, res.smoothing, rows)


@settings(max_examples=200, deadline=None)
@given(case=mirrored_pairs(),
       accuracy=st.sampled_from([0.1, 1e-3, 1e-6]),
       rule=st.sampled_from(["armijo", "gradient-difference"]),
       method=st.sampled_from(["bcv", "mbc"]),
       budget=st.sampled_from([300, 3]))
def test_signed_solve_is_the_mirrored_solve(case, accuracy, rule, method, budget):
    p, q, s, z0 = case
    cfg = SolverConfig(target_accuracy=accuracy, max_inner_iterations=budget,
                       linesearch=rule, record_points=True)
    z0_mirror = None if z0 is None else s * z0
    if method == "bcv":
        res, ref = bcv_solve(p, cfg, z0=z0), bcv_solve(q, cfg, z0=z0_mirror)
        audit = audit_trace(res.trace, cfg, stages=GeometricSchedule(p, accuracy))
    else:
        res, ref = mbc_solve(p, cfg, z0=z0), mbc_solve(q, cfg, z0=z0_mirror)
        audit = audit_trace(res.trace, cfg, problem=p)
    assert outcome(res) == outcome(ref)
    # == ignores the sign of zero, which the mirror may flip
    assert np.array_equal(res.point, s * ref.point)
    for e, e_ref in zip(res.trace, ref.trace):
        assert np.array_equal(e.point_after, s * e_ref.point_after)
    # every iterate in the box exactly, balanced, and on the descent record
    assert audit.passed, audit.failures
    # the reported gap is the exact gap at the point, on the stage objective
    # the solve ended on
    final = p
    if res.smoothing != p.objective.smoothing:
        final = build_problem(p.bounds, p.equality,
                              p.objective.with_smoothing(res.smoothing))
    assert res.error_bound == error_bound(final, res.point)


def two_coordinate_instance():
    # a = (1, -1), x_0 = x_1 on [0, 1]^2, f = 2 x_0 + x_1: balance flows
    # from x_0 to x_1 by lowering both
    return build_problem(BoxBounds(np.zeros(2), np.ones(2)),
                         LinearEquality(np.array([1.0, -1.0]), 0.0),
                         SeparableQuadraticObjective(np.array([2.0, 1.0]), np.zeros(2)))


def test_select_pair_lets_a_negative_coefficient_take_balance_by_falling():
    p = two_coordinate_instance()
    stage = Stage(p, 1e-3, 1e-3)
    sel = select_pair(PairState(p.objective, np.array([0.5, 0.5])), p, stage)
    # h = g / a = (2, -1); x_1 can fall by 0.5 before reaching its lower bound
    assert (sel.i, sel.j, sel.gamma, sel.mu) == (0, 1, 0.5, -3.0)
    # at x_1's lower bound it can take no more balance
    assert select_pair(PairState(p.objective, np.zeros(2)), p, stage) is None


def test_pair_methods_land_a_signed_pair_on_its_bounds():
    p = two_coordinate_instance()
    for res in (bcv_solve(p, z0=np.array([0.5, 0.5])),
                mbc_solve(p, z0=np.array([0.5, 0.5]))):
        assert res.converged
        assert res.point.tolist() == [0.0, 0.0]
        assert res.error_bound == 0.0
        rep = check_stationarity(p, res.point, tol=1e-12)
        assert rep.stationary
        assert rep.statuses == ("at_lower", "at_lower")
