"""The stop verdict's screen: the selected pair's bound on the gap.

Moving gamma of balance along a selected pair (i, j) stays feasible, so
Delta(x) >= (h_i - h_j) gamma = -mu gamma. The pair methods settle "not
converged" from that bound when it clears the accuracy by more than the
exact gap's rounding, and take the exact knapsack gap only otherwise and
at exit. These tests check the bound over random instances with signed
coefficients, tied scaled gradients, points on their bounds, n = 2 and
beta at either end of its range, count the exact gaps of a budgeted
market solve, and check that the exit gap of the benchmark's 1e5-agent
market shape sorts only the filled prefix of the cost order.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from bicoord import (
    BoxBounds,
    LinearEquality,
    LinearObjective,
    MarketModel,
    PairState,
    SeparableQuadraticObjective,
    SolverConfig,
    Stage,
    bcv_solve,
    build_market,
    build_problem,
    mbc_solve,
)
from bicoord import geometry, solvers
from bicoord.geometry import linear_gap
from bicoord.solvers import _gap_rounding, _screened_gap, select_pair

# few distinct values, so scaled gradients and step bounds tie often
MAGNITUDES = st.sampled_from([0.5, 1.0, 2.0, 3.0])
SCALED = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0]),
                   st.floats(-5.0, 5.0))
TOLERANCES = st.one_of(st.sampled_from([1e-9, 1e-3, 0.1, 0.5, 1.0]),
                       st.floats(1e-12, 4.0))


@st.composite
def screened_points(draw):
    """(p, x, g): an instance with signed coefficients, a feasible point on
    it and a gradient-like vector with tied scaled entries."""
    n = draw(st.integers(2, 7))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    a = np.array(signs) * draw(st.lists(MAGNITUDES, min_size=n, max_size=n))
    lower = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0]),
                                   min_size=n, max_size=n)))
    upper = lower + np.array(draw(st.lists(MAGNITUDES, min_size=n, max_size=n)))
    # beta at the lower or upper end of its range, or a point with some
    # coordinates on their bounds and the rest inside
    end = draw(st.sampled_from(["low", "high", "inside"]))
    if end == "inside":
        t = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.5]),
                                   min_size=n, max_size=n)))
    else:
        t = (a > 0.0) == (end == "high")
        t = t.astype(float)
    x = lower + t * (upper - lower)
    p = build_problem(BoxBounds(lower, upper), LinearEquality(a, float(a @ x)),
                      SeparableQuadraticObjective(np.zeros(n), np.ones(n)))
    h = np.array(draw(st.lists(SCALED, min_size=n, max_size=n)))
    return p, x, h * a


def selections(p, x, g, delta, epsilon):
    # the generic pair state of a linear objective selects on the gradient g
    sels = [select_pair(PairState(LinearObjective(g), x.copy()), p, stage)
            for stage in (Stage(p, delta, epsilon), None)]
    return [s for s in sels if s is not None]


@settings(max_examples=300, deadline=None)
@given(case=screened_points(), delta=TOLERANCES, epsilon=TOLERANCES)
def test_selected_pair_bounds_the_gap_from_below(case, delta, epsilon):
    p, x, g = case
    gap = linear_gap(g, x, p)
    for sel in selections(p, x, g, delta, epsilon):
        assert sel.gamma >= 0.0
        scale = float(np.abs(g) @ p.box_radius)
        assert -sel.mu * sel.gamma <= gap + _gap_rounding(p, scale)


@settings(max_examples=300, deadline=None)
@given(case=screened_points(), delta=TOLERANCES, epsilon=TOLERANCES,
       scale=st.sampled_from([1.0, 1.0 + 2.0**-52, 1.5, 4.0]))
def test_screen_never_rejects_a_converged_point(case, delta, epsilon, scale):
    p, x, g = case
    gap = linear_gap(g, x, p)
    # an accuracy the exact gap meets, on the edge or clear of it
    acc = max(gap * scale, 1e-300)
    for sel in selections(p, x, g, delta, epsilon):
        # a linear objective's pair state has the gradient g at x
        state = LinearObjective(g).pair_state(x.copy())
        verdict_gap = _screened_gap(p, state, acc, sel)
        assert verdict_gap is not None and verdict_gap <= acc
        assert verdict_gap == gap


def seeded_market(agents: int, seed: int):
    rng = np.random.default_rng(seed)
    m = agents // 2
    k = agents - m
    traders = np.column_stack([rng.uniform(1.0, 3.0, m), rng.uniform(0.5, 2.0, m),
                               rng.uniform(0.5, 2.0, m)])
    buyers = np.column_stack([rng.uniform(2.0, 4.0, k), -rng.uniform(0.5, 2.0, k),
                              rng.uniform(0.5, 2.0, k)])
    problem, _ = build_market(MarketModel(traders, buyers, 0.0))
    return problem


@pytest.mark.parametrize("solve", [bcv_solve, mbc_solve])
def test_budgeted_market_takes_one_exact_gap_at_exit(solve, monkeypatch):
    # far from the accuracy, every verdict is settled by the selected pair,
    # so the knapsack runs once: for the reported error bound
    problem = seeded_market(10_000, 3)
    gaps = []

    def counted(g, x, p):
        gaps.append(linear_gap(g, x, p))
        return gaps[-1]

    monkeypatch.setattr(solvers, "linear_gap", counted)
    cfg = SolverConfig(target_accuracy=1e-12, max_inner_iterations=5,
                       max_stages=10_000)
    r = solve(problem, cfg, z0=np.zeros(problem.n))
    assert (r.stop_reason, r.inner_iterations_total) == ("budget", 5)
    assert gaps == [r.error_bound]
    assert r.error_bound > 1e-12


@pytest.mark.parametrize("solve", [bcv_solve, mbc_solve])
def test_budgeted_1e5_market_exit_gap_sorts_only_a_prefix(solve, monkeypatch):
    # the benchmark's market shape: the one exact gap of a budgeted solve
    # from no trade is settled by the selection step, not the full sort
    problem = seeded_market(100_000, 0)
    splits = []
    prefix_split = geometry._prefix_split

    def spied(ratios, ks):
        splits.append(prefix_split(ratios, ks))
        return splits[-1]

    monkeypatch.setattr(geometry, "_prefix_split", spied)
    cfg = SolverConfig(target_accuracy=1e-12, max_inner_iterations=5,
                       max_stages=10_000)
    r = solve(problem, cfg, z0=np.zeros(problem.n))
    assert (r.stop_reason, r.inner_iterations_total) == ("budget", 5)
    assert len(splits) == 1
    below, left, _ = splits[0]
    assert 0 < left.shape[0] < below.shape[0] < 0.6 * problem.n
