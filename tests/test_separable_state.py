"""The separable quadratic's pair state.

The state keeps g in place and updates it at the two moved coordinates with
the roundings of gradient(x), so g must equal the full gradient byte for
byte after any sequence of moves. Its selection keeps h = g / a, two key
arrays and the sizes of the two eligible sets, and must return the pair,
and the bits, of select_pair on the generic pair state, which selects on
the full gradient. Its trial is the exact change of f along the pair, and
a budgeted market solve must make no full value or gradient call outside
the state's builds and rebuilds. On small markets at 1e-6, where a test on
two values at the scale of f stalls in their rounding, bcv and mbc must
converge.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from bicoord import (
    BoxBounds,
    GeometricSchedule,
    LinearEquality,
    MarketModel,
    PairState,
    SeparableQuadraticObjective,
    SolverConfig,
    Stage,
    audit_trace,
    bcv_solve,
    build_market,
    build_problem,
    error_bound,
    mbc_solve,
    select_pair,
)
from bicoord import objectives

MAGNITUDES = st.sampled_from([0.5, 1.0, 2.0, 3.0])
# a width of 1e-9 makes a coordinate's box nearly a point
WIDTHS = st.sampled_from([1.0, 0.5, 3.0, 1e-9])
# few distinct scaled gradients, so h ties often; NaN now and then
SCALED = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-5.0, 5.0),
                   st.just(np.nan))
TOLERANCES = st.one_of(st.sampled_from([1e-9, 1e-3, 0.1, 0.5, 1.0]),
                       st.floats(1e-12, 4.0))
# where a moved coordinate lands in its box: on a bound, inside, or random
PLACES = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.25]), st.floats(0.0, 1.0))


def key(sel):
    """A selection by its bits."""
    if sel is None:
        return None
    return sel.i, sel.j, float(sel.gamma).hex(), float(sel.mu).hex()


@st.composite
def separable_cases(draw):
    """(p, x0, stage, moves): a separable instance with signed coefficients,
    degenerate widths and tied h, a point in its box, a stage, and a list
    of pair moves, each to a place in the two coordinates' boxes."""
    n = draw(st.integers(2, 7))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                                   max_size=n)))
    a = signs * np.array(draw(st.lists(MAGNITUDES, min_size=n, max_size=n)))
    lower = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0]),
                                   min_size=n, max_size=n)))
    upper = lower + np.array(draw(st.lists(WIDTHS, min_size=n, max_size=n)))
    quad = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                  min_size=n, max_size=n)))
    # lin = h a makes the scaled gradient at x = 0 one of SCALED
    lin = a * np.array(draw(st.lists(SCALED, min_size=n, max_size=n)))
    t0 = np.array(draw(st.lists(PLACES, min_size=n, max_size=n)))
    x0 = lower + t0 * (upper - lower)
    p = build_problem(BoxBounds(lower, upper), LinearEquality(a, float(a @ x0)),
                      SeparableQuadraticObjective(lin, quad))
    stage = Stage(p, draw(TOLERANCES), draw(TOLERANCES))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    PLACES, PLACES, st.booleans()),
                          min_size=1, max_size=40))
    return p, x0, stage, moves


def assert_selects_as_the_full_rule(state, p, stage, strict):
    rule = None if strict else stage
    full = PairState(p.objective, state.x.copy())
    assert key(select_pair(state, p, rule)) == key(select_pair(full, p, rule))


@settings(max_examples=300, deadline=None)
@given(case=separable_cases(), strict=st.booleans())
def test_state_keeps_the_gradient_and_the_selection_of_the_full_rules(case, strict):
    # strict: mbc's thresholds, else the stage's; the key arrays are built
    # for one of them and then updated move by move
    p, x0, stage, moves = case
    obj, lower, upper = p.objective, p.bounds.lower, p.bounds.upper
    state = obj.pair_state(x0.copy())
    assert type(state) is objectives._SeparablePairState
    assert state.gradient().tobytes() == obj.gradient(x0).tobytes()
    assert_selects_as_the_full_rule(state, p, stage, strict)
    for i, j, ti, tj, select in moves:
        if i == j:
            continue
        xi = lower[i] + ti * (upper[i] - lower[i])
        xj = lower[j] + tj * (upper[j] - lower[j])
        x = state.x.copy()
        y = x.copy()
        y[i], y[j] = xi, xj
        change = state.trial(i, xi - x[i], j, xj - x[j])
        if np.isfinite(obj.value(y)) and np.isfinite(obj.value(x)):
            exact = obj.value(y) - obj.value(x)
            assert abs(change - exact) <= 1e-12 * max(1.0, abs(obj.value(x)))
        state.move(i, xi, j, xj)
        assert state.gradient().tobytes() == obj.gradient(state.x).tobytes()
        f = obj.value(state.x)
        if np.isfinite(f):
            assert abs(state.value() - f) <= 1e-12 * max(1.0, abs(f))
            w = p.box_radius
            exact = float(np.abs(obj.gradient(state.x)) @ w)
            assert abs(state.abs_gradient_dot(w) - exact) <= 1e-12 * max(1.0, exact)
        # selections between some moves only, so that the key arrays are
        # updated over several moves
        if select:
            assert_selects_as_the_full_rule(state, p, stage, strict)
    assert_selects_as_the_full_rule(state, p, stage, strict)
    # other thresholds build the key arrays again
    assert_selects_as_the_full_rule(state, p, stage, not strict)


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
def test_budgeted_market_evaluates_in_full_only_to_build_or_rebuild(solve,
                                                                    monkeypatch):
    # 120 steps cross the state's rebuild interval twice
    problem = seeded_market(10_000, 3)
    cls = objectives._SeparablePairState
    calls, where = [], []

    def inside(name, method):
        def wrapped(self, *args):
            where.append(name)
            try:
                return method(self, *args)
            finally:
                where.pop()
        return wrapped

    def counted(name, method):
        def wrapped(self, x):
            calls.append((name, tuple(where)))
            return method(self, x)
        return wrapped

    monkeypatch.setattr(cls, "__init__", inside("build", cls.__init__))
    monkeypatch.setattr(cls, "rebuild", inside("rebuild", cls.rebuild))
    obj_cls = objectives.SeparableQuadraticObjective
    for name in ("value", "gradient"):
        monkeypatch.setattr(obj_cls, name, counted(name, getattr(obj_cls, name)))
    cfg = SolverConfig(target_accuracy=1e-12, max_inner_iterations=120,
                       max_stages=10_000)
    r = solve(problem, cfg, z0=np.zeros(problem.n))
    assert (r.stop_reason, r.inner_iterations_total) == ("budget", 120)
    assert calls and all(scope for _, scope in calls)
    assert all(scope[-1] == "build" for name, scope in calls if name == "gradient")
    # the state is built once and rebuilds itself after steps 50 and 100
    # and once at exit, each with one value call
    assert sum(name == "value" for name, _ in calls) == 4
    assert r.error_bound == error_bound(problem, r.point)


class CountingSeparable(SeparableQuadraticObjective):
    """A separable quadratic that counts partial calls and keeps its
    separable pair state."""

    partial_calls = 0

    def partial(self, i, x):
        self.partial_calls += 1
        return super().partial(i, x)


def test_gradient_difference_solve_makes_two_partials_per_trial():
    market = seeded_market(200, 2)
    obj = CountingSeparable(market.objective.lin, market.objective.quad)
    p = build_problem(market.bounds, market.equality, obj)
    assert type(obj.pair_state(np.zeros(p.n))) is objectives._SeparablePairState
    cfg = SolverConfig(target_accuracy=1e-2, max_inner_iterations=300,
                       linesearch="gradient-difference")
    res = bcv_solve(p, cfg, z0=np.zeros(p.n))
    assert res.inner_iterations_total > 0
    assert obj.partial_calls == 2 * sum(e.backtracks + 1 for e in res.trace)


@pytest.mark.parametrize("agents, seed", [(200, 2), (200, 5)])
@pytest.mark.parametrize("solve", [bcv_solve, mbc_solve])
def test_small_markets_converge_at_1e_6(solve, agents, seed):
    # an Armijo test on two values of f about -50 runs into their rounding
    # near 1e-6; the exact change along the pair does not
    p = seeded_market(agents, seed)
    cfg = SolverConfig(target_accuracy=1e-6, max_inner_iterations=2000,
                       max_stages=10_000)
    res = solve(p, cfg, z0=np.zeros(p.n))
    assert res.stop_reason == "converged"
    assert res.inner_iterations_total < 2000
    assert res.error_bound == error_bound(p, res.point)
    assert res.error_bound <= 1e-6
    stages = GeometricSchedule(p, 1e-6) if solve is bcv_solve else None
    assert audit_trace(res.trace, cfg, stages=stages, problem=p).passed
