"""Pair states: incremental oracles along bi-coordinate steps.

Over random sequences of pair moves the cached state must track the full
oracle, a state rebuilt from x must equal it exactly, and a trial point
outside the log domain must be a rejected trial, not an error.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from bicoord import (
    BoxBounds,
    DomainError,
    LinearEquality,
    LinearObjective,
    MarketModel,
    PairState,
    QuadraticObjective,
    SeparableQuadraticObjective,
    SolverConfig,
    armijo_linesearch,
    bcv_solve,
    build_market,
    build_problem,
    cgm_solve,
    error_bound,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    mbc_solve,
    protocol_start,
    save_problem,
)
from bicoord import objectives
from bicoord.cli import main
from bicoord.solvers import (LinesearchError, PairSelection, _most_violating,
                             _pair_coordinates, _pair_step)

RTOL = 1e-12


def family_objective(kind, n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    P = B @ B.T + n * np.eye(n)
    c = rng.uniform(0.5, 2.0, n)
    if kind == "quadratic":
        return QuadraticObjective(P)
    if kind == "quadratic_log":
        return QuadraticObjective(P, c, 5.0)
    return QuadraticObjective(P, c, 5.0, float(rng.uniform(0.05, 2.0)))


def assert_tracks(state, obj, x):
    f = obj.value(x)
    g = obj.gradient(x)
    assert abs(state.value() - f) <= RTOL * max(1.0, abs(f))
    scale = max(1.0, float(np.abs(g).max()))
    assert float(np.abs(state.gradient() - g).max()) <= RTOL * scale


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["quadratic", "quadratic_log", "quadratic_log_l1"]),
       n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       moves=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                                st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
                      min_size=1, max_size=60))
def test_state_tracks_oracle_over_pair_moves(kind, n, seed, moves):
    obj = family_objective(kind, n, seed)
    x = np.random.default_rng(seed + 1).uniform(0.0, 2.0, n)
    state = obj.pair_state(x.copy())
    for i, j, xi, xj in moves:
        i, j = i % n, j % n
        if i == j:
            continue
        # the trial value is the oracle's value at the moved point
        y = state.x.copy()
        y[i], y[j] = xi, xj
        trial = state.trial(i, xi - state.x[i], j, xj - state.x[j])
        assert abs(trial - obj.value(y)) <= RTOL * max(1.0, abs(obj.value(y)))
        state.move(i, xi, j, xj)
        assert_tracks(state, obj, state.x)
        if state.moves == 0:  # the state has just rebuilt itself
            assert state.value() == obj.value(state.x)
    rebuilt = obj.pair_state(state.x.copy())
    assert rebuilt.moves == 0
    assert rebuilt.value() == obj.value(state.x)
    assert rebuilt.gradient().tobytes() == obj.gradient(state.x).tobytes()


def test_state_rebuilds_itself_at_a_fixed_interval():
    obj = gen_nonsmooth_l1(10, 5.0).objective
    state = obj.pair_state(np.full(10, 0.5))
    every = type(state).REBUILD_EVERY
    for k in range(1, every + 1):
        state.move(k % 10, 0.5 + 0.001 * k, (k + 3) % 10, 0.5 - 0.001 * k)
        assert state.moves == k % every
    assert state.value() == obj.value(state.x)
    assert state.gradient().tobytes() == obj.gradient(state.x).tobytes()


def test_default_state_evaluates_in_full():
    obj = LinearObjective(np.array([1.0, -2.0, 0.5]))
    x = np.array([0.2, 0.4, 0.6])
    state = obj.pair_state(x)
    assert type(state) is PairState
    assert state.trial(0, 0.1, 2, -0.1) == obj.value(np.array([0.3, 0.4, 0.5]))
    state.move(0, 0.3, 2, 0.5)
    assert state.moves == 0
    assert state.x is x
    assert state.value() == obj.value(np.array([0.3, 0.4, 0.5]))
    assert np.array_equal(state.gradient(), obj.gradient(x))


def test_pair_state_keeps_no_copy_of_the_matrix():
    obj = gen_convex_log(30, 10.0).objective
    state = obj.pair_state(np.full(30, 1.0 / 3.0))
    state.move(3, 0.0, 7, 2.0 / 3.0)
    arrays = [v for v in vars(state).values() if isinstance(v, np.ndarray)]
    assert arrays and all(v.shape == (30,) for v in arrays)


@pytest.mark.parametrize("gen", [gen_quadratic, gen_convex_log, gen_nonsmooth_l1])
@pytest.mark.parametrize("solve", [bcv_solve, mbc_solve])
def test_reported_gap_comes_from_a_fresh_gradient(gen, solve):
    # 120 steps cross the rebuild interval and end between two rebuilds
    p = gen(40, 10.0)
    cfg = SolverConfig(target_accuracy=1e-9, max_inner_iterations=120,
                       max_stages=10_000)
    res = solve(p, cfg, z0=protocol_start(p))
    assert res.stop_reason == "budget"
    final = p
    if res.smoothing != p.objective.smoothing:
        final = build_problem(p.bounds, p.equality,
                              p.objective.with_smoothing(res.smoothing))
    assert res.error_bound == error_bound(final, res.point)
    assert res.objective_value == final.objective.value(res.point)


def small_market():
    rng = np.random.default_rng(3)
    traders = np.column_stack([rng.uniform(1, 3, 6), rng.uniform(0.5, 2, 6),
                               rng.uniform(0.5, 2, 6)])
    buyers = np.column_stack([rng.uniform(2, 4, 6), -rng.uniform(0.5, 2, 6),
                              rng.uniform(0.5, 2, 6)])
    return build_market(MarketModel(traders=traders, buyers=buyers))[0]


def stall_problem(kind):
    """Balance 1000 over [0, 1000]^2 with a scaled-gradient difference of
    about 5e-9 across the pair: below the threshold floor of 1e-8 at target
    1e-6, while the gap at (500, 500) is 2.5e-6. The quadratic kind is the
    log term -ln(2000 - x0 - (1 + 5e-6) x1), the market kind the market's
    separable objective with a linear cost."""
    if kind == "quadratic":
        obj = QuadraticObjective(np.zeros((2, 2)), np.array([-1.0, -1.0 - 5e-6]),
                                 2000.0)
    else:
        obj = SeparableQuadraticObjective(np.array([1.0, 1.0 + 5e-9]), np.zeros(2))
    return build_problem(BoxBounds(np.zeros(2), np.full(2, 1000.0)),
                         LinearEquality(np.ones(2), 1000.0), obj)


# (solver, config, stop reason); budget stops after 7 steps, before the
# quadratic state's first self-rebuild, so its last verdict ran on a moved
# state. The stall runs on stall_problem.
EXITS = [
    (bcv_solve, {}, "converged"),
    (mbc_solve, {}, "converged"),
    (mbc_solve, {"target_accuracy": 1e-9, "max_inner_iterations": 7}, "budget"),
    (mbc_solve, {"target_accuracy": 1e-8}, "linesearch"),
    (mbc_solve, {"target_accuracy": 1e-12, "linesearch": "gradient-difference"},
     "no_descent_pair"),
    (bcv_solve, {"target_accuracy": 1e-6}, "stalled"),
    (bcv_solve, {"target_accuracy": 1e-8, "max_stages": 2}, "max_stages"),
]


# the quadratic family keeps P x in its state; the market's separable
# objective runs on the default, full-oracle state, and none of its solves
# here stalls in the linesearch
EXIT_CASES = [(kind, *case) for kind in ("quadratic", "market") for case in EXITS
              if not (kind == "market" and case[2] == "linesearch")]


@pytest.mark.parametrize("kind, solve, options, reason", EXIT_CASES,
                         ids=[f"{k}-{s.__name__}-{r}" for k, s, _, r in EXIT_CASES])
def test_reported_gap_is_fresh_at_every_exit(kind, solve, options, reason):
    if reason == "stalled":
        p = stall_problem(kind)
        z0 = np.array([500.0, 500.0])
    elif kind == "quadratic":
        p = gen_quadratic(10, 5.0)
        z0 = protocol_start(p)
    else:
        p = small_market()
        z0 = np.zeros(p.n)
    res = solve(p, SolverConfig(**options), z0=z0)
    assert res.stop_reason == reason
    assert res.error_bound == error_bound(p, res.point)
    assert res.objective_value == p.objective.value(res.point)


class DriftingState(PairState):
    """A pair state whose maintained gradient has drifted: while moves > 0
    it reports 1e-13 times the true gradient, so no pair clears the
    thresholds and a gap of 1e-13 times the true one looks met. A rebuild
    clears the drift."""

    def rebuild(self):
        self.moves = 0

    def gradient(self):
        g = self.objective.gradient(self.x)
        return 1e-13 * g if self.moves else g

    def move(self, i, xi, j, xj):
        super().move(i, xi, j, xj)
        self.moves += 1


class DriftingObjective(SeparableQuadraticObjective):
    def pair_state(self, x):
        return DriftingState(self, x)


# A stop decided on the drifted gradient would report "converged" above the
# accuracy, or "no_descent_pair" with a pair left. At 0.1 the drifted gap
# meets the accuracy after every step; at 1e-30 it does not, while mbc finds
# no pair on the drifted gradient.
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("solve, accuracy", [(bcv_solve, 0.1), (mbc_solve, 0.1),
                                             (mbc_solve, 1e-30)])
def test_stop_verdicts_are_taken_on_a_rebuilt_state(solve, accuracy, seed):
    rng = np.random.default_rng(seed)
    z0 = rng.uniform(0.0, 2.0, 6)
    p = build_problem(BoxBounds(np.zeros(6), np.full(6, 2.0)),
                      LinearEquality(np.ones(6), float(z0.sum())),
                      DriftingObjective(rng.uniform(-5.0, 5.0, 6),
                                        rng.uniform(0.5, 2.0, 6)))
    cfg = SolverConfig(target_accuracy=accuracy, max_inner_iterations=200,
                       max_stages=10_000)
    res = solve(p, cfg, z0=z0)
    assert res.inner_iterations_total > 0
    assert res.error_bound == error_bound(p, res.point)
    if res.converged:
        assert res.error_bound <= accuracy
    if res.stop_reason == "no_descent_pair":
        assert _most_violating(p, res.point, p.objective.gradient(res.point)) is None


# ------------------------------------------------ log-domain trial points

def log_domain_problem():
    """f = 50 x0^2 - ln(x0 - x1 + 0.1) on x0 + x1 = 1, [0, 1]^2. From
    (1, 0) the first full pair step lands at (0, 1), where the log argument
    is -0.9."""
    obj = QuadraticObjective(np.diag([100.0, 0.0]), np.array([1.0, -1.0]), 0.1)
    return build_problem(BoxBounds(np.zeros(2), np.ones(2)),
                         LinearEquality(np.ones(2), 1.0), obj)


def test_state_trial_outside_domain_is_infinite():
    p = log_domain_problem()
    state = p.objective.pair_state(np.array([1.0, 0.0]))
    assert state.trial(0, -1.0, 1, 1.0) == np.inf
    with pytest.raises(DomainError):
        p.objective.value(np.array([0.0, 1.0]))


class PlainStateQuadratic(QuadraticObjective):
    """The quadratic family on the generic pair state."""

    def pair_state(self, x):
        return PairState(self, x)


@pytest.mark.parametrize("cls, state_cls", [
    (QuadraticObjective, objectives._QuadraticPairState),
    (PlainStateQuadratic, PairState),
])
def test_gradient_difference_step_changes_x_only_at_the_pair(cls, state_cls):
    # log_domain_problem with a third coordinate, which the step along
    # (0, 1) must leave alone; from (1, 0, 0.5) the full step leaves the
    # log domain, so the first trial's partials raise
    obj = cls(np.diag([100.0, 0.0, 1.0]), np.array([1.0, -1.0, 0.0]), 0.1)
    p = build_problem(BoxBounds(np.zeros(3), np.ones(3)),
                      LinearEquality(np.ones(3), 1.5), obj)
    x0 = np.array([1.0, 0.0, 0.5])
    g = obj.gradient(x0)
    sel = PairSelection(i=0, j=1, gamma=1.0, mu=float(g[1] - g[0]))
    cfg = SolverConfig(linesearch="gradient-difference")
    state = obj.pair_state(x0.copy())
    assert type(state) is state_cls
    lam, m, f_new = _pair_step(cfg, p, state, sel, obj.value(x0))
    assert m >= 1
    expected = x0.copy()
    expected[0], expected[1] = _pair_coordinates(x0, p, sel, lam)
    assert state.x.tobytes() == expected.tobytes()
    assert_tracks(state, obj, expected)
    # a step whose trials, at lam 1 and 0.9, all leave the domain raises and
    # restores x
    state = obj.pair_state(x0.copy())
    cfg = SolverConfig(linesearch="gradient-difference", theta=0.9,
                       max_backtracks=1)
    with pytest.raises(LinesearchError):
        _pair_step(cfg, p, state, sel, obj.value(x0))
    assert state.x.tobytes() == x0.tobytes()
    assert_tracks(state, obj, x0)


def test_armijo_rejects_trials_outside_domain():
    p = log_domain_problem()
    lam, m, f_new = armijo_linesearch(p.objective, np.array([1.0, 0.0]),
                                      np.array([-1.0, 1.0]), gamma=1.0,
                                      mu=-(100.0 - 2.0 / 1.1))
    assert m >= 1 and lam == 0.5**m
    assert np.isfinite(f_new)


@pytest.mark.parametrize("solve, rule", [
    (bcv_solve, "armijo"), (bcv_solve, "gradient-difference"),
    (mbc_solve, "armijo"), (mbc_solve, "gradient-difference"),
    (cgm_solve, "armijo"),
])
def test_solvers_end_with_stop_reason_on_log_domain_start(solve, rule):
    p = log_domain_problem()
    res = solve(p, SolverConfig(linesearch=rule), z0=np.array([1.0, 0.0]))
    assert res.stop_reason == "converged"
    assert res.point[0] - res.point[1] + 0.1 > 0.0


def test_cli_solve_from_log_domain_start(tmp_path, capsys):
    p = log_domain_problem()
    path = tmp_path / "log_domain.json"
    save_problem(p, path)
    code = main(["solve", str(path), "--start", "1,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged: True (converged)" in out
