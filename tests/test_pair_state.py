"""Pair states: incremental oracles along bi-coordinate steps.

Over random sequences of pair moves the cached state must track the full
oracle, a state rebuilt from x must equal it exactly (within the rounding
of one product, where a large quadratic state corrects P x from its last
full product), and a trial point outside the log domain must be a rejected
trial, not an error. Stage restarts that change nothing repeat neither the
projection nor the exact gap.
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
from bicoord import objectives, solvers
from bicoord.cli import main
from bicoord.solvers import (LinesearchError, PairSelection, _gap_rounding,
                             _pair_coordinates, _pair_step, select_pair)

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


# ------------------------------------ sparse rebuilds of P x, and restarts

@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["quadratic", "quadratic_log", "quadratic_log_l1"]),
       n=st.integers(8, 40), seed=st.integers(0, 2**32 - 1),
       pool=st.integers(2, 40),
       moves=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39),
                                st.floats(0.0, 3.0), st.floats(0.0, 3.0),
                                st.booleans()),
                      min_size=1, max_size=80))
def test_sparse_rebuild_stays_within_rounding_of_the_full_product(
        kind, n, seed, pool, moves):
    # moves among the first `pool` coordinates, each followed by a rebuild
    # when its flag is set; with the size cut at 1 every rebuild after the
    # first is a sparse correction until 8 |S| > n
    obj = family_objective(kind, n, seed)
    P = obj.P
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objectives, "SPARSE_REBUILD_MIN_N", 1)
        state = obj.pair_state(np.random.default_rng(seed + 1).uniform(0.0, 2.0, n))
        for i, j, xi, xj, rebuild in moves:
            i, j = i % min(pool, n), j % min(pool, n)
            if i == j:
                continue
            state.move(i, xi, j, xj)
            if not (rebuild or state.moves == 0):
                continue
            x0, Px0 = state._x0.copy(), state._Px0.copy()
            state.rebuild()
            x, S = state.x, np.flatnonzero(state.x != x0)
            if 8 * S.size > n:
                # a full product, which moves the anchor to x
                assert state.Px.tobytes() == (P @ x).tobytes()
                assert state._x0.tobytes() == x.tobytes()
                assert state._Px0.tobytes() == state.Px.tobytes()
            else:
                assert state._x0.tobytes() == x0.tobytes()
                assert state._Px0.tobytes() == Px0.tobytes()
            # one product's rounding at x0, one at x, and the |S|-term sum
            tol = (2 * n + 4) * 2.0**-52 * (np.abs(P) @ (np.abs(x) + np.abs(x0)))
            assert (np.abs(state.Px - P @ x) <= tol).all()
            assert_tracks(state, obj, x)


def test_sparse_rebuild_sums_over_every_coordinate_moved_since_the_anchor(
        monkeypatch):
    # two rebuilds between full products: the second must still add the
    # coordinates that moved before the first
    monkeypatch.setattr(objectives, "SPARSE_REBUILD_MIN_N", 1)
    obj = family_objective("quadratic_log", 40, 7)
    state = obj.pair_state(np.full(40, 0.5))
    state.move(0, 1.0, 1, 0.0)
    state.rebuild()
    state.move(2, 1.0, 3, 0.0)
    state.rebuild()
    assert state._x0.tobytes() == np.full(40, 0.5).tobytes()
    np.testing.assert_allclose(state.Px, obj.P @ state.x, rtol=1e-13)


class CountedMatrix(np.ndarray):
    """A matrix that counts its products with a vector, P @ x."""

    products = 0

    def __matmul__(self, other):
        if self.ndim == 2 and np.ndim(other) == 1:
            CountedMatrix.products += 1
        return np.asarray(self) @ other


def counted_solve(monkeypatch, p, solve, budget):
    """solve p from its protocol start for `budget` steps, with the calls of
    project and linear_gap and the full products P @ x counted."""
    calls = {"project": 0, "linear_gap": 0}
    for name in calls:
        kernel = getattr(solvers, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(solvers, name, counted)
    p.objective.P = p.objective.P.view(CountedMatrix)
    CountedMatrix.products = 0
    cfg = SolverConfig(target_accuracy=1e-9, max_inner_iterations=budget,
                       max_stages=10_000)
    res = solve(p, cfg, z0=protocol_start(p))
    assert res.stop_reason == "budget"
    return res, calls, CountedMatrix.products


def test_restarts_that_change_nothing_reuse_projection_and_gap(monkeypatch):
    # bcv walks 9 of its 10 stages without a step from this start. A restart
    # with no step onto the same problem changes only the thresholds, so the
    # start's projection is the only one and those restarts solve no knapsack
    res, calls, products = counted_solve(monkeypatch, gen_convex_log(3000, 10.0),
                                         bcv_solve, 20)
    assert res.stages_completed == 10
    assert calls["project"] == 1
    assert calls["linear_gap"] <= 2
    # the state's build; the exit rebuild is a sparse correction
    assert products == 1


def test_restarts_onto_a_new_problem_project_every_time(monkeypatch):
    # each of family 3's stages has its own objective, tau halving
    p = gen_nonsmooth_l1(3000, 10.0)
    res, calls, _ = counted_solve(monkeypatch, p, bcv_solve, 20)
    assert res.stages_completed == 10
    assert calls["project"] == res.stages_completed


@pytest.mark.parametrize("rule", ["armijo", "gradient-difference"])
@pytest.mark.parametrize("accuracy", [1e-3, 1e-6])
@pytest.mark.parametrize("family", [gen_quadratic, gen_convex_log, gen_nonsmooth_l1])
def test_no_knapsack_is_solved_twice_on_the_same_inputs(monkeypatch, family,
                                                        accuracy, rule):
    # a restart that carries the state over, after steps or none, keeps the
    # last pass's gap instead of solving the same knapsack again
    inputs = []

    def recorded(g, x, p, _kernel=solvers.linear_gap):
        inputs.append((g.tobytes(), x.tobytes(), id(p)))
        return _kernel(g, x, p)

    monkeypatch.setattr(solvers, "linear_gap", recorded)
    p = family(40, 5.0)
    cfg = SolverConfig(target_accuracy=accuracy, linesearch=rule,
                       max_inner_iterations=300)
    res = bcv_solve(p, cfg, z0=protocol_start(p))
    assert res.stages_completed > 1
    assert len(set(inputs)) == len(inputs)


@pytest.mark.parametrize("solve", [bcv_solve, mbc_solve])
def test_reported_gap_after_sparse_rebuilds_is_within_rounding(solve):
    # 120 steps at n = 3000: the rebuilds at 50 and 100 moves and at exit
    # correct P x from the anchor instead of a full product
    p = gen_nonsmooth_l1(3000, 10.0)
    cfg = SolverConfig(target_accuracy=1e-9, max_inner_iterations=120,
                       max_stages=10_000)
    res = solve(p, cfg, z0=protocol_start(p))
    assert res.stop_reason == "budget"
    final = build_problem(p.bounds, p.equality,
                          p.objective.with_smoothing(res.smoothing))
    g = final.objective.gradient(res.point)
    rounding = _gap_rounding(final, float(np.abs(g) @ final.box_radius))
    assert abs(res.error_bound - error_bound(final, res.point)) <= rounding
    assert res.objective_value == pytest.approx(final.objective.value(res.point),
                                                rel=1e-13)


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
        state = PairState(p.objective, res.point.copy())
        assert select_pair(state, p, None) is None


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
