from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    BoxBounds,
    DomainError,
    GeometricSchedule,
    LinearEquality,
    LinearObjective,
    LinesearchError,
    LinesearchRule,
    PairSelection,
    PairState,
    PortfolioObjective,
    ProblemInstance,
    QuadraticObjective,
    SolverConfig,
    Stage,
    StageProvider,
    armijo_linesearch,
    audit_trace,
    bcv_solve,
    cgm_solve,
    check_feasibility,
    check_stationarity,
    error_bound,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    mbc_solve,
    minimize_linear,
    project,
    protocol_start,
    select_pair,
    build_problem,
)
import bicoord.solvers
from bicoord.objectives import SeparableQuadraticObjective
from bicoord.solvers import _backtrack, _pair_slope, _pair_step


def unit_square(objective, beta=1.0):
    return build_problem(
        BoxBounds(np.zeros(2), np.ones(2)),
        LinearEquality(np.ones(2), beta),
        objective,
    )


def make_stage(problem, delta, epsilon):
    return Stage(problem=problem, delta=delta, epsilon=epsilon)


def full_select(p, x, stage):
    """select_pair on the generic pair state, which selects on the full
    gradient at x; stage=None is mbc's rule."""
    return select_pair(PairState(p.objective, np.array(x, dtype=float)), p, stage)


def best_violation(h, dec, inc):
    # reference scan over all distinct pairs admitted by the eligibility sets
    best = -np.inf
    for i in np.flatnonzero(dec):
        for j in np.flatnonzero(inc):
            if i != j:
                best = max(best, h[i] - h[j])
    return None if best == -np.inf else best


def exhaustive_best_violation(x, stage):
    p = stage.problem
    a = p.equality.a
    h = p.objective.gradient(x) / a
    return best_violation(h, x >= p.bounds.lower + stage.epsilon / a,
                          x <= p.bounds.upper - stage.epsilon / a)


def random_linear_instances(rng, count):
    """(problem, feasible point, cost) triples on small boxes. Half have
    continuous data; the other half draw costs from {-1, 0, 1, 2} and
    coefficients from {0.5, 1, 2}, so scaled costs tie, and put a quarter of
    the coordinates on each bound, so one coordinate can top both the donor
    and the receiver list."""
    for k in range(count):
        n = int(rng.integers(2, 7))
        if k % 2 == 0:
            a = rng.uniform(0.5, 2.0, size=n)
            lower = rng.uniform(-1.0, 0.0, size=n)
            upper = lower + rng.uniform(0.5, 2.0, size=n)
            c = rng.standard_normal(n)
            beta = float(a @ rng.uniform(lower, upper))
            p = build_problem(BoxBounds(lower, upper), LinearEquality(a, beta),
                              LinearObjective(c))
            x = project(rng.uniform(lower, upper), p)
        else:
            a = rng.choice([0.5, 1.0, 2.0], size=n)
            c = rng.choice([-1.0, 0.0, 1.0, 2.0], size=n)
            lower = rng.uniform(-1.0, 0.0, size=n)
            upper = lower + rng.uniform(0.5, 2.0, size=n)
            side = rng.random(n)
            x = np.where(side < 0.25, lower,
                         np.where(side > 0.75, upper, rng.uniform(lower, upper)))
            p = build_problem(BoxBounds(lower, upper),
                              LinearEquality(a, float(a @ x)),
                              LinearObjective(c))
        yield p, x, c


def test_select_pair_constant_gradient_returns_none():
    p = unit_square(LinearObjective(np.array([2.0, 2.0])))
    st = make_stage(p, delta=0.5, epsilon=0.01)
    assert full_select(p, [0.5, 0.5], st) is None


def test_select_pair_hand_example():
    p = unit_square(LinearObjective(np.array([3.0, 1.0])))
    st = make_stage(p, delta=1.0, epsilon=0.1)
    sel = full_select(p, [0.5, 0.5], st)
    assert (sel.i, sel.j) == (0, 1)
    assert_allclose(sel.gamma, 0.5)
    assert_allclose(sel.mu, -2.0)


def test_select_pair_respects_lower_bound_eligibility():
    # coordinate at its lower bound cannot be decreased
    p = unit_square(LinearObjective(np.array([3.0, 1.0])))
    st = make_stage(p, delta=0.5, epsilon=0.1)
    sel = full_select(p, [0.0, 1.0], st)
    assert sel is None  # 0 not in I-, 1 not in I+


# epsilon = 1e-21 is below half an ulp of a bound at 1, so lower + epsilon or
# upper - epsilon rounds to the bound itself. (box, gradient, start): the
# coordinate on that bound would give (lower side) or take (upper side)
# with gamma = 0 if it were eligible
SUB_ULP_CASES = [
    ((0.0, 1.0), [1e-25, 0.0, -1e-20], [0.5, 0.5, 1.0]),
    ((1.0, 2.0), [1e-20, 0.0, -1e-25], [1.0, 1.5, 1.5]),
]


def sub_ulp_problem(box, lin, start):
    return build_problem(BoxBounds(np.full(3, box[0]), np.full(3, box[1])),
                         LinearEquality(np.ones(3), float(sum(start))),
                         SeparableQuadraticObjective(np.array(lin), np.zeros(3)))


@pytest.mark.parametrize("box,lin,start", SUB_ULP_CASES)
def test_select_pair_keeps_bound_coordinates_out_below_an_ulp(box, lin, start):
    st = make_stage(sub_ulp_problem(box, lin, start), delta=1e-21, epsilon=1e-21)
    sel = full_select(st.problem, start, st)
    assert sel is None or sel.gamma > 0.0
    donor_floor, receiver_ceiling = st.pair_bounds
    assert (donor_floor > box[0]).all() and (receiver_ceiling < box[1]).all()


@pytest.mark.parametrize("box,lin,start", SUB_ULP_CASES)
def test_bcv_with_tolerances_below_an_ulp_ends_with_a_typed_stop(box, lin, start):
    p = sub_ulp_problem(box, lin, start)
    res = bcv_solve(p, SolverConfig(target_accuracy=1e-30), z0=np.array(start))
    assert res.stop_reason in {"converged", "no_descent_pair", "max_stages",
                               "stalled", "budget", "linesearch"}
    assert check_feasibility(res.point, p).feasible


def test_select_pair_matches_exhaustive_scan():
    rng = np.random.default_rng(97)
    for p, x, c in random_linear_instances(rng, 400):
        st = make_stage(p, delta=float(rng.uniform(0.05, 1.0)),
                        epsilon=float(rng.uniform(0.01, 0.3)))
        sel = full_select(p, x, st)
        best = exhaustive_best_violation(x, st)
        if sel is None:
            assert best is None or best < st.delta
        else:
            h = c / p.equality.a
            assert_allclose(h[sel.i] - h[sel.j], best, rtol=1e-12)
            assert sel.i != sel.j
            assert sel.gamma >= st.epsilon - 1e-12
            assert sel.mu <= -st.delta + 1e-12


def test_most_violating_matches_exhaustive_scan():
    # mbc's rule: strict eligibility, and any violation above rounding noise
    rng = np.random.default_rng(131)
    for p, x, c in random_linear_instances(rng, 400):
        h = c / p.equality.a
        sel = full_select(p, x, None)
        best = best_violation(h, x > p.bounds.lower, x < p.bounds.upper)
        if sel is None:
            assert best is None or best <= 1e-12 * max(1.0, np.abs(h).max())
        else:
            assert h[sel.i] - h[sel.j] == best
            assert sel.i != sel.j
            assert x[sel.i] > p.bounds.lower[sel.i]
            assert x[sel.j] < p.bounds.upper[sel.j]
            assert sel.gamma > 0.0
            assert sel.mu == h[sel.j] - h[sel.i]


def test_armijo_hand_example():
    obj = QuadraticObjective(np.eye(2))
    x = np.array([1.0, 0.0])
    d = np.array([-1.0, 1.0])
    lam, m, f_new = armijo_linesearch(obj, x, d, gamma=1.0, mu=-1.0,
                                      sigma=0.5, theta=0.5)
    assert (lam, m) == (0.5, 1)
    assert_allclose(f_new, 0.25)


def test_armijo_full_step_for_small_gamma():
    obj = QuadraticObjective(np.eye(2))
    x = np.array([1.0, 0.0])
    d = np.array([-1.0, 1.0])
    lam, m, _ = armijo_linesearch(obj, x, d, gamma=0.1, mu=-1.0,
                                  sigma=0.5, theta=0.5)
    assert (lam, m) == (0.1, 0)


def test_armijo_matches_enumeration_oracle():
    # the line bound skips trials of the quadratic family; the accepted
    # step must be the one found by evaluating every trial
    for terms in ("quadratic", "quadratic_log", "quadratic_log_l1"):
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            x = rng.standard_normal(n)
            if terms == "quadratic":
                obj = QuadraticObjective(M @ M.T + n * np.eye(n))
            else:
                # log argument 0.05 to 1 at x: long trials leave the domain
                c = rng.uniform(-1.0, 1.0, n)
                xi = float(rng.uniform(0.05, 1.0) - c @ x)
                tau = 0.1 if terms == "quadratic_log_l1" else None
                obj = QuadraticObjective(M @ M.T + n * np.eye(n), c, xi, tau)
            i, j = rng.choice(n, size=2, replace=False)
            a = rng.uniform(0.5, 2.0, size=n)
            d = np.zeros(n)
            d[i], d[j] = -1.0 / a[i], 1.0 / a[j]
            g = obj.gradient(x)
            mu = float(g @ d)
            if mu >= 0:
                d = -d
                mu = -mu
            if mu > -1e-10:
                continue
            gamma = float(rng.uniform(0.1, 2.0))
            sigma, theta = 0.5, 0.5
            lam, m, f_new = armijo_linesearch(obj, x, d, gamma, mu, sigma, theta)
            f0 = obj.value(x)

            def value(t):
                try:
                    return obj.value(x + t * d)
                except DomainError:
                    return np.inf

            expect_m = 0
            while not value(theta**expect_m * gamma) <= \
                    f0 + sigma * theta**expect_m * gamma * mu:
                expect_m += 1
            assert m == expect_m
            assert_allclose(lam, theta**m * gamma, rtol=1e-15)
            assert f_new == value(lam)


def test_armijo_raises_after_max_backtracks():
    # increasing objective along d can never satisfy the decrease test
    obj = LinearObjective(np.array([1.0, 1.0]))
    x = np.zeros(2)
    d = np.array([1.0, 1.0])
    with pytest.raises(LinesearchError):
        armijo_linesearch(obj, x, d, gamma=1.0, mu=-1.0, sigma=0.5,
                          theta=0.5, max_backtracks=10)


def gradient_difference_search(obj, a, x, i, j, gamma, mu, sigma=0.5,
                               theta=0.5, max_backtracks=60):
    """The pair methods' gradient-difference rule, as _pair_step runs it:
    backtracking on the slope h_j - h_i at x moved in place. (lambda, m)."""
    slope = _pair_slope(obj, np.asarray(a, dtype=float), x, i, j)
    return _backtrack(slope, gamma, mu, sigma, theta, max_backtracks, 0.0)[:2]


def gradient_difference_step(obj, x, mu=-1.0):
    """One gradient-difference step of the solver along the pair (0, 1) of
    the unit square from x, whose full step reaches a bound: (lambda, m,
    point after)."""
    x = np.array(x, dtype=float)
    p = unit_square(obj, float(x.sum()))
    state = obj.pair_state(x)
    sel = PairSelection(i=0, j=1, gamma=float(min(x[0], 1.0 - x[1])), mu=mu)
    lam, m, _ = _pair_step(SolverConfig(linesearch="gradient-difference"), p,
                           state, sel, state.value())
    return lam, m, state.x


def test_gradient_difference_hand_example():
    lam, m, x = gradient_difference_step(QuadraticObjective(np.eye(2)), [1.0, 0.0])
    # m = 2 is the first trial where the scaled-gradient gap flips sign
    # far enough: gap((0.75, 0.25)) = -0.5 <= 0.5 * 0.25 * (-1)
    assert (m, lam) == (2, 0.25)
    assert x.tolist() == [0.75, 0.25]


def test_gradient_difference_matches_enumeration():
    rng = np.random.default_rng(107)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        quad = rng.uniform(0.5, 3.0, size=n)
        obj = SeparableQuadraticObjective(rng.standard_normal(n), quad)
        a = rng.uniform(0.5, 2.0, size=n)
        x = rng.standard_normal(n)
        i, j = rng.choice(n, size=2, replace=False)
        h = obj.gradient(x) / a
        if h[i] - h[j] < 0:
            i, j = j, i
        mu = float(h[j] - h[i])
        if mu > -1e-10:
            continue
        gamma = float(rng.uniform(0.1, 1.5))
        sigma, theta = 0.5, 0.5
        lam, m = gradient_difference_search(obj, a, x, i, j, gamma, mu,
                                            sigma, theta)
        d = np.zeros(n)
        d[i], d[j] = -1.0 / a[i], 1.0 / a[j]
        expect_m = 0
        while True:
            trial = x + theta**expect_m * gamma * d
            ht = obj.gradient(trial) / a
            if ht[j] - ht[i] <= sigma * theta**expect_m * gamma * mu:
                break
            expect_m += 1
        assert m == expect_m
        assert_allclose(lam, theta**m * gamma, rtol=1e-15)


class CountingQuadratic(QuadraticObjective):
    """A quadratic that counts its oracle calls by kind."""

    def __init__(self, P):
        super().__init__(P)
        self.calls = {"value": 0, "gradient": 0, "partial": 0}

    def value(self, x):
        self.calls["value"] += 1
        return super().value(x)

    def gradient(self, x):
        self.calls["gradient"] += 1
        return super().gradient(x)

    def partial(self, i, x):
        self.calls["partial"] += 1
        return super().partial(i, x)


def test_gradient_difference_two_partials_per_trial():
    obj = CountingQuadratic(np.eye(2))
    _, m = gradient_difference_search(obj, np.ones(2), np.array([1.0, 0.0]),
                                      i=0, j=1, gamma=1.0, mu=-1.0)
    assert obj.calls == {"value": 0, "gradient": 0, "partial": 2 * (m + 1)}


def test_gradient_difference_leaves_the_callers_x_untouched():
    # f = 50 x0^2 - ln(x0 - x1 + 0.1): from (1, 0) along (0, 1) the full
    # step leaves the log domain, so with no backtracks the search raises
    obj = QuadraticObjective(np.diag([100.0, 0.0]), np.array([1.0, -1.0]), 0.1)
    a = np.ones(2)
    x = np.array([1.0, 0.0])
    mu = float(obj.partial(1, x) - obj.partial(0, x))
    lam, m = gradient_difference_search(obj, a, x, 0, 1, 1.0, mu)
    assert m >= 1 and lam == 0.5**m
    assert x.tobytes() == np.array([1.0, 0.0]).tobytes()
    with pytest.raises(LinesearchError):
        gradient_difference_search(obj, a, x, 0, 1, 1.0, mu, max_backtracks=0)
    assert x.tobytes() == np.array([1.0, 0.0]).tobytes()


class CliffQuadratic(QuadraticObjective):
    """0.5 |x|^2 whose partial in x_1 is -inf where x_1 > 0.9."""

    def partial(self, i, x):
        if i == 1 and x[1] > 0.9:
            return -np.inf
        return super().partial(i, x)


def test_gradient_difference_rejects_an_infinite_slope():
    # the full step to (0, 1) has slope -inf, which is no acceptable
    # decrease; the next accepted trial is the hand example's
    lam, m, x = gradient_difference_step(CliffQuadratic(np.eye(2)), [1.0, 0.0])
    assert (m, lam) == (2, 0.25)
    assert x.tolist() == [0.75, 0.25]


def test_bcv_gradient_parallel_to_constraint_stops_immediately():
    p = unit_square(LinearObjective(np.array([2.0, 2.0])))
    result = bcv_solve(p)
    assert result.converged
    assert result.inner_iterations_total == 0
    assert_allclose(result.error_bound, 0.0, atol=1e-12)
    # every feasible point is stationary here
    rep = check_stationarity(p, np.array([0.3, 0.7]), tol=1e-10)
    assert rep.stationary


def test_bcv_benchmark_instance_converges():
    p = gen_quadratic(10, 5.0)
    result = bcv_solve(p, z0=protocol_start(p))
    assert result.converged
    assert result.inner_iterations_total <= 150
    assert result.error_bound <= 0.1
    assert_allclose(error_bound(p, result.point), result.error_bound,
                    rtol=1e-9, atol=1e-12)


def test_bcv_trace_step_sizes_and_stage_sums():
    p = gen_quadratic(20, 10.0)
    cfg = SolverConfig(record_points=True)
    sched = GeometricSchedule(p, 0.1)
    result = bcv_solve(p, cfg, stages=sched, z0=protocol_start(p))
    assert result.converged
    assert result.trace
    for ev in result.trace:
        assert_allclose(ev.lam, cfg.theta**ev.backtracks * ev.gamma,
                        rtol=1e-12)
        assert check_feasibility(ev.point_after, p).feasible
    # per-stage total step length is bounded by the telescoped decrease
    by_stage = {}
    for ev in result.trace:
        by_stage.setdefault(ev.stage, []).append(ev)
    for l, events in by_stage.items():
        delta_l = sched.stage(l).delta
        total_lam = sum(ev.lam for ev in events)
        drop = events[0].f_before - events[-1].f_after
        assert total_lam <= drop / (cfg.sigma * delta_l) + 1e-9


def test_bcv_restart_leaves_no_violating_pair():
    p = gen_quadratic(10, 5.0)
    sched = GeometricSchedule(p, 0.1)
    result = bcv_solve(p, SolverConfig(record_points=True), stages=sched,
                       z0=protocol_start(p))
    by_stage = {}
    for ev in result.trace:
        by_stage.setdefault(ev.stage, ev)
        by_stage[ev.stage] = ev
    last_stage = max(by_stage)
    for l, last_event in by_stage.items():
        if l == last_stage:
            continue  # final stage ended by convergence, not restart
        st = sched.stage(l)
        best = exhaustive_best_violation(last_event.point_after, st)
        assert best is None or best < st.delta


def test_bcv_max_violation_converges_on_small_grid():
    cfg = SolverConfig(max_stages=10_000)
    for gen, needs_tau in ((gen_quadratic, False), (gen_convex_log, False),
                           (gen_nonsmooth_l1, True)):
        for beta in (5.0, 10.0, 20.0):
            for n in (10, 20):
                p = gen(n, beta)
                sched = GeometricSchedule(p, 0.1) if needs_tau else None
                result = bcv_solve(p, cfg, stages=sched, z0=protocol_start(p))
                assert result.converged, (gen.__name__, beta, n)
                assert result.error_bound <= 0.1


@pytest.mark.parametrize("accuracy, rules", [
    (1e-6, ("armijo", "gradient-difference")),
    (1e-8, ("gradient-difference",)),
])
def test_bcv_converges_at_high_accuracy(accuracy, rules):
    # the threshold floors follow the target, min(1e-6, 1e-2 accuracy); a
    # floor of 1e-6 would stall most of these solves at gaps of 1e-6 to 2e-6
    for gen in (gen_quadratic, gen_convex_log, gen_nonsmooth_l1):
        for n in (10, 50):
            p = gen(n, 5.0)
            for rule in rules:
                cfg = SolverConfig(target_accuracy=accuracy, linesearch=rule,
                                   max_inner_iterations=3000)
                result = bcv_solve(p, cfg, z0=protocol_start(p))
                assert result.stop_reason == "converged", (gen.__name__, n, rule)
                assert result.error_bound <= accuracy


def test_bcv_budget_semantics():
    p = gen_quadratic(50, 20.0)
    cfg = SolverConfig(max_inner_iterations=3)
    result = bcv_solve(p, cfg, z0=protocol_start(p))
    assert not result.converged
    assert result.stop_reason == "budget"
    assert result.inner_iterations_total == 3


def test_bcv_stage_budget():
    p = gen_quadratic(10, 5.0)
    cfg = SolverConfig(target_accuracy=1e-8, max_stages=2)
    result = bcv_solve(p, cfg, z0=protocol_start(p))
    assert not result.converged
    assert result.stop_reason == "max_stages"
    assert result.stages_completed <= 2


def test_cgm_benchmark_instance_converges():
    p = gen_quadratic(10, 5.0)
    result = cgm_solve(p, SolverConfig(record_points=True), z0=protocol_start(p))
    assert result.converged
    assert 0 < result.inner_iterations_total <= 150
    assert result.error_bound <= 0.1
    for ev in result.trace:
        assert check_feasibility(ev.point_after, p).feasible


def test_cgm_zero_iterations_from_optimum():
    p = unit_square(LinearObjective(np.array([1.0, 2.0])))
    y_star, _ = minimize_linear(np.array([1.0, 2.0]), p)
    result = cgm_solve(p, z0=y_star)
    assert result.converged
    assert result.inner_iterations_total == 0


def test_cgm_max_stages_ends_before_tau_reaches_the_accuracy():
    # the gap meets 0.1 on the first stage, whose tau is 1.6
    p = gen_nonsmooth_l1(10, 5.0)
    result = cgm_solve(p, SolverConfig(max_stages=1), z0=protocol_start(p))
    assert (result.stop_reason, result.converged) == ("max_stages", False)
    assert result.stages_completed == 1
    assert result.smoothing == 1.6
    assert result.error_bound <= 0.1


class OneStage(StageProvider):
    """Every stage is the same one."""

    def __init__(self, stage):
        self._stage = stage

    def stage(self, l):
        return self._stage


def test_cgm_stalls_when_the_next_stage_keeps_the_problem():
    p = gen_nonsmooth_l1(10, 5.0)
    assert p.objective.smoothing > 0.1
    result = cgm_solve(p, SolverConfig(), stages=OneStage(Stage(p, 1.0, 1.0)),
                       z0=protocol_start(p))
    assert (result.stop_reason, result.converged) == ("stalled", False)
    assert result.stages_completed == 1
    assert result.inner_iterations_total > 0
    assert result.error_bound <= 0.1


class ListStages(StageProvider):
    """The stages of a list. It records every index a solve asks for, and
    an index past the end raises IndexError."""

    def __init__(self, stages):
        self.stages = list(stages)
        self.asked = []

    def stage(self, l):
        self.asked.append(l)
        return self.stages[l]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("solve", [bcv_solve, cgm_solve])
def test_no_stage_is_asked_for_at_or_past_max_stages(solve, count):
    # cgm once asked for stage l + 1 before it tested the cap, and raised
    # IndexError from the middle of the solve
    p = gen_nonsmooth_l1(10, 5.0)
    schedule = GeometricSchedule(p, 0.1)
    provider = ListStages(schedule.stage(l) for l in range(count))
    result = solve(p, SolverConfig(max_stages=count), stages=provider,
                   z0=protocol_start(p))
    assert (result.stop_reason, result.converged) == ("max_stages", False)
    assert result.stages_completed == count
    assert max(provider.asked) < count


@pytest.mark.parametrize("accuracy, steps, tau, gap, tau_stages", [
    (0.5, 53, 0.5, 0.061152420172703614, 3),
    (2.0, 52, 1.6, 0.09644061361398215, 1),
])
def test_cgm_walks_a_schedule_coarser_than_its_target_to_the_floors(
        accuracy, steps, tau, gap, tau_stages):
    # tau's floor, min(1.6, accuracy), stays above the target 0.1 from stage
    # tau_stages - 1 on, so cgm restarts wherever the gap meets it; delta and
    # epsilon reach their floor 1e-6 at stage 20, which stage 21 would repeat
    p = gen_nonsmooth_l1(10, 5.0)
    schedule = GeometricSchedule(p, accuracy)
    result = cgm_solve(p, SolverConfig(), stages=schedule, z0=protocol_start(p))
    assert (result.stop_reason, result.stages_completed) == ("stalled", 21)
    assert result.inner_iterations_total == steps
    assert result.smoothing == tau
    assert result.error_bound == pytest.approx(gap, rel=1e-9)
    # the restarts from tau's floor on change no point, gap or tau
    capped = cgm_solve(p, SolverConfig(max_stages=tau_stages), stages=schedule,
                       z0=protocol_start(p))
    assert capped.stop_reason == "max_stages"
    assert np.array_equal(capped.point, result.point)
    assert (capped.error_bound, capped.smoothing) == (result.error_bound, tau)


def test_cgm_keeps_its_pass_across_a_restart_onto_the_same_problem(
        monkeypatch):
    # from tau's floor 0.5 on, every stage holds the same problem object, so
    # a restart changes neither the point nor the objective, and the linear
    # minimization of the last pass stands
    p = gen_nonsmooth_l1(10, 5.0)
    calls = []

    def counting(g, q):
        calls.append((g.tobytes(), q))
        return minimize_linear(g, q)

    monkeypatch.setattr(bicoord.solvers, "minimize_linear", counting)
    result = cgm_solve(p, SolverConfig(), stages=GeometricSchedule(p, 0.5))
    assert (result.inner_iterations_total, result.stages_completed) == (15, 21)
    assert len(calls) == 18
    assert all(a[0] != b[0] or a[1] is not b[1]
               for a, b in zip(calls, calls[1:]))


@st.composite
def stage_lists(draw):
    """1-6 stages over gen_nonsmooth_l1(10, beta) and up to two
    with_smoothing copies of it, repeats allowed, and a stage cap no larger
    than the list."""
    base = gen_nonsmooth_l1(10, draw(st.sampled_from([5.0, 10.0])))
    problems = [base] + [
        ProblemInstance(base.bounds, base.equality,
                        base.objective.with_smoothing(tau))
        for tau in draw(st.lists(st.sampled_from([0.8, 0.1, 0.05]),
                                 max_size=2))]
    tolerances = st.sampled_from([1.0, 0.25, 1e-3])
    stages = draw(st.lists(st.builds(Stage, st.sampled_from(problems),
                                     tolerances, tolerances),
                           min_size=1, max_size=6))
    return base, stages, draw(st.integers(1, len(stages)))


@settings(max_examples=60, deadline=None)
@given(case=stage_lists())
def test_the_stage_ladder_contract(case):
    p, stages, max_stages = case
    cfg = SolverConfig(max_stages=max_stages, max_inner_iterations=200,
                       record_points=True)
    for solve in (bcv_solve, cgm_solve):
        provider = ListStages(stages)
        result = solve(p, cfg, stages=provider, z0=protocol_start(p))
        assert result.stop_reason in {"converged", "budget", "max_stages",
                                      "stalled", "linesearch"}
        assert result.stages_completed <= max_stages
        assert max(provider.asked) < max_stages
        if result.stop_reason == "stalled":
            l = result.stages_completed - 1
            cur, nxt = stages[l], stages[l + 1]
            assert nxt.problem is cur.problem
            assert (nxt.delta, nxt.epsilon) == (cur.delta, cur.epsilon)
        assert audit_trace(result.trace, cfg, stages=provider).passed


def test_mbc_first_pair_matches_bcv_at_vanishing_threshold():
    obj = SeparableQuadraticObjective(np.zeros(2), np.ones(2))
    p = unit_square(obj)
    z0 = np.array([1.0, 0.0])
    mbc = mbc_solve(p, SolverConfig(target_accuracy=1e-6), z0=z0)
    sched = GeometricSchedule(p, 1e-6, delta0=1e-9, eps0=1e-9)
    bcv = bcv_solve(p, SolverConfig(target_accuracy=1e-6), stages=sched,
                    z0=z0)
    assert mbc.trace and bcv.trace
    assert (mbc.trace[0].i, mbc.trace[0].j) == (bcv.trace[0].i, bcv.trace[0].j)


def test_mbc_descends_every_iteration():
    p = gen_quadratic(10, 5.0)
    result = mbc_solve(p, z0=protocol_start(p))
    for ev in result.trace:
        assert ev.f_after < ev.f_before


def test_mbc_zero_iterations_from_optimum():
    obj = QuadraticObjective(np.eye(2))
    p = unit_square(obj)
    result = mbc_solve(p, z0=np.array([0.5, 0.5]))
    assert result.converged
    assert result.inner_iterations_total == 0


def test_mbc_stops_at_accuracy_or_budget():
    p = gen_quadratic(10, 5.0)
    result = mbc_solve(p, SolverConfig(max_inner_iterations=500),
                       z0=protocol_start(p))
    assert result.inner_iterations_total <= 500
    if result.converged:
        assert result.error_bound <= 0.1


# ------------------------------------------------------------ stop reasons

def tied_pair_problem():
    """<(1, 1 + 1e-14), x> on x0 + x1 = 1: the pair's violation is 1e-14,
    below mbc's noise floor."""
    return unit_square(LinearObjective(np.array([1.0, 1.0 + 1e-14])))


def flat_pair_problem():
    """<(1, 1 + 5e-9), x> on x0 + x1 = 1000 in [0, 1000]^2. From (500, 500)
    the gap is 2.5e-6, but the pair's violation 5e-9 is below the threshold
    floor of 1e-8 that a target of 1e-6 sets."""
    return build_problem(BoxBounds(np.zeros(2), np.full(2, 1000.0)),
                         LinearEquality(np.ones(2), 1000.0),
                         LinearObjective(np.array([1.0, 1.0 + 5e-9])))


def test_mbc_stops_when_no_descent_pair_remains():
    result = mbc_solve(tied_pair_problem(), SolverConfig(target_accuracy=1e-30),
                       z0=np.array([0.5, 0.5]))
    assert result.stop_reason == "no_descent_pair"
    assert not result.converged
    assert result.inner_iterations_total == 0
    assert result.stages_completed == 1


def test_bcv_stalls_once_the_ladder_reaches_its_floors():
    # delta and epsilon halve from 1 to the 1e-8 floor at stage 27; stage 28
    # would repeat it
    p = flat_pair_problem()
    result = bcv_solve(p, SolverConfig(target_accuracy=1e-6),
                       z0=np.array([500.0, 500.0]))
    assert result.stop_reason == "stalled"
    assert not result.converged
    assert result.inner_iterations_total == 0
    assert result.stages_completed == 28
    assert result.error_bound == error_bound(p, result.point) > 1e-6


def test_mbc_budget_counts_accepted_steps():
    p = gen_convex_log(10, 10.0)
    result = mbc_solve(p, SolverConfig(max_inner_iterations=3),
                       z0=protocol_start(p))
    assert result.stop_reason == "budget"
    assert not result.converged
    assert result.inner_iterations_total == 3
    assert len(result.trace) == 3


def test_linesearch_stall_ends_the_solve_at_the_last_step():
    # after 142 steps the decrease along the pair falls below the rounding
    # of f, and no backtrack is accepted
    p = gen_quadratic(10, 5.0)
    cfg = SolverConfig(target_accuracy=1e-8, record_points=True)
    result = mbc_solve(p, cfg, z0=protocol_start(p))
    assert result.stop_reason == "linesearch"
    assert not result.converged
    assert result.inner_iterations_total == 142
    assert np.array_equal(result.point, result.trace[-1].point_after)
    assert check_feasibility(result.point, p).feasible
    assert result.error_bound == error_bound(p, result.point)
    assert 0.0 < result.error_bound < 1e-6


@pytest.mark.parametrize("solve", [bcv_solve, cgm_solve, mbc_solve])
def test_linesearch_failure_ends_every_method(solve):
    # from the default start no first step is accepted within one backtrack
    p = gen_quadratic(10, 5.0)
    result = solve(p, SolverConfig(max_backtracks=1))
    assert result.stop_reason == "linesearch"
    assert not result.converged
    assert result.inner_iterations_total == 0
    assert check_feasibility(result.point, p).feasible
    assert result.error_bound == error_bound(p, result.point)


def test_cgm_linesearch_failure_keeps_the_last_step():
    p = gen_quadratic(10, 5.0)
    result = cgm_solve(p, SolverConfig(max_backtracks=4, record_points=True))
    assert result.stop_reason == "linesearch"
    assert result.inner_iterations_total == 3
    assert np.array_equal(result.point, result.trace[-1].point_after)
    assert result.objective_value == p.objective.value(result.point)
    assert result.error_bound == error_bound(p, result.point)


def test_nan_gradient_ends_every_method_with_a_typed_stop():
    p = build_problem(BoxBounds(np.zeros(3), np.ones(3)),
                      LinearEquality(np.ones(3), 1.0),
                      PortfolioObjective(np.eye(3), np.array([np.nan, 1.0, 2.0]),
                                         1.0, 10.0, 2))
    for solve, reason in ((bcv_solve, "stalled"), (mbc_solve, "no_descent_pair"),
                          (cgm_solve, "stalled")):
        res = solve(p)
        assert (res.stop_reason, res.converged) == (reason, False)
        assert np.isnan(res.error_bound)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(sigma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(target_accuracy=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_inner_iterations=0)
    # a float budget would fail inside the linesearch, a NaN one never stops
    for name, bad in (("max_backtracks", 2.5), ("max_inner_iterations", float("nan")),
                      ("max_stages", 3.0), ("max_backtracks", "60")):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: bad})
    cfg = SolverConfig(max_inner_iterations=np.int64(7))
    assert type(cfg.max_inner_iterations) is int and cfg.max_inner_iterations == 7
    with pytest.raises(ValueError):
        SolverConfig(linesearch="definitely-not-a-rule")
    cfg = SolverConfig(linesearch="gradient-difference")
    assert cfg.linesearch is LinesearchRule.GRADIENT_DIFFERENCE


class DotCountedMatrix(np.ndarray):
    """A matrix that counts its products with a vector, P.dot(v)."""

    products = 0

    def dot(self, other, *args):
        if self.ndim == 2 and np.ndim(other) == 1:
            DotCountedMatrix.products += 1
        return np.asarray(self).dot(other, *args)


def watch_cgm_lines(monkeypatch, check):
    """Call check(objective, x, g, products taken) at every gradient_line
    of the quadratic family, and return the list of the trial points."""
    trials = []
    value_products = QuadraticObjective.value_products
    gradient_line = QuadraticObjective.gradient_line

    def counted_trial(self, x):
        trials.append(x.copy())
        return value_products(self, x)

    def checked_line(self, x, products=None):
        before = DotCountedMatrix.products
        g, line = gradient_line(self, x, products)
        check(self, x, g, DotCountedMatrix.products - before)
        return g, line

    monkeypatch.setattr(QuadraticObjective, "value_products", counted_trial)
    monkeypatch.setattr(QuadraticObjective, "gradient_line", checked_line)
    return trials


def test_cgm_takes_one_product_per_accepted_unclipped_step(monkeypatch):
    # a grid cell: every accepted trial's P x serves the next gradient, so
    # only the start takes a gradient product, and a step costs its P d and
    # its trials, with no value at exit
    p = gen_convex_log(50, 10.0)
    p.objective.P = p.objective.P.view(DotCountedMatrix)
    taken, values = [], []
    trials = watch_cgm_lines(monkeypatch, lambda obj, x, g, k: taken.append(k))
    value = QuadraticObjective.value
    monkeypatch.setattr(QuadraticObjective, "value",
                        lambda self, x, *products: values.append(x)
                        or value(self, x, *products))
    DotCountedMatrix.products = 0
    res = cgm_solve(p, SolverConfig(target_accuracy=0.1), z0=protocol_start(p))
    steps = res.inner_iterations_total
    assert res.converged and steps > 10
    assert taken == [1] + [0] * steps
    # the line model leaves about one trial per step
    assert steps <= len(trials) <= 1.1 * steps
    # f at the start and at each trial; the trials give every later value,
    # the exit's too
    assert len(values) == 1 + len(trials)
    # the start's gradient and value, then a P d and the trials per step
    assert DotCountedMatrix.products == 2 + steps + len(trials)


def test_cgm_gradient_after_a_clip_is_the_full_gradient(monkeypatch):
    # the first accepted trial leaves the box by rounding and the clip moves
    # it: the next gradient is the objective's at the clipped point, not one
    # from the trial's products
    rng = np.random.default_rng(18)
    lower = np.round(rng.uniform(-1.0, 0.0, 3), 1)
    upper = np.round(lower + rng.uniform(0.1, 1.0, 3), 1)
    z = rng.uniform(lower, upper)
    P = np.diag(rng.choice([0.5, 1.0, 3.0], 3))
    p = build_problem(BoxBounds(lower, upper),
                      LinearEquality(np.ones(3), float(z.sum())),
                      QuadraticObjective(P))
    clipped = []
    trials = None

    def check(obj, x, g, _):
        assert g.tobytes() == obj.gradient(x).tobytes()
        if trials:
            clipped.append(x.tobytes() != trials[-1].tobytes())

    trials = watch_cgm_lines(monkeypatch, check)
    cgm_solve(p, SolverConfig(target_accuracy=1e-6, max_inner_iterations=50),
              z0=z)
    assert clipped[0]
