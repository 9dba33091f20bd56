import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    BoxBounds,
    CountingObjective,
    GeometricSchedule,
    LinearEquality,
    LinearObjective,
    LinesearchError,
    PairStrategy,
    QuadraticObjective,
    SolverConfig,
    Stage,
    armijo_linesearch,
    bcv_solve,
    cgm_solve,
    check_feasibility,
    check_stationarity,
    error_bound,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    gradient_difference_linesearch,
    mbc_solve,
    minimize_linear,
    project,
    protocol_start,
    select_pair,
    build_problem,
)
from bicoord.objectives import SeparableQuadraticObjective


def unit_square(objective, beta=1.0):
    return build_problem(
        BoxBounds(np.zeros(2), np.ones(2)),
        LinearEquality(np.ones(2), beta),
        objective,
    )


def make_stage(problem, delta, epsilon):
    return Stage(index=0, problem=problem, delta=delta, epsilon=epsilon)


def exhaustive_best_violation(x, stage):
    # reference scan over all pairs admitted by the eligibility sets
    p = stage.problem
    a = p.equality.a
    h = p.objective.gradient(x) / a
    dec = x >= p.bounds.lower + stage.epsilon / a
    inc = x <= p.bounds.upper - stage.epsilon / a
    if not dec.any() or not inc.any():
        return None
    best = -np.inf
    for i in np.flatnonzero(dec):
        for j in np.flatnonzero(inc):
            if i != j:
                best = max(best, h[i] - h[j])
    return None if best == -np.inf else best


def test_select_pair_constant_gradient_returns_none():
    p = unit_square(LinearObjective(np.array([2.0, 2.0])))
    st = make_stage(p, delta=0.5, epsilon=0.01)
    assert select_pair(np.array([0.5, 0.5]), st) is None


def test_select_pair_hand_example():
    p = unit_square(LinearObjective(np.array([3.0, 1.0])))
    st = make_stage(p, delta=1.0, epsilon=0.1)
    sel = select_pair(np.array([0.5, 0.5]), st)
    assert (sel.i, sel.j) == (0, 1)
    assert_allclose(sel.gamma, 0.5)
    assert_allclose(sel.mu, -2.0)


def test_select_pair_respects_lower_bound_eligibility():
    # coordinate at its lower bound cannot be decreased
    p = unit_square(LinearObjective(np.array([3.0, 1.0])))
    st = make_stage(p, delta=0.5, epsilon=0.1)
    sel = select_pair(np.array([0.0, 1.0]), st)
    assert sel is None  # 0 not in I-, 1 not in I+


def test_select_pair_matches_exhaustive_scan():
    rng = np.random.default_rng(97)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.5, 2.0, size=n)
        lower = rng.uniform(-1.0, 0.0, size=n)
        upper = lower + rng.uniform(0.5, 2.0, size=n)
        c = rng.standard_normal(n)
        beta = float(a @ rng.uniform(lower, upper))
        p = build_problem(BoxBounds(lower, upper), LinearEquality(a, beta),
                          LinearObjective(c))
        x = project(rng.uniform(lower, upper), p)
        st = make_stage(p, delta=float(rng.uniform(0.05, 1.0)),
                        epsilon=float(rng.uniform(0.01, 0.3)))
        sel = select_pair(x, st)
        best = exhaustive_best_violation(x, st)
        if sel is None:
            assert best is None or best < st.delta
        else:
            h = c / a
            assert_allclose(h[sel.i] - h[sel.j], best, rtol=1e-12)
            assert sel.i != sel.j
            assert sel.gamma >= st.epsilon - 1e-12
            assert sel.mu <= -st.delta + 1e-12


def test_select_pair_sweep_returns_valid_pair():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(3, 8))
        a = rng.uniform(0.5, 2.0, size=n)
        lower = np.zeros(n)
        upper = rng.uniform(1.0, 2.0, size=n)
        c = rng.standard_normal(n)
        beta = float(a @ rng.uniform(lower, upper))
        p = build_problem(BoxBounds(lower, upper), LinearEquality(a, beta),
                          LinearObjective(c))
        x = project(rng.uniform(lower, upper), p)
        st = make_stage(p, delta=float(rng.uniform(0.05, 0.5)),
                        epsilon=float(rng.uniform(0.01, 0.2)))
        sweep = select_pair(x, st, PairStrategy.FIRST_FOUND_SWEEP,
                            start=int(rng.integers(0, n)))
        reference = select_pair(x, st, PairStrategy.MAX_VIOLATION)
        if reference is None:
            assert sweep is None
        else:
            assert sweep is not None
            h = c / a
            assert h[sweep.i] - h[sweep.j] >= st.delta - 1e-12
            assert sweep.gamma >= st.epsilon - 1e-12


def test_sweep_uses_fewer_partials_than_full_gradient():
    p = gen_quadratic(50, 20.0)
    counting = CountingObjective(p.objective)
    probe = build_problem(p.bounds, p.equality, counting)
    st = make_stage(probe, delta=0.05, epsilon=1e-4)
    x = protocol_start(probe)
    sel = select_pair(x, st, PairStrategy.FIRST_FOUND_SWEEP, gradient=None)
    assert sel is not None
    assert counting.gradient_calls == 0
    assert counting.partial_calls < 2 * probe.n


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
    rng = np.random.default_rng(103)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        obj = QuadraticObjective(M @ M.T + n * np.eye(n))
        x = rng.standard_normal(n)
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
        lam, m, _ = armijo_linesearch(obj, x, d, gamma, mu, sigma, theta)
        f0 = obj.value(x)
        expect_m = 0
        while obj.value(x + theta**expect_m * gamma * d) > \
                f0 + sigma * theta**expect_m * gamma * mu:
            expect_m += 1
        assert m == expect_m
        assert_allclose(lam, theta**m * gamma, rtol=1e-15)


def test_armijo_raises_after_max_backtracks():
    # increasing objective along d can never satisfy the decrease test
    obj = LinearObjective(np.array([1.0, 1.0]))
    x = np.zeros(2)
    d = np.array([1.0, 1.0])
    with pytest.raises(LinesearchError):
        armijo_linesearch(obj, x, d, gamma=1.0, mu=-1.0, sigma=0.5,
                          theta=0.5, max_backtracks=10)


def test_gradient_difference_hand_example():
    obj = QuadraticObjective(np.eye(2))
    a = np.ones(2)
    x = np.array([1.0, 0.0])
    lam, m = gradient_difference_linesearch(obj, a, x, i=0, j=1, gamma=1.0,
                                            mu=-1.0, sigma=0.5, theta=0.5)
    # m = 2 is the first trial where the scaled-gradient gap flips sign
    # far enough: gap((0.75, 0.25)) = -0.5 <= 0.5 * 0.25 * (-1)
    assert (m, lam) == (2, 0.25)


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
        lam, m = gradient_difference_linesearch(obj, a, x, i, j, gamma, mu,
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


def test_gradient_difference_two_partials_per_trial():
    obj = CountingObjective(QuadraticObjective(np.eye(2)))
    a = np.ones(2)
    x = np.array([1.0, 0.0])
    _, m = gradient_difference_linesearch(obj, a, x, i=0, j=1, gamma=1.0,
                                          mu=-1.0, sigma=0.5, theta=0.5)
    assert obj.partial_calls == 2 * (m + 1)
    assert obj.value_calls == 0
    assert obj.gradient_calls == 0


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
    sched = GeometricSchedule(p)
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
    sched = GeometricSchedule(p)
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


@pytest.mark.parametrize("strategy", [PairStrategy.MAX_VIOLATION,
                                      PairStrategy.FIRST_FOUND_SWEEP])
def test_bcv_strategies_agree_on_convergence(strategy):
    cfg = SolverConfig(pair_strategy=strategy, max_stages=10_000)
    for gen, needs_tau in ((gen_quadratic, False), (gen_convex_log, False),
                           (gen_nonsmooth_l1, True)):
        for beta in (5.0, 10.0, 20.0):
            for n in (10, 20):
                p = gen(n, beta)
                sched = GeometricSchedule(p, tau_min=0.1) if needs_tau else None
                result = bcv_solve(p, cfg, stages=sched, z0=protocol_start(p))
                assert result.converged, (gen.__name__, beta, n)
                assert result.error_bound <= 0.1


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


def test_bcv_restart_value_check_is_conservative():
    p = gen_nonsmooth_l1(10, 5.0)
    sched = GeometricSchedule(p, tau_min=0.1)
    base = bcv_solve(p, SolverConfig(), stages=sched, z0=protocol_start(p))
    checked = bcv_solve(p, SolverConfig(restart_value_check=True),
                        stages=sched, z0=protocol_start(p))
    assert checked.converged == base.converged
    assert_allclose(checked.point, base.point)
    assert checked.inner_iterations_total == base.inner_iterations_total


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


def test_mbc_first_pair_matches_bcv_at_vanishing_threshold():
    obj = SeparableQuadraticObjective(np.zeros(2), np.ones(2))
    p = unit_square(obj)
    z0 = np.array([1.0, 0.0])
    mbc = mbc_solve(p, SolverConfig(target_accuracy=1e-6), z0=z0)
    sched = GeometricSchedule(p, delta0=1e-9, eps0=1e-9)
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


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(sigma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(target_accuracy=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_inner_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(pair_strategy="definitely-not-a-strategy")
    cfg = SolverConfig(pair_strategy="first-found-sweep",
                       linesearch="gradient-difference")
    assert cfg.pair_strategy is PairStrategy.FIRST_FOUND_SWEEP
