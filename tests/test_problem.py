import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    BoxBounds,
    GeometricSchedule,
    LinearEquality,
    LinearObjective,
    ProblemError,
    InfeasibleProblemError,
    QuadraticObjective,
    Stage,
    build_problem,
    gen_nonsmooth_l1,
    gen_quadratic,
    normalize_signs,
    project,
)


def unit_square(beta=1.0, a=(1.0, 1.0)):
    return build_problem(
        BoxBounds(np.zeros(2), np.ones(2)),
        LinearEquality(np.asarray(a, float), beta),
        LinearObjective(np.zeros(2)),
    )


def test_build_symmetric_instance():
    p = unit_square()
    assert p.n == 2
    assert_allclose(p.equality.beta, 1.0)


def test_build_rejects_unreachable_balance():
    with pytest.raises(InfeasibleProblemError):
        unit_square(beta=3.0)
    with pytest.raises(InfeasibleProblemError):
        unit_square(beta=-1.0)


def test_build_rejects_bad_shapes_and_zeros():
    bounds = BoxBounds(np.zeros(3), np.ones(3))
    with pytest.raises(ProblemError):
        build_problem(bounds, LinearEquality(np.ones(2), 1.0),
                      LinearObjective(np.zeros(3)))
    with pytest.raises(ProblemError):
        build_problem(bounds, LinearEquality(np.array([1.0, 0.0, 1.0]), 1.0),
                      LinearObjective(np.zeros(3)))
    with pytest.raises(ProblemError):
        build_problem(BoxBounds(np.zeros(1), np.ones(1)),
                      LinearEquality(np.ones(1), 0.5),
                      LinearObjective(np.zeros(1)))


def test_bounds_must_be_strict_and_finite():
    with pytest.raises(ProblemError):
        BoxBounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ProblemError):
        BoxBounds(np.array([0.0, -np.inf]), np.array([1.0, 1.0]))


def test_benchmark_bound_sum_leaves_slack():
    # upper_i = 1 + beta/n + 0.5 sin(i), 1-based; the sum comfortably
    # exceeds beta = 5 so the feasible set is nonempty
    p = gen_quadratic(10, 5.0)
    idx = np.arange(1, 11)
    expected = np.sum(1.0 + 0.5 + 0.5 * np.sin(idx))
    assert_allclose(np.sum(p.bounds.upper), expected, rtol=1e-15)
    assert expected > 5.0
    assert_allclose(expected, 15.7056, atol=1e-4)


def test_normalize_identity_for_positive_coefficients():
    p = unit_square()
    q, sign_map = normalize_signs(p)
    assert np.all(sign_map.signs == 1)
    assert_allclose(q.equality.a, p.equality.a)
    assert_allclose(q.bounds.lower, p.bounds.lower)


def test_normalize_flips_negative_coordinate():
    p = build_problem(
        BoxBounds(np.array([0.0, -3.0]), np.array([1.0, -1.0])),
        LinearEquality(np.array([1.0, -2.0]), 4.0),
        LinearObjective(np.array([1.0, 1.0])),
    )
    q, sign_map = normalize_signs(p)
    assert_allclose(q.equality.a, [1.0, 2.0])
    assert_allclose(q.bounds.lower, [0.0, 1.0])
    assert_allclose(q.bounds.upper, [1.0, 3.0])
    assert list(sign_map.signs) == [1, -1]


def test_normalize_preserves_objective_values():
    rng = np.random.default_rng(3)
    P = rng.standard_normal((3, 3))
    P = P @ P.T + 3 * np.eye(3)
    p = build_problem(
        BoxBounds(np.array([-1.0, -2.0, 0.0]), np.array([1.0, -0.5, 2.0])),
        LinearEquality(np.array([2.0, -1.0, 1.5]), 2.0),
        QuadraticObjective(P),
    )
    q, sign_map = normalize_signs(p)
    for _ in range(5):
        z = rng.uniform(p.bounds.lower, p.bounds.upper)
        x = project(z, p)
        y = sign_map.apply(x)
        assert_allclose(q.objective.value(y), p.objective.value(x), rtol=1e-12)
        assert_allclose(sign_map.apply(y), x)


def test_denormalize_definition_and_involution():
    from bicoord import SignMap
    sm = SignMap(np.array([1, -1]))
    assert_allclose(sm.apply(np.array([0.5, 2.0])), [0.5, -2.0])
    x = np.array([0.3, -1.7])
    assert_allclose(sm.apply(sm.apply(x)), x)


def test_partial_matches_gradient_component():
    rng = np.random.default_rng(5)
    for p in (gen_quadratic(8, 4.0), gen_nonsmooth_l1(8, 4.0, tau=0.7)):
        x = rng.uniform(p.bounds.lower, p.bounds.upper)
        g = p.objective.gradient(x)
        for i in range(p.n):
            gi = p.objective.partial(i, x)
            assert abs(gi - g[i]) <= 1e-12 * max(1.0, abs(g[i]))


def test_stage_requires_positive_tolerances():
    p = unit_square()
    with pytest.raises(ValueError):
        Stage(index=0, problem=p, delta=0.0, epsilon=1.0)
    with pytest.raises(ValueError):
        Stage(index=0, problem=p, delta=1.0, epsilon=-1.0)


def test_geometric_schedule_values():
    sched = GeometricSchedule(unit_square(), delta0=1.0, eps0=1.0, nu=0.5)
    assert_allclose(sched.stage(3).delta, 0.125)


def test_geometric_schedule_floor():
    sched = GeometricSchedule(unit_square(), delta0=1.0, nu=0.5, delta_min=0.1)
    for l in range(4, 12):
        assert sched.stage(l).delta == 0.1


def test_smoothing_ladder_matches_update_rule():
    p = gen_nonsmooth_l1(6, 3.0, tau=1.6)
    sched = GeometricSchedule(p, nu=0.5, tau_min=0.1)
    taus = [sched.stage(l).problem.objective.smoothing for l in range(6)]
    assert taus == [1.6, 0.8, 0.4, 0.2, 0.1, 0.1]


def test_schedule_monotone_and_floored():
    p = gen_nonsmooth_l1(6, 3.0, tau=1.6)
    sched = GeometricSchedule(p, delta0=2.0, eps0=0.5, nu=0.3,
                              delta_min=1e-3, eps_min=1e-4, tau_min=0.05)
    prev = None
    for l in range(20):
        st = sched.stage(l)
        tau = st.problem.objective.smoothing
        if prev is not None:
            assert st.delta <= prev[0]
            assert st.epsilon <= prev[1]
            assert tau <= prev[2]
        assert st.delta >= 1e-3
        assert st.epsilon >= 1e-4
        assert tau >= 0.05
        prev = (st.delta, st.epsilon, tau)


def test_schedule_reuses_problem_once_tau_freezes():
    p = gen_nonsmooth_l1(6, 3.0, tau=1.6)
    sched = GeometricSchedule(p, nu=0.5, tau_min=0.1)
    assert sched.stage(4).problem is sched.stage(5).problem
    assert sched.stage(0).problem is not sched.stage(1).problem


def test_schedule_rejects_bad_ratio():
    with pytest.raises(ValueError):
        GeometricSchedule(unit_square(), nu=1.0)
    with pytest.raises(ValueError):
        GeometricSchedule(unit_square(), nu=0.0)
