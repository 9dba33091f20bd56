import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    BoxBounds,
    GeometricSchedule,
    InfeasiblePointError,
    LinearEquality,
    LinearObjective,
    SolverConfig,
    TRACE_COLUMNS,
    audit_trace,
    bcv_solve,
    build_problem,
    check_stationarity,
    error_bound,
    gen_quadratic,
    minimize_linear,
    project,
    protocol_start,
    write_trace_csv,
)


def linear_instance(c, a, lower, upper, beta):
    return build_problem(
        BoxBounds(np.asarray(lower, float), np.asarray(upper, float)),
        LinearEquality(np.asarray(a, float), float(beta)),
        LinearObjective(np.asarray(c, float)),
    )


def test_error_bound_zero_for_aligned_gradient():
    p = linear_instance([3.0, 3.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    assert_allclose(error_bound(p, np.array([0.25, 0.75])), 0.0, atol=1e-12)


def test_error_bound_dominates_sampled_gaps():
    p = gen_quadratic(10, 5.0)
    x = protocol_start(p)
    delta = error_bound(p, x)
    g = p.objective.gradient(x)
    rng = np.random.default_rng(109)
    # spanning set of knapsack vertices; their convex hull is feasible
    vertices = np.array([minimize_linear(rng.standard_normal(p.n), p)[0]
                         for _ in range(50)])
    weights = rng.dirichlet(np.full(len(vertices), 0.2), size=100_000)
    samples = weights @ vertices
    gaps = (x - samples) @ g
    assert np.all(gaps <= delta + 1e-10)
    assert gaps.max() > 0.0


def test_error_bound_matches_vertex_enumeration():
    import itertools
    p = gen_quadratic(5, 2.0)
    x = protocol_start(p)
    g = p.objective.gradient(x)
    a = p.equality.a
    lo, hi = p.bounds.lower, p.bounds.upper
    best = np.inf
    for free in range(p.n):
        others = [k for k in range(p.n) if k != free]
        for bits in itertools.product((0, 1), repeat=p.n - 1):
            y = np.empty(p.n)
            for k, bit in zip(others, bits):
                y[k] = hi[k] if bit else lo[k]
            y[free] = (p.equality.beta - a[others] @ y[others]) / a[free]
            if lo[free] - 1e-9 <= y[free] <= hi[free] + 1e-9:
                best = min(best, float(g @ y))
    assert_allclose(error_bound(p, x), g @ x - best, rtol=1e-10)


def test_error_bound_rejects_infeasible_point():
    p = linear_instance([1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    with pytest.raises(InfeasiblePointError):
        error_bound(p, np.array([2.0, 2.0]))


def test_stationarity_interior_multiplier():
    p = linear_instance([2.0, 2.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    rep = check_stationarity(p, np.array([0.5, 0.5]), tol=1e-10)
    assert rep.stationary
    assert_allclose(rep.multiplier, 2.0)


def test_stationarity_boundary_interval():
    # coordinate 0 at lower with h=5, coordinate 1 at upper with h=1:
    # any multiplier in [1, 5] certifies the point
    p = linear_instance([5.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    rep = check_stationarity(p, np.array([0.0, 1.0]), tol=1e-12)
    assert rep.stationary
    lo, hi = rep.multiplier_interval
    assert_allclose([lo, hi], [1.0, 5.0])


def test_stationarity_detects_interior_violation():
    p = linear_instance([3.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    rep = check_stationarity(p, np.array([0.5, 0.5]), tol=1e-6)
    assert not rep.stationary
    assert_allclose(rep.worst_violation, 2.0)


def test_stationarity_on_constructed_kkt_points():
    rng = np.random.default_rng(113)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.5, 2.0, size=n)
        lower = rng.uniform(-1.0, 0.0, size=n)
        upper = lower + rng.uniform(1.0, 2.0, size=n)
        lam = float(rng.uniform(-2.0, 2.0))
        status = rng.integers(0, 3, size=n)  # 0 lower, 1 interior, 2 upper
        c = np.empty(n)
        x = np.empty(n)
        for i in range(n):
            if status[i] == 0:
                c[i] = (lam + rng.uniform(0.1, 1.0)) * a[i]
                x[i] = lower[i]
            elif status[i] == 2:
                c[i] = (lam - rng.uniform(0.1, 1.0)) * a[i]
                x[i] = upper[i]
            else:
                c[i] = lam * a[i]
                x[i] = rng.uniform(lower[i] + 0.1, upper[i] - 0.1)
        p = linear_instance(c, a, lower, upper, float(a @ x))
        rep = check_stationarity(p, x, tol=1e-9)
        assert rep.stationary
        lo, hi = rep.multiplier_interval
        assert lo - 1e-9 <= lam <= hi + 1e-9
        assert_allclose(error_bound(p, x), 0.0, atol=1e-9)


def test_pairwise_and_multiplier_conditions_agree():
    # the pairwise gap test passes exactly when some multiplier certifies
    # every coordinate, checked by direct construction
    rng = np.random.default_rng(127)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.5, 2.0, size=n)
        lower = np.zeros(n)
        upper = rng.uniform(0.5, 2.0, size=n)
        c = rng.standard_normal(n)
        p = linear_instance(c, a, lower, upper,
                            float(a @ rng.uniform(lower, upper)))
        x = project(rng.uniform(lower, upper), p)
        tol = float(rng.uniform(0.05, 1.0))
        rep = check_stationarity(p, x, tol=tol, boundary_tol=1e-9)
        h = c / a
        status = np.array(rep.statuses)
        can_dec = status != "at_lower"   # lambda must sit at or above h_i
        can_inc = status != "at_upper"   # lambda must sit at or below h_i
        if can_dec.any() and can_inc.any():
            lam_floor = np.max(h[can_dec])
            lam_ceil = np.min(h[can_inc])
            exists = lam_floor - lam_ceil <= tol
        else:
            exists = True
        assert rep.stationary == exists
        if exists and can_dec.any() and can_inc.any():
            lam = 0.5 * (lam_floor + lam_ceil)
            # direct re-check of the certified multiplier, coordinate-wise
            slack = tol / 2 + 1e-12
            for i in range(n):
                if status[i] == "at_lower":
                    assert h[i] >= lam - slack
                elif status[i] == "at_upper":
                    assert h[i] <= lam + slack
                else:
                    assert abs(h[i] - lam) <= slack


def test_gap_and_stationarity_agree_after_solve():
    p = gen_quadratic(20, 10.0)
    result = bcv_solve(p, z0=protocol_start(p))
    assert result.converged
    g = p.objective.gradient(result.point)
    tol = 1e-2 * (1.0 + np.max(np.abs(g)))
    assert check_stationarity(p, result.point, tol=tol).stationary


def test_audit_accepts_genuine_trace():
    p = gen_quadratic(10, 5.0)
    cfg = SolverConfig(record_points=True)
    sched = GeometricSchedule(p)
    result = bcv_solve(p, cfg, stages=sched, z0=protocol_start(p))
    audit = audit_trace(result.trace, cfg, stages=sched, problem=p)
    assert audit.passed
    assert audit.checked_events == len(result.trace)
    assert not audit.failures


def test_audit_flags_tampered_objective_record():
    p = gen_quadratic(10, 5.0)
    cfg = SolverConfig(record_points=True)
    sched = GeometricSchedule(p)
    result = bcv_solve(p, cfg, stages=sched, z0=protocol_start(p))
    import dataclasses
    bad = list(result.trace)
    k = len(bad) // 2
    bad[k] = dataclasses.replace(bad[k], f_after=bad[k].f_after + 1.0)
    audit = audit_trace(bad, cfg, stages=sched, problem=p)
    assert not audit.passed
    assert audit.failures
    assert any(f"event {k}" in msg for msg in audit.failures)


def test_audit_flags_overlong_step():
    p = gen_quadratic(10, 5.0)
    cfg = SolverConfig(record_points=True)
    result = bcv_solve(p, cfg, z0=protocol_start(p))
    import dataclasses
    bad = list(result.trace)
    bad[0] = dataclasses.replace(bad[0], lam=bad[0].gamma * 2.0)
    audit = audit_trace(bad, cfg, problem=p)
    assert not audit.passed


def test_audit_empty_trace_vacuous_pass():
    audit = audit_trace([], SolverConfig())
    assert audit.passed
    assert audit.checked_events == 0


def test_trace_csv_schema_and_roundtrip(tmp_path):
    p = gen_quadratic(10, 5.0)
    result = bcv_solve(p, z0=protocol_start(p))
    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == len(result.trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == result.trace[0].stage
    assert float(first[5]) == result.trace[0].lam
