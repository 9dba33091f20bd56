"""The gap certificate against an independent solver.

For a convex f and any feasible y, f(y) >= f(x) + <g, y - x>, so
f(x) - f* <= <g, x> - min_D <g, y> = Delta(x), the error bound a solve
reports. f* is estimated by scipy's SLSQP, which shares no code with the
package. Its point x_s is projected onto the feasible set, so
f(project(x_s)) >= f* whatever SLSQP's accuracy, and the reported bound
must cover f(x) - f(project(x_s)) up to rounding. The bound holds at any
exit, so the budget is kept small: cgm and the ill-conditioned instances
end on it with gaps well above the accuracy, which the check covers too.
"""

import numpy as np
import pytest

from bicoord import (
    METHODS,
    BoxBounds,
    LinearEquality,
    QuadraticObjective,
    SeparableQuadraticObjective,
    SolverConfig,
    build_problem,
    project,
    solve,
)

optimize = pytest.importorskip("scipy.optimize")


def convex_instance(seed):
    """n from 5 to 30 and signed a. By seed % 3: a separable quadratic
    (some curvatures zero), a PSD quadratic, a PSD quadratic with the log
    term. Returns the instance and a feasible start."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 31))
    a = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 3.0, n)
    z0 = rng.uniform(lower, upper)
    kind = seed % 3
    if kind == 0:
        quad = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.1, 2.0, n))
        obj = SeparableQuadraticObjective(rng.uniform(-3.0, 3.0, n), quad)
    else:
        B = rng.standard_normal((n, n)) / np.sqrt(n)
        P = B @ B.T
        if kind == 1:
            obj = QuadraticObjective(P)
        else:
            c = rng.uniform(-2.0, 2.0, n)
            radius = np.maximum(np.abs(lower), np.abs(upper))
            obj = QuadraticObjective(P, c, float(np.abs(c) @ radius) + 1.0)
    p = build_problem(BoxBounds(lower, upper), LinearEquality(a, float(a @ z0)),
                      obj)
    return p, z0


def slsqp_value(p, z0) -> float:
    """f at the projection of SLSQP's solution: an upper bound on f*."""
    f = p.objective
    a, beta = p.equality.a, p.equality.beta
    res = optimize.minimize(
        f.value, z0, jac=f.gradient, method="SLSQP",
        bounds=list(zip(p.bounds.lower, p.bounds.upper)),
        constraints=[{"type": "eq", "fun": lambda x: a @ x - beta,
                      "jac": lambda x: a}],
        options={"maxiter": 500, "ftol": 1e-14})
    return f.value(project(res.x, p))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(20))
def test_reported_gap_bounds_the_distance_to_an_independent_optimum(seed, method):
    p, z0 = convex_instance(seed)
    cfg = SolverConfig(target_accuracy=1e-6, max_inner_iterations=2_000,
                       max_stages=10_000)
    r = solve(p, method, cfg, z0=z0)
    assert np.isfinite(r.error_bound)
    f = p.objective
    x = r.point
    radius = np.maximum(np.abs(p.bounds.lower), np.abs(p.bounds.upper))
    scale = 1.0 + abs(f.value(x)) + float(np.abs(f.gradient(x)) @ radius)
    assert f.value(x) - slsqp_value(p, z0) <= r.error_bound + 1e-9 * scale
