"""Deterministic benchmark instance families.

All three families share the feasible set
    sum_i x_i = beta, 0 <= x_i <= 1 + beta/n + 0.5 sin(i), i = 1..n
(indices 1-based inside the trig formulas, radians). The quadratic term uses
    p_ij = sin(i) cos(j) for i < j, mirrored for i > j,
    p_jj = sum_{i != j} |p_ij| + 1,
which is strictly diagonally dominant, hence positive definite. The log term
is -ln(<c, x> + 5) with c_i = 2 + sin(i); c > 0 and x >= 0 keep the argument
positive. The nonsmooth family adds ||x||_1 smoothed coordinatewise by
sqrt(x_i^2 + tau^2). Every feasible point starts at x = (beta/n) e, which is
interior for these bounds.
"""

from __future__ import annotations

import numpy as np

from .objectives import QuadraticObjective
from .problem import BoxBounds, LinearEquality, ProblemInstance, build_problem

__all__ = ["gen_quadratic", "gen_convex_log", "gen_nonsmooth_l1",
           "protocol_start", "interaction_matrix"]


def interaction_matrix(n: int) -> np.ndarray:
    """Symmetric positive definite sin/cos coupling matrix.

    Filled by blocks of rows, each written in place by plain products:
    s_i c_j on and above the diagonal, c_i s_j below it. Multiplication
    commutes in IEEE arithmetic, so P_ji equals P_ij bit for bit. Below the
    diagonal inside the block's own square, the entries are copied from
    their mirrors just written. No temporary is larger than a block. The
    diagonal's column sums are accumulated in row order, as one sum over
    all rows would.
    """
    idx = np.arange(1, n + 1, dtype=float)
    s, c = np.sin(idx), np.cos(idx)
    P = np.empty((n, n))
    step = max(1, (1 << 16) // n)
    # row 0 carries the column sums of the rows above the block
    acc = np.zeros((min(step, n) + 1, n))
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        rows = P[r0:r1]
        np.multiply(s[r0:r1, None], c[r0:], out=rows[:, r0:])
        np.multiply(c[r0:r1, None], s[:r0], out=rows[:, :r0])
        square = rows[:, r0:r1]
        np.copyto(square, square.T, where=idx[r0:r1, None] > idx[r0:r1])
        np.fill_diagonal(square, 0.0)
        np.abs(rows, out=acc[1:r1 - r0 + 1])
        acc[0] = acc[:r1 - r0 + 1].sum(axis=0)
    np.fill_diagonal(P, acc[0] + 1.0)
    return P


def _feasible_set(n: int, beta: float) -> tuple[BoxBounds, LinearEquality]:
    if n < 2:
        raise ValueError("need n >= 2")
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    idx = np.arange(1, n + 1, dtype=float)
    upper = 1.0 + beta / n + 0.5 * np.sin(idx)
    return (BoxBounds(np.zeros(n), upper), LinearEquality(np.ones(n), beta))


def _log_cost(n: int) -> np.ndarray:
    return 2.0 + np.sin(np.arange(1, n + 1, dtype=float))


def gen_quadratic(n: int, beta: float) -> ProblemInstance:
    """Family 1: f(x) = 0.5 <P x, x>."""
    bounds, eq = _feasible_set(n, beta)
    return build_problem(bounds, eq, QuadraticObjective(interaction_matrix(n)))


def gen_convex_log(n: int, beta: float) -> ProblemInstance:
    """Family 2: f(x) = 0.5 <P x, x> - ln(<c, x> + 5)."""
    bounds, eq = _feasible_set(n, beta)
    obj = QuadraticObjective(interaction_matrix(n), _log_cost(n), 5.0)
    return build_problem(bounds, eq, obj)


def gen_nonsmooth_l1(n: int, beta: float, tau: float = 1.6) -> ProblemInstance:
    """Family 3: family 2 plus ||x||_1, smoothed at level tau."""
    bounds, eq = _feasible_set(n, beta)
    obj = QuadraticObjective(interaction_matrix(n), _log_cost(n), 5.0, tau)
    return build_problem(bounds, eq, obj)


def protocol_start(p: ProblemInstance) -> np.ndarray:
    """Benchmark start point (beta/n) e."""
    return np.full(p.n, p.equality.beta / p.n)
