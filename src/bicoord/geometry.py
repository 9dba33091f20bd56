"""Geometry of the feasible set: projection, linear minimization, feasibility.

The feasible set is D = {x in [lower, upper] : <a, x> = beta}. Both kernels
run on the scalar multiplier of the constraint normal: the map
lam -> <a, clip(z + lam * a)> is piecewise linear and nondecreasing, so the
projection reduces to a breakpoint search, and minimizing a linear function
over D is a continuous knapsack solved greedily by cost ratio.

The computed map is nondecreasing too, bit for bit: each rounded term
a_i * clip(z_i + lam * a_i) is monotone in lam, and a sum of monotone terms
taken in a fixed order is monotone. So the last sorted breakpoint whose
computed balance is below beta is one index whatever order the search
probes in, and the projection's bits do not depend on the search.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .problem import ProblemInstance

__all__ = ["project", "minimize_linear", "floor_zero", "linear_gap",
           "check_feasibility", "FeasibilityReport"]


def _balance(lam: float, z, a, lower, upper, buf) -> float:
    """<a, clip(z + lam a, lower, upper)>, evaluated in buf, which keeps the
    clipped point."""
    np.multiply(a, lam, out=buf)
    buf += z
    # clip as max then min: the same values as np.clip, at less cost
    np.maximum(buf, lower, out=buf)
    np.minimum(buf, upper, out=buf)
    return float(a @ buf)


def _bisect_lambda(z, a, lower, upper, beta, lo: float, hi: float, buf) -> float:
    # plain bisection on the monotone balance map, fallback path
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if _balance(mid, z, a, lower, upper, buf) < beta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def project(z, p: ProblemInstance) -> np.ndarray:
    """Euclidean projection of z onto the feasible set of p.

    The projection is clip(z + lam* a) where lam* solves
    <a, clip(z + lam a)> = beta. Breakpoints of the map are the lam values
    where a coordinate enters or leaves its bound. A bracket search finds
    the last sorted breakpoint whose balance is below beta: it probes first
    the breakpoint at lam = 0, where a feasible z has lam*, then where the
    secant through the bracket meets beta, and bisects after a probe that
    fails to halve the bracket, so it takes at most about twice the probes
    of a plain bisection. lam* is recovered by linear interpolation from
    the balances kept at the bracket's ends, exact because the map is
    affine between breakpoints. Where rounding leaves that lam's residual
    above 1e-11 relative (points far off the box), a bisection on lam is
    tried, and its lam kept only when it ends closer to beta. Every
    evaluation of the map reuses one buffer.
    """
    a = p.equality.a
    lower, upper = p.bounds.lower, p.bounds.upper
    beta = p.equality.beta
    z = np.asarray(z, dtype=float)
    if z.shape != a.shape:
        raise ValueError("point has wrong length")

    # repeated breakpoints leave the bracketing pair of values unchanged
    bps = np.stack((lower, upper))
    bps -= z
    bps /= a
    bps = bps.ravel()
    bps.sort()
    buf = np.empty_like(a)

    def balance(lam) -> float:
        return _balance(lam, z, a, lower, upper, buf)

    g_lo = balance(bps[0])
    g_hi = balance(bps[-1])
    if beta <= g_lo:
        lam = float(bps[0])
    elif beta >= g_hi:
        lam = float(bps[-1])
    else:
        # invariant: gl = balance(bps[left]) < beta <= balance(bps[right]) = gr
        left, right, gl, gr = 0, len(bps) - 1, g_lo, g_hi
        # a feasible z has lam* = 0: probe the first breakpoint at or above 0
        k = int(np.searchsorted(bps, 0.0))
        width = 2 * right  # the first probe is not held to the halving test
        while right - left > 1:
            k = min(max(k, left + 1), right - 1)
            g = balance(bps[k])
            if g < beta:
                left, gl = k, g
            else:
                right, gr = k, g
            if 2 * (right - left) <= width:
                # next probe where the secant through the bracket meets beta
                bl, br = float(bps[left]), float(bps[right])
                t = bl + (beta - gl) * (br - bl) / (gr - gl)
                k = int(np.searchsorted(bps, t))
            else:
                # the step did not halve the bracket: bisect
                k = (left + right) // 2
            width = right - left
        bl, br = float(bps[left]), float(bps[right])
        if gr > gl:
            lam = bl + (beta - gl) * (br - bl) / (gr - gl)
        else:
            lam = bl

    residual = beta - balance(lam)
    if abs(residual) > 1e-11 * max(1.0, abs(beta)):
        # interpolation degenerated, fall back to bisection on lam, and keep
        # the interpolated lam when the bisection ends no closer to beta
        lam_b = _bisect_lambda(z, a, lower, upper, beta,
                               float(bps[0]) - 1.0, float(bps[-1]) + 1.0, buf)
        residual_b = beta - balance(lam_b)
        if abs(residual_b) < abs(residual):
            residual = residual_b
        else:
            balance(lam)  # refill the buffer at the interpolated lam
    x = buf
    if residual != 0.0:
        # spread the remaining float residue over the strictly free coordinates
        free = (x > lower) & (x < upper)
        denom = float((a[free] ** 2).sum())
        if denom > 0.0:
            x[free] += (residual / denom) * a[free]
            np.clip(x, lower, upper, out=x)
    return x


def _cost_order(ratios: np.ndarray) -> np.ndarray:
    """Indices that sort the ratios, ties broken by lowest index.

    The default sort is several times faster than the stable one. When its
    result is strictly increasing the sorting permutation is unique, so it is
    the stable one; ties, and NaN, which compares false, take the stable sort.
    """
    order = ratios.argsort()
    r = ratios[order]
    if not (r[1:] > r[:-1]).all():
        order = ratios.argsort(kind="stable")
    return order


def minimize_linear(c, p: ProblemInstance) -> tuple[np.ndarray, float]:
    """Minimize <c, x> over the feasible set of p. Returns (argmin, value).

    Continuous knapsack (p.knapsack): after flipping coordinates with
    a_i < 0, start every coordinate at its lower bound and spend the balance
    budget beta - <a, lower> raising coordinates in increasing order of
    c_i / a_i, ties broken by lowest index. At most one coordinate ends
    fractional.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != p.equality.a.shape:
        raise ValueError("cost vector has wrong length")
    ks = p.knapsack
    n = c.shape[0]

    # budget[k] is the budget left before the k-th coordinate in cost order,
    # budget[k + 1] = budget[k] - cap_k after it; accumulating from the left
    # reproduces a sequential running budget bit for bit
    order = _cost_order(ks.point(c) / ks.a)
    budget = np.empty(n + 1)
    budget[0] = ks.budget
    ks.caps.take(order, out=budget[1:])
    np.subtract.accumulate(budget, out=budget)
    # a coordinate is filled while the budget is positive and covers its cap
    # (budget < cap exactly when budget - cap < 0); the first one that is
    # not gets the positive remainder, if any
    unfilled = budget[1:] < 0.0
    unfilled |= budget[:-1] <= 0.0
    k = int(unfilled.argmax())
    if not unfilled[k]:
        k = n
    y = ks.lower.copy()
    filled = order[:k]
    y[filled] = ks.upper[filled]
    if k < n and budget[k] > 0.0:
        idx = order[k]
        y[idx] = ks.lower[idx] + budget[k] / ks.a[idx]
    if ks.signs is not None:
        y *= ks.signs
    return y, float(c @ y)


def floor_zero(v: float) -> float:
    """max(0.0, v), but NaN stays NaN: max would return 0 and certify it."""
    return 0.0 if v <= 0.0 else v


def linear_gap(g, x, p: ProblemInstance) -> float:
    """<g, x> - min_{y in D} <g, y>, floored at zero: with g = f'(x) this is
    the gap Delta(x), zero exactly at stationary points, and NaN when g or x
    holds NaN."""
    _, best = minimize_linear(g, p)
    return floor_zero(float(g @ x) - best)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    balance_residual: float
    max_box_violation: float


def check_feasibility(x, p: ProblemInstance, tol: float = 1e-10,
                      box_tol: float = 0.0) -> FeasibilityReport:
    """Report balance residual and box violation of x.

    feasible means |<a, x> - beta| <= tol * max(1, |beta|) and the box is
    respected up to box_tol (default exact containment). Violations are
    reported, never repaired.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != p.equality.a.shape:
        raise ValueError("point has wrong length")
    residual = p.equality.residual(x)
    below = float(np.max(p.bounds.lower - x, initial=-np.inf))
    above = float(np.max(x - p.bounds.upper, initial=-np.inf))
    violation = max(0.0, below, above)
    feasible = (abs(residual) <= tol * max(1.0, abs(p.equality.beta))
                and violation <= box_tol)
    return FeasibilityReport(feasible=feasible, balance_residual=residual,
                             max_box_violation=violation)
