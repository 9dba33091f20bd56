"""Objective oracles.

An objective exposes value(x), gradient(x) and single-coordinate partial(i, x).
Objectives that approximate a nonsmooth term carry the current smoothing
parameter in `smoothing` and can be rebuilt at a new parameter through
`with_smoothing`, which is how stage schedules tighten the approximation.

Pair methods move two coordinates per step. `pair_state(x)` returns a
PairState that follows such steps: the pair selection, a trial along the
pair, a move, the gradient. The quadratic family keeps P x up to date, so a
trial costs O(1) and a move O(n); from SPARSE_REBUILD_MIN_N coordinates up,
its periodic rebuild corrects P x over the coordinates moved since its last
full product instead of taking another. A separable quadratic keeps the
gradient itself and the selection's key arrays, so a trial and a move cost
O(1) and a selection one argmax and one argmin pass. Every other objective
evaluates in full.

Instances are immutable; the same object can be shared across stages.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
import math

import numpy as np

from .smoothing import smooth_abs_sqrt, smooth_plus

__all__ = [
    "DomainError",
    "is_symmetric",
    "Objective",
    "PairState",
    "PairSelection",
    "LinearObjective",
    "QuadraticObjective",
    "SvmDualObjective",
    "PortfolioObjective",
    "SeparableQuadraticObjective",
]


class DomainError(ValueError):
    """The point lies outside the objective's domain (a log argument <= 0)."""


def _log_domain(den: float) -> float:
    if not den > 0.0:
        raise DomainError("log argument not positive at this point")
    return den


def is_symmetric(M: np.ndarray, atol: float) -> bool:
    """Whether |M_ij - M_ji| <= atol + 1e-5 min(|M_ij|, |M_ji|) for all i, j,
    which is np.allclose(M, M.T, atol=atol); NaN is never close. Row blocks
    of the upper triangle are compared with the mirrored column blocks, so no
    temporary is larger than a block."""
    n = M.shape[0]
    step = max(1, (1 << 16) // max(n, 1))
    for i in range(0, n, step):
        rows = M[i:i + step, i:]
        cols = M[i:, i:i + step].T
        tol = np.minimum(np.abs(rows), np.abs(cols))
        tol *= 1e-5
        tol += atol
        if not (np.abs(rows - cols) <= tol).all():
            return False
    return True


class Objective:
    """Base oracle. Subclasses override value and gradient at least."""

    #: current smoothing parameter, None for objectives that need none
    smoothing: float | None = None
    #: serialization payload {"kind": ..., "params": ...}, set by builders
    spec: dict | None = None

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def partial(self, i: int, x: np.ndarray) -> float:
        # generic fallback; subclasses with cheap partials override
        return float(self.gradient(x)[i])

    def with_smoothing(self, eps: float) -> "Objective":
        if self.smoothing is None:
            raise ValueError("objective has no smoothing parameter")
        raise NotImplementedError

    def pair_state(self, x: np.ndarray) -> "PairState":
        """State at x for pair steps; takes ownership of x and updates it."""
        return PairState(self, x)

    def line_bound(self, x: np.ndarray, d: np.ndarray):
        """lb(lam) <= value(x + lam * d) as computed, rounding included, or
        +inf where that point certainly lies outside the domain; or None
        where the objective offers no such bound."""
        return None


@dataclass(frozen=True)
class PairSelection:
    i: int
    j: int
    gamma: float  # largest balance-neutral move before a bound is hit
    mu: float     # directional derivative h_j - h_i, always <= -delta


def _selection(ks, i: int, j: int, y_i, y_j, mu) -> PairSelection:
    """The pair (i, j) at knapsack coordinates y_i, y_j of the knapsack
    form ks, with its bound distance gamma."""
    gamma = min(ks.a[i] * (y_i - ks.lower[i]), ks.a[j] * (ks.upper[j] - y_j))
    return PairSelection(i=i, j=j, gamma=float(gamma), mu=float(mu))


def _extreme_pair(p, x, g, floor, ceiling) -> PairSelection | None:
    """The extreme pair of problem p at x on the gradient g: with the
    knapsack point y = signs * x and h = g / a, i = argmax h over donors
    y_i >= floor_i and j = argmin h over receivers y_j <= ceiling_j, ties to
    the lowest index. None when either set is empty, or when one coordinate
    tops both lists: then no pair has a positive violation."""
    y = p.knapsack.point(x)
    can_give, can_take = y >= floor, y <= ceiling
    if not can_give.any() or not can_take.any():
        return None
    h = g / p.equality.a
    i = int(np.argmax(np.where(can_give, h, -np.inf)))
    j = int(np.argmin(np.where(can_take, h, np.inf)))
    if i == j:
        return None
    return _selection(p.knapsack, i, j, y[i], y[j], h[j] - h[i])


#: from this many coordinates up, the quadratic pair state rebuilds P x by a
#: sparse correction from its last full product. With one BLAS thread, a full
#: product at n = 1024, 2048, 3000 and 5000 took 0.28, 1.15, 2.56 and 12 ms;
#: a correction over |S| = n / 8 moved coordinates took 0.06, 0.27, 0.61 and
#: 2.4 ms, and at n = 256 the two cost about the same.
SPARSE_REBUILD_MIN_N = 1024


class PairState:
    """An objective at a point x that changes two coordinates per step.

    select(p, floor, ceiling) is the extreme pair of problem p at x, with
    floor and ceiling the read-only eligibility thresholds of p's knapsack
    form; trial(i, di, j, dj) is f(x + di e_i + dj e_j), or, where
    trial_is_change, the exact change of f from x to that point, and
    outside the domain it raises DomainError or returns +inf;
    move(i, xi, j, xj) sets x_i = xi and x_j = xj; abs_gradient_dot(w) is
    sum_i |g_i| w_i. The gradient array belongs to the state and holds
    until the next move or rebuild. `moves` counts the moves applied
    incrementally since the last rebuild from x, which clears their
    accumulated rounding: value and gradient are then the full oracle's, or,
    on a quadratic state from SPARSE_REBUILD_MIN_N coordinates up, within
    the rounding of one product and an |S|-term sum of it. This default
    evaluates the value in full and the gradient once per point, on the
    full-gradient selection rule, so it never drifts and `moves` stays 0.
    """

    moves = 0
    #: trial returns f(x + d) - f(x), computed directly, instead of f(x + d)
    trial_is_change = False
    _g = None  # the gradient at x, until the next move or rebuild

    def __init__(self, objective: Objective, x: np.ndarray):
        self.objective = objective
        self.x = x
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute whatever the state caches from x alone."""
        self._g = None

    def value(self) -> float:
        return self.objective.value(self.x)

    def _full_gradient(self) -> np.ndarray:
        return self.objective.gradient(self.x)

    def gradient(self) -> np.ndarray:
        if self._g is None:
            self._g = self._full_gradient()
        return self._g

    def select(self, p, floor, ceiling) -> PairSelection | None:
        return _extreme_pair(p, self.x, self.gradient(), floor, ceiling)

    def abs_gradient_dot(self, w) -> float:
        return float(np.abs(self.gradient()) @ w)

    def trial(self, i: int, di: float, j: int, dj: float) -> float:
        y = self.x.copy()
        y[i] += di
        y[j] += dj
        return self.objective.value(y)

    def move(self, i: int, xi: float, j: int, xj: float) -> None:
        self.x[i] = xi
        self.x[j] = xj
        self._g = None


class _QuadraticPairState(PairState):
    """Pair state of the quadratic family: caches P x, 0.5 <P x, x>, the log
    argument <c, x> + xi and the smoothed-l1 sum. A move adds two rows of P
    to P x (P is symmetric) and recomputes the O(n) sums from x; P x and the
    quadratic accumulate rounding, so the state rebuilds itself from x every
    REBUILD_EVERY moves.

    Below SPARSE_REBUILD_MIN_N coordinates a rebuild takes the full product
    P @ x. From there up the state keeps an anchor: the point x0 of its last
    full product, and P x0. A rebuild sets P x = P x0 + P[S]^T (x - x0)[S]
    over the coordinates S where x differs from x0, in O(n |S|), and takes
    a full product, which moves the anchor to x, once 8 |S| > n. The anchor
    stays fixed between full products, so a rebuilt P x differs from P @ x
    by one product's rounding plus an |S|-term sum, however many rebuilds
    came before.
    """

    REBUILD_EVERY = 50
    _ROWS = 32  # rows of P gathered at a time by a sparse rebuild
    _x0 = None  # the anchor's point; _Px0 is P x0

    def rebuild(self):
        super().rebuild()
        obj, x = self.objective, self.x
        self.Px = self._product()
        self.quad = 0.5 * float(x @ self.Px)
        self.den = obj._log_arg(x)
        self.l1 = obj._l1(x)
        self.moves = 0

    def _product(self) -> np.ndarray:
        """P x, by a sparse correction from the anchor where that pays."""
        P, x = self.objective.P, self.x
        if self._x0 is not None:
            S = np.flatnonzero(x != self._x0)
            if 8 * S.size <= x.shape[0]:
                d = x[S] - self._x0[S]
                Px = self._Px0.copy()
                for k in range(0, S.size, self._ROWS):
                    Px += d[k:k + self._ROWS] @ P[S[k:k + self._ROWS]]
                return Px
        Px = P @ x
        if x.shape[0] >= SPARSE_REBUILD_MIN_N:
            self._x0, self._Px0 = x.copy(), Px.copy()
        return Px

    def value(self) -> float:
        return self.objective._combine(self.quad, self.den, self.l1)

    def _full_gradient(self) -> np.ndarray:
        return self.objective._gradient_at(self.x, self.Px, self.den)

    def _quad_after(self, i, di, j, dj) -> float:
        P, Px = self.objective.P, self.Px
        return (self.quad + di * (Px[i] + 0.5 * di * P[i, i])
                + dj * (Px[j] + 0.5 * dj * P[j, j]) + di * dj * P[i, j])

    def trial(self, i, di, j, dj):
        obj = self.objective
        den = self.den
        if den is not None:
            den = den + obj.c[i] * di + obj.c[j] * dj
            if not den > 0.0:
                return math.inf
        l1 = self.l1
        if l1 is not None:
            xi, xj = self.x[i], self.x[j]
            h = obj._abs_sqrt
            l1 = l1 + (h(xi + di) - h(xi)) + (h(xj + dj) - h(xj))
        return obj._combine(self._quad_after(i, di, j, dj), den, l1)

    def move(self, i, xi, j, xj):
        obj, x = self.objective, self.x
        di, dj = xi - x[i], xj - x[j]
        self.quad = self._quad_after(i, di, j, dj)
        self.Px += di * obj.P[i] + dj * obj.P[j]
        super().move(i, xi, j, xj)
        self.den = obj._log_arg(x)
        self.l1 = obj._l1(x)
        self.moves += 1
        if self.moves >= self.REBUILD_EVERY:
            self.rebuild()


class LinearObjective(Objective):
    """f(x) = <c, x>."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def value(self, x):
        return float(self.c @ x)

    def gradient(self, x):
        return self.c.copy()

    def partial(self, i, x):
        return float(self.c[i])


class QuadraticObjective(Objective):
    """The benchmark family, with symmetric P:

        f(x) = 0.5 <P x, x> [- ln(<c, x> + xi)] [+ sum_i sqrt(x_i^2 + tau^2)].

    The log term is present when c is given. Its domain is <c, x> + xi > 0:
    value, gradient and partial raise DomainError outside it, and
    linesearches reject trial points there. The smoothed-l1 term, a smooth
    stand-in for ||x||_1 within n * tau of it, is present when tau is given,
    and needs the log term. partial costs one row product.

    The serialization spec is derived from the arrays when a document reads
    it, never stored.
    """

    c: np.ndarray | None = None

    def __init__(self, P, c=None, xi: float = 0.0, tau: float | None = None):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be a square matrix")
        self._p_max = float(max(P.max(), -P.min()))  # max |P_ij|
        if not is_symmetric(P, atol=1e-12 * max(1.0, self._p_max)):
            raise ValueError("P must be symmetric")
        self.P = P
        if c is not None:
            self.c = np.asarray(c, dtype=float)
            if self.c.shape != (P.shape[0],):
                raise ValueError("c has wrong length")
            if not np.isfinite(self.c).all():
                raise ValueError("c must be finite")
            self._c_max = float(np.abs(self.c).max())
        self.xi = float(xi)
        if not math.isfinite(self.xi):
            raise ValueError("xi must be finite")
        if tau is not None:
            if c is None:
                raise ValueError("the smoothed-l1 term needs the log term's c")
            self.smoothing = _positive_tau(tau)

    @property
    def spec(self):
        params = {"matrix": self.P.tolist()}
        if self.c is None:
            return {"kind": "quadratic", "params": params}
        params.update(c=self.c.tolist(), xi=self.xi)
        if self.smoothing is None:
            return {"kind": "quadratic_log", "params": params}
        return {"kind": "quadratic_log_l1", "params": {**params, "tau": self.smoothing}}

    def with_smoothing(self, eps):
        """The same objective at tau = eps; shares P and c, so P is not
        checked again."""
        if self.smoothing is None:
            raise ValueError("objective has no smoothing parameter")
        new = copy.copy(self)
        new.smoothing = _positive_tau(eps)
        return new

    def _log_arg(self, x) -> float | None:
        return None if self.c is None else float(self.c @ x) + self.xi

    def _abs_sqrt(self, t: float) -> float:
        return math.sqrt(t * t + self.smoothing**2)

    def _l1(self, x) -> float | None:
        if self.smoothing is None:
            return None
        return float(np.sum(smooth_abs_sqrt(x, self.smoothing**2)[0]))

    def _combine(self, quad: float, den: float | None, l1: float | None) -> float:
        value = quad
        if den is not None:
            value = value - np.log(_log_domain(den))
        if l1 is not None:
            value = value + l1
        return value

    def _gradient_at(self, x, Px, den) -> np.ndarray:
        g = Px.copy() if den is None else Px - self.c / _log_domain(den)
        if self.smoothing is not None:
            g = g + smooth_abs_sqrt(x, self.smoothing**2)[1]
        return g

    def value(self, x):
        return self._combine(0.5 * float(x @ (self.P @ x)), self._log_arg(x),
                             self._l1(x))

    def gradient(self, x):
        return self._gradient_at(x, self.P @ x, self._log_arg(x))

    def partial(self, i, x):
        v = float(self.P[i] @ x)
        if self.c is not None:
            v = v - self.c[i] / _log_domain(self._log_arg(x))
        if self.smoothing is not None:
            xi_ = float(x[i])
            v = v + xi_ / np.hypot(xi_, self.smoothing)
        return v

    def line_bound(self, x, d):
        """lb(lam) <= value(x + lam d) as computed, from one P x and one P d.

        Each part bounds value's computed part from below and lb adds them
        in value's order, so lb <= value, rounding being monotone. With
        w = ||x||_1 + lam ||d||_1 and tol = (n + 2) 2^-50, about four times
        the worst rounding:
        - the quadratic expanded exactly, q1 = (<P x, d> + <x, P d>) / 2 as P
          may be slightly asymmetric, less tol max|P_ij| w^2;
        - -ln at the log argument plus tol (max|c_i| w + |xi|), less a few
          ulps; +inf where that upper bound is <= 0, so that value raises;
        - the convex smoothed-l1 sum's tangent at x, less tol times its scale
          and 2^-52 w for the rounding of the trial point.
        """
        tol = (x.shape[0] + 2) * 2.0**-50
        Px, Pd = self.P @ x, self.P @ d
        q0 = 0.5 * float(x @ Px)
        q1 = 0.5 * (float(Px @ d) + float(x @ Pd))
        q2 = 0.5 * float(d @ Pd)
        nx, nd = float(np.abs(x).sum()), float(np.abs(d).sum())
        env = tol * self._p_max
        c, tau = self.c, self.smoothing
        if c is not None:
            den0, den1 = float(c @ x) + self.xi, float(c @ d)
            r0 = tol * (self._c_max * nx + abs(self.xi))
            r1 = tol * self._c_max * nd
        if tau is not None:
            root = np.sqrt(x * x + tau**2)
            s0, s1 = float(root.sum()), float((x / root) @ d)

        def lb(lam: float) -> float:
            w = nx + lam * nd
            value = q0 + lam * q1 + lam * lam * q2 - env * w * w
            if c is not None:
                den = den0 + lam * den1 + (r0 + lam * r1)
                if not den > 0.0:
                    return math.inf
                log = math.log(den)
                value = value - (log + 2.0**-48 * abs(log))
            if tau is not None:
                value = value + (s0 + lam * s1 - tol * (s0 + lam * nd)
                                 - 2.0**-52 * w)
            return value

        return lb

    def pair_state(self, x):
        return _QuadraticPairState(self, x)


def _positive_tau(tau: float) -> float:
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    return float(tau)


def _penalty(tau: float, p: int,
             smooth_eps: float | None) -> tuple[float, int, float | None]:
    """Validated (tau, p, smoothing) of a penalty (tau / p) plus(t)^p; p = 1
    smooths plus and needs a positive smooth_eps, p = 2 ignores it."""
    tau = _positive_tau(tau)
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if p == 2:
        return tau, 2, None
    if smooth_eps is None or not smooth_eps > 0.0:
        raise ValueError("p = 1 needs a positive smooth_eps")
    return tau, 1, float(smooth_eps)


def _plus_power(t, p: int, eps: float | None):
    """(plus(t)^p, its derivative over p): plus is exact max(t, 0) for p = 2
    and the sqrt surrogate smooth_plus(t, eps) for p = 1."""
    if p == 1:
        return smooth_plus(t, eps)
    plus = np.maximum(t, 0.0)
    return plus ** 2, plus


class SvmDualObjective(Objective):
    """Penalized dual of a linear separating-surface problem.

    A[i, j] = label_i * feature_ij. With s = A^T y,
        f(y) = (tau / p) * sum_j [ plus(s_j - 1)^p + plus(-s_j - 1)^p ] - sum_i y_i
    where plus is exact max(., 0) for p = 2 and the sqrt surrogate for p = 1.
    """

    def __init__(self, A, tau: float, p: int, smooth_eps: float | None = None):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix")
        self.tau, self.p, self.smoothing = _penalty(tau, p, smooth_eps)

    def _penalties(self, y):
        s = self.A.T @ y
        return (_plus_power(s - 1.0, self.p, self.smoothing),
                _plus_power(-s - 1.0, self.p, self.smoothing))

    def value(self, y):
        (up, _), (dn, _) = self._penalties(y)
        return (self.tau / self.p) * float(np.sum(up + dn)) - float(np.sum(y))

    def gradient(self, y):
        (_, up), (_, dn) = self._penalties(y)
        return self.tau * (self.A @ (up - dn)) - 1.0

    def with_smoothing(self, eps):
        if self.smoothing is None:
            raise ValueError("objective has no smoothing parameter")
        return SvmDualObjective(self.A, self.tau, self.p, smooth_eps=eps)


class PortfolioObjective(Objective):
    """f(x) = <C x, x> + (tau / p) * plus(w - <m, x>)^p.

    Risk term keeps the full quadratic form (no 1/2). plus is exact for p = 2
    and the sqrt surrogate for p = 1.
    """

    def __init__(self, C, means, target: float, tau: float, p: int,
                 smooth_eps: float | None = None):
        self.C = np.asarray(C, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.target = float(target)
        self.tau, self.p, self.smoothing = _penalty(tau, p, smooth_eps)

    def _shortfall(self, x):
        return _plus_power(self.target - float(self.means @ x), self.p,
                           self.smoothing)

    def value(self, x):
        pen = self._shortfall(x)[0]
        return float(x @ (self.C @ x)) + (self.tau / self.p) * float(pen)

    def gradient(self, x):
        slope = self._shortfall(x)[1]
        return 2.0 * (self.C @ x) - self.tau * slope * self.means

    def with_smoothing(self, eps):
        if self.smoothing is None:
            raise ValueError("objective has no smoothing parameter")
        return PortfolioObjective(self.C, self.means, self.target, self.tau,
                                  self.p, smooth_eps=eps)


class SeparableQuadraticObjective(Objective):
    """f(x) = <lin, x> + 0.5 * sum_i quad_i x_i^2. partial costs O(1)."""

    def __init__(self, lin, quad):
        self.lin = np.asarray(lin, dtype=float)
        self.quad = np.asarray(quad, dtype=float)
        if self.lin.shape != self.quad.shape:
            raise ValueError("lin and quad must have the same length")

    def value(self, x):
        return float(self.lin @ x + 0.5 * (self.quad * x) @ x)

    def gradient(self, x):
        return self.lin + self.quad * x

    def partial(self, i, x):
        return float(self.lin[i] + self.quad[i] * x[i])

    def pair_state(self, x):
        return _SeparablePairState(self, x)


class _SeparablePairState(PairState):
    """Pair state of a separable quadratic, in O(1) per trial and move.

    g is kept in place: a move recomputes g_k = lin_k + quad_k x_k at its two
    coordinates, the two roundings of gradient(x), so g is gradient(x) bit
    for bit and never drifts. trial is the exact change of f along the pair,
    d_i (g_i + quad_i d_i / 2) + d_j (g_j + quad_j d_j / 2); the value is kept
    by these changes, as is abs_gradient_dot once asked for. The rebuild,
    every REBUILD_EVERY moves, refreshes the value and drops that running
    sum, which the next ask computes afresh.

    Selection keeps h = g / a and two key arrays over the knapsack point y:
    h where y_k >= floor_k (else -inf) for donors, h where y_k <= ceiling_k
    (else +inf) for receivers, with the size of each set. A move updates
    them at its two coordinates; other thresholds or another equality build
    them again. A selection is then one argmax and one argmin pass, with the
    pair and the bits of the full-gradient rule, ties and NaN included.
    """

    REBUILD_EVERY = 50
    trial_is_change = True

    def __init__(self, objective, x):
        self.g = objective.gradient(x)
        self._keyed = None  # (a, signs, floor, ceiling) of the key arrays
        self._w = None      # the weights of the running abs_gradient_dot
        super().__init__(objective, x)

    def rebuild(self):
        self.f = self.objective.value(self.x)
        self._w = None
        self.moves = 0

    def value(self):
        return self.f

    def gradient(self):
        return self.g

    def abs_gradient_dot(self, w):
        if self._w is not w:
            self._w = w
            self._abs_dot = float(np.abs(self.g) @ w)
        return self._abs_dot

    def select(self, p, floor, ceiling):
        a, ks = p.equality.a, p.knapsack
        keyed = self._keyed
        if (keyed is None or keyed[0] is not a or keyed[2] is not floor
                or keyed[3] is not ceiling):
            y = ks.point(self.x)
            give, take = y >= floor, y <= ceiling
            self.h = self.g / a
            self.give_key = np.where(give, self.h, -np.inf)
            self.take_key = np.where(take, self.h, np.inf)
            self.givers = int(np.count_nonzero(give))
            self.takers = int(np.count_nonzero(take))
            self._keyed = keyed = (a, ks.signs, floor, ceiling)
        if not (self.givers and self.takers):
            return None
        i = int(self.give_key.argmax())
        j = int(self.take_key.argmin())
        if i == j:
            return None
        signs = keyed[1]
        y_i, y_j = self.x[i], self.x[j]
        if signs is not None:
            y_i, y_j = signs[i] * y_i, signs[j] * y_j
        return _selection(ks, i, j, y_i, y_j, self.h[j] - self.h[i])

    def trial(self, i, di, j, dj):
        g, q = self.g, self.objective.quad
        return float(di * (g[i] + 0.5 * q[i] * di) + dj * (g[j] + 0.5 * q[j] * dj))

    def move(self, i, xi, j, xj):
        x = self.x
        self.f += self.trial(i, xi - x[i], j, xj - x[j])
        self._set(i, xi)
        self._set(j, xj)
        self.moves += 1
        if self.moves >= self.REBUILD_EVERY:
            self.rebuild()

    def _set(self, k, xk):
        obj, x, g = self.objective, self.x, self.g
        x_old, g_old = x[k], g[k]
        x[k] = xk
        g[k] = obj.lin[k] + obj.quad[k] * x[k]
        if self._w is not None:
            self._abs_dot += (abs(g[k]) - abs(g_old)) * self._w[k]
        if self._keyed is None:
            return
        a, signs, floor, ceiling = self._keyed
        s = 1.0 if signs is None else signs[k]
        y_old, y = s * x_old, s * x[k]
        self.h[k] = h = g[k] / a[k]
        give, take = y >= floor[k], y <= ceiling[k]
        self.givers += int(give) - int(y_old >= floor[k])
        self.takers += int(take) - int(y_old <= ceiling[k])
        self.give_key[k] = h if give else -np.inf
        self.take_key[k] = h if take else np.inf
