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
full product instead of taking another, a stage restart onto the same P
keeps that product, and a full product with an exactly symmetric P reads
one triangle of it. A separable quadratic keeps the gradient itself and the
selection's key arrays, so a trial and a move cost O(1) and a selection one
argmax and one argmin pass. Both keep the selection's eligibility masks,
which a move updates at its two coordinates. Every other objective
evaluates in full.

Backtracking linesearches skip trials that must fail. Along cgm's line and
along a pair, the quadratic family and the separable quadratic give a
LineModel of the trial: a quadratic in the step length, certified to lie
below the trial's computed value, rounding included, and a cut above which
the trial leaves the domain. A linesearch starts at the first trial that
the model cannot reject. value_products(x) gives the value with the
products it took (P x and the log argument on the quadratic family), which
gradient_line at a point with the same bytes takes instead of computing
them again: cgm's accepted trial seeds its next gradient so.

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


#: the unit roundoff of float64
_U = 2.0**-53

#: A line model (slope, kappa, margin, cut) of a linesearch trial along a
#: line: for steps 0 < lam < cut,
#: trial(lam) - f_0 >= slope lam + kappa lam^2 / 2 - margin, with the trial
#: as computed, rounding included, and f_0 the value the Armijo threshold
#: starts from; every trial at lam >= cut lies outside the objective's
#: domain. A plain tuple, as one is built per linesearch.
LineModel = tuple[float, float, float, float]


def _log_domain(den: float) -> float:
    if not den > 0.0:
        raise DomainError("log argument not positive at this point")
    return den


def _symmetric_matrix(M, name: str,
                      rtol: float) -> tuple[np.ndarray, float, bool]:
    """(M as a float array, max |M_ij|, whether M equals M.T exactly), for
    a square, finite M that _symmetry finds symmetric at
    atol = rtol max(1, max |M_ij|); otherwise a ValueError naming M. The
    one check of every matrix whose formulas assume symmetry."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    m_max = float(max(M.max(), -M.min()))
    if not math.isfinite(m_max):
        raise ValueError(f"{name} must be finite")
    exact = _symmetry(M, atol=rtol * max(1.0, m_max))
    if exact is None:
        raise ValueError(f"{name} must be symmetric")
    return M, m_max, exact


def _symmetry(M: np.ndarray, atol: float) -> bool | None:
    """None where M is not symmetric, else whether M equals M.T exactly.
    Symmetric means, for all i, j, M_ij == M_ji, or both are finite and
    |M_ij - M_ji| <= atol + 1e-5 min(|M_ij|, |M_ji|), which is
    np.allclose(M, M.T, atol=atol); NaN is never close. Square tiles of
    the upper triangle are compared with their mirrored tiles, so no
    temporary is larger than a tile: an equal tile costs one comparison,
    and only a tile that differs is tested against the tolerance, which
    also makes M inexact."""
    n, t = M.shape[0], 256
    exact = True
    for i in range(0, n, t):
        for j in range(i, n, t):
            a, b = M[i:i + t, j:j + t], M[j:j + t, i:i + t].T
            if (a == b).all():
                continue
            exact = False
            # inf - inf is NaN here, and an equal pair is close anyway
            with np.errstate(invalid="ignore"):
                diff = np.abs(a - b)
            tol = np.minimum(np.abs(a), np.abs(b))
            tol *= 1e-5
            tol += atol
            if not ((diff <= tol) & np.isfinite(a) & np.isfinite(b)
                    | (a == b)).all():
                return None
    return exact


class Objective:
    """Base oracle. Subclasses override value and gradient at least."""

    #: current smoothing parameter, None for objectives that need none
    smoothing: float | None = None

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def partial(self, i: int, x: np.ndarray) -> float:
        # generic fallback; subclasses with cheap partials override
        return float(self.gradient(x)[i])

    def with_smoothing(self, eps: float) -> "Objective":
        """The same objective at smoothing parameter eps: a shallow copy, so
        the arrays are shared and not checked again."""
        if self.smoothing is None:
            raise ValueError("objective has no smoothing parameter")
        new = copy.copy(self)
        new.smoothing = _positive_tau(eps)
        return new

    def pair_state(self, x: np.ndarray) -> "PairState":
        """State at x for pair steps; takes ownership of x and updates it."""
        return PairState(self, x)

    def value_products(self, x: np.ndarray):
        """(value(x), products): products holds what value computed at x
        and gradient_line(x, products) can take instead of computing it
        again, or is None where the objective keeps nothing."""
        return self.value(x), None

    def gradient_line(self, x: np.ndarray, products=None):
        """(gradient(x), line): line(d, gamma, radius) is a LineModel of
        value(x + lam d) - value(x) for lam <= gamma, both values as
        computed, where radius bounds ||x + lam d||_1 for 0 <= lam <= gamma;
        line is None where the objective offers no such model. products,
        from value_products at a point with x's bytes, saves the products
        computed there."""
        return self.gradient(x), None


# slots and no frozen: one is built per step, at a fifth of a frozen
# dataclass's cost
@dataclass(slots=True)
class PairSelection:
    i: int
    j: int
    gamma: float  # largest balance-neutral move before a bound is hit
    mu: float     # directional derivative h_j - h_i, always <= -delta


def _selection(ks, i: int, j: int, y_i: float, y_j: float,
               mu: float) -> PairSelection:
    """The pair (i, j) at knapsack coordinates y_i, y_j of the knapsack
    form ks, with its bound distance gamma; y_i, y_j and mu are Python
    floats, whose arithmetic costs less than numpy scalars' and rounds the
    same."""
    gamma = min(ks.a.item(i) * (y_i - ks.lower.item(i)),
                ks.a.item(j) * (ks.upper.item(j) - y_j))
    return PairSelection(i, j, gamma, mu)


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
    i = int(np.where(can_give, h, -np.inf).argmax())
    j = int(np.where(can_take, h, np.inf).argmin())
    if i == j:
        return None
    return _selection(p.knapsack, i, j, y.item(i), y.item(j),
                      h.item(j) - h.item(i))


class _Eligibility:
    """_extreme_pair's donor and receiver masks, y >= floor and
    y <= ceiling at the knapsack point y = signs * x of a problem with
    equality coefficients a, and the size of each set. A pair state keeps
    one for the thresholds it last selected with and updates it at the
    coordinates it moves; other thresholds or another equality build it
    again."""

    __slots__ = ("a", "signs", "floor", "ceiling", "give", "take", "givers",
                 "takers")

    def __init__(self, p, x, floor, ceiling):
        ks = p.knapsack
        self.a, self.signs = p.equality.a, ks.signs
        self.floor, self.ceiling = floor, ceiling
        y = ks.point(x)
        self.give, self.take = y >= floor, y <= ceiling
        self.givers = int(np.count_nonzero(self.give))
        self.takers = int(np.count_nonzero(self.take))

    def serves(self, p, floor, ceiling) -> bool:
        return (self.a is p.equality.a and self.floor is floor
                and self.ceiling is ceiling)

    def y(self, k: int, x_k: float) -> float:
        """y_k at x_k, a Python float, rounded as signs * x rounds it."""
        return x_k if self.signs is None else self.signs.item(k) * x_k

    def update(self, k: int, x_k: float) -> tuple[bool, bool]:
        """Follow coordinate k to x_k; returns whether k gives and takes."""
        y = self.y(k, x_k)
        give, take = y >= self.floor.item(k), y <= self.ceiling.item(k)
        self.givers += give - self.give.item(k)
        self.takers += take - self.take.item(k)
        self.give[k], self.take[k] = give, take
        return give, take


#: from this many coordinates up, the quadratic pair state rebuilds P x by a
#: sparse correction from its last full product, and a full product with an
#: exactly symmetric P reads only its upper triangle (_upper_product). With
#: one BLAS thread, P @ x at n = 1024, 2048, 3000 and 5000 took 0.36, 1.9,
#: 4.6 and 13 ms, and the upper-triangle product 0.37, 1.8, 3.7 and 10 ms; a
#: correction over |S| = n / 8 moved coordinates took 0.06, 0.27, 0.61 and
#: 2.4 ms, and at n = 256 a correction and a product cost about the same.
SPARSE_REBUILD_MIN_N = 1024

#: _upper_product's tiles: _ROW_BLOCK rows of P by up to _COL_TILE columns,
#: 1 MB, which stays in cache between its two uses
_ROW_BLOCK, _COL_TILE = 128, 1024


def _upper_product(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P x for an exactly symmetric P from its upper triangle, as BLAS dsymv
    reads it. Each tile B = P[I, J] of a row block I, with J at or right of
    I's diagonal, adds B x_J to y_I and, while B is in cache, x_I B to y_J,
    leaving out the square on the diagonal, which y_I has already taken. So
    P is read from memory once per half, and no temporary is larger than a
    tile's row. The sums run in another order than P @ x, so the last bits
    differ from its."""
    n = x.shape[0]
    y = np.zeros(n)
    for i in range(0, n, _ROW_BLOCK):
        k = min(i + _ROW_BLOCK, n)
        x_I, y_I = x[i:k], y[i:k]
        for j in range(i, n, _COL_TILE):
            B = P[i:k, j:j + _COL_TILE]
            # @, not ndarray.dot, which copies a strided tile first
            y_I += B @ x[j:j + _COL_TILE]
            s = k - i if j == i else 0
            y[j + s:j + _COL_TILE] += x_I @ B[:, s:]
    return y


class PairState:
    """An objective at a point x that changes two coordinates per step.

    select(p, floor, ceiling) is the extreme pair of problem p at x, with
    floor and ceiling the read-only eligibility thresholds of p's knapsack
    form; trial(i, di, j, dj) is f(x + di e_i + dj e_j), or, where
    trial_is_change, the exact change of f from x to that point, and
    outside the domain it raises DomainError or returns +inf;
    line_model(i, di, j, dj, f_0) is a LineModel of
    trial(i, lam di, j, lam dj) - f_0, or None; move(i, xi, j, xj) sets
    x_i = xi and x_j = xj; abs_gradient_dot(w) is sum_i |g_i| w_i;
    restart(objective, x) is the state a stage restart starts from. The
    gradient array belongs to the state and holds until the next move or
    rebuild. `moves` counts the moves applied incrementally since the last
    rebuild from x, which clears their accumulated rounding: value and
    gradient are then the full oracle's, or, on a quadratic state from
    SPARSE_REBUILD_MIN_N coordinates up, within the rounding of one product
    and an |S|-term sum of it. This default
    evaluates the value in full and the gradient once per point, on the
    full-gradient selection rule, so it never drifts and `moves` stays 0,
    and it offers no line model.
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

    def restart(self, objective: Objective, x: np.ndarray) -> "PairState":
        """objective's state at x, which it takes, for a stage restart from
        this state; the quadratic family's state lends its anchor to an
        objective with the same P."""
        return objective.pair_state(x)

    def abs_gradient_dot(self, w) -> float:
        return float(np.abs(self.gradient()) @ w)

    def line_model(self, i: int, di: float, j: int, dj: float,
                   f_0: float) -> LineModel | None:
        """A LineModel of trial(i, lam di, j, lam dj) - f_0, or None where
        the state offers none."""
        return None

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
    (QuadraticObjective._times). From there up the state keeps an anchor:
    the point x0 of its last full product, and P x0. A rebuild sets
    P x = P x0 + P[S]^T (x - x0)[S] over the coordinates S where x differs
    from x0, in O(n |S|), and takes a full product, which moves the anchor
    to x, once 8 |S| > n. The anchor stays fixed between full products, so
    a rebuilt P x differs from the full product by one product's rounding
    plus an |S|-term sum, however many rebuilds came before. A stage
    restart onto an objective with the same P (with_smoothing shares it)
    takes the anchor over, so it corrects P x instead of a full product.

    Selection keeps the donor and receiver masks (_Eligibility) and
    computes h = g / a; where every coordinate is eligible, h itself is the
    key, the array np.where would copy.
    """

    REBUILD_EVERY = 50
    _ROWS = 32  # rows of P gathered at a time by a sparse rebuild
    _elig = None  # the masks of the last selection's thresholds

    def __init__(self, objective, x, anchor=(None, None)):
        # the anchor's point x0, and P x0
        self._x0, self._Px0 = anchor
        super().__init__(objective, x)

    def restart(self, objective, x):
        if (type(objective) is type(self.objective)
                and objective.P is self.objective.P):
            return _QuadraticPairState(objective, x, (self._x0, self._Px0))
        return objective.pair_state(x)

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
        Px = self.objective._times(x)
        if x.shape[0] >= SPARSE_REBUILD_MIN_N:
            self._x0, self._Px0 = x.copy(), Px.copy()
        return Px

    def value(self) -> float:
        return self.objective._combine(self.quad, self.den, self.l1)

    def _full_gradient(self) -> np.ndarray:
        return self.objective._gradient_at(self.x, self.Px, self.den)

    def select(self, p, floor, ceiling):
        e = self._elig
        if e is None or not e.serves(p, floor, ceiling):
            self._elig = e = _Eligibility(p, self.x, floor, ceiling)
        if not (e.givers and e.takers):
            return None
        h = self.gradient() / e.a
        n = h.shape[0]
        give = h if e.givers == n else np.where(e.give, h, -np.inf)
        take = h if e.takers == n else np.where(e.take, h, np.inf)
        i, j = int(give.argmax()), int(take.argmin())
        if i == j:
            return None
        x = self.x
        return _selection(p.knapsack, i, j, e.y(i, x.item(i)),
                          e.y(j, x.item(j)), h.item(j) - h.item(i))

    def _quad_after(self, i, di, j, dj) -> float:
        # item() reads Python floats, whose arithmetic costs less than numpy
        # scalars' and rounds the same
        P, Px = self.objective.P, self.Px
        return (self.quad + di * (Px.item(i) + 0.5 * di * P.item(i, i))
                + dj * (Px.item(j) + 0.5 * dj * P.item(j, j))
                + di * dj * P.item(i, j))

    def line_model(self, i, di, j, dj, f_0):
        """The trial's exact change from the cached parts has slope
        d_i g_i + d_j g_j and curvature d_i^2 P_ii + d_j^2 P_jj
        + 2 d_i d_j P_ij; the log and the smoothed-l1 term are convex, so
        their tangents bound them from below. The margins cover the rounding
        of the trial, of the gradient and of the parts' sum, and f_0's
        distance from that sum; max|P_ij| (|d_i| + |d_j|)^2 bounds the
        curvature's terms. Steps from where the log argument's upper
        bound den (1 + 4u) + lam (c_i d_i + c_j d_j + 8u (|c_i d_i| +
        |c_j d_j|)) is <= 0 return +inf."""
        obj, g = self.objective, self.gradient()
        P = obj.P
        kappa = (di * di * P.item(i, i) + dj * dj * P.item(j, j)
                 + 2.0 * di * dj * P.item(i, j))
        ti, tj = di * g.item(i), dj * g.item(j)
        width = abs(di) + abs(dj)
        # |d_i| times a bound on |g_i|'s parts, summed over i and j: P x_i
        # is g_i less the other parts
        spread = abs(ti) + abs(tj)
        parts, f_0 = float(self.quad), float(f_0)
        scale = abs(parts) + abs(f_0) + 1.0
        cut = math.inf
        if self.den is not None:
            den = self.den
            cdi, cdj = obj.c.item(i) * di, obj.c.item(j) * dj
            cabs = abs(cdi) + abs(cdj)
            rate = cdi + cdj + 8.0 * _U * cabs
            if rate < 0.0:
                cut = den * (1.0 + 4.0 * _U) / -rate * (1.0 + 16.0 * _U)
            log = math.log(den)
            parts -= log
            scale += abs(log)
            spread += 2.0 * cabs / den
        if self.l1 is not None:
            parts += self.l1
            scale += self.l1
            spread += 2.0 * width
        margin = 32.0 * _U * scale + (f_0 - parts)
        return (ti + tj - 64.0 * _U * spread,
                kappa - 16.0 * _U * obj._p_max * width * width,
                max(margin, 0.0), cut)

    def trial(self, i, di, j, dj):
        obj = self.objective
        den = self.den
        if den is not None:
            den = den + obj.c.item(i) * di + obj.c.item(j) * dj
            if not den > 0.0:
                return math.inf
        l1 = self.l1
        if l1 is not None:
            xi, xj = self.x.item(i), self.x.item(j)
            h = obj._abs_sqrt
            l1 = l1 + (h(xi + di) - h(xi)) + (h(xj + dj) - h(xj))
        return obj._combine(self._quad_after(i, di, j, dj), den, l1)

    def move(self, i, xi, j, xj):
        obj, x = self.objective, self.x
        di, dj = xi - x[i], xj - x[j]
        self.quad = self._quad_after(i, di, j, dj)
        self.Px += di * obj.P[i] + dj * obj.P[j]
        super().move(i, xi, j, xj)
        if self._elig is not None:
            self._elig.update(i, x.item(i))
            self._elig.update(j, x.item(j))
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
    """

    c: np.ndarray | None = None

    def __init__(self, P, c=None, xi: float = 0.0, tau: float | None = None):
        # _p_max is max |P_ij|
        P, self._p_max, self._symmetric = _symmetric_matrix(P, "P", 1e-12)
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

    def _times(self, v) -> np.ndarray:
        """P v: the one full product with a vector, which value, gradient,
        gradient_line and the pair state take. From SPARSE_REBUILD_MIN_N
        coordinates up an exactly symmetric P is read from its upper
        triangle alone; otherwise P.dot(v), the same BLAS call and bits as
        @, with less overhead on short vectors."""
        if self._symmetric and v.shape[0] >= SPARSE_REBUILD_MIN_N:
            return _upper_product(self.P, v)
        return self.P.dot(v)

    # the log argument takes ndarray.dot, as _times does
    def _log_arg(self, x) -> float | None:
        return None if self.c is None else float(self.c.dot(x)) + self.xi

    def _abs_sqrt(self, t: float) -> float:
        return math.sqrt(t * t + self.smoothing**2)

    def _l1(self, x) -> float | None:
        if self.smoothing is None:
            return None
        # smooth_abs_sqrt's value, without its derivative
        return float(np.sum(np.sqrt(x * x + self.smoothing**2)))

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

    def value(self, x, products=None):
        """value(x); a list `products` receives (P x, <c, x> + xi), the
        products that the gradient at x takes."""
        Px, den = self._times(x), self._log_arg(x)
        if products is not None:
            products.append((Px, den))
        return self._combine(0.5 * float(x.dot(Px)), den, self._l1(x))

    def value_products(self, x):
        # through value, so that a wrapper of value, as perfbench's tracer
        # installs, sees every evaluation
        products = []
        return self.value(x, products), products[0]

    def gradient(self, x):
        return self._gradient_at(x, self._times(x), self._log_arg(x))

    def partial(self, i, x):
        v = float(self.P[i] @ x)
        if self.c is not None:
            v = v - self.c[i] / _log_domain(self._log_arg(x))
        if self.smoothing is not None:
            xi_ = float(x[i])
            v = v + xi_ / np.hypot(xi_, self.smoothing)
        return v

    def gradient_line(self, x, products=None):
        """(gradient(x), line) from one P x, which line(d, gamma, radius)
        shares with the gradient, and one P d per line. With products from
        value_products at x, the gradient takes no product of its own.

        With u = 2^-53, tol = (n + 2) 2^-50, about eight times the worst
        rounding of an n-term sum, and w = radius, which bounds ||x||_1 and
        ||x + lam d||_1, and 2 w / gamma, which bounds ||d||_1:
        - the quadratic changes by lam (<P x, d> + <x, P d>) / 2 plus
          lam^2 <d, P d> / 2; the slope is read as <g, d>, plus the
          asymmetric half where P is not exactly symmetric, and rounding
          takes 2 tol max|P_ij| w^2 from the margin;
        - -ln is convex: at the trial point its argument is at most
          den + lam <c, d> + r0 + lam r1, with r0 + lam r1 =
          tol (max|c_i| (w + lam ||d||_1) + |xi|), so the tangent at den
          bounds it, and the cut is where that upper bound reaches 0;
        - the smoothed-l1 sum is convex, so its tangent bounds it; rounding
          takes 2 tol (w + n tau) from the margin.
        The slope's rounding is at most tol ||d||_1 times the bound on |g_i|
        that each part gives.
        """
        c, tau = self.c, self.smoothing
        Px, den = ((self._times(x), self._log_arg(x)) if products is None
                   else products)
        g = self._gradient_at(x, Px, den)
        n = x.shape[0]
        tol = (n + 2) * 2.0**-50
        p, symmetric = self._p_max, self._symmetric

        def line(d, gamma, radius):
            Pd = self._times(d)
            slope = float(g.dot(d))
            if not symmetric:
                slope += 0.5 * (float(x.dot(Pd)) - float(Px.dot(d)))
            nd = 2.0 * radius / gamma
            spread = 2.0 * p * radius
            margin = 2.0 * tol * p * radius * radius
            cut = math.inf
            if c is not None:
                c_max = self._c_max
                den1 = float(c.dot(d))
                r0 = tol * (c_max * radius + abs(self.xi))
                r1 = tol * c_max * nd
                if den1 + r1 < 0.0:
                    cut = (den + r0) / -(den1 + r1) * (1.0 + 2.0**-40)
                spread += 3.0 * c_max / den
                margin += 2.0 * r0 / den + tol * abs(math.log(den))
            if tau is not None:
                spread += 1.0
                margin += 2.0 * tol * (radius + n * tau)
            return (slope - tol * nd * spread, float(d.dot(Pd)) - tol * p * nd * nd,
                    margin, cut)

        return g, line

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


class PortfolioObjective(Objective):
    """f(x) = <C x, x> + (tau / p) * plus(w - <m, x>)^p.

    Risk term keeps the full quadratic form (no 1/2), whose gradient 2 C x
    needs a symmetric C: a covariance that is not square, finite and
    symmetric to 1e-10 relative is a ValueError. plus is exact for p = 2
    and the sqrt surrogate for p = 1.
    """

    def __init__(self, C, means, target: float, tau: float, p: int,
                 smooth_eps: float | None = None):
        self.C = _symmetric_matrix(C, "covariance", 1e-10)[0]
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

    Selection keeps h = g / a, the donor and receiver masks (_Eligibility)
    and two key arrays: h on donors (else -inf) and h on receivers (else
    +inf). A move updates them at its two coordinates; other thresholds or
    another equality build them again. A selection is then one argmax and
    one argmin pass, with the pair and the bits of the full-gradient rule,
    ties and NaN included.
    """

    REBUILD_EVERY = 50
    trial_is_change = True

    def __init__(self, objective, x):
        self.g = objective.gradient(x)
        self._elig = None  # the masks of the key arrays' thresholds
        self._w = None     # the weights of the running abs_gradient_dot
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
        e = self._elig
        if e is None or not e.serves(p, floor, ceiling):
            self._elig = e = _Eligibility(p, self.x, floor, ceiling)
            self.h = self.g / e.a
            self.give_key = np.where(e.give, self.h, -np.inf)
            self.take_key = np.where(e.take, self.h, np.inf)
        if not (e.givers and e.takers):
            return None
        i = int(self.give_key.argmax())
        j = int(self.take_key.argmin())
        if i == j:
            return None
        x = self.x
        return _selection(p.knapsack, i, j, e.y(i, x.item(i)),
                          e.y(j, x.item(j)), self.h.item(j) - self.h.item(i))

    def line_model(self, i, di, j, dj, f_0):
        """The trial is the exact change d_i g_i + d_j g_j + (q_i d_i^2
        + q_j d_j^2) / 2 at lam = 1, computed; 16u of each term's size
        covers its rounding."""
        g, q = self.g, self.objective.quad
        qi, qj = q.item(i), q.item(j)
        ti, tj = di * g.item(i), dj * g.item(j)
        kappa = qi * di * di + qj * dj * dj
        kabs = abs(qi) * di * di + abs(qj) * dj * dj
        return (ti + tj - 16.0 * _U * (abs(ti) + abs(tj)),
                kappa - 16.0 * _U * kabs, max(f_0, 0.0), math.inf)

    def trial(self, i, di, j, dj):
        g, q = self.g, self.objective.quad
        return (di * (g.item(i) + 0.5 * q.item(i) * di)
                + dj * (g.item(j) + 0.5 * q.item(j) * dj))

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
        g_old = g[k]
        x[k] = xk
        g[k] = obj.lin[k] + obj.quad[k] * x[k]
        if self._w is not None:
            self._abs_dot += (abs(g[k]) - abs(g_old)) * self._w[k]
        e = self._elig
        if e is None:
            return
        self.h[k] = h = g[k] / e.a[k]
        give, take = e.update(k, x.item(k))
        self.give_key[k] = h if give else -np.inf
        self.take_key[k] = h if take else np.inf
