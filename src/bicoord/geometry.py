"""Geometry of the feasible set: projection, linear minimization, feasibility.

The feasible set is D = {x in [lower, upper] : <a, x> = beta}. Both kernels
run on the scalar multiplier of the constraint normal: the map
lam -> <a, clip(z + lam * a)> is piecewise linear and nondecreasing, so the
projection reduces to a breakpoint search, and minimizing a linear function
over D is a continuous knapsack solved greedily by cost ratio.

The computed map is nondecreasing too, bit for bit: each rounded term
a_i * clip(z_i + lam * a_i) is monotone in lam, and a sum of monotone terms
taken in a fixed order is monotone. So the last sorted breakpoint whose
computed balance is below beta is one index whatever order a search probes
in: the probe of the two breakpoints next to lam = 0, which settles the
projection of a feasible point without a sort, and the plain bisection
over the sorted breakpoints end at the same pair.

The knapsack's greedy fill is a running budget in cost-ratio order, so its
bits depend on that order, but only over the coordinates it reaches. From
PREFIX_SORT_MIN_N coordinates up, a selection step (np.partition) finds a
ratio just past where the budget runs out, and only the coordinates priced
strictly below it are sorted: they are a prefix of the full stable order,
so the fill over them is the full fill, bit for bit. When the fill does not
stop inside them, the full order is sorted as at small n. Below
NUMPY_FILL_MIN_N coordinates the order is one stable sort and the fill a
Python loop over the caps in that order, which stops at the first
coordinate it cannot fill: the same running budget, bit for bit, at less
cost than the numpy calls of the accumulated fill.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .problem import KnapsackForm, ProblemInstance

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


def _sorted_search(bps, beta: float, balance) -> float:
    """lam* by plain bisection over the breakpoints bps, sorted here in
    place: the last breakpoint whose balance is below beta and the next
    one, interpolated from the balances the bisection took there."""
    bps.sort()
    gl = balance(bps[0])
    gr = balance(bps[-1])
    if beta <= gl:
        return float(bps[0])
    if beta >= gr:
        return float(bps[-1])
    # invariant: gl = balance(bps[left]) < beta <= balance(bps[right]) = gr
    left, right = 0, len(bps) - 1
    while right - left > 1:
        mid = (left + right) // 2
        g = balance(bps[mid])
        if g < beta:
            left, gl = mid, g
        else:
            right, gr = mid, g
    return _interpolate(float(bps[left]), float(bps[right]), gl, gr, beta)


def _interpolate(bl: float, br: float, gl: float, gr: float,
                 beta: float) -> float:
    """lam* between adjacent breakpoints bl < br, where the map is affine,
    from their balances gl < beta <= gr."""
    return bl + (beta - gl) * (br - bl) / (gr - gl) if gr > gl else bl


def project(z, p: ProblemInstance) -> np.ndarray:
    """Euclidean projection of z onto the feasible set of p.

    The projection is clip(z + lam* a) where lam* solves
    <a, clip(z + lam a)> = beta. Breakpoints of the map are the lam values
    where a coordinate enters or leaves its bound; lam* lies between the
    last sorted breakpoint whose balance is below beta and the next one. A
    feasible z has lam* = 0, so the largest breakpoint below 0 and the
    smallest at or above it (-0.0 included), found by masked reductions,
    are tried first: where their balances bracket beta they are that pair,
    and no sort is needed. Otherwise the breakpoints are sorted and a plain
    bisection over them finds the pair. lam* is recovered by linear
    interpolation from the balances at the pair, exact because the map is
    affine between breakpoints. Where rounding leaves that lam's residual
    above 1e-11 relative (points far off the box), a bisection on lam is
    tried, and its lam kept only when it ends closer to beta. Every
    evaluation of the map reuses one buffer. A z that is not finite is a
    ValueError.
    """
    a = p.equality.a
    lower, upper = p.bounds.lower, p.bounds.upper
    beta = p.equality.beta
    z = np.asarray(z, dtype=float)
    if z.shape != a.shape:
        raise ValueError("point has wrong length")
    if not np.isfinite(z).all():
        raise ValueError("point is not finite")

    # repeated breakpoints leave the bracketing pair of values unchanged
    bps = np.stack((lower, upper))
    bps -= z
    bps /= a
    bps = bps.ravel()
    buf = np.empty_like(a)

    def balance(lam) -> float:
        return _balance(lam, z, a, lower, upper, buf)

    # a feasible z has lam* = 0: the breakpoints next to 0 bracket it
    negative = bps < 0.0
    b_neg = float(np.max(bps, where=negative, initial=-np.inf))
    b_pos = float(np.min(bps, where=~negative, initial=np.inf))
    lam = None
    if b_neg > -np.inf and b_pos < np.inf:
        g_pos = balance(b_pos)
        if beta <= g_pos:
            g_neg = balance(b_neg)
            if g_neg < beta:
                lam = _interpolate(b_neg, b_pos, g_neg, g_pos, beta)
                if beta == g_pos:
                    # where beta is the top balance, the sorted search
                    # ends at the largest breakpoint
                    b_max = float(bps.max())
                    if b_max == b_pos or balance(b_max) == beta:
                        lam = b_max
    if lam is None:
        lam = _sorted_search(bps, beta, balance)

    residual = beta - balance(lam)
    if abs(residual) > 1e-11 * max(1.0, abs(beta)):
        # interpolation degenerated, fall back to bisection on lam, and keep
        # the interpolated lam when the bisection ends no closer to beta
        lam_b = _bisect_lambda(z, a, lower, upper, beta,
                               float(bps.min()) - 1.0, float(bps.max()) + 1.0,
                               buf)
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


# From this many coordinates up, minimize_linear first tries the selection
# step, which sorts only the prefix of the cost order that the fill reaches.
# On a market's exit knapsack (half the caps' sum to spend) the step breaks
# even with the full sort near 3,000 coordinates, saves about 10% at 4,096
# and 20-30% from 1e4 up; below, its extra passes cost more than it saves
PREFIX_SORT_MIN_N = 4096


def _fill(caps: np.ndarray, order: np.ndarray, budget: float) -> tuple[int, float]:
    """The greedy fill of budget along order, where raising coordinate i
    spends caps[i]: (k, rest), where the first k coordinates of order are
    raised to their upper bound and rest is the budget left before order[k];
    k = len(order) when the fill takes every one."""
    # running[k] is the budget left before the k-th coordinate of order,
    # running[k + 1] = running[k] - cap_k after it; accumulating from the
    # left reproduces a sequential running budget bit for bit
    running = np.empty(order.shape[0] + 1)
    running[0] = budget
    caps.take(order, out=running[1:])
    np.subtract.accumulate(running, out=running)
    # a coordinate is filled while the budget is positive and covers its cap
    # (budget < cap exactly when budget - cap < 0); the first one that is
    # not gets the positive remainder, if any
    unfilled = running[1:] < 0.0
    unfilled |= running[:-1] <= 0.0
    k = int(unfilled.argmax())
    if not unfilled[k]:
        k = order.shape[0]
    return k, running[k]


# Below this many coordinates, minimize_linear sorts the ratios stably once
# and fills in a Python loop (_fill_loop), which costs less than the numpy
# calls of _cost_order and _fill. With one thread, random normal costs and
# a budget at half the caps' sum, the two paths cost about the same between
# 128 and 256 coordinates; at 3,000 the loop takes 4x the numpy path's time
NUMPY_FILL_MIN_N = 192


def _fill_loop(caps: list[float], budget: float) -> tuple[int, float]:
    """_fill over caps already in cost order, as Python floats: the same
    running budget, subtracted in the same order, so the same (k, rest)
    bit for bit; the loop stops at the first coordinate it cannot fill."""
    rest = budget
    k = 0
    for cap in caps:
        if rest <= 0.0 or rest - cap < 0.0:
            break
        rest -= cap
        k += 1
    return k, rest


def _prefix_split(ratios: np.ndarray, ks: KnapsackForm
                  ) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The greedy fill over a prefix of the stable cost order, selected
    without sorting the rest: (below, left, rest) when the fill stops inside
    the prefix, else None. below holds the prefix's coordinates in index
    order, left those of them the fill does not raise, in cost order (never
    empty), and rest the budget left before left[0].

    The prefix holds the coordinates whose ratio lies strictly below the
    m-th smallest ratio r_m. Every ratio below r_m comes before r_m's ties
    and every NaN in the full stable order, so the prefix sorted stably is
    that order's head, and the running budget over it is the full one's bit
    for bit. m guesses the fill's length from the average cap, with 5% and
    64 coordinates to spare. When the caps below r_m fall short of the
    budget, the guess is doubled once (one more partition, before any sort).
    None, which leaves the full sort to the caller, when:
    - the budget is not positive or not below the caps' sum, or the guess
      reaches n (a budget within 5% of the caps' sum);
    - r_m is NaN;
    - the caps below r_m fall short at the doubled guess;
    - the fill runs past the prefix, which rounding alone can cause once
      the caps' sum has passed the budget.
    """
    n = ratios.shape[0]
    budget = ks.budget
    total = float(ks.caps.sum())
    if not 0.0 < budget < total:
        return None
    m = int(1.05 * n * budget / total) + 64
    for _ in range(2):
        if m >= n:
            return None
        r_m = np.partition(ratios, m)[m]
        if np.isnan(r_m):
            return None
        below = np.flatnonzero(ratios < r_m)
        caps = ks.caps[below]
        if caps.sum() > budget:
            order = _cost_order(ratios[below])
            k, rest = _fill(caps, order, budget)
            if k == order.shape[0]:
                return None
            return below, below[order[k:]], rest
        m *= 2
    return None


def minimize_linear(c, p: ProblemInstance) -> tuple[np.ndarray, float]:
    """Minimize <c, x> over the feasible set of p. Returns (argmin, value).

    Continuous knapsack (p.knapsack): after flipping coordinates with
    a_i < 0, start every coordinate at its lower bound and spend the balance
    budget beta - <a, lower> raising coordinates in increasing order of
    c_i / a_i, ties broken by lowest index. At most one coordinate ends
    fractional.

    From PREFIX_SORT_MIN_N coordinates up, a selection step comes first
    (_prefix_split): np.partition picks a ratio r_m just past where the
    budget should run out, and only the coordinates priced strictly below
    it are sorted and filled. They are a prefix of the full stable order,
    so when the fill stops inside them, the argmin and value are the full
    sort's. Otherwise the full order is sorted, as below that size. Below
    NUMPY_FILL_MIN_N coordinates the fill is a Python loop (_fill_loop).
    """
    c = np.asarray(c, dtype=float)
    if c.shape != p.equality.a.shape:
        raise ValueError("cost vector has wrong length")
    ks = p.knapsack
    ratios = ks.point(c) / ks.a
    n = ratios.shape[0]

    split = None
    if n >= PREFIX_SORT_MIN_N:
        split = _prefix_split(ratios, ks)
    y = ks.lower.copy()
    if split is None:
        if n < NUMPY_FILL_MIN_N:
            order = ratios.argsort(kind="stable")
            k, rest = _fill_loop(ks.caps.take(order).tolist(), ks.budget)
        else:
            order = _cost_order(ratios)
            k, rest = _fill(ks.caps, order, ks.budget)
        filled, left = order[:k], order[k:]
        y[filled] = ks.upper[filled]
    else:
        # raising the whole prefix in index order, then setting back the few
        # coordinates the fill does not reach, is faster than raising the
        # filled ones in cost order, whose accesses are scattered
        below, left, rest = split
        y[below] = ks.upper[below]
        y[left] = ks.lower[left]
    if left.shape[0] and rest > 0.0:
        idx = left[0]
        # Python floats: the same roundings as numpy scalars, at less cost
        y[idx] = ks.lower.item(idx) + rest / ks.a.item(idx)
    if ks.signs is not None:
        y *= ks.signs
    # ndarray.dot: the bits of @, with less overhead on short vectors
    return y, float(c.dot(y))


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
