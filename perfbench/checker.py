"""Reference computations for checking bicoord's outputs, independent of bicoord.

Nothing here imports bicoord. Every quantity is recomputed from the problem
statements the package documents:

- the three benchmark families (the formulas in the `generators` docstring):
  box 0 <= x_i <= 1 + beta/n + 0.5 sin(i), sum_i x_i = beta,
  p_ij = sin(min(i, j)) cos(max(i, j)) off the diagonal,
  p_jj = sum_{i != j} |p_ij| + 1, log term -ln(<c, x> + 5) with
  c_i = 2 + sin(i), and the smoothed l1 term sum_i sqrt(x_i^2 + tau^2);
- the market potential, from the quotes (p, q, cap) of traders and buyers;
- the gap Delta(x) = <g, x> - min_{y in D} <g, y>, with the inner minimum
  solved as a continuous knapsack by one sort and one cumulative sum;
- box and balance feasibility, the balance summed exactly with math.fsum.

The dense matrix is built a block of rows at a time, so checking an
n = 3000 point never holds a second 72 MB matrix next to the program's.
"""

from __future__ import annotations

import math

import numpy as np

ROW_BLOCK = 256


def family_box(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(1, n + 1, dtype=float)
    return np.zeros(n), 1.0 + beta / n + 0.5 * np.sin(idx)


def family_matrix_rows(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 (0-based) of the family coupling matrix."""
    idx = np.arange(1, n + 1, dtype=float)
    s, c = np.sin(idx), np.cos(idx)
    i = np.arange(start, stop)[:, None]
    j = np.arange(n)[None, :]
    # p_ij = sin(i) cos(j) above the diagonal and its mirror below
    rows = np.where(i < j, s[i] * c[j], c[i] * s[j])
    own = np.arange(stop - start), np.arange(start, stop)
    rows[own] = 0.0
    rows[own] = np.abs(rows).sum(axis=1) + 1.0
    return rows


def family_matvec(n: int, x: np.ndarray) -> np.ndarray:
    out = np.empty(n)
    for start in range(0, n, ROW_BLOCK):
        stop = min(n, start + ROW_BLOCK)
        out[start:stop] = family_matrix_rows(n, start, stop) @ x
    return out


class Family:
    """Objective of benchmark family 1, 2 or 3 at smoothing level tau."""

    def __init__(self, series: int, n: int, beta: float, tau: float | None = None):
        if series not in (1, 2, 3):
            raise ValueError(f"unknown family {series}")
        if (series == 3) != (tau is not None):
            raise ValueError("family 3, and only family 3, takes tau")
        self.series, self.n, self.beta, self.tau = series, n, float(beta), tau
        self.lower, self.upper = family_box(n, beta)
        self.a = np.ones(n)
        self.c = 2.0 + np.sin(np.arange(1, n + 1, dtype=float))

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        px = family_matvec(self.n, x)
        f, g = 0.5 * float(x @ px), px
        if self.series >= 2:
            den = float(self.c @ x) + 5.0
            f -= math.log(den)
            g -= self.c / den
        if self.series == 3:
            root = np.sqrt(x * x + self.tau ** 2)
            f += float(root.sum())
            g += x / root
        return f, g


class Market:
    """Market potential in the package's normalized coordinates.

    A point is u = (x, -y): trader quantities x_i in [0, cap_i], then the
    negated buyer quantities. Every coefficient of the balance is +1 and the
    balance value is the net supply b. The potential is
        phi = sum_i (p_i x_i + q_i x_i^2 / 2) - sum_j (p_j y_j + q_j y_j^2 / 2),
    and the derivative along each coordinate is that agent's price at its own
    quantity, p + q t.
    """

    def __init__(self, traders: np.ndarray, buyers: np.ndarray, b: float):
        # traders, buyers: arrays of shape (k, 3) with columns p, q, cap
        self.traders = np.asarray(traders, dtype=float)
        self.buyers = np.asarray(buyers, dtype=float)
        self.m = self.traders.shape[0]
        self.beta = float(b)
        n = self.m + self.buyers.shape[0]
        self.a = np.ones(n)
        self.lower = np.concatenate([np.zeros(self.m), -self.buyers[:, 2]])
        self.upper = np.concatenate([self.traders[:, 2], np.zeros(n - self.m)])

    def split(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return u[:self.m], -u[self.m:]

    def value_and_gradient(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        x, y = self.split(u)
        (tp, tq), (bp, bq) = self.traders[:, :2].T, self.buyers[:, :2].T
        f = float((tp * x + 0.5 * tq * x * x).sum()) - float((bp * y + 0.5 * bq * y * y).sum())
        return f, np.concatenate([tp + tq * x, bp + bq * y])


def knapsack_min(c, a, lower, upper, beta: float) -> tuple[np.ndarray, float]:
    """min <c, y> over lower <= y <= upper, <a, y> = beta, every a_i nonzero.

    Flip the coordinates with a_i < 0 so all coefficients are positive,
    start at the lower bounds, and fill the balance budget in increasing
    order of c_i / a_i: the cumulative capacities locate the one coordinate
    that ends fractional.
    """
    c, a = np.asarray(c, dtype=float), np.asarray(a, dtype=float)
    s = np.sign(a)
    aa = a * s
    lo = np.where(s > 0, lower, -np.asarray(upper, dtype=float))
    hi = np.where(s > 0, upper, -np.asarray(lower, dtype=float))
    order = np.argsort((c * s) / aa, kind="stable")
    caps = (aa * (hi - lo))[order]
    cum = np.cumsum(caps)
    budget = beta - float(aa @ lo)
    slack = 1e-12 * max(1.0, abs(beta), float(cum[-1]))
    if not -slack <= budget <= float(cum[-1]) + slack:
        raise ValueError("the box and the balance share no point")
    budget = min(max(budget, 0.0), float(cum[-1]))
    k = int(np.searchsorted(cum, budget))
    y = lo.copy()
    y[order[:k]] = hi[order[:k]]
    if k < len(order):
        last = order[k]
        spent = float(cum[k - 1]) if k else 0.0
        y[last] = lo[last] + (budget - spent) / aa[last]
    y *= s
    return y, float(c @ y)


def gap(g, x, a, lower, upper, beta: float) -> float:
    """Delta(x) = <g, x> - min over the feasible set of <g, y>, floored at 0."""
    _, best = knapsack_min(g, a, lower, upper, beta)
    return max(0.0, float(g @ x) - best)


def gap_scale(g, lower, upper) -> float:
    """Size of the terms the gap is a difference of: sum_i |g_i| max(|l_i|, |u_i|).

    Rounding in either gap computation is a small multiple of eps times this.
    """
    return float(np.abs(g) @ np.maximum(np.abs(lower), np.abs(upper)))


def balance_error(x, a, beta: float) -> float:
    """|<a, x> - beta| / max(1, |beta|), the sum taken exactly."""
    return abs(math.fsum(np.asarray(a, float) * np.asarray(x, float)) - beta) / max(1.0, abs(beta))


def in_box(x, lower, upper) -> bool:
    """Exact containment, no tolerance."""
    return bool(np.all(x >= lower) and np.all(x <= upper))
