"""Reductions of three applications to the box-plus-one-equality form.

SVM dual: for labeled rows (b^i, gamma_i), gamma_i = +-1, the dual variables
y live on 0 <= y <= cap with sum_i gamma_i y_i = 0. The hard constraints
|<w, b^i> margins| are moved into a penalty, leaving
    f(y) = (tau/p) sum_j [ (s_j - 1)_+^p + (-s_j - 1)_+^p ] - sum_i y_i,
    s = A^T y, A[i, j] = gamma_i b^i_j.
Sign normalization then makes every equality coefficient +1.

Portfolio: minimize risk x' C x on the simplex with an expected-return
shortfall penalty (tau/p) (w - <m, x>)_+^p.

Market: traders i sell x_i in [0, cap_i] at increasing price p_i + q_i t,
buyers j buy y_j in [0, cap_j] at nonincreasing price p_j + q_j t, net supply
fixed at sum x - sum y = b. Equilibrium allocations minimize the potential
    phi(u) = sum_i (p_i x_i + q_i x_i^2/2) - sum_j (p_j y_j + q_j y_j^2/2),
a separable convex quadratic once buyers are written as v_j = -y_j; every
scaled partial derivative of the normalized potential is the corresponding
agent's price at its own quantity, so multiplier stationarity is exactly the
single-price equilibrium condition.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import numpy as np

from .objectives import (PortfolioObjective, SeparableQuadraticObjective,
                         SvmDualObjective, is_symmetric)
from .problem import (BoxBounds, LinearEquality, ProblemError, ProblemInstance,
                      SignMap, build_problem, normalize_signs)

__all__ = [
    "SvmDataset",
    "PortfolioData",
    "Quote",
    "MarketModel",
    "MarketEquilibriumReport",
    "load_svm_csv",
    "load_market_json",
    "build_svm_dual",
    "build_portfolio",
    "build_market",
    "split_market_point",
    "svm_cap_binding",
    "svm_primal",
    "verify_market_equilibrium",
]


@dataclass(frozen=True)
class SvmDataset:
    """Feature rows with +-1 labels; both classes must be present."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2:
            raise ProblemError("features must be a 2-d array")
        if labs.shape != (feats.shape[0],):
            raise ProblemError("labels must match the number of rows")
        if not np.all(np.isin(labs, (-1.0, 1.0))):
            raise ProblemError("labels must be +-1")
        if not (np.any(labs > 0) and np.any(labs < 0)):
            raise ProblemError("dataset must contain both classes")
        if not np.all(np.isfinite(feats)):
            raise ProblemError("features must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def load_svm_csv(path) -> SvmDataset:
    """Rows label,f1,f2,... with labels +-1 in the first column."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.shape[1] < 2:
        raise ProblemError("need at least one feature column")
    return SvmDataset(features=raw[:, 1:], labels=raw[:, 0])


def build_svm_dual(data: SvmDataset, tau: float = 10.0, p: int = 2,
                   smooth_eps: float = 1e-4,
                   upper_cap: float = 1e3) -> ProblemInstance:
    """Penalized dual as a normalized instance.

    After normalization the variables are y_tilde_i = gamma_i y_i, the
    equality is sum_i y_tilde_i = 0 with unit coefficients, and the primal
    weights are recovered as w = features^T y_tilde.
    """
    if not upper_cap > 0.0:
        raise ProblemError("upper_cap must be positive")
    A = data.labels[:, None] * data.features
    obj = SvmDualObjective(A, tau, p, smooth_eps if p == 1 else None)
    n = data.n_rows
    raw = build_problem(
        BoxBounds(np.zeros(n), np.full(n, float(upper_cap))),
        LinearEquality(data.labels, 0.0),
        obj,
    )
    norm, _ = normalize_signs(raw)
    norm.objective.spec = {
        "kind": "svm_dual",
        "params": {"features": data.features.tolist(),
                   "labels": data.labels.tolist(), "tau": float(tau),
                   "p": int(p), "smooth_eps": float(smooth_eps),
                   "upper_cap": float(upper_cap)},
    }
    return norm


def svm_primal(data: SvmDataset, y_norm,
               support_tol: float = 1e-8) -> tuple[np.ndarray, float, int]:
    """Primal weights, bias estimate and support count from a normalized dual
    point. Bias averages gamma_i - <w, b^i> over rows with active duals."""
    y_norm = np.asarray(y_norm, dtype=float)
    w = data.features.T @ y_norm
    active = np.abs(y_norm) > support_tol
    if active.any():
        bias = float(np.mean(data.labels[active]
                             - data.features[active] @ w))
    else:
        bias = 0.0
    return w, bias, int(active.sum())


def svm_cap_binding(y_norm, upper_cap: float, margin: float = 1e-6) -> np.ndarray:
    """Indices of dual weights pressed against the box cap.

    The dual only requires y_i >= 0; the cap keeps the box finite, so a
    binding cap means the solution is clipped by an artifact of the problem
    format and upper_cap should be raised.
    """
    y_norm = np.asarray(y_norm, dtype=float)
    return np.flatnonzero(np.abs(y_norm) >= upper_cap - margin)


@dataclass(frozen=True)
class PortfolioData:
    """Covariance (positive semidefinite), expected returns, return target."""

    covariance: np.ndarray
    means: np.ndarray
    target: float

    def __post_init__(self):
        C = np.asarray(self.covariance, dtype=float)
        m = np.asarray(self.means, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ProblemError("covariance must be square")
        if m.shape != (C.shape[0],):
            raise ProblemError("means must match the covariance size")
        scale = max(1.0, float(max(C.max(), -C.min())))
        if not is_symmetric(C, atol=1e-10 * scale):
            raise ProblemError("covariance must be symmetric")
        if float(np.linalg.eigvalsh(C).min()) < -1e-8 * scale:
            raise ProblemError("covariance must be positive semidefinite")
        object.__setattr__(self, "covariance", C)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "target", float(self.target))


def build_portfolio(data: PortfolioData, tau: float = 10.0, p: int = 2,
                    smooth_eps: float = 1e-4) -> ProblemInstance:
    """Simplex-constrained risk minimization with a shortfall penalty."""
    n = data.means.shape[0]
    obj = PortfolioObjective(data.covariance, data.means, data.target, tau, p,
                             smooth_eps if p == 1 else None)
    obj.spec = {
        "kind": "portfolio",
        "params": {"covariance": data.covariance.tolist(),
                   "means": data.means.tolist(), "target": data.target,
                   "tau": float(tau), "p": int(p),
                   "smooth_eps": float(smooth_eps)},
    }
    return build_problem(
        BoxBounds(np.zeros(n), np.ones(n)),
        LinearEquality(np.ones(n), 1.0),
        obj,
    )


@dataclass(frozen=True)
class Quote:
    """Affine price schedule p + q t on [0, cap]."""

    p: float
    q: float
    cap: float

    def __post_init__(self):
        for name in ("p", "q", "cap"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.cap > 0.0:
            raise ProblemError("cap must be positive")

    def price(self, t: float) -> float:
        return self.p + self.q * t


def _quotes(rows, side: str) -> tuple[Quote, ...]:
    """Quotes, each given as itself or as its document row {p, q, cap}."""
    try:
        return tuple(q if isinstance(q, Quote) else Quote(**q) for q in rows)
    except TypeError as exc:
        raise ProblemError(f"{side} quotes: {exc}") from exc


@dataclass(frozen=True)
class MarketModel:
    """Traders sell at nondecreasing prices, buyers buy at nonincreasing
    prices, net supply is fixed at b."""

    traders: tuple[Quote, ...]
    buyers: tuple[Quote, ...]
    b: float = 0.0

    def __post_init__(self):
        traders = _quotes(self.traders, "trader")
        buyers = _quotes(self.buyers, "buyer")
        object.__setattr__(self, "traders", traders)
        object.__setattr__(self, "buyers", buyers)
        object.__setattr__(self, "b", float(self.b))
        if len(traders) + len(buyers) < 2:
            raise ProblemError("need at least two agents")
        if any(q.q < 0 for q in traders):
            raise ProblemError("trader price slopes must be >= 0")
        if any(q.q > 0 for q in buyers):
            raise ProblemError("buyer price slopes must be <= 0")
        lo = -sum(q.cap for q in buyers)
        hi = sum(q.cap for q in traders)
        if not lo <= self.b <= hi:
            raise ProblemError(
                f"net supply b={self.b} outside attainable [{lo}, {hi}]")


def load_market_json(path) -> MarketModel:
    """Scenario file {"traders": [{p, q, cap}], "buyers": [...], "b": ...}."""
    with open(path) as fh:
        doc = json.load(fh)
    return MarketModel(traders=doc.get("traders", ()),
                       buyers=doc.get("buyers", ()), b=doc.get("b", 0.0))


def build_market(model: MarketModel) -> tuple[ProblemInstance, SignMap]:
    """Potential minimization over allocations, in normalized coordinates.

    Raw variables are (x_traders, y_buyers) with <(+1, -1), u> = b; the
    returned instance is sign-normalized (buyer coordinates negated) and the
    map converts solution points back: u = sign_map.apply(point).
    """
    m, k = len(model.traders), len(model.buyers)
    lin = np.array([q.p for q in model.traders] + [-q.p for q in model.buyers])
    quad = np.array([q.q for q in model.traders] + [-q.q for q in model.buyers])
    caps = np.array([q.cap for q in model.traders] + [q.cap for q in model.buyers])
    a = np.concatenate([np.ones(m), -np.ones(k)])
    raw = build_problem(
        BoxBounds(np.zeros(m + k), caps),
        LinearEquality(a, model.b),
        SeparableQuadraticObjective(lin, quad),
    )
    norm, sign_map = normalize_signs(raw)
    norm.objective.spec = {
        "kind": "market",
        "params": {
            "traders": [{"p": q.p, "q": q.q, "cap": q.cap} for q in model.traders],
            "buyers": [{"p": q.p, "q": q.q, "cap": q.cap} for q in model.buyers],
            "b": model.b,
        },
    }
    return norm, sign_map


def split_market_point(model: MarketModel, point, sign_map: SignMap):
    """Normalized solution point -> (trader quantities, buyer quantities)."""
    u = sign_map.apply(point)
    m = len(model.traders)
    return u[:m], u[m:]


@dataclass(frozen=True)
class MarketEquilibriumReport:
    equilibrium: bool
    price: float
    max_violation: float
    balance_residual: float


def verify_market_equilibrium(model: MarketModel, x, y, tol: float = 1e-2,
                              boundary_tol: float | None = None) -> MarketEquilibriumReport:
    """Single-price equilibrium test for allocations (x to traders, y to buyers).

    A clearing price lam satisfies, with each agent's price taken at its own
    quantity: selling traders (x_i > 0) ask at most lam, traders with spare
    capacity ask at least lam; buyers with remaining demand (y_j < cap) bid
    at most lam, buying ones (y_j > 0) bid at least lam; interior agents sit
    exactly at lam. The balance sum x - sum y = b must hold. max_violation
    is how far the tightest lower limit on lam exceeds the tightest upper
    limit, floored at zero; equilibrium means it is at most tol and the
    balance holds to tol relative.
    """
    if boundary_tol is None:
        boundary_tol = tol
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (len(model.traders),) or y.shape != (len(model.buyers),):
        raise ValueError("allocation lengths do not match the model")

    lam_lo, lam_hi = -np.inf, np.inf
    for q, t in zip(model.traders, x):
        if t < -boundary_tol or t > q.cap + boundary_tol:
            raise ValueError("trader allocation outside [0, cap]")
        price = q.price(t)
        if t > boundary_tol:            # selling: marginal cost at most lam
            lam_lo = max(lam_lo, price)
        if t < q.cap - boundary_tol:    # spare capacity: would sell above lam
            lam_hi = min(lam_hi, price)
    for q, t in zip(model.buyers, y):
        if t < -boundary_tol or t > q.cap + boundary_tol:
            raise ValueError("buyer allocation outside [0, cap]")
        price = q.price(t)
        if t < q.cap - boundary_tol:    # remaining demand: values extras below lam
            lam_lo = max(lam_lo, price)
        if t > boundary_tol:            # buying: marginal value at least lam
            lam_hi = min(lam_hi, price)

    violation = max(0.0, lam_lo - lam_hi)
    if np.isfinite(lam_lo) and np.isfinite(lam_hi):
        price = 0.5 * (lam_lo + lam_hi)
    elif np.isfinite(lam_lo):
        price = lam_lo
    elif np.isfinite(lam_hi):
        price = lam_hi
    else:
        price = 0.0
    residual = float(x.sum() - y.sum()) - model.b
    equilibrium = (violation <= tol
                   and abs(residual) <= tol * max(1.0, abs(model.b)))
    return MarketEquilibriumReport(equilibrium=equilibrium, price=price,
                                   max_violation=violation,
                                   balance_residual=residual)
