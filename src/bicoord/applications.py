"""Reductions of three applications to the box-plus-one-equality form.

SVM dual: for labeled rows (b^i, gamma_i), gamma_i = +-1, the dual variables
y live on 0 <= y <= cap with sum_i gamma_i y_i = 0. The hard constraints
|<w, b^i> margins| are moved into a penalty, leaving
    f(y) = (tau/p) sum_j [ (s_j - 1)_+^p + (-s_j - 1)_+^p ] - sum_i y_i,
    s = A^T y, A[i, j] = gamma_i b^i_j.
The instance keeps these coordinates: the labels are the equality's signed
coefficients, which the pair rule reads directly.

Portfolio: minimize risk x' C x on the simplex with an expected-return
shortfall penalty (tau/p) (w - <m, x>)_+^p.

Market: traders i sell x_i in [0, cap_i] at increasing price p_i + q_i t,
buyers j buy y_j in [0, cap_j] at nonincreasing price p_j + q_j t, net supply
fixed at sum x - sum y = b. Equilibrium allocations minimize the potential
    phi(u) = sum_i (p_i x_i + q_i x_i^2/2) - sum_j (p_j y_j + q_j y_j^2/2),
a separable convex quadratic once buyers are written as v_j = -y_j. The
model keeps each side's quotes as columns (p, q, cap), from the document to
the instance. Every scaled partial derivative of the normalized potential is
the corresponding agent's price at its own quantity, so the single-price
equilibrium condition is multiplier stationarity, and
verify_market_equilibrium tests it with check_stationarity.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import numpy as np

from .diagnostics import check_stationarity
from .objectives import (PortfolioObjective, SeparableQuadraticObjective,
                         SvmDualObjective, _symmetric_matrix)
from .problem import (BoxBounds, LinearEquality, ProblemError, ProblemInstance,
                      SignMap, build_problem)

__all__ = [
    "SvmDataset",
    "PortfolioData",
    "QUOTE_FIELDS",
    "MarketModel",
    "MarketEquilibriumReport",
    "load_svm_csv",
    "load_market_json",
    "market_from_document",
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
    """Penalized dual in its own coordinates: dual weights y in
    [0, upper_cap] with sum_i gamma_i y_i = 0, so a = labels. The primal
    weights are w = features^T (labels * y) (svm_primal)."""
    if not upper_cap > 0.0:
        raise ProblemError("upper_cap must be positive")
    A = data.labels[:, None] * data.features
    obj = SvmDualObjective(A, tau, p, smooth_eps)
    n = data.n_rows
    return build_problem(BoxBounds(np.zeros(n), np.full(n, float(upper_cap))),
                         LinearEquality(data.labels, 0.0), obj)


def svm_primal(data: SvmDataset, y) -> tuple[np.ndarray, float, int]:
    """Primal weights w = features^T (labels * y), bias estimate and support
    count from dual weights y. Bias averages gamma_i - <w, b^i> over rows
    with active duals, those above 1e-8."""
    y = np.asarray(y, dtype=float)
    w = data.features.T @ (data.labels * y)
    active = y > 1e-8
    if active.any():
        bias = float(np.mean(data.labels[active]
                             - data.features[active] @ w))
    else:
        bias = 0.0
    return w, bias, int(active.sum())


def svm_cap_binding(y, upper_cap: float) -> np.ndarray:
    """Indices of dual weights pressed against the box cap: within 1e-6 of
    upper_cap.

    The dual only requires y_i >= 0; the cap keeps the box finite, so a
    binding cap means the solution is clipped by an artifact of the problem
    format and upper_cap should be raised.
    """
    return np.flatnonzero(np.asarray(y, dtype=float) >= upper_cap - 1e-6)


@dataclass(frozen=True)
class PortfolioData:
    """Covariance (positive semidefinite), expected returns, return target."""

    covariance: np.ndarray
    means: np.ndarray
    target: float

    def __post_init__(self):
        try:
            C, c_max, _ = _symmetric_matrix(self.covariance, "covariance", 1e-10)
        except ValueError as exc:
            raise ProblemError(str(exc)) from None
        m = np.asarray(self.means, dtype=float)
        target = float(self.target)
        if m.shape != (C.shape[0],):
            raise ProblemError("means must match the covariance size")
        if not np.isfinite(m).all():
            raise ProblemError("means must be finite")
        if not np.isfinite(target):
            raise ProblemError("target must be finite")
        if float(np.linalg.eigvalsh(C).min()) < -1e-8 * max(1.0, c_max):
            raise ProblemError("covariance must be positive semidefinite")
        object.__setattr__(self, "covariance", C)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "target", target)


def build_portfolio(data: PortfolioData, tau: float = 10.0, p: int = 2,
                    smooth_eps: float = 1e-4) -> ProblemInstance:
    """Simplex-constrained risk minimization with a shortfall penalty."""
    n = data.means.shape[0]
    obj = PortfolioObjective(data.covariance, data.means, data.target, tau, p,
                             smooth_eps)
    return build_problem(
        BoxBounds(np.zeros(n), np.ones(n)),
        LinearEquality(np.ones(n), 1.0),
        obj,
    )


QUOTE_FIELDS = ("p", "q", "cap")


@dataclass(frozen=True)
class MarketModel:
    """Traders sell at nondecreasing prices, buyers buy at nonincreasing
    prices, net supply is fixed at b. traders and buyers are read-only
    (k, 3) float arrays with columns QUOTE_FIELDS: the agent (p, q, cap)
    trades a quantity t in [0, cap] at price p + q t."""

    traders: np.ndarray
    buyers: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        for side in ("trader", "buyer"):
            quotes = np.array(getattr(self, side + "s"), dtype=float)
            if quotes.size == 0:
                quotes = quotes.reshape(0, 3)
            if quotes.ndim != 2 or quotes.shape[1] != 3:
                raise ProblemError(f"{side} quotes must be rows (p, q, cap)")
            for name, column in zip(QUOTE_FIELDS, quotes.T):
                if not np.isfinite(column).all():
                    raise ProblemError(f"{side} quote field {name!r} must be finite")
            if not (quotes[:, 2] > 0.0).all():
                raise ProblemError("cap must be positive")
            quotes.setflags(write=False)
            object.__setattr__(self, side + "s", quotes)
        object.__setattr__(self, "b", float(self.b))
        if len(self.traders) + len(self.buyers) < 2:
            raise ProblemError("need at least two agents")
        if (self.traders[:, 1] < 0.0).any():
            raise ProblemError("trader price slopes must be >= 0")
        if (self.buyers[:, 1] > 0.0).any():
            raise ProblemError("buyer price slopes must be <= 0")
        # summed left to right, a running total of the caps
        lo = -sum(self.buyers[:, 2].tolist())
        hi = sum(self.traders[:, 2].tolist())
        if not lo <= self.b <= hi:
            raise ProblemError(
                f"net supply b={self.b} outside attainable [{lo}, {hi}]")


def market_from_document(doc: dict) -> MarketModel:
    """The market of a document {"traders": [{p, q, cap}], "buyers": [...],
    "b": ...}, where an absent side has no agents and an absent b is 0. A
    missing, unknown, non-numeric or non-finite field is a ProblemError that
    names it, and so is a document or a quote that is not an object."""
    if not isinstance(doc, dict):
        raise ProblemError("market document is not a JSON object")
    sides = []
    for side in ("trader", "buyer"):
        rows = doc.get(side + "s", ())
        columns = []
        for name in QUOTE_FIELDS:
            try:
                columns.append(np.fromiter((row[name] for row in rows), float,
                                           len(rows)))
            except KeyError:
                raise ProblemError(f"{side} quote lacks field {name!r}") from None
            except (TypeError, ValueError) as exc:
                if not (isinstance(rows, list)
                        and all(isinstance(row, dict) for row in rows)):
                    raise ProblemError(
                        f"{side} quotes must be a list of objects") from exc
                raise ProblemError(f"{side} quote field {name!r} is not numeric") from exc
        if sum(map(len, rows)) != len(QUOTE_FIELDS) * len(rows):
            extra = set().union(*rows) - set(QUOTE_FIELDS)
            raise ProblemError(f"{side} quote has unknown field {min(extra)!r}")
        sides.append(np.column_stack(columns))
    try:
        b = float(doc.get("b", 0.0))
    except (TypeError, ValueError):
        raise ProblemError("market field 'b' is not numeric") from None
    return MarketModel(*sides, b=b)


def load_market_json(path) -> MarketModel:
    """Scenario file {"traders": [{p, q, cap}], "buyers": [...], "b": ...}."""
    with open(path) as fh:
        return market_from_document(json.load(fh))


class _MarketPotential(SeparableQuadraticObjective):
    """The potential in build_market's coordinates; keeps the model it was
    built from."""

    def __init__(self, model: MarketModel):
        t, s = model.traders, model.buyers
        super().__init__(np.concatenate([t[:, 0], s[:, 0]]),
                         np.concatenate([t[:, 1], -s[:, 1]]))
        self.model = model


def build_market(model: MarketModel) -> tuple[ProblemInstance, SignMap]:
    """Potential minimization over allocations, in normalized coordinates.

    The raw variables (x_traders, y_buyers) satisfy <(+1, -1), u> = b. The
    instance is their sign normalization: buyer coordinates are -y in
    [-cap, -0.0] and every equality coefficient is 1. The map converts
    solution points back: u = sign_map.apply(point).
    """
    m, k = len(model.traders), len(model.buyers)
    bounds = BoxBounds(np.concatenate([np.zeros(m), -model.buyers[:, 2]]),
                       np.concatenate([model.traders[:, 2], np.full(k, -0.0)]))
    problem = build_problem(bounds, LinearEquality(np.ones(m + k), model.b),
                            _MarketPotential(model))
    return problem, SignMap(np.concatenate([np.ones(m), -np.ones(k)]))


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
    at most lam, buying ones (y_j > 0) bid at least lam. The balance
    sum x - sum y = b must hold. Each price is the scaled partial of
    build_market's potential, so this is check_stationarity at the
    allocation (boundary_tol defaults to tol): max_violation is its worst
    violation, price its multiplier (0 when no agent limits lam), and
    equilibrium means max_violation <= tol with the balance held to tol
    relative.
    """
    btol = tol if boundary_tol is None else boundary_tol
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (len(model.traders),) or y.shape != (len(model.buyers),):
        raise ValueError("allocation lengths do not match the model")
    for side, t, quotes in (("trader", x, model.traders), ("buyer", y, model.buyers)):
        if not ((t >= -btol) & (t <= quotes[:, 2] + btol)).all():
            raise ValueError(f"{side} allocation outside [0, cap]")
    problem, sign_map = build_market(model)
    rep = check_stationarity(problem, sign_map.apply(np.concatenate([x, y])),
                             tol, btol)
    residual = float(x.sum() - y.sum()) - model.b
    return MarketEquilibriumReport(
        equilibrium=(rep.stationary
                     and abs(residual) <= tol * max(1.0, abs(model.b))),
        price=0.0 if rep.multiplier is None else rep.multiplier,
        max_violation=rep.worst_violation, balance_residual=residual)
