"""Problem data model.

A problem instance is a box [lower, upper], one linear equality <a, x> = beta
with all a_i nonzero and of either sign, and an objective oracle. Solvers
read it as is; its knapsack form is the same set with every a_i made positive
by the change of sign y_i = -x_i where a_i < 0. Solvers additionally consume a
stage schedule: a sequence of (problem_l, delta_l, epsilon_l) with the
tolerances decreasing geometrically to positive floors, and, for smoothed
objectives, the approximation parameter shrinking on the same ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .objectives import Objective

__all__ = [
    "ProblemError",
    "InfeasibleProblemError",
    "BoxBounds",
    "LinearEquality",
    "ProblemInstance",
    "KnapsackForm",
    "SignMap",
    "Stage",
    "StageProvider",
    "GeometricSchedule",
    "build_problem",
]


class ProblemError(ValueError):
    """Invalid problem data: dimensions, coefficients, or bounds."""


class InfeasibleProblemError(ProblemError):
    """The box and the equality share no point."""


def _vector(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float)
    if arr.ndim != 1:
        raise ProblemError(f"{name} must be a 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ProblemError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BoxBounds:
    """Finite box with strictly ordered bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _vector(self.lower, "lower"))
        object.__setattr__(self, "upper", _vector(self.upper, "upper"))
        if self.lower.shape != self.upper.shape:
            raise ProblemError("lower and upper must have the same length")
        if not np.all(self.lower < self.upper):
            raise ProblemError("bounds must satisfy lower < upper coordinatewise")

    @property
    def n(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class LinearEquality:
    """<a, x> = beta with every a_i nonzero."""

    a: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "a", _vector(self.a, "a"))
        object.__setattr__(self, "beta", float(self.beta))
        if np.any(self.a == 0.0):
            raise ProblemError("equality coefficients must be nonzero")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def residual(self, x: np.ndarray) -> float:
        return float(self.a @ x) - self.beta


class KnapsackForm(NamedTuple):
    """The feasible set with every a_i made positive, as a continuous
    knapsack: y = signs * x lies in [lower, upper] with <a, y> = beta, and
    raising y_i from lower_i to upper_i spends caps_i of the budget
    beta - <a, lower> that the lower corner leaves. The linear minimizer and
    the pair rule work in y and map their points back to x. signs is None
    when every a_i is already positive, and then a, lower and upper are the
    instance's own arrays. Every array is read-only."""

    signs: np.ndarray | None
    a: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    caps: np.ndarray
    budget: float

    def point(self, x: np.ndarray) -> np.ndarray:
        """x in the knapsack coordinates, signs * x; x itself when every
        a_i is positive."""
        return x if self.signs is None else self.signs * x


def _read_only(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class ProblemInstance:
    bounds: BoxBounds
    equality: LinearEquality
    objective: Objective

    @property
    def n(self) -> int:
        return self.bounds.n

    @cached_property
    def knapsack(self) -> KnapsackForm:
        """The feasible set's knapsack constants, computed on first use."""
        a, lower, upper = self.equality.a, self.bounds.lower, self.bounds.upper
        signs = None
        if (a < 0.0).any():
            signs = _read_only(np.sign(a))
            a = _read_only(a * signs)
            lower, upper = (_read_only(np.where(signs > 0, lower, -upper)),
                            _read_only(np.where(signs > 0, upper, -lower)))
        return KnapsackForm(signs, a, lower, upper,
                            _read_only(a * (upper - lower)),
                            self.equality.beta - float(a @ lower))

    @cached_property
    def strict_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The next floats inside the knapsack form's bounds,
        nextafter(lower, inf) and nextafter(upper, -inf), computed on first
        use. For finite y, y > lower exactly when y >= nextafter(lower, inf),
        so they are the floor and ceiling of mbc's strict pair sets and the
        innermost thresholds of every stage's."""
        ks = self.knapsack
        return (_read_only(np.nextafter(ks.lower, np.inf)),
                _read_only(np.nextafter(ks.upper, -np.inf)))

    @cached_property
    def box_radius(self) -> np.ndarray:
        """max(|lower_i|, |upper_i|), the largest |x_i| over the box."""
        return _read_only(np.maximum(np.abs(self.bounds.lower),
                                     np.abs(self.bounds.upper)))


def build_problem(bounds: BoxBounds, equality: LinearEquality,
                  objective: Objective) -> ProblemInstance:
    """Validate dimensions and nonemptiness, return the assembled instance.

    The balance <a, x> over the box spans
    [sum_i min(a_i l_i, a_i u_i), sum_i max(a_i l_i, a_i u_i)];
    beta outside that interval means the feasible set is empty.
    """
    if bounds.n != equality.n:
        raise ProblemError(
            f"bounds have n={bounds.n} but equality has n={equality.n}")
    if bounds.n < 2:
        raise ProblemError("need at least two coordinates")
    alo = equality.a * bounds.lower
    ahi = equality.a * bounds.upper
    lo_balance = float(np.minimum(alo, ahi).sum())
    hi_balance = float(np.maximum(alo, ahi).sum())
    slack = 1e-12 * max(1.0, abs(lo_balance), abs(hi_balance))
    if not (lo_balance - slack <= equality.beta <= hi_balance + slack):
        raise InfeasibleProblemError(
            f"beta={equality.beta} outside attainable balance "
            f"[{lo_balance}, {hi_balance}]")
    return ProblemInstance(bounds=bounds, equality=equality, objective=objective)


@dataclass(frozen=True)
class SignMap:
    """Coordinatewise +-1 change of variables y_i = signs_i * x_i, between
    build_market's instance and the market's own quantities. Involutive."""

    signs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signs", _vector(self.signs, "signs"))
        if not np.all(np.abs(self.signs) == 1.0):
            raise ProblemError("signs must be +-1")

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.signs.shape:
            raise ProblemError("point has wrong length")
        return self.signs * x


@dataclass(frozen=True)
class Stage:
    """One rung of the schedule: problem data plus pair tolerances."""

    problem: ProblemInstance
    delta: float
    epsilon: float

    def __post_init__(self):
        if not (self.delta > 0.0 and self.epsilon > 0.0):
            raise ProblemError("stage tolerances must be strictly positive")

    @cached_property
    def pair_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The eligibility thresholds with which select_pair picks bcv's
        pairs on this stage, in the knapsack form: lower + epsilon/a for
        donors and upper - epsilon/a for receivers, computed on first use.
        Each stays at least one ulp inside its bound: a margin below half an
        ulp would round away and let a coordinate on the bound, which has no
        room to move, into the pair."""
        ks = self.problem.knapsack
        margin = self.epsilon / ks.a
        inner_lower, inner_upper = self.problem.strict_bounds
        return (_read_only(np.maximum(ks.lower + margin, inner_lower)),
                _read_only(np.minimum(ks.upper - margin, inner_upper)))


class StageProvider:
    """Produces Stage l for l = 0, 1, 2, ... A solve asks only for
    l < cfg.max_stages. Subclasses override stage()."""

    def stage(self, l: int) -> Stage:
        raise NotImplementedError


class GeometricSchedule(StageProvider):
    """delta_l = max(f, nu^l delta_0), same for epsilon, with f = min(1e-6,
    1e-2 accuracy), and for objectives with a smoothing parameter
    tau_l = max(min(tau_0, accuracy), nu^l tau_0), never above tau_0.

    The feasible set is the same at every stage; only the smoothing parameter
    changes the objective, and stages at equal parameters share the same
    problem object.
    """

    def __init__(self, problem: ProblemInstance, accuracy: float,
                 delta0: float = 1.0, eps0: float = 1.0, nu: float = 0.5):
        if not 0.0 < nu < 1.0:
            raise ProblemError("nu must lie in (0, 1)")
        for name, v in (("accuracy", accuracy), ("delta0", delta0),
                        ("eps0", eps0)):
            if not v > 0.0:
                raise ProblemError(f"{name} must be positive")
        self.problem = problem
        self.accuracy = float(accuracy)
        self.delta0 = float(delta0)
        self.eps0 = float(eps0)
        self.nu = float(nu)
        self._floor = min(1e-6, 1e-2 * self.accuracy)
        self._by_tau: dict[float, ProblemInstance] = {}

    def tau(self, l: int) -> float | None:
        tau0 = self.problem.objective.smoothing
        if tau0 is None:
            return None
        return max(min(tau0, self.accuracy), tau0 * self.nu**l)

    def stage(self, l: int) -> Stage:
        if l < 0:
            raise ProblemError("stage index must be nonnegative")
        p, tau = self.problem, self.tau(l)
        if tau is not None and tau != p.objective.smoothing:
            if tau not in self._by_tau:
                self._by_tau[tau] = ProblemInstance(
                    bounds=p.bounds, equality=p.equality,
                    objective=p.objective.with_smoothing(tau))
            p = self._by_tau[tau]
        return Stage(problem=p,
                     delta=max(self._floor, self.delta0 * self.nu**l),
                     epsilon=max(self._floor, self.eps0 * self.nu**l))
