"""Problem data model.

A problem instance is a box [lower, upper], one linear equality <a, x> = beta
with all a_i nonzero, and an objective oracle. Solvers additionally consume a
stage schedule: a sequence of (problem_l, delta_l, epsilon_l) with the
tolerances decreasing geometrically to positive floors, and, for smoothed
objectives, the approximation parameter shrinking on the same ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .objectives import Objective, SignFlipObjective

__all__ = [
    "ProblemError",
    "InfeasibleProblemError",
    "BoxBounds",
    "LinearEquality",
    "ProblemInstance",
    "SignMap",
    "Stage",
    "StageProvider",
    "GeometricSchedule",
    "build_problem",
    "normalize_signs",
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

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


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


@dataclass(frozen=True)
class ProblemInstance:
    bounds: BoxBounds
    equality: LinearEquality
    objective: Objective

    @property
    def n(self) -> int:
        return self.bounds.n


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
    """Coordinatewise +-1 change of variables y_i = signs_i * x_i. Involutive."""

    signs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signs", _vector(self.signs, "signs"))
        if not np.all(np.abs(self.signs) == 1.0):
            raise ProblemError("signs must be +-1")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.signs * np.asarray(x, dtype=float)


def normalize_signs(p: ProblemInstance) -> tuple[ProblemInstance, SignMap]:
    """Rewrite the instance so all equality coefficients are positive.

    Coordinates with a_i < 0 are replaced by their negation: bounds swap and
    flip, the objective is composed with the sign map, beta is unchanged.
    Instances that are already normalized are returned as-is.
    """
    a = p.equality.a
    if np.all(a > 0.0):
        return p, SignMap(np.ones(p.n))
    signs = np.sign(a)
    lower = np.where(signs > 0, p.bounds.lower, -p.bounds.upper)
    upper = np.where(signs > 0, p.bounds.upper, -p.bounds.lower)
    flipped = build_problem(
        BoxBounds(lower, upper),
        LinearEquality(np.abs(a), p.equality.beta),
        SignFlipObjective(p.objective, signs),
    )
    return flipped, SignMap(signs)


@dataclass(frozen=True)
class Stage:
    """One rung of the schedule: problem data plus pair tolerances."""

    index: int
    problem: ProblemInstance
    delta: float
    epsilon: float

    def __post_init__(self):
        if not (self.delta > 0.0 and self.epsilon > 0.0):
            raise ProblemError("stage tolerances must be strictly positive")


class StageProvider:
    """Produces Stage l for l = 0, 1, 2, ... Subclasses override stage()."""

    def stage(self, l: int) -> Stage:
        raise NotImplementedError


class GeometricSchedule(StageProvider):
    """delta_l = max(delta_min, nu^l delta_0), same for epsilon, and for
    objectives with a smoothing parameter tau_l = max(tau_min, nu^l tau_0).

    The feasible set is the same at every stage; only the smoothing parameter
    changes the objective, and stages at equal parameters share the same
    problem object.
    """

    def __init__(self, problem: ProblemInstance, delta0: float = 1.0,
                 eps0: float = 1.0, nu: float = 0.5, delta_min: float = 1e-6,
                 eps_min: float = 1e-6, tau_min: float = 1e-6):
        if not 0.0 < nu < 1.0:
            raise ProblemError("nu must lie in (0, 1)")
        for name, v in (("delta0", delta0), ("eps0", eps0),
                        ("delta_min", delta_min), ("eps_min", eps_min),
                        ("tau_min", tau_min)):
            if not v > 0.0:
                raise ProblemError(f"{name} must be positive")
        self.problem = problem
        self.delta0 = float(delta0)
        self.eps0 = float(eps0)
        self.nu = float(nu)
        self.delta_min = float(delta_min)
        self.eps_min = float(eps_min)
        self.tau_min = float(tau_min)
        self._by_tau: dict[float, ProblemInstance] = {}

    def tau(self, l: int) -> float | None:
        tau0 = self.problem.objective.smoothing
        if tau0 is None:
            return None
        return max(self.tau_min, tau0 * self.nu**l)

    def _problem_at(self, l: int) -> ProblemInstance:
        tau = self.tau(l)
        if tau is None or tau == self.problem.objective.smoothing:
            return self.problem
        if tau not in self._by_tau:
            p = self.problem
            self._by_tau[tau] = ProblemInstance(
                bounds=p.bounds, equality=p.equality,
                objective=p.objective.with_smoothing(tau))
        return self._by_tau[tau]

    def stage(self, l: int) -> Stage:
        if l < 0:
            raise ProblemError("stage index must be nonnegative")
        return Stage(
            index=l,
            problem=self._problem_at(l),
            delta=max(self.delta_min, self.delta0 * self.nu**l),
            epsilon=max(self.eps_min, self.eps0 * self.nu**l),
        )

