"""Descent methods for box-constrained problems with one linear equality.

bcv_solve is the two-level selective bi-coordinate method: an outer loop over
stages (problem_l, delta_l, epsilon_l) with tolerances shrinking to positive
floors, and an inner loop that moves balance between one pair of coordinates
per step. The pair (i, j) must have scaled partial derivatives
h_i = g_i / a_i, h_j = g_j / a_j with h_i - h_j >= delta_l, i free to move
down by at least epsilon_l of balance and j free to move up by the same; the
step direction is d_i = -1/a_i, d_j = +1/a_j, which keeps <a, x> constant,
and the step length comes from a backtracking linesearch capped at the bound
distance gamma = min(a_i (x_i - lower_i), a_j (upper_j - x_j)). When no pair
clears the thresholds the stage restarts with tighter tolerances (and, for
smoothed objectives, a tighter approximation).

mbc_solve, the classic most-violating bi-coordinate baseline, is the same
loop (_pair_descent) under one stage with zero thresholds; only the pair
rule, what happens when no pair qualifies, and the smoothing clause of the
stop verdict differ. cgm_solve is the conditional-gradient baseline (full
linear minimization per step). All three stop when the gap Delta(x) falls
to target_accuracy; bcv and cgm additionally require a smoothed objective's
parameter to have reached that accuracy. The pair methods end a solve whose
linesearch finds no acceptable step with stop_reason "linesearch" at the
last accepted iterate.

The pair methods follow the iterate through the objective's PairState, so a
step costs O(n) plus one sort for the gap on objectives that keep P x up to
date. Besides the state's own periodic rebuild, the loop rebuilds it from
x at a stage restart that changes the point or the objective, before a stop
verdict and at exit, so every reported gap comes from a fresh gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
import math

import numpy as np

# check_feasibility is not called here, but perfbench's tracer wraps it, like
# the other geometry kernels, under the name this module binds
from .geometry import check_feasibility, linear_gap, minimize_linear, project
from .objectives import DomainError, Objective, PairState
from .problem import (GeometricSchedule, ProblemError, ProblemInstance, Stage,
                      StageProvider)

__all__ = [
    "PairStrategy",
    "LinesearchRule",
    "LinesearchError",
    "SolverConfig",
    "PairSelection",
    "TraceEvent",
    "SolveResult",
    "select_pair",
    "armijo_linesearch",
    "gradient_difference_linesearch",
    "bcv_solve",
    "cgm_solve",
    "mbc_solve",
]


class PairStrategy(str, Enum):
    MAX_VIOLATION = "max-violation"
    FIRST_FOUND_SWEEP = "first-found-sweep"


class LinesearchRule(str, Enum):
    ARMIJO = "armijo"
    GRADIENT_DIFFERENCE = "gradient-difference"


class LinesearchError(RuntimeError):
    """Backtracking exceeded max_backtracks without acceptance."""


@dataclass
class SolverConfig:
    sigma: float = 0.5
    theta: float = 0.5
    target_accuracy: float = 0.1
    max_inner_iterations: int = 500
    max_stages: int = 1000
    max_backtracks: int = 60
    pair_strategy: PairStrategy = PairStrategy.MAX_VIOLATION
    linesearch: LinesearchRule = LinesearchRule.ARMIJO
    # keep a copy of x in every trace event: O(n) memory per step
    record_points: bool = False

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must lie in (0, 1)")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not self.target_accuracy > 0.0:
            raise ValueError("target_accuracy must be positive")
        for name in ("max_inner_iterations", "max_stages", "max_backtracks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        self.pair_strategy = PairStrategy(self.pair_strategy)
        self.linesearch = LinesearchRule(self.linesearch)


@dataclass(frozen=True)
class PairSelection:
    i: int
    j: int
    gamma: float  # largest balance-neutral move before a bound is hit
    mu: float     # directional derivative h_j - h_i, always <= -delta


@dataclass(frozen=True)
class TraceEvent:
    stage: int
    k: int
    i: int
    j: int
    gamma: float
    lam: float
    mu: float
    f_before: float
    f_after: float
    backtracks: int
    # in-memory only, skipped by the CSV writer
    point_after: np.ndarray | None = None


@dataclass
class SolveResult:
    point: np.ndarray
    objective_value: float
    error_bound: float
    inner_iterations_total: int
    stages_completed: int
    converged: bool
    trace: list[TraceEvent] = field(default_factory=list)
    stop_reason: str = ""
    smoothing: float | None = None


def _require_positive_coefficients(p: ProblemInstance, solver: str) -> None:
    if np.any(p.equality.a <= 0.0):
        raise ProblemError(
            f"{solver} needs positive equality coefficients; "
            "apply normalize_signs first")


def _pair_from_best(h, can_dec, can_inc) -> tuple[int, int] | None:
    """Most violating pair (argmax h over can_dec, argmin h over can_inc),
    ties to the lowest index, forced distinct."""
    if not can_dec.any() or not can_inc.any():
        return None
    hm = np.where(can_dec, h, -np.inf)
    hp = np.where(can_inc, h, np.inf)
    i = int(np.argmax(hm))
    j = int(np.argmin(hp))
    if i != j:
        return i, j
    # one coordinate tops both lists; the best distinct pair swaps one side
    hm2 = hm.copy()
    hm2[i] = -np.inf
    hp2 = hp.copy()
    hp2[j] = np.inf
    i2 = int(np.argmax(hm2)) if np.isfinite(hm2).any() else -1
    j2 = int(np.argmin(hp2)) if np.isfinite(hp2).any() else -1
    alt = []
    if i2 >= 0:
        alt.append((hm[i2] - hp[j], (i2, j)))
    if j2 >= 0:
        alt.append((hm[i] - hp[j2], (i, j2)))
    if not alt:
        return None
    return max(alt, key=lambda t: t[0])[1]


def _selection(p: ProblemInstance, x, i: int, j: int, h_i: float,
               h_j: float) -> PairSelection:
    a = p.equality.a
    gamma = min(a[i] * (x[i] - p.bounds.lower[i]),
                a[j] * (p.bounds.upper[j] - x[j]))
    return PairSelection(i=i, j=j, gamma=float(gamma), mu=float(h_j - h_i))


def select_pair(x, stage: Stage, strategy: PairStrategy = PairStrategy.MAX_VIOLATION,
                start: int = 0, gradient=None) -> PairSelection | None:
    """Pick a working pair for the stage, or None when no pair clears it.

    Eligible donors satisfy x_i >= lower_i + epsilon/a_i, receivers
    x_j <= upper_j - epsilon/a_j, and the pair must violate optimality by
    h_i - h_j >= delta. MAX_VIOLATION scans the full scaled gradient;
    FIRST_FOUND_SWEEP walks coordinates cyclically from `start`, evaluating
    one partial derivative per visited coordinate, and returns the first pair
    that clears delta.
    """
    p = stage.problem
    _require_positive_coefficients(p, "select_pair")
    x = np.asarray(x, dtype=float)
    a = p.equality.a
    lower, upper = p.bounds.lower, p.bounds.upper
    margin = stage.epsilon / a

    if strategy == PairStrategy.MAX_VIOLATION:
        g = p.objective.gradient(x) if gradient is None else np.asarray(gradient, float)
        h = g / a
        can_dec = x >= lower + margin
        can_inc = x <= upper - margin
        pair = _pair_from_best(h, can_dec, can_inc)
        if pair is None:
            return None
        i, j = pair
        if h[i] - h[j] < stage.delta:
            return None
        return _selection(p, x, i, j, float(h[i]), float(h[j]))

    n = p.n
    best_dec: tuple[int, float] | None = None  # (index, h) with largest h so far
    best_inc: tuple[int, float] | None = None  # (index, h) with smallest h so far
    for step in range(n):
        s = (start + step) % n
        elig_dec = x[s] >= lower[s] + margin[s]
        elig_inc = x[s] <= upper[s] - margin[s]
        if not (elig_dec or elig_inc):
            continue
        h_s = p.objective.partial(s, x) / a[s]
        if elig_dec and best_inc is not None and h_s - best_inc[1] >= stage.delta:
            return _selection(p, x, s, best_inc[0], h_s, best_inc[1])
        if elig_inc and best_dec is not None and best_dec[1] - h_s >= stage.delta:
            return _selection(p, x, best_dec[0], s, best_dec[1], h_s)
        if elig_dec and (best_dec is None or h_s > best_dec[1]):
            best_dec = (s, h_s)
        if elig_inc and (best_inc is None or h_s < best_inc[1]):
            best_inc = (s, h_s)
    return None


def armijo_linesearch(objective: Objective, x, d, gamma: float, mu: float,
                      sigma: float = 0.5, theta: float = 0.5,
                      max_backtracks: int = 60,
                      f_x: float | None = None) -> tuple[float, int, float]:
    """Backtracking on objective values.

    Returns (lambda, m, f_new) for the smallest m >= 0 with
    f(x + theta^m gamma d) <= f(x) + sigma theta^m gamma mu, where mu is the
    directional derivative <f'(x), d> and must be negative. A trial point
    outside the objective's domain, or with a non-finite value, is rejected.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if f_x is None:
        f_x = objective.value(x)

    def trial(lam):
        try:
            return objective.value(x + lam * d)
        except DomainError:
            return math.inf

    return _backtrack(trial, gamma, mu, sigma, theta, max_backtracks, f_x)


def _backtrack(trial, gamma: float, mu: float, sigma: float, theta: float,
               max_backtracks: int, f_x: float) -> tuple[float, int, float]:
    """Armijo backtracking on trial(lam), the objective value at step lam."""
    if not mu < 0.0:
        raise ValueError("directional derivative must be negative")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    for m in range(max_backtracks + 1):
        lam = gamma * theta**m
        f_new = trial(lam)
        if math.isfinite(f_new) and f_new <= f_x + sigma * lam * mu:
            return lam, m, f_new
    raise LinesearchError(
        f"no acceptable step within {max_backtracks} backtracks")


def gradient_difference_linesearch(objective: Objective, a, x, i: int, j: int,
                                   gamma: float, mu: float, sigma: float = 0.5,
                                   theta: float = 0.5,
                                   max_backtracks: int = 60) -> tuple[float, int]:
    """Backtracking on the pair's scaled gradient difference.

    Accepts the smallest m >= 0 with
    h_j(x_trial) - h_i(x_trial) <= sigma theta^m gamma (h_j(x) - h_i(x)),
    evaluating only the two partial derivatives at each trial point. mu is
    h_j(x) - h_i(x) and must be negative. A trial point outside the
    objective's domain is rejected. Returns (lambda, m).
    """
    if not mu < 0.0:
        raise ValueError("directional derivative must be negative")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    trial = x.copy()
    for m in range(max_backtracks + 1):
        lam = gamma * theta**m
        trial[:] = x
        trial[i] = x[i] - lam / a[i]
        trial[j] = x[j] + lam / a[j]
        try:
            h_i = objective.partial(i, trial) / a[i]
            h_j = objective.partial(j, trial) / a[j]
        except DomainError:
            continue
        if h_j - h_i <= sigma * lam * mu:
            return lam, m
    raise LinesearchError(
        f"no acceptable step within {max_backtracks} backtracks")


def _pair_coordinates(x, p: ProblemInstance, sel: PairSelection,
                      lam: float) -> tuple[float, float]:
    """New (x_i, x_j) after moving lam of balance from i to j; bounds are hit
    exactly."""
    a = p.equality.a
    lower, upper = p.bounds.lower, p.bounds.upper
    i, j = sel.i, sel.j
    # full step lands exactly on whichever bound defined gamma
    if lam == sel.gamma and sel.gamma == a[i] * (x[i] - lower[i]):
        xi = lower[i]
    else:
        xi = x[i] - lam / a[i]
    if lam == sel.gamma and sel.gamma == a[j] * (upper[j] - x[j]):
        xj = upper[j]
    else:
        xj = x[j] + lam / a[j]
    return (min(max(xi, lower[i]), upper[i]), min(max(xj, lower[j]), upper[j]))


def _pair_step(cfg: SolverConfig, p: ProblemInstance, state: PairState,
               sel: PairSelection, f_x: float) -> tuple[float, int, float]:
    """Linesearch along the pair, then move the state. Returns (lambda, m, f_new)."""
    a = p.equality.a
    i, j = sel.i, sel.j
    if cfg.linesearch == LinesearchRule.ARMIJO:
        d_i, d_j = -1.0 / a[i], 1.0 / a[j]
        lam, m, f_new = _backtrack(
            lambda t: state.trial(i, t * d_i, j, t * d_j), sel.gamma, sel.mu,
            cfg.sigma, cfg.theta, cfg.max_backtracks, f_x)
    else:
        lam, m = gradient_difference_linesearch(
            p.objective, a, state.x, i, j, sel.gamma, sel.mu,
            cfg.sigma, cfg.theta, cfg.max_backtracks)
        f_new = None
    xi, xj = _pair_coordinates(state.x, p, sel, lam)
    state.move(i, xi, j, xj)
    return lam, m, state.value() if f_new is None else f_new


def _tau_reached(p: ProblemInstance, accuracy: float) -> bool:
    tau = p.objective.smoothing
    return tau is None or tau <= accuracy


def _default_start(p: ProblemInstance) -> np.ndarray:
    return 0.5 * (p.bounds.lower + p.bounds.upper)


def _refresh(state: PairState, g) -> np.ndarray:
    """Rebuild a state that has moved since its last rebuild; returns the
    gradient at its point."""
    if not state.moves:
        return g
    state.rebuild()
    return state.gradient()


def _converged(cfg: SolverConfig, p: ProblemInstance, state: PairState, g,
               tau_clause: bool) -> tuple[np.ndarray, bool]:
    """Convergence verdict: the gap on the maintained gradient, confirmed on a
    rebuilt state; with tau_clause, a smoothed objective must also have
    reached the accuracy. Returns the gradient and the verdict."""
    acc = cfg.target_accuracy
    if (tau_clause and not _tau_reached(p, acc)) or linear_gap(g, state.x, p) > acc:
        return g, False
    if not state.moves:
        return g, True
    g = _refresh(state, g)
    return g, linear_gap(g, state.x, p) <= acc


def _most_violating(p: ProblemInstance, x, g) -> PairSelection | None:
    """Zero-threshold selection: the extreme pair over donors strictly above
    their lower bound and receivers strictly below their upper bound, when its
    violation h_i - h_j is above rounding noise."""
    h = g / p.equality.a
    pair = _pair_from_best(h, x > p.bounds.lower, x < p.bounds.upper)
    if pair is None:
        return None
    i, j = pair
    # sub-ulp "violations" are noise, not descent
    if h[i] - h[j] <= 1e-12 * max(1.0, abs(h[i]), abs(h[j])):
        return None
    return _selection(p, x, i, j, float(h[i]), float(h[j]))


def _pair_descent(problem: ProblemInstance, cfg: SolverConfig,
                  stages: StageProvider | None, z0) -> SolveResult:
    """The pair-descent loop of bcv_solve and mbc_solve.

    With a stage provider, pairs come from select_pair under the stage's
    thresholds, a stage without a qualifying pair restarts on the next one
    (projecting the point onto its problem), and a smoothed objective must
    reach the accuracy before the gap verdict counts. stages=None is mbc's
    single zero-threshold stage: pairs come from _most_violating, and when
    none qualifies the verdict is taken again on a rebuilt state before the
    solve stops with "no_descent_pair". A linesearch that finds no
    acceptable step ends the solve at the last accepted iterate.
    """
    staged = stages is not None
    l = 0
    cur = stages.stage(l) if staged else None
    p_l = cur.problem if staged else problem
    z = _default_start(problem) if z0 is None else np.asarray(z0, dtype=float)
    state = p_l.objective.pair_state(project(z, p_l))
    f_x = state.value()
    g = state.gradient()
    trace: list[TraceEvent] = []
    steps = stage_start = 0
    sweep_start = 0

    # a verdict opens the solve and follows every step, rebuild and restart
    while True:
        g, converged = _converged(cfg, p_l, state, g, staged)
        if converged:
            stop_reason = "converged"
            break
        if not staged:
            sel = _most_violating(p_l, state.x, g)
        else:
            sel = select_pair(state.x, cur, cfg.pair_strategy, start=sweep_start,
                              gradient=g)
        if sel is None and not staged:
            # the maintained gradient may have drifted: rebuild, then take
            # the verdict and select again
            if not state.moves:
                stop_reason = "no_descent_pair"
                break
            g = _refresh(state, g)
            continue
        if sel is None:
            # restart: no pair cleared the stage thresholds
            if l + 1 >= cfg.max_stages:
                stop_reason = "max_stages"
                break
            nxt = stages.stage(l + 1)
            if (steps == stage_start and nxt.problem is p_l
                    and nxt.delta == cur.delta and nxt.epsilon == cur.epsilon):
                stop_reason = "stalled"
                break
            l += 1
            cur = nxt
            stage_start = steps
            x = project(state.x, cur.problem)
            # the state carries over only when neither the point nor the
            # objective changed
            if cur.problem is not p_l or not np.array_equal(x, state.x):
                state = cur.problem.objective.pair_state(x)
                g = state.gradient()
            p_l = cur.problem
            f_x = state.value()
            continue
        if steps >= cfg.max_inner_iterations:
            stop_reason = "budget"
            break
        try:
            lam, m, f_new = _pair_step(cfg, p_l, state, sel, f_x)
        except LinesearchError:
            stop_reason = "linesearch"
            break
        steps += 1
        sweep_start = (sel.j + 1) % p_l.n
        g = state.gradient()
        trace.append(TraceEvent(
            stage=l, k=steps, i=sel.i, j=sel.j, gamma=sel.gamma, lam=lam,
            mu=sel.mu, f_before=f_x, f_after=f_new, backtracks=m,
            point_after=state.x.copy() if cfg.record_points else None))
        f_x = f_new

    return _result(p_l, state, g, steps, l + 1, stop_reason, trace)


def bcv_solve(problem: ProblemInstance, cfg: SolverConfig | None = None,
              stages: StageProvider | None = None, z0=None) -> SolveResult:
    """Two-level selective bi-coordinate descent.

    Stages come from `stages` (default: geometric ladder on `problem` with
    delta0 = eps0 = 1, ratio 0.5, floors 1e-6). Convergence means the gap
    Delta(x) on the current stage objective is at most
    cfg.target_accuracy, and for smoothed objectives that the smoothing
    parameter has decreased to that accuracy as well. One iteration is one
    accepted pair step; stage restarts and projections are free. Budgets:
    max_inner_iterations accepted steps in total, max_stages stages.

    stop_reason is one of "converged", "budget", "max_stages", "stalled"
    (a restart changed nothing and the next stage is identical) or
    "linesearch" (no acceptable step within max_backtracks; the result is
    the last accepted iterate).
    """
    cfg = cfg or SolverConfig()
    stages = stages or GeometricSchedule(problem)
    _require_positive_coefficients(problem, "bcv_solve")
    return _pair_descent(problem, cfg, stages, z0)


def cgm_solve(problem: ProblemInstance, cfg: SolverConfig | None = None,
              stages: StageProvider | None = None, z0=None) -> SolveResult:
    """Conditional-gradient baseline.

    Each iteration minimizes the linearized objective over the feasible set
    and backtracks along d = y - x from unit step. For smoothed objectives a
    stage provider supplies the shrinking approximation parameter: when the
    gap on the current surrogate reaches target_accuracy but the parameter
    has not, the next stage objective is adopted without counting an
    iteration. Trace rows use the pair sentinel i = j = -1 and gamma = 1.
    """
    cfg = cfg or SolverConfig()
    if stages is None and problem.objective.smoothing is not None:
        stages = GeometricSchedule(problem)

    l = 0
    p_l = stages.stage(l).problem if stages is not None else problem
    x = project(_default_start(problem) if z0 is None else np.asarray(z0, float),
                problem)
    trace: list[TraceEvent] = []
    steps = 0
    converged = False
    stop_reason = ""

    while True:
        f_l = p_l.objective
        g = f_l.gradient(x)
        y, best = minimize_linear(g, problem)
        gap = max(0.0, float(g @ x) - best)
        if gap <= cfg.target_accuracy:
            if _tau_reached(p_l, cfg.target_accuracy):
                converged = True
                stop_reason = "converged"
                break
            nxt = stages.stage(l + 1)
            if nxt.problem is p_l:
                stop_reason = "stalled"
                break
            if l + 1 >= cfg.max_stages:
                stop_reason = "max_stages"
                break
            l += 1
            p_l = nxt.problem
            continue
        if steps >= cfg.max_inner_iterations:
            stop_reason = "budget"
            break
        d = y - x
        mu = -gap
        f_x = f_l.value(x)
        lam, m, f_new = armijo_linesearch(f_l, x, d, 1.0, mu, cfg.sigma,
                                          cfg.theta, cfg.max_backtracks, f_x)
        x = np.clip(x + lam * d, problem.bounds.lower, problem.bounds.upper)
        steps += 1
        trace.append(TraceEvent(
            stage=l, k=steps, i=-1, j=-1, gamma=1.0, lam=lam, mu=mu,
            f_before=f_x, f_after=f_new, backtracks=m,
            point_after=x.copy() if cfg.record_points else None))

    return SolveResult(
        point=x,
        objective_value=p_l.objective.value(x),
        error_bound=gap,
        inner_iterations_total=steps,
        stages_completed=l + 1,
        converged=converged,
        trace=trace,
        stop_reason=stop_reason,
        smoothing=p_l.objective.smoothing,
    )


def mbc_solve(problem: ProblemInstance, cfg: SolverConfig | None = None,
              z0=None) -> SolveResult:
    """Most-violating bi-coordinate baseline: single stage, zero thresholds.

    Donors are coordinates strictly above their lower bound, receivers
    strictly below their upper bound; the pair is the extreme one and any
    violation h_i - h_j above rounding noise qualifies. The backtracking rule
    comes from cfg, as in bcv_solve, whose loop it runs. stop_reason is one
    of "converged", "budget", "no_descent_pair" (no violation left on a
    rebuilt state) or "linesearch" (no acceptable step within
    max_backtracks; the result is the last accepted iterate).
    """
    cfg = cfg or SolverConfig()
    _require_positive_coefficients(problem, "mbc_solve")
    return _pair_descent(problem, cfg, None, z0)


def _result(p: ProblemInstance, state: PairState, g, steps: int, stages: int,
            stop_reason: str, trace: list[TraceEvent]) -> SolveResult:
    """Result of a pair method; value and gap come from a fresh state."""
    g = _refresh(state, g)
    return SolveResult(
        point=state.x,
        objective_value=state.value(),
        error_bound=linear_gap(g, state.x, p),
        inner_iterations_total=steps,
        stages_completed=stages,
        converged=stop_reason == "converged",
        trace=trace,
        stop_reason=stop_reason,
        smoothing=p.objective.smoothing,
    )
