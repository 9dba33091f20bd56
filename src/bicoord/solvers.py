"""Descent methods for box-constrained problems with one linear equality.

solve(problem, method) runs one of METHODS, "bcv", "cgm" or "mbc", through
bcv_solve, cgm_solve or mbc_solve.

bcv_solve is the two-level selective bi-coordinate method: an outer loop over
stages (problem_l, delta_l, epsilon_l) with tolerances shrinking to positive
floors, and an inner loop that moves balance between one pair of coordinates
per step. The pair (i, j) must have scaled partial derivatives
h_i = g_i / a_i, h_j = g_j / a_j with h_i - h_j >= delta_l, i free to give
at least epsilon_l of balance and j free to take the same; the step
direction is d_i = -1/a_i, d_j = +1/a_j, which keeps <a, x> constant, and
the step length comes from a backtracking linesearch capped at the bound
distance gamma = min(|a_i| dist_i, |a_j| dist_j), dist_k being x_k's
distance to the bound it moves toward. Either sign of a_k is read directly:
in the knapsack form y = signs * x every a_k is positive, i moves down and j
up. When no pair clears the thresholds the stage restarts with tighter
tolerances (and, for smoothed objectives, a tighter approximation).

mbc_solve, the classic most-violating bi-coordinate baseline, is the same
loop (_pair_descent) under one stage with zero thresholds; only the pair
rule (select_pair with or without a stage) and what happens when no pair
qualifies differ. cgm_solve is the conditional-gradient baseline (full
linear minimization per step over the stage problem's feasible set). All
three stop when the gap Delta(x) falls to target_accuracy, or with
stop_reason "linesearch" at the last accepted iterate when no step is
acceptable. All three keep their stage, steps and trace on one ladder
(_Ladder), whose one restart rule and smoothing clause bcv and cgm share.

Every method and both linesearch rules run one backtracking loop, which
also rejects a trial outside the objective's domain. The pair methods
follow the iterate through the objective's PairState, which also selects
the pair, so a step costs O(n) on objectives that keep P x up to date and
two argmax passes on a separable quadratic, whose state keeps the gradient
and the selection's key arrays. On such a state the Armijo test compares
the exact change of f along the pair with sigma lam mu, not two values at
the scale of f. The gradient-difference rule tests the slope h_j - h_i from
two partials at x moved in place. The stop verdict needs no sort while the
selected pair proves the gap above the target: moving gamma of balance
along (i, j) is feasible, so Delta(x) >= (h_i - h_j) gamma. The exact gap,
an O(n log n) knapsack, runs only where that bound cannot settle the
verdict, and once at exit. Besides the state's own periodic rebuild, the
loop rebuilds a moved state from x in one place, before a verdict that
would stop the solve, and at exit, so every reported gap comes from a
rebuilt gradient: the full oracle's, or, on a quadratic state from
SPARSE_REBUILD_MIN_N coordinates up, one whose P x is corrected from the
state's last full product, within the rounding of one product.

Every Armijo backtrack starts at the first trial that a quadratic lower
model of the trial cannot reject (_start_index): the model is certified to
lie below the computed trial, rounding included, so every trial before it
would fail and none of them is evaluated, and the accepted step is a full
scan's. On cgm's line d = y - x the quadratic family's model
(Objective.gradient_line) shares the gradient's P x and takes one P d; on a
pair, the quadratic and separable states' models cost O(1). So a cgm step
evaluates f about once, and a pair step about one trial. The
gradient-difference rule, and objectives without a model, scan from the
first trial. cgm forms each trial point once: armijo_linesearch hands back
the accepted one, which, clipped to the box, is the next x, and where the clip leaves its bytes unchanged, its
value and the products it took (Objective.value_products: P x and the log
argument on the quadratic family) serve the next gradient and the exit. A
cgm step on a dense objective thus takes two passes over P, P d and the
trial, where it took three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
import math
import operator

import numpy as np

# check_feasibility is not called here, but perfbench's tracer wraps it, like
# the other geometry kernels, under the name this module binds
from .geometry import (check_feasibility, floor_zero, linear_gap,
                       minimize_linear, project)
from .objectives import (DomainError, LineModel, Objective, PairSelection,
                         PairState, _U)
from .problem import GeometricSchedule, ProblemInstance, Stage, StageProvider

__all__ = [
    "LinesearchRule",
    "LinesearchError",
    "SolverConfig",
    "PairSelection",
    "TraceEvent",
    "SolveResult",
    "METHODS",
    "select_pair",
    "armijo_linesearch",
    "bcv_solve",
    "cgm_solve",
    "mbc_solve",
    "solve",
]


#: the names solve takes
METHODS = ("bcv", "cgm", "mbc")


class LinesearchRule(str, Enum):
    ARMIJO = "armijo"
    GRADIENT_DIFFERENCE = "gradient-difference"


class LinesearchError(RuntimeError):
    """Backtracking exceeded max_backtracks without acceptance. The
    linesearch functions raise it; a solver ends with stop_reason
    "linesearch" instead."""


@dataclass
class SolverConfig:
    sigma: float = 0.5
    theta: float = 0.5
    target_accuracy: float = 0.1
    max_inner_iterations: int = 500
    max_stages: int = 1000
    max_backtracks: int = 60
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
            try:
                setattr(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        self.linesearch = LinesearchRule(self.linesearch)


# slots and no frozen: one is built per step, at a fifth of a frozen
# dataclass's cost
@dataclass(slots=True)
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


def select_pair(state: PairState, p: ProblemInstance,
                stage: Stage | None) -> PairSelection | None:
    """The pair that the pair methods step along at the state's point on
    problem p, or None when no pair qualifies.

    Eligibility reads the knapsack form y = signs * x, where every a_i is
    positive (p.knapsack), and the violation is h_i - h_j, where h = g / a
    in either form; a coordinate with a_i < 0 thus gives balance by rising.
    With a stage (bcv), donors satisfy y_i >= lower_i + epsilon/a_i,
    receivers y_j <= upper_j - epsilon/a_j (Stage.pair_bounds), and the
    violation must clear delta. With stage=None (mbc's single zero-threshold
    stage), donors lie strictly above their lower bound, receivers strictly
    below their upper bound (p.strict_bounds), and the violation must be
    above rounding noise.
    """
    if stage is not None:
        sel = state.select(p, *stage.pair_bounds)
        return None if sel is None or -sel.mu < stage.delta else sel
    sel = state.select(p, *p.strict_bounds)
    if sel is None:
        return None
    g, a = state.gradient(), p.equality.a
    h_i, h_j = g.item(sel.i) / a.item(sel.i), g.item(sel.j) / a.item(sel.j)
    # sub-ulp "violations" are noise, not descent
    return None if -sel.mu <= 1e-12 * max(1.0, abs(h_i), abs(h_j)) else sel


def armijo_linesearch(objective: Objective, x, d, gamma: float, mu: float,
                      sigma: float = 0.5, theta: float = 0.5,
                      max_backtracks: int = 60, f_x: float | None = None,
                      line: LineModel | None = None,
                      accepted: list | None = None) -> tuple[float, int, float]:
    """Backtracking on objective values.

    Returns (lambda, m, f_new) for the smallest m >= 0 with
    f(x + theta^m gamma d) <= f(x) + sigma theta^m gamma mu, where mu is the
    directional derivative <f'(x), d> and must be negative. A trial point
    outside the objective's domain, or with a non-finite value, is rejected.
    `line`, the objective's LineModel along d from x for steps up to gamma
    (Objective.gradient_line), starts the search at the first trial it
    cannot reject; f_x must then be objective.value(x) as computed. A list
    `accepted` receives (x + lambda d, products): the accepted trial point
    and what objective.value_products computed there.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if f_x is None:
        f_x = objective.value(x)
    last = None

    def trial(lam):
        nonlocal last
        t = x + lam * d
        f, products = objective.value_products(t)
        last = t, products
        return f

    m0 = _start_index(line, gamma, mu, sigma, theta, f_x, max_backtracks)
    result = _backtrack(trial, gamma, mu, sigma, theta, max_backtracks, f_x, m0)
    # the accepted trial is the last one evaluated
    if accepted is not None:
        accepted.append(last)
    return result


def _start_index(model: LineModel | None, gamma: float, mu: float,
                 sigma: float, theta: float, f_0: float,
                 max_backtracks: int) -> int:
    """The first m whose trial at lam = gamma theta^m the LineModel cannot
    reject, or max_backtracks + 1 when it rejects them all; 0 without one.

    With u = 2^-53, the computed threshold f_0 + sigma lam mu is at most
    f_0 + sigma lam mu + 4u (sigma lam |mu| + |f_0|), so a trial fails where
    kappa lam^2 / 2 - b lam - c > 0, with b = sigma mu - slope and
    c = margin, each raised by that rounding and its own (8u (|mu| +
    |slope|) and 2u |f_0|). With kappa > 0 that holds above the positive
    root, which a relative 2^-40 moves up further; every trial from the
    model's cut on fails too. When in doubt the search starts earlier,
    never later.
    """
    if model is None:
        return 0
    slope, kappa, margin, cut = model
    lam_bar = cut
    b = sigma * mu - slope + 8.0 * _U * (abs(mu) + abs(slope))
    c = margin + 2.0 * _U * abs(f_0)
    # the root of kappa lam^2 / 2 - b lam - c, in forms without cancellation
    # or a spurious zero division; an overflow only makes it inf, and a NaN
    # model leaves lam_bar at the cut
    if kappa > 0.0:
        if b > 0.0:
            root = b / kappa * (1.0 + math.sqrt(1.0 + 2.0 * kappa * c / b / b))
        elif b <= 0.0 and c >= 0.0:
            s = math.hypot(b, math.sqrt(2.0 * kappa) * math.sqrt(c))
            root = 2.0 * c / (s - b) if s - b > 0.0 else 0.0  # b = c = 0
        else:
            root = math.inf
        root *= 1.0 + 2.0**-40
        if root < lam_bar:
            lam_bar = root
    m = 0
    ratio = lam_bar / gamma
    if 0.0 < ratio < 1.0 and 0.0 < theta < 1.0:
        # a guess from the logarithms, settled on lam as _backtrack computes
        # it; theta^m falls with m
        m = int(math.log(ratio) / math.log(theta))
        if m > max_backtracks:
            m = max_backtracks + 1
        while m > 0 and gamma * theta**(m - 1) <= lam_bar:
            m -= 1
    while m <= max_backtracks and gamma * theta**m > lam_bar:
        m += 1
    return m


def _backtrack(trial, gamma: float, mu: float, sigma: float, theta: float,
               max_backtracks: int, f_x: float,
               m0: int = 0) -> tuple[float, int, float]:
    """(lambda, m, trial(lambda)) for the smallest m >= m0 whose trial at
    lambda = theta^m gamma is finite and at most f_x + sigma lambda mu; a
    trial that raises DomainError is rejected. Callers start at m0 > 0 only
    where every earlier trial is proven to fail, so the result is a full
    scan's."""
    if not mu < 0.0:
        raise ValueError("directional derivative must be negative")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    for m in range(m0, max_backtracks + 1):
        lam = gamma * theta**m
        threshold = f_x + sigma * lam * mu
        try:
            f_new = trial(lam)
        except DomainError:
            continue
        if math.isfinite(f_new) and f_new <= threshold:
            return lam, m, f_new
    raise LinesearchError(
        f"no acceptable step within {max_backtracks} backtracks")


def _pair_slope(objective: Objective, a, x, i: int, j: int):
    """slope(lam) = h_j - h_i at the point x after moving lam of balance
    from i to j, from two partial derivatives. x is changed in place at i
    and j for the two calls and restored, so a trial makes no copy of x."""
    x_i, x_j = x[i], x[j]

    def slope(lam):
        x[i], x[j] = x_i - lam / a[i], x_j + lam / a[j]
        try:
            h_i = objective.partial(i, x) / a[i]
            return objective.partial(j, x) / a[j] - h_i
        finally:
            x[i], x[j] = x_i, x_j

    return slope


def _pair_coordinates(x, p: ProblemInstance, sel: PairSelection,
                      lam: float) -> tuple[float, float]:
    """New (x_i, x_j) after moving lam of balance from i to j, stepped in the
    knapsack coordinates y = signs * x and mapped back; bounds are hit
    exactly."""
    ks = p.knapsack
    i, j = sel.i, sel.j
    # Python floats: the same roundings as numpy scalars, at less cost
    a_i, a_j = ks.a.item(i), ks.a.item(j)
    lo_i, lo_j = ks.lower.item(i), ks.lower.item(j)
    up_i, up_j = ks.upper.item(i), ks.upper.item(j)
    s_i = s_j = 1.0
    if ks.signs is not None:
        s_i, s_j = ks.signs.item(i), ks.signs.item(j)
    y_i, y_j = s_i * x.item(i), s_j * x.item(j)
    # full step lands exactly on whichever bound defined gamma
    if lam == sel.gamma and sel.gamma == a_i * (y_i - lo_i):
        y_i = lo_i
    else:
        y_i = y_i - lam / a_i
    if lam == sel.gamma and sel.gamma == a_j * (up_j - y_j):
        y_j = up_j
    else:
        y_j = y_j + lam / a_j
    return (s_i * min(max(y_i, lo_i), up_i), s_j * min(max(y_j, lo_j), up_j))


def _pair_step(cfg: SolverConfig, p: ProblemInstance, state: PairState,
               sel: PairSelection, f_x: float) -> tuple[float, int, float]:
    """Linesearch along the pair, then move the state. Returns (lambda, m, f_new)."""
    a = p.equality.a
    i, j = sel.i, sel.j
    if cfg.linesearch == LinesearchRule.ARMIJO:
        d_i, d_j = -1.0 / a.item(i), 1.0 / a.item(j)
        trial = lambda t: state.trial(i, t * d_i, j, t * d_j)
        # a trial that is the exact change of f is tested from 0
        f_0 = 0.0 if state.trial_is_change else f_x
        m0 = _start_index(state.line_model(i, d_i, j, d_j, f_0), sel.gamma,
                          sel.mu, cfg.sigma, cfg.theta, f_0, cfg.max_backtracks)
    else:
        trial, f_0, m0 = _pair_slope(p.objective, a, state.x, i, j), 0.0, 0
    lam, m, f_new = _backtrack(trial, sel.gamma, sel.mu, cfg.sigma, cfg.theta,
                               cfg.max_backtracks, f_0, m0)
    xi, xj = _pair_coordinates(state.x, p, sel, lam)
    state.move(i, xi, j, xj)
    if cfg.linesearch != LinesearchRule.ARMIJO:
        return lam, m, state.value()
    return lam, m, f_new + f_x if state.trial_is_change else f_new


def _start(problem: ProblemInstance, p_0: ProblemInstance, z0) -> np.ndarray:
    """z0, or the centre of problem's box, projected onto the first stage's
    problem p_0."""
    z = (0.5 * (problem.bounds.lower + problem.bounds.upper) if z0 is None
         else np.asarray(z0, dtype=float))
    return project(z, p_0)


def _gap_rounding(p: ProblemInstance, scale: float) -> float:
    """A bound on the rounding of linear_gap(g, x, p) for x in the box, from
    scale = sum_i |g_i| max(|lower_i|, |upper_i|): the gap cancels <g, x>
    against the knapsack's best, and both run over n terms of size at most
    |g_i| max(|lower_i|, |upper_i|)."""
    return p.n * 2.0**-49 * scale


def _screened_gap(p: ProblemInstance, state: PairState, acc: float,
                  sel: PairSelection | None) -> float | None:
    """The exact gap Delta(x) at the state's point, or None where "not
    converged" is settled without it, by the pair sel selected at that
    point: its bound -mu gamma <= Delta(x) settles it when it exceeds the
    accuracy by more than the exact gap's rounding."""
    if sel is not None:
        bound = -sel.mu * sel.gamma
        # the rounding's weighted sum is asked for only where it can settle
        if bound > acc and bound > acc + _gap_rounding(
                p, state.abs_gradient_dot(p.box_radius)):
            return None
    return linear_gap(state.gradient(), state.x, p)


class _Ladder:
    """The outer level of a solve: stage l and its problem, the step count
    and the count at which stage l began, the trace, and the one rule for
    leaving a stage. Without a provider (mbc) it is one stage on the
    problem itself. tau_pending holds while the stage objective is smoothed
    above the accuracy: no gap verdict counts then."""

    def __init__(self, problem, cfg: SolverConfig, stages: StageProvider | None):
        self.cfg, self.stages, self.trace = cfg, stages, []
        self.l = self.steps = self.stage_start = 0
        self.stage, self.problem, self.tau_pending = None, problem, False
        if stages is not None:
            self._enter(stages.stage(0))

    def _enter(self, stage: Stage) -> None:
        self.stage, self.problem = stage, stage.problem
        self.stage_start = self.steps
        tau = stage.problem.objective.smoothing
        self.tau_pending = not (tau is None or tau <= self.cfg.target_accuracy)

    def advance(self, idle: bool) -> str | None:
        """Enter stage l + 1 and return None, or return why the solve ends
        on stage l: "max_stages" when l + 1 reaches cfg.max_stages, decided
        before the provider is asked for stage l + 1; "stalled" when the
        restart is idle (it cannot move the point) and stage l + 1 keeps
        stage l's problem object, delta and epsilon, so would repeat it."""
        if self.l + 1 >= self.cfg.max_stages:
            return "max_stages"
        cur, nxt = self.stage, self.stages.stage(self.l + 1)
        if (idle and nxt.problem is cur.problem and nxt.delta == cur.delta
                and nxt.epsilon == cur.epsilon):
            return "stalled"
        self.l += 1
        self._enter(nxt)

    def record(self, i, j, gamma, lam, mu, f_before, f_after, backtracks, x):
        """Count an accepted step, which left the point at x, and trace it."""
        self.steps += 1
        self.trace.append(TraceEvent(
            self.l, self.steps, i, j, gamma, lam, mu, f_before, f_after,
            backtracks, x.copy() if self.cfg.record_points else None))

    def result(self, x, value, gap, stop_reason: str) -> SolveResult:
        """Result of a solve that ended at x on the current stage problem."""
        return SolveResult(
            point=x, objective_value=value, error_bound=gap,
            inner_iterations_total=self.steps, stages_completed=self.l + 1,
            converged=stop_reason == "converged", trace=self.trace,
            stop_reason=stop_reason, smoothing=self.problem.objective.smoothing)


def _pair_descent(problem: ProblemInstance, cfg: SolverConfig,
                  stages: StageProvider | None, z0) -> SolveResult:
    """The pair-descent loop of bcv_solve and mbc_solve.

    Pairs come from select_pair on the pair state, the one selection rule.
    With a stage provider a stage without a pair advances the ladder, idle
    when the stage took no step. The point is projected onto the new
    stage's problem unless the restart is idle and keeps the problem object,
    and a restart that keeps the problem and the point keeps the state and
    the gap too; any other builds the next state through PairState.restart,
    which keeps the quadratic state's anchor across objectives that share
    P. stages=None is mbc's single zero-threshold stage, and the
    solve stops with "no_descent_pair" when no pair qualifies. A moved
    state, whose gradient or value may have drifted, is rebuilt in one
    place, before a verdict that would stop the solve (the gap meets the
    accuracy, or mbc has no pair); the pass then selects and screens again
    on the fresh state.
    """
    staged = stages is not None
    ladder = _Ladder(problem, cfg, stages)
    cur, p_l = ladder.stage, ladder.problem
    state = p_l.objective.pair_state(_start(problem, p_l, z0))
    f_x = state.value()
    acc = cfg.target_accuracy
    # the last restart kept the state and the problem, so it changed only the
    # thresholds: the point, the gradient and the gap are the last pass's
    kept = False

    # a selection and a screened gap open the solve and follow every step,
    # rebuild and restart
    while True:
        sel = select_pair(state, p_l, cur)
        if not kept:
            gap = (None if ladder.tau_pending
                   else _screened_gap(p_l, state, acc, sel))
        kept = False
        # the screen leaves "converged" open: the gap meets the accuracy,
        # or is NaN
        unsettled = gap is not None and not gap > acc
        if state.moves and (unsettled or (sel is None and not staged)):
            state.rebuild()
            continue
        if unsettled and gap <= acc:
            stop_reason = "converged"
            break
        if sel is None and not staged:
            stop_reason = "no_descent_pair"
            break
        if sel is None:
            # restart: no pair cleared the stage thresholds
            idle = ladder.steps == ladder.stage_start
            stop_reason = ladder.advance(idle)
            if stop_reason:
                break
            cur = ladder.stage
            kept = idle and cur.problem is p_l
            if not kept:
                x = project(state.x, cur.problem)
                # the state carries over only when neither the point nor the
                # objective changed
                kept = cur.problem is p_l and np.array_equal(x, state.x)
                if not kept:
                    state = state.restart(cur.problem.objective, x)
                p_l = cur.problem
                f_x = state.value()
            continue
        if ladder.steps >= cfg.max_inner_iterations:
            stop_reason = "budget"
            break
        try:
            lam, m, f_new = _pair_step(cfg, p_l, state, sel, f_x)
        except LinesearchError:
            stop_reason = "linesearch"
            break
        ladder.record(sel.i, sel.j, sel.gamma, lam, sel.mu, f_x, f_new, m,
                      state.x)
        f_x = f_new

    # every exit follows a screen on the current point; its gap is reported
    # unless the state has moved since its last rebuild
    if state.moves:
        state.rebuild()
        gap = None
    if gap is None:
        gap = linear_gap(state.gradient(), state.x, p_l)
    return ladder.result(state.x, state.value(), gap, stop_reason)


def bcv_solve(problem: ProblemInstance, cfg: SolverConfig | None = None,
              stages: StageProvider | None = None, z0=None) -> SolveResult:
    """Two-level selective bi-coordinate descent.

    Stages come from `stages` (default: GeometricSchedule(problem,
    cfg.target_accuracy), whose floors follow the target). Convergence
    means the gap Delta(x) on the current stage objective is at most
    cfg.target_accuracy, and for smoothed objectives that the smoothing
    parameter has decreased to that accuracy as well. One iteration is one
    accepted pair step; stage restarts and projections are free. Budgets:
    max_inner_iterations accepted steps in total, max_stages stages.

    stop_reason is one of "converged", "budget", "max_stages", "stalled"
    (a stage that took no step restarts onto one with its problem, delta
    and epsilon: the ladder is at its floors) or "linesearch" (no acceptable
    step within max_backtracks; the result is the last accepted iterate).
    """
    cfg = cfg or SolverConfig()
    stages = stages or GeometricSchedule(problem, cfg.target_accuracy)
    return _pair_descent(problem, cfg, stages, z0)


def cgm_solve(problem: ProblemInstance, cfg: SolverConfig | None = None,
              stages: StageProvider | None = None, z0=None) -> SolveResult:
    """Conditional-gradient baseline.

    Each iteration minimizes the linearized objective over the stage
    problem's feasible set and backtracks along d = y - x from unit step; a
    stage whose feasible set differs from the last one's projects the point
    onto it, and one that keeps the last one's problem object keeps its
    linear minimization and gap. For smoothed objectives a
    stage provider (default: GeometricSchedule(problem, cfg.target_accuracy))
    supplies the shrinking approximation parameter: when the gap on the
    current surrogate reaches target_accuracy but the parameter has not, the
    next stage objective is adopted without counting an iteration. Trace
    rows use the pair sentinel i = j = -1 and gamma = 1. The gradient-
    difference rule prices a pair's two partials, so cgm raises ValueError
    on it.

    stop_reason is one of "converged", "budget", "max_stages", "stalled"
    (the next stage is the same problem object with the same delta and
    epsilon, so a restart, which then keeps the point, would repeat it; or
    the gap is NaN) or "linesearch" (no acceptable step within
    max_backtracks; the result is the last accepted iterate, with the gap
    computed there).
    """
    cfg = cfg or SolverConfig()
    if cfg.linesearch != LinesearchRule.ARMIJO:
        raise ValueError("cgm takes only linesearch 'armijo'")
    stages = stages or GeometricSchedule(problem, cfg.target_accuracy)

    ladder = _Ladder(problem, cfg, stages)
    p_l = ladder.problem
    x = _start(problem, p_l, z0)
    # f(x) on the stage objective, and the products of value_products at x,
    # while neither has changed
    f_x = products = None
    # x and every trial point of a step lie in the box: the line models' scale
    radius = float(p_l.box_radius.sum())
    # the last restart kept the problem object, so x, f(x), the gradient, the
    # line model, y and the gap are the last pass's
    kept = False

    while True:
        f_l = p_l.objective
        if not kept:
            g, line = f_l.gradient_line(x, products)
            y, best = minimize_linear(g, p_l)
            # ndarray.dot: the bits of @, with less overhead on short vectors
            gap = floor_zero(float(g.dot(x)) - best)
        kept = False
        if math.isnan(gap):
            # a NaN gradient gives no direction, as no pair qualifies in bcv
            stop_reason = "stalled"
            break
        if gap <= cfg.target_accuracy:
            if not ladder.tau_pending:
                stop_reason = "converged"
                break
            # idle: a restart that keeps the problem object keeps the point
            stop_reason = ladder.advance(True)
            if stop_reason:
                break
            nxt = ladder.problem
            if nxt.bounds is not p_l.bounds or nxt.equality is not p_l.equality:
                x = project(x, nxt)
                radius = float(nxt.box_radius.sum())
            kept = nxt is p_l
            if not kept:
                p_l, f_x, products = nxt, None, None
            continue
        if ladder.steps >= cfg.max_inner_iterations:
            stop_reason = "budget"
            break
        d = y - x
        mu = -gap
        if f_x is None:
            f_x = f_l.value(x)
        accepted = []
        try:
            lam, m, f_new = armijo_linesearch(
                f_l, x, d, 1.0, mu, cfg.sigma, cfg.theta, cfg.max_backtracks,
                f_x, None if line is None else line(d, 1.0, radius), accepted)
        except LinesearchError:
            stop_reason = "linesearch"
            break
        trial, products = accepted[0]
        # clip as max then min: the same values as np.clip, at less cost
        x = np.maximum(trial, p_l.bounds.lower)
        np.minimum(x, p_l.bounds.upper, out=x)
        ladder.record(-1, -1, 1.0, lam, mu, f_x, f_new, m, x)
        # f_new and the products are the trial point's, so also x's unless
        # the clip changed a byte of it
        if x.tobytes() == trial.tobytes():
            f_x = f_new
        else:
            f_x = products = None

    return ladder.result(x, p_l.objective.value(x) if f_x is None else f_x,
                         gap, stop_reason)


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
    return _pair_descent(problem, cfg, None, z0)


def solve(problem: ProblemInstance, method: str,
          cfg: SolverConfig | None = None, stages: StageProvider | None = None,
          z0=None) -> SolveResult:
    """Solve problem with one of METHODS: "bcv" (bcv_solve), "cgm"
    (cgm_solve) or "mbc" (mbc_solve, which runs one zero-threshold stage and
    takes no stage provider). ValueError names the choices for any other
    method."""
    # the solvers are module globals looked up here at each call, so a
    # wrapper bound over one of them sees every solve
    if method == "bcv":
        return bcv_solve(problem, cfg, stages, z0)
    if method == "cgm":
        return cgm_solve(problem, cfg, stages, z0)
    if method != "mbc":
        raise ValueError(f"unknown method {method!r}; choose one of "
                         + ", ".join(METHODS))
    if stages is not None:
        raise ValueError("mbc runs one zero-threshold stage; it takes no "
                         "stage provider")
    return mbc_solve(problem, cfg, z0)
