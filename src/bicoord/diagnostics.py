"""Optimality diagnostics and trace auditing.

error_bound computes the gap function Delta(x) = max_{y in D} <f'(x), x - y>,
which is zero exactly at stationary points and serves as the stopping
quantity. check_stationarity reports the multiplier form of the optimality
conditions: with h_i = g_i / a_i and a single scalar lambda, h_i = lambda in
the interior, and at a bound h_i >= lambda where x_i cannot give balance
(a_i > 0 at the lower bound, a_i < 0 at the upper), h_i <= lambda where it
cannot take it.
audit_trace replays a recorded run against the solver's invariants.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
import numpy as np

from .geometry import check_feasibility, floor_zero, linear_gap
from .problem import ProblemInstance, Stage, StageProvider
from .solvers import LinesearchRule

__all__ = [
    "InfeasiblePointError",
    "error_bound",
    "StationarityReport",
    "check_stationarity",
    "TraceAudit",
    "audit_trace",
    "write_trace_csv",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("stage", "k", "i", "j", "gamma", "lambda", "mu",
                 "f_before", "f_after", "backtracks")


class InfeasiblePointError(ValueError):
    """Point handed to a diagnostic is not in the feasible set."""


def error_bound(p: ProblemInstance, x) -> float:
    """Gap Delta(x) = <f'(x), x> - min_{y in D} <f'(x), y>, floored at zero.

    Upper-bounds <f'(x), x - y> over every feasible y, so Delta(x) = 0 iff x
    is stationary. Raises on infeasible x (balance residual above 1e-8
    relative, or a bound passed by more than 1e-12) instead of silently
    projecting.
    """
    x = np.asarray(x, dtype=float)
    rep = check_feasibility(x, p, tol=1e-8, box_tol=1e-12)
    if not rep.feasible:
        raise InfeasiblePointError(
            f"balance residual {rep.balance_residual:.3e}, "
            f"box violation {rep.max_box_violation:.3e}")
    return linear_gap(p.objective.gradient(x), x, p)


@dataclass(frozen=True)
class StationarityReport:
    stationary: bool
    worst_violation: float
    multiplier_interval: tuple[float, float]
    statuses: tuple[str, ...]
    tol: float
    boundary_tol: float

    @property
    def multiplier(self) -> float | None:
        lo, hi = self.multiplier_interval
        if np.isfinite(lo) and np.isfinite(hi):
            return 0.5 * (lo + hi)
        if np.isfinite(lo):
            return lo
        if np.isfinite(hi):
            return hi
        return None


def check_stationarity(p: ProblemInstance, x, tol: float,
                       boundary_tol: float | None = None) -> StationarityReport:
    """Multiplier test for stationarity of x at tolerance tol.

    Coordinates within boundary_tol of a bound (default: tol itself) count as
    at that bound, which `statuses` names. worst_violation is the largest
    h_i - h_j over pairs where i can give balance and j can take it (a
    coordinate with a_i > 0 gives by decreasing, one with a_i < 0 by
    increasing); it is <= tol iff a multiplier interval satisfying the sign
    conditions up to tol exists, which is what `stationary` reports.
    multiplier_interval is (max of lower limits, min of upper limits); the
    two cross by at most tol at a stationary point.
    """
    if boundary_tol is None:
        boundary_tol = tol
    x = np.asarray(x, dtype=float)
    a = p.equality.a
    g = p.objective.gradient(x)
    h = g / a

    below, above = x - p.bounds.lower, p.bounds.upper - x
    at_lower = below <= boundary_tol
    at_upper = above <= boundary_tol
    statuses = tuple(np.where(at_lower & (~at_upper | (below <= above)), "at_lower",
                              np.where(at_upper, "at_upper", "interior")).tolist())

    # lower limits on lambda come from the coordinates free to give balance,
    # upper limits from those free to take it
    positive = a > 0.0
    can_give = np.where(positive, ~at_lower, ~at_upper)
    can_take = np.where(positive, ~at_upper, ~at_lower)
    lam_lo = float(np.max(h[can_give])) if can_give.any() else -np.inf
    lam_hi = float(np.min(h[can_take])) if can_take.any() else np.inf
    worst = floor_zero(lam_lo - lam_hi)
    return StationarityReport(
        stationary=worst <= tol,
        worst_violation=worst,
        multiplier_interval=(lam_lo, lam_hi),
        statuses=statuses,
        tol=float(tol),
        boundary_tol=float(boundary_tol),
    )


@dataclass(frozen=True)
class TraceAudit:
    passed: bool
    checked_events: int
    failures: tuple[str, ...]


def audit_trace(trace, cfg, stages: StageProvider | None = None,
                problem: ProblemInstance | None = None) -> TraceAudit:
    """Replay a recorded trace against the descent invariants.

    With a stage provider the pair thresholds are enforced per event:
    gamma_k >= epsilon_l, mu_k <= -delta_l. Without one (baseline traces)
    only the descent record, step reconstruction and iterate feasibility are
    checked. Events carrying point_after are checked for exact box
    containment and relative balance residual <= 1e-10.

    The descent record check f_after <= f_before + sigma * lambda * mu is the
    inequality the default linesearch enforces; traces produced under the
    gradient-difference rule are only checked for monotone descent.
    """
    events = list(trace)
    if not events:
        return TraceAudit(passed=True, checked_events=0, failures=())
    if stages is None and problem is None:
        raise ValueError("need a stage provider or a problem")
    failures: list[str] = []
    armijo = LinesearchRule(cfg.linesearch) == LinesearchRule.ARMIJO

    prev = None
    checked = 0
    for idx, e in enumerate(events):
        checked += 1
        where = f"event {idx} (stage {e.stage}, k {e.k})"
        st: Stage | None = stages.stage(e.stage) if stages is not None else None
        prob = st.problem if st is not None else problem

        pair_step = not (e.i == -1 and e.j == -1)
        if pair_step and e.i == e.j:
            failures.append(f"{where}: i == j")
        if not e.lam > 0.0:
            failures.append(f"{where}: nonpositive step length")
        if e.lam > e.gamma * (1.0 + 1e-12):
            failures.append(f"{where}: lambda exceeds gamma")
        expected = e.gamma * cfg.theta ** e.backtracks
        if abs(e.lam - expected) > 1e-12 * max(1.0, abs(expected)):
            failures.append(f"{where}: lambda is not theta^m * gamma")
        if not e.mu < 0.0:
            failures.append(f"{where}: nonnegative directional derivative")
        if st is not None and pair_step:
            if e.gamma < st.epsilon - 1e-12:
                failures.append(f"{where}: gamma below stage epsilon")
            if e.mu > -st.delta + 1e-12:
                failures.append(f"{where}: mu above -delta")
        slack = 1e-12 * max(1.0, abs(e.f_before))
        if armijo:
            if e.f_after > e.f_before + cfg.sigma * e.lam * e.mu + slack:
                failures.append(f"{where}: descent record violated")
        elif e.f_after > e.f_before + slack:
            failures.append(f"{where}: objective did not decrease")
        if prev is not None:
            if e.k <= prev.k:
                failures.append(f"{where}: step counter not increasing")
            if e.stage < prev.stage:
                failures.append(f"{where}: stage index decreased")
            if e.stage == prev.stage:
                drift = abs(e.f_before - prev.f_after)
                if drift > 1e-9 * max(1.0, abs(prev.f_after)):
                    failures.append(f"{where}: f_before disagrees with last f_after")
        if e.point_after is not None and prob is not None:
            rep = check_feasibility(e.point_after, prob, tol=1e-10)
            if not rep.feasible:
                failures.append(
                    f"{where}: iterate infeasible (balance {rep.balance_residual:.3e}, "
                    f"box {rep.max_box_violation:.3e})")
        prev = e

    return TraceAudit(passed=not failures, checked_events=checked,
                      failures=tuple(failures))


def write_trace_csv(trace, path) -> None:
    """Write a trace in the fixed column order. point_after is not exported."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for e in trace:
            w.writerow([e.stage, e.k, e.i, e.j, repr(e.gamma), repr(e.lam),
                        repr(e.mu), repr(e.f_before), repr(e.f_after),
                        e.backtracks])
