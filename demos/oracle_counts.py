"""Linesearch work per backtracking rule.

Solves the same instance with both backtracking rules and prints the
accepted steps, the backtracks (each accepted trial's index, summed over
the trace) and the linesearch trials evaluated, counted at the oracle. The
gradient-difference rule evaluates every trial, m + 1 for a step with m
backtracks, each from two partial derivatives, one row product each. The
Armijo rule prices a trial on the quadratic family's pair state in O(1)
from the cached P x, and starts at the first trial that the state's
quadratic lower model cannot reject, so it evaluates about one per step.
"""

from bicoord import (LinesearchRule, SolverConfig, bcv_solve, gen_quadratic,
                     objectives, protocol_start)

p = gen_quadratic(50, 10.0)
calls = []


def counted(method):
    def count(self, *args):
        calls.append(1)
        return method(self, *args)
    return count


# an Armijo trial is one call of the pair state's trial, a
# gradient-difference trial two partials
objectives._QuadraticPairState.trial = counted(
    objectives._QuadraticPairState.trial)
objectives.QuadraticObjective.partial = counted(
    objectives.QuadraticObjective.partial)

print(f"{'linesearch':<20} {'iters':>5} {'backtracks':>10} {'trials':>7} "
      f"{'per step':>8}")
for rule, calls_per_trial in ((LinesearchRule.ARMIJO, 1),
                              (LinesearchRule.GRADIENT_DIFFERENCE, 2)):
    cfg = SolverConfig(target_accuracy=0.1, max_inner_iterations=2000,
                       linesearch=rule)
    calls.clear()
    res = bcv_solve(p, cfg, z0=protocol_start(p))
    assert res.converged, res.stop_reason
    trials = len(calls) // calls_per_trial
    backtracks = sum(e.backtracks for e in res.trace)
    print(f"{rule.value:<20} {res.inner_iterations_total:>5} {backtracks:>10} "
          f"{trials:>7} {trials / res.inner_iterations_total:>8.2f}")
