"""Linesearch work per backtracking rule.

Solves the same instance with both backtracking rules and prints the
accepted steps and the linesearch trials, read from the solve's own trace:
a step with m backtracks evaluated m + 1 trials. The Armijo rule prices a
trial on the quadratic family's pair state in O(1) from the cached P x; the
gradient-difference rule prices it from two partial derivatives, one row
product each.
"""

from bicoord import (LinesearchRule, SolverConfig, bcv_solve, gen_quadratic,
                     protocol_start)

p = gen_quadratic(50, 10.0)

print(f"{'linesearch':<20} {'iters':>5} {'trials':>7} {'per step':>8}")
for rule in LinesearchRule:
    cfg = SolverConfig(target_accuracy=0.1, max_inner_iterations=2000,
                       linesearch=rule)
    res = bcv_solve(p, cfg, z0=protocol_start(p))
    assert res.converged, res.stop_reason
    trials = sum(e.backtracks + 1 for e in res.trace)
    print(f"{rule.value:<20} {res.inner_iterations_total:>5} {trials:>7} "
          f"{trials / res.inner_iterations_total:>8.2f}")
