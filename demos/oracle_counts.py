"""Oracle work per linesearch rule.

Wraps the objective in a call counter and solves the same instance with
both backtracking rules under max-violation pair selection. The Armijo rule
backtracks on function values; the gradient-difference rule prices steps
from two partial derivatives instead.

The counter sees only part of a real solve's work. Its counts stop after
stage 0, since each later stage of a smoothed objective gets a fresh
counter (this demo's quadratic has no smoothing, so it runs one objective
throughout). And the wrapper hides the cached pair state of the quadratic
family (and of a separable quadratic such as the market's), so every Armijo
trial here is a full value call: the 508 value calls of the Armijo row are
work an unwrapped solve never does, as it prices each trial in O(1) from
the cached P x.
"""

from bicoord import (CountingObjective, LinesearchRule, ProblemInstance,
                     SolverConfig, bcv_solve, gen_quadratic, protocol_start)

base = gen_quadratic(50, 10.0)

print(f"{'linesearch':<20} {'iters':>5} {'values':>7} {'grads':>6} {'partials':>8}")
for rule in LinesearchRule:
    counter = CountingObjective(base.objective)
    p = ProblemInstance(bounds=base.bounds, equality=base.equality,
                        objective=counter)
    cfg = SolverConfig(target_accuracy=0.1, max_inner_iterations=2000,
                       linesearch=rule)
    res = bcv_solve(p, cfg, z0=protocol_start(p))
    assert res.converged, res.stop_reason
    print(f"{rule.value:<20} {res.inner_iterations_total:>5} "
          f"{counter.value_calls:>7} {counter.gradient_calls:>6} "
          f"{counter.partial_calls:>8}")
