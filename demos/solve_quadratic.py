"""Three solvers on the deterministic quadratic family.

Runs the selective pair method against the conditional-gradient and
zero-threshold baselines on the n=10, beta=5 instance, from the common
start (beta/n) e, and prints where each one stops.
"""

import numpy as np

from bicoord import (METHODS, SolverConfig, check_stationarity, gen_quadratic,
                     protocol_start, solve)

p = gen_quadratic(10, 5.0)
z0 = protocol_start(p)
cfg = SolverConfig(target_accuracy=0.1, max_inner_iterations=500)

for name in METHODS:
    res = solve(p, name, cfg, z0=z0)
    print(f"{name}: {res.inner_iterations_total:3d} iterations, "
          f"gap {res.error_bound:.4f}, f = {res.objective_value:.6f} "
          f"({res.stop_reason})")

res = solve(p, "bcv", SolverConfig(target_accuracy=1e-6,
                                   max_inner_iterations=50_000), z0=z0)
g = p.objective.gradient(res.point)
rep = check_stationarity(p, res.point, tol=1e-4)
lo, hi = rep.multiplier_interval
print(f"\ntight solve: {res.inner_iterations_total} iterations, "
      f"gap {res.error_bound:.2e}")
print("point:", np.round(res.point, 5))
print(f"multiplier interval [{lo:.6f}, {hi:.6f}], "
      f"worst violation {rep.worst_violation:.2e}")
