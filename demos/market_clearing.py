"""Clearing a one-commodity market through potential minimization.

Each trader sells along a nondecreasing affine price curve, each buyer
buys along a nonincreasing one, and net supply is pinned at b. Minimizing
the integrated potential over the allocation box yields quantities whose
marginal prices meet at a single clearing price.
"""

import numpy as np

from bicoord import (MarketModel, SolverConfig, bcv_solve, build_market,
                     protocol_start, split_market_point,
                     verify_market_equilibrium)

# one row (p, q, cap) per agent: price p + q t for a quantity t in [0, cap]
model = MarketModel(
    traders=[(1.0, 1.0, 4.0),     # asks 1 + t
             (2.5, 0.5, 3.0)],    # asks 2.5 + t/2
    buyers=[(6.0, -1.0, 5.0),     # bids 6 - s
            (3.0, -0.5, 2.0)],    # bids 3 - s/2
    b=0.0,
)

inst, sign_map = build_market(model)
cfg = SolverConfig(target_accuracy=1e-5, max_inner_iterations=50_000)
res = bcv_solve(inst, cfg, z0=protocol_start(inst))
x, y = split_market_point(model, res.point, sign_map)

print(f"solve: {res.inner_iterations_total} iterations, "
      f"gap {res.error_bound:.2e}")
print("trader quantities:", np.round(x, 4))
print("buyer quantities: ", np.round(y, 4))
# each agent's price at its own quantity is its scaled partial g_i / a_i
prices = inst.objective.gradient(res.point) / inst.equality.a
for k, price in enumerate(prices[:len(x)]):
    print(f"  trader {k} asks {price:.4f} at its quantity")
for k, price in enumerate(prices[len(x):]):
    print(f"  buyer  {k} bids {price:.4f} at its quantity")

rep = verify_market_equilibrium(model, x, y, tol=1e-2)
print(f"\nequilibrium: {rep.equilibrium}, clearing price {rep.price:.4f}, "
      f"violation {rep.max_violation:.2e}, "
      f"balance residual {rep.balance_residual:.2e}")

# The second buyer bids at most 3.0, below the clearing price, so it is
# priced out and gets nothing.
assert y[1] < 1e-3
