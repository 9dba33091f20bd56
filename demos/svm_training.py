"""Linear classifier trained through the penalized dual.

Two Gaussian clouds in the plane, labels +1/-1. The dual weights live in
a box with one balance constraint, so the pair solver applies directly;
the primal weights come back as features^T (labels * y).
"""

import numpy as np

from bicoord import (SolverConfig, SvmDataset, bcv_solve, build_svm_dual,
                     protocol_start, svm_cap_binding, svm_primal)

rng = np.random.default_rng(11)
n_per = 40
pos = rng.normal([2.0, 2.0], 0.8, size=(n_per, 2))
neg = rng.normal([-2.0, -2.0], 0.8, size=(n_per, 2))
features = np.vstack([pos, neg])
labels = np.concatenate([np.ones(n_per), -np.ones(n_per)])
data = SvmDataset(features=features, labels=labels)

inst = build_svm_dual(data, tau=10.0, upper_cap=1e3)
cfg = SolverConfig(target_accuracy=1e-3, max_inner_iterations=50_000)
res = bcv_solve(inst, cfg, z0=protocol_start(inst))
print(f"dual solve: {res.inner_iterations_total} iterations, "
      f"gap {res.error_bound:.2e} ({res.stop_reason})")

w, bias, n_support = svm_primal(data, res.point)
pred = np.sign(features @ w + bias)
acc = float(np.mean(pred == labels))
print(f"weights {np.round(w, 4)}, bias {bias:.4f}, "
      f"{n_support} active dual weights")
print(f"training accuracy: {acc:.3f}")

binding = svm_cap_binding(res.point, 1e3)
print("dual weights at the cap:", binding if binding.size else "none")
