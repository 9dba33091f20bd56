"""Scalar smoothing surrogates for |t| and max(t, 0).

Each function accepts floats or numpy arrays and returns (value, derivative)
of the same shape. eps must be positive.
"""

from __future__ import annotations

import numpy as np

__all__ = ["smooth_abs_sqrt", "smooth_plus"]


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps > 0.0:
        raise ValueError(f"smoothing parameter must be positive, got {eps}")
    return eps


def smooth_abs_sqrt(t, eps: float):
    """sqrt(t^2 + eps) surrogate for |t|.

    Overshoots |t| by at most sqrt(eps): 0 <= value - |t| <= sqrt(eps).
    Derivative t / sqrt(t^2 + eps) lies strictly inside (-1, 1).
    """
    eps = _check_eps(eps)
    t = np.asarray(t, dtype=float)
    root = np.sqrt(t * t + eps)
    val, der = root, t / root
    if val.ndim == 0:
        return float(val), float(der)
    return val, der


def smooth_plus(t, eps: float):
    """(t + sqrt(t^2 + eps)) / 2 surrogate for max(t, 0).

    Dominates max(t, 0), overshoots by at most sqrt(eps) / 2, and has
    derivative strictly inside (0, 1), so compositions stay differentiable.
    """
    eps = _check_eps(eps)
    t = np.asarray(t, dtype=float)
    root = np.sqrt(t * t + eps)
    val = 0.5 * (t + root)
    der = 0.5 * (1.0 + t / root)
    if val.ndim == 0:
        return float(val), float(der)
    return val, der
