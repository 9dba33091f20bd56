"""Problem documents: JSON round trip for shipped objective kinds.

Document layout:
    {"n": int, "a": [...], "beta": float, "lower": [...], "upper": [...],
     "objective": {"kind": str, "params": {...}}}

Generic kinds (quadratic, quadratic_log, quadratic_log_l1, portfolio) take
the feasible set from the document and the objective from params. Builder
kinds (svm_dual, market) reconstruct the whole instance from params and
require the document's feasible set to match the rebuilt one.

This module alone knows the layout: to_document reads the kind and params
from the objective and the feasible set when a document is written, and
objectives and builders store nothing for it.
"""

from __future__ import annotations

from functools import partial
import json
import operator

import numpy as np

from .applications import (QUOTE_FIELDS, PortfolioData, SvmDataset,
                           _MarketPotential, build_market, build_svm_dual,
                           market_from_document)
from .objectives import PortfolioObjective, QuadraticObjective, SvmDualObjective
from .problem import BoxBounds, LinearEquality, ProblemError, ProblemInstance, build_problem

__all__ = ["to_document", "from_document", "save_problem", "load_problem",
           "OBJECTIVE_KINDS"]

# QuadraticObjective's arguments by kind, in order
_QUADRATIC_PARAMS = {"quadratic": ("matrix",),
                     "quadratic_log": ("matrix", "c", "xi"),
                     "quadratic_log_l1": ("matrix", "c", "xi", "tau")}
# the params each kind must carry
_REQUIRED_PARAMS = {**_QUADRATIC_PARAMS,
                    "svm_dual": ("features", "labels", "tau", "p"),
                    "portfolio": ("covariance", "means", "target", "tau", "p"),
                    "market": ("traders", "buyers")}
OBJECTIVE_KINDS = tuple(_REQUIRED_PARAMS)
# the JSON type of each param that holds a number or an array of numbers
_PARAM_TYPES = {**dict.fromkeys(("xi", "tau", "p", "target", "smooth_eps",
                                 "upper_cap", "b"), (int, float)),
                **dict.fromkeys(("matrix", "c", "features", "labels",
                                 "covariance", "means"), list)}


def to_document(p: ProblemInstance) -> dict:
    return {
        "n": p.n,
        "a": p.equality.a.tolist(),
        "beta": p.equality.beta,
        "lower": p.bounds.lower.tolist(),
        "upper": p.bounds.upper.tolist(),
        "objective": _objective_document(p),
    }


def _objective_document(p: ProblemInstance) -> dict:
    """{"kind": ..., "params": ...} of p's objective. The penalty kinds
    write smooth_eps only at p = 1, where it is read."""
    obj = p.objective
    if isinstance(obj, QuadraticObjective):
        params = {"matrix": obj.P.tolist()}
        if obj.c is None:
            return {"kind": "quadratic", "params": params}
        params.update(c=obj.c.tolist(), xi=obj.xi)
        if obj.smoothing is None:
            return {"kind": "quadratic_log", "params": params}
        return {"kind": "quadratic_log_l1",
                "params": {**params, "tau": obj.smoothing}}
    if isinstance(obj, _MarketPotential):
        m = obj.model
        return {"kind": "market", "params": {
            side: [dict(zip(QUOTE_FIELDS, r)) for r in getattr(m, side).tolist()]
            for side in ("traders", "buyers")} | {"b": m.b}}
    if isinstance(obj, PortfolioObjective):
        kind = "portfolio"
        params = {"covariance": obj.C.tolist(), "means": obj.means.tolist(),
                  "target": obj.target}
    elif isinstance(obj, SvmDualObjective) and _svm_dual_layout(p):
        # the labels are +-1, so they undo the row signs of A exactly
        kind, labels = "svm_dual", p.equality.a
        params = {"features": (labels[:, None] * obj.A).tolist(),
                  "labels": labels.tolist()}
    else:
        raise ProblemError(
            "objective carries no serialization spec; only shipped kinds "
            f"{OBJECTIVE_KINDS} can be saved")
    params.update(tau=obj.tau, p=obj.p)
    if obj.p == 1:
        params["smooth_eps"] = obj.smoothing
    if kind == "svm_dual":
        params["upper_cap"] = float(p.bounds.upper[0])
    return {"kind": kind, "params": params}


def _svm_dual_layout(p: ProblemInstance) -> bool:
    """Whether p has the feasible set build_svm_dual gives: +-1 labels as
    the equality's coefficients, beta 0, and the box [0, cap] with one
    positive cap."""
    lower, upper = p.bounds.lower, p.bounds.upper
    return bool(np.isin(p.equality.a, (-1.0, 1.0)).all()
                and p.equality.beta == 0.0 and (lower == 0.0).all()
                and upper[0] > 0.0 and (upper == upper[0]).all())


def _generic_objective(kind: str, params: dict):
    if kind in _QUADRATIC_PARAMS:
        return QuadraticObjective(*(params[k] for k in _QUADRATIC_PARAMS[kind]))
    data = PortfolioData(params["covariance"], params["means"], params["target"])
    return PortfolioObjective(data.covariance, data.means, data.target,
                              params["tau"], params["p"], params.get("smooth_eps"))


_FLOATS = partial(np.asarray, dtype=float)


def _numeric(doc: dict, name: str, convert, what: str = "numeric"):
    """convert(doc[name]); a value it rejects is a ProblemError that names
    the field."""
    value = doc[name]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"problem document field {name!r} is not {what}: "
                           f"{value!r:.60}") from exc


def from_document(doc: dict) -> ProblemInstance:
    try:
        kind = doc["objective"]["kind"]
        params = doc["objective"]["params"]
        n = _numeric(doc, "n", operator.index, "an integer")
        a = _numeric(doc, "a", _FLOATS)
        beta = _numeric(doc, "beta", float)
        lower = _numeric(doc, "lower", _FLOATS)
        upper = _numeric(doc, "upper", _FLOATS)
    except (KeyError, TypeError) as exc:
        raise ProblemError(f"malformed problem document: {exc}") from exc
    if a.shape != (n,) or lower.shape != (n,) or upper.shape != (n,):
        raise ProblemError("document arrays disagree with n")
    if kind not in OBJECTIVE_KINDS:
        raise ProblemError(f"unknown objective kind {kind!r}")
    if not isinstance(params, dict):
        raise ProblemError(f"{kind!r} objective params must be an object")
    missing = [k for k in _REQUIRED_PARAMS[kind] if k not in params]
    if missing:
        raise ProblemError(f"{kind!r} objective params lack "
                           + ", ".join(repr(k) for k in missing))
    for k, v in params.items():
        if not isinstance(v, _PARAM_TYPES.get(k, object)):
            raise ProblemError(f"{kind!r} objective param {k!r} has the "
                               f"wrong type: {v!r:.60}")

    if kind in _QUADRATIC_PARAMS or kind == "portfolio":
        return build_problem(BoxBounds(lower, upper), LinearEquality(a, beta),
                             _generic_objective(kind, params))
    if kind == "svm_dual":
        data = SvmDataset(params["features"], params["labels"])
        rebuilt = build_svm_dual(data, tau=params["tau"], p=params["p"],
                                 smooth_eps=params.get("smooth_eps", 1e-4),
                                 upper_cap=params.get("upper_cap", 1e3))
    else:
        rebuilt, _ = build_market(market_from_document(params))

    same = (rebuilt.n == n
            and np.allclose(rebuilt.equality.a, a, atol=1e-9)
            and abs(rebuilt.equality.beta - beta) <= 1e-9 * max(1.0, abs(beta))
            and np.allclose(rebuilt.bounds.lower, lower, atol=1e-9)
            and np.allclose(rebuilt.bounds.upper, upper, atol=1e-9))
    if not same:
        raise ProblemError(
            f"document feasible set disagrees with the one {kind!r} builds")
    return rebuilt


def save_problem(p: ProblemInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_document(p), fh, indent=2)
        fh.write("\n")


def load_problem(path) -> ProblemInstance:
    with open(path) as fh:
        return from_document(json.load(fh))
