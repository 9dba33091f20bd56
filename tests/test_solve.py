"""The one solve entry point, and the solver names a traced run wraps.

solve(problem, method) runs bcv_solve, cgm_solve or mbc_solve, looked up in
bicoord.solvers at each call, and the pair methods select every pair
through select_pair; perfbench's tracer wraps those names there, so a
solve that bypassed them would leave its spans empty. Every method also
works on the stage problem's feasible set, which a stage provider may
change from the solved instance's.
"""

from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    METHODS,
    GeometricSchedule,
    SolverConfig,
    StageProvider,
    audit_trace,
    check_feasibility,
    gen_nonsmooth_l1,
    gen_quadratic,
    run_cell_detailed,
    solve,
)
from bicoord import solvers


def test_solve_names_the_choices_for_an_unknown_method():
    with pytest.raises(ValueError, match="'foo'.*bcv, cgm, mbc"):
        solve(gen_quadratic(10, 5.0), "foo")


def test_solve_refuses_a_stage_provider_for_mbc():
    p = gen_quadratic(10, 5.0)
    with pytest.raises(ValueError, match="mbc"):
        solve(p, "mbc", stages=GeometricSchedule(p, 0.1))


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls that reach each name the tracer wraps in
    bicoord.solvers."""
    counts = Counter()
    for name in ("bcv_solve", "cgm_solve", "mbc_solve", "select_pair"):
        def wrapper(*args, _name=name, _inner=getattr(solvers, name), **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(solvers, name, wrapper)
    return counts


@pytest.mark.parametrize("method", METHODS)
def test_solve_and_the_grid_reach_the_wrapped_names(calls, method):
    for run in (lambda: run_cell_detailed(1, 5.0, 10, method).result,
                lambda: solve(gen_quadratic(10, 5.0), method)):
        calls.clear()
        res = run()
        assert res.inner_iterations_total > 0
        assert calls[f"{method}_solve"] == 1
        assert sum(calls[f"{m}_solve"] for m in METHODS) == 1
        if method == "cgm":
            assert calls["select_pair"] == 0
        else:
            # a selection opens the solve and follows every step
            assert calls["select_pair"] >= res.inner_iterations_total + 1


class SwitchingSchedule(StageProvider):
    """GeometricSchedule's stages of `first` below stage `at`, and of `then`,
    whose feasible set differs, from stage `at` on."""

    def __init__(self, first, then, at, accuracy):
        self.at = at
        self.first = GeometricSchedule(first, accuracy)
        self.then = GeometricSchedule(then, accuracy)

    def stage(self, l):
        return (self.first if l < self.at else self.then).stage(l)


@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize("method", ["bcv", "cgm"])
def test_every_iterate_lies_in_its_stage_feasible_set(method, at):
    # the solved instance balances to 5, the stages from `at` on to 10
    p = gen_nonsmooth_l1(10, 5.0)
    then = gen_nonsmooth_l1(10, 10.0)
    stages = SwitchingSchedule(p, then, at, 0.1)
    cfg = SolverConfig(record_points=True)
    res = solve(p, method, cfg, stages)
    assert res.stages_completed > at
    assert any(e.stage >= at for e in res.trace)
    assert audit_trace(res.trace, cfg, stages=stages).passed
    assert check_feasibility(res.point, then).feasible
    assert_allclose(res.point.sum(), 10.0, rtol=1e-12)
