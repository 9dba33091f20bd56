"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest perfbench -q

The knapsack is compared with scipy's LP solver (skipped when scipy is
missing), the gradients with central differences of the values.
"""

import numpy as np
import pytest

import checker
from tracer import SpanTable, Tracer


def random_knapsack(rng, n):
    a = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
    lower = rng.uniform(-2.0, 1.0, n)
    upper = lower + rng.uniform(0.1, 3.0, n)
    lo_bal = np.minimum(a * lower, a * upper).sum()
    hi_bal = np.maximum(a * lower, a * upper).sum()
    beta = lo_bal + rng.uniform(0.0, 1.0) * (hi_bal - lo_bal)
    return rng.normal(size=n), a, lower, upper, float(beta)


@pytest.mark.parametrize("seed", range(40))
def test_knapsack_matches_linprog(seed):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(seed)
    c, a, lower, upper, beta = random_knapsack(rng, int(rng.integers(2, 12)))
    y, value = checker.knapsack_min(c, a, lower, upper, beta)
    ref = linprog(c, A_eq=a[None, :], b_eq=[beta], bounds=list(zip(lower, upper)),
                  method="highs")
    assert ref.status == 0
    assert value == pytest.approx(ref.fun, abs=1e-9 * (1.0 + abs(ref.fun)))
    assert checker.in_box(y, lower, upper)
    assert abs(a @ y - beta) <= 1e-12 * (1.0 + np.abs(a * y).sum())


def test_knapsack_at_the_ends_of_the_balance_range():
    lower, upper, a = np.zeros(4), np.ones(4), np.array([1.0, 2.0, -1.0, 3.0])
    c = np.array([0.5, -1.0, 2.0, 0.0])
    for beta, expected in ((-1.0, [0.0, 0.0, 1.0, 0.0]), (6.0, [1.0, 1.0, 0.0, 1.0])):
        y, value = checker.knapsack_min(c, a, lower, upper, beta)
        np.testing.assert_allclose(y, expected)
        assert value == pytest.approx(c @ np.array(expected))
    with pytest.raises(ValueError):
        checker.knapsack_min(c, a, lower, upper, 6.5)


def test_gap_is_zero_at_the_linear_minimizer_and_positive_elsewhere():
    rng = np.random.default_rng(7)
    c, a, lower, upper, beta = random_knapsack(rng, 9)
    y, _ = checker.knapsack_min(c, a, lower, upper, beta)
    assert checker.gap(c, y, a, lower, upper, beta) == pytest.approx(0.0, abs=1e-12)
    y2, _ = checker.knapsack_min(-c, a, lower, upper, beta)
    assert checker.gap(c, y2, a, lower, upper, beta) > 0.0


def central_difference(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("series,tau", [(1, None), (2, None), (3, 0.3)])
def test_family_gradient_matches_differences(series, tau):
    fam = checker.Family(series, 9, 4.0, tau)
    x = np.random.default_rng(series).uniform(fam.lower, fam.upper)
    _, g = fam.value_and_gradient(x)
    fd = central_difference(lambda z: fam.value_and_gradient(z)[0], x)
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)


def test_family_matrix_is_symmetric_dominant_and_blockwise_consistent(monkeypatch):
    n = 23
    P = checker.family_matrix_rows(n, 0, n)
    np.testing.assert_array_equal(P, P.T)
    off = np.abs(P).sum(axis=1) - np.diag(P)
    np.testing.assert_allclose(np.diag(P), off + 1.0)
    assert P[1, 4] == pytest.approx(np.sin(2.0) * np.cos(5.0))
    x = np.random.default_rng(0).normal(size=n)
    monkeypatch.setattr(checker, "ROW_BLOCK", 5)
    np.testing.assert_allclose(checker.family_matvec(n, x), P @ x, rtol=1e-14)


def test_family_box_and_start():
    lower, upper = checker.family_box(5, 2.0)
    np.testing.assert_array_equal(lower, np.zeros(5))
    np.testing.assert_allclose(upper, 1.0 + 0.4 + 0.5 * np.sin(np.arange(1, 6)))


def test_market_potential_and_prices():
    traders = np.array([[1.0, 0.5, 2.0], [1.5, 1.0, 1.0]])
    buyers = np.array([[3.0, -1.0, 1.5], [2.0, -0.5, 2.0], [2.5, -2.0, 1.0]])
    mk = checker.Market(traders, buyers, 0.0)
    u = np.array([1.0, 0.5, -0.7, -0.3, -0.5])
    f, g = mk.value_and_gradient(u)
    x, y = np.array([1.0, 0.5]), np.array([0.7, 0.3, 0.5])
    expected = (sum(p * t + q * t * t / 2 for (p, q, _), t in zip(traders, x))
                - sum(p * t + q * t * t / 2 for (p, q, _), t in zip(buyers, y)))
    assert f == pytest.approx(expected)
    # every partial is that agent's own price p + q t
    np.testing.assert_allclose(g, [1.5, 2.0, 3.0 - 0.7, 2.0 - 0.15, 2.5 - 1.0])
    fd = central_difference(lambda z: mk.value_and_gradient(z)[0], u)
    np.testing.assert_allclose(g, fd, rtol=1e-6)
    np.testing.assert_array_equal(mk.lower, [0.0, 0.0, -1.5, -2.0, -1.0])
    np.testing.assert_array_equal(mk.upper, [2.0, 1.0, 0.0, 0.0, 0.0])


def test_feasibility_helpers():
    lower, upper = np.zeros(3), np.ones(3)
    assert checker.in_box(np.array([0.0, 1.0, 0.5]), lower, upper)
    assert not checker.in_box(np.array([0.0, np.nextafter(1.0, 2.0), 0.5]), lower, upper)
    x = np.array([0.1] * 10)
    assert checker.balance_error(x, np.ones(10), 1.0) == 0.0  # exact sum, not 0.9999999999999999
    assert checker.balance_error(x, np.ones(10), 3.0) == pytest.approx(2.0 / 3.0)


class Toy:
    def outer(self, k):
        return self.inner(k) + self.inner(k)

    def inner(self, k):
        return k


def test_tracer_records_parents_self_times_and_restores():
    tr = Tracer()
    original = Toy.__dict__["inner"]
    with tr.patched([(Toy, "outer", "toy.outer", None),
                     (Toy, "inner", "toy.inner", lambda args: 8.0)]):
        with tr.span("round"):
            assert Toy().outer(3) == 6
    assert Toy.__dict__["inner"] is original
    t = SpanTable.from_tracer(tr)
    assert tr.names == ["toy.outer", "toy.inner", "round"]
    # spans in start order: round, outer, inner, inner
    np.testing.assert_array_equal(t.parent, [-1, 0, 1, 1])
    np.testing.assert_array_equal(t.root, [0, 0, 0, 0])
    np.testing.assert_array_equal(t.weight, [0.0, 0.0, 8.0, 8.0])
    assert t.self_time.sum() == pytest.approx(t.duration[0])
    assert t.self_time[1] == pytest.approx(t.duration[1] - t.duration[2:].sum())
    assert t.of("toy.inner").sum() == 2 and not t.of("missing").any()
