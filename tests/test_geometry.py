import itertools

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    BoxBounds,
    LinearEquality,
    LinearObjective,
    MarketModel,
    build_market,
    build_problem,
    check_feasibility,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    minimize_linear,
    project,
    protocol_start,
)
from bicoord import geometry
from bicoord.geometry import _balance, floor_zero, linear_gap


def make_instance(a, lower, upper, beta):
    return build_problem(
        BoxBounds(np.asarray(lower, float), np.asarray(upper, float)),
        LinearEquality(np.asarray(a, float), float(beta)),
        LinearObjective(np.zeros(len(a))),
    )


def random_instance(rng, n=None, signed=False):
    n = n or int(rng.integers(2, 7))
    mag = rng.uniform(0.3, 3.0, size=n)
    a = mag * rng.choice([-1.0, 1.0], size=n) if signed else mag
    lower = rng.uniform(-2.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 3.0, size=n)
    lo_sum = float(np.sum(np.minimum(a * lower, a * upper)))
    hi_sum = float(np.sum(np.maximum(a * lower, a * upper)))
    slack = 1e-3 * (hi_sum - lo_sum)
    beta = rng.uniform(lo_sum + slack, hi_sum - slack)
    return make_instance(a, lower, upper, beta)


def project_bisect(z, p, iters=200):
    # reference oracle: bisection on the multiplier of the balance equation
    a = p.equality.a
    lo, hi = p.bounds.lower, p.bounds.upper

    def balance(lam):
        return float(a @ np.clip(z + lam * a, lo, hi))

    lam_lo, lam_hi = -1.0, 1.0
    while balance(lam_lo) > p.equality.beta:
        lam_lo *= 2.0
    while balance(lam_hi) < p.equality.beta:
        lam_hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lam_lo + lam_hi)
        if balance(mid) < p.equality.beta:
            lam_lo = mid
        else:
            lam_hi = mid
    return np.clip(z + 0.5 * (lam_lo + lam_hi) * a, lo, hi)


def enumerate_linear(c, p):
    # every vertex of box-cap-hyperplane has at most one coordinate off
    # its bounds; scan all patterns and keep the best feasible value
    a = p.equality.a
    lo, hi = p.bounds.lower, p.bounds.upper
    n = p.n
    best = np.inf
    for free in range(n):
        others = [k for k in range(n) if k != free]
        for bits in itertools.product((0, 1), repeat=n - 1):
            x = np.empty(n)
            for k, bit in zip(others, bits):
                x[k] = hi[k] if bit else lo[k]
            x[free] = (p.equality.beta - a[others] @ x[others]) / a[free]
            if lo[free] - 1e-9 <= x[free] <= hi[free] + 1e-9:
                x[free] = min(max(x[free], lo[free]), hi[free])
                best = min(best, float(c @ x))
    return best


def test_project_fixed_point_for_feasible_input():
    p = make_instance([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    z = np.array([0.25, 0.75])
    assert_allclose(project(z, p), z, atol=1e-12)


def test_project_symmetric_midpoint():
    p = make_instance([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    assert_allclose(project(np.array([1.0, 1.0]), p), [0.5, 0.5], atol=1e-12)


def test_project_clamps_to_vertex():
    p = make_instance([1.0] * 3, [0.0] * 3, [1.0] * 3, 1.0)
    assert_allclose(project(np.array([2.0, 0.0, 0.0]), p), [1.0, 0.0, 0.0],
                    atol=1e-12)


@pytest.mark.parametrize("signed", [False, True])
def test_project_matches_bisection_oracle(signed):
    rng = np.random.default_rng(17 if signed else 19)
    for _ in range(60):
        p = random_instance(rng, signed=signed)
        z = rng.uniform(p.bounds.lower - 2.0, p.bounds.upper + 2.0)
        x = project(z, p)
        ref = project_bisect(z, p)
        assert_allclose(x, ref, atol=1e-8)
        rep = check_feasibility(x, p)
        assert rep.feasible


def test_project_matches_slsqp_on_signed_instances():
    # an independent solve of min 0.5 |x - z|^2 over the box and the equality
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = random_instance(rng, signed=True)
        a, beta = p.equality.a, p.equality.beta
        lower, upper = p.bounds.lower, p.bounds.upper
        z = rng.uniform(lower - 2.0, upper + 2.0)
        ref = optimize.minimize(
            lambda v: 0.5 * float((v - z) @ (v - z)), np.clip(z, lower, upper),
            jac=lambda v: v - z, method="SLSQP", bounds=list(zip(lower, upper)),
            constraints=[{"type": "eq", "fun": lambda v: a @ v - beta,
                          "jac": lambda v: a}],
            options={"ftol": 1e-12, "maxiter": 500})
        assert ref.success, ref.message
        x = project(z, p)
        assert_allclose(x, ref.x, atol=1e-7)
        assert np.linalg.norm(x - z) <= np.linalg.norm(ref.x - z) + 1e-9


@pytest.mark.parametrize("signed", [False, True])
def test_buffered_balance_equals_fresh_clip(signed):
    # the instances of test_project_matches_bisection_oracle
    rng = np.random.default_rng(17 if signed else 19)
    for _ in range(60):
        p = random_instance(rng, signed=signed)
        z = rng.uniform(p.bounds.lower - 2.0, p.bounds.upper + 2.0)
        a, lower, upper = p.equality.a, p.bounds.lower, p.bounds.upper
        buf = np.full(p.n, np.nan)
        bps = np.concatenate([(lower - z) / a, (upper - z) / a])
        for lam in [*bps, *rng.uniform(-5.0, 5.0, 5), 0.0]:
            ref = np.clip(z + lam * a, lower, upper)
            assert _balance(lam, z, a, lower, upper, buf) == float(a @ ref)
            assert buf.tobytes() == ref.tobytes()


def test_project_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_instance(rng)
        z = rng.uniform(p.bounds.lower - 1.0, p.bounds.upper + 1.0)
        x = project(z, p)
        assert_allclose(project(x, p), x, atol=1e-10)


def test_project_is_best_approximation():
    rng = np.random.default_rng(29)
    for _ in range(15):
        p = random_instance(rng)
        z = rng.uniform(p.bounds.lower - 1.5, p.bounds.upper + 1.5)
        x = project(z, p)
        d_star = np.linalg.norm(x - z)
        for _ in range(200):
            y = project(rng.uniform(p.bounds.lower, p.bounds.upper), p)
            assert d_star <= np.linalg.norm(y - z) + 1e-10


def test_balance_map_monotone_in_multiplier():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_instance(rng, signed=True)
        z = rng.uniform(p.bounds.lower - 1.0, p.bounds.upper + 1.0)
        a = p.equality.a
        lams = np.sort(rng.uniform(-5, 5, size=60))
        vals = [a @ np.clip(z + lam * a, p.bounds.lower, p.bounds.upper)
                for lam in lams]
        assert np.all(np.diff(vals) >= -1e-12)


def test_minimize_linear_constant_ratio():
    p = make_instance([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    point, value = minimize_linear(p.equality.a, p)
    assert_allclose(value, 1.0, atol=1e-12)
    # ties broken toward the lowest index
    assert_allclose(point, [1.0, 0.0], atol=1e-12)


def test_minimize_linear_prefers_cheap_ratio():
    p = make_instance([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    point, value = minimize_linear(np.array([1.0, 2.0]), p)
    assert_allclose(point, [1.0, 0.0], atol=1e-12)
    assert_allclose(value, 1.0, atol=1e-12)


@pytest.mark.parametrize("signed", [False, True])
def test_minimize_linear_matches_vertex_enumeration(signed):
    rng = np.random.default_rng(37 if signed else 41)
    for _ in range(60):
        p = random_instance(rng, signed=signed)
        c = rng.standard_normal(p.n)
        point, value = minimize_linear(c, p)
        assert check_feasibility(point, p).feasible
        ref = enumerate_linear(c, p)
        assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref))
        assert_allclose(c @ point, value, atol=1e-12)


def test_minimize_linear_lower_bounds_sampled_points():
    rng = np.random.default_rng(43)
    p = random_instance(rng, n=5)
    c = rng.standard_normal(5)
    _, value = minimize_linear(c, p)
    for _ in range(500):
        y = project(rng.uniform(p.bounds.lower, p.bounds.upper), p)
        assert value <= c @ y + 1e-10


def test_feasibility_report_of_projection():
    rng = np.random.default_rng(47)
    p = random_instance(rng)
    x = project(rng.standard_normal(p.n), p)
    rep = check_feasibility(x, p, tol=1e-8)
    assert rep.feasible
    assert abs(rep.balance_residual) <= 1e-8 * max(1.0, abs(p.equality.beta))


def test_feasibility_detects_short_balance():
    p = make_instance([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    rep = check_feasibility(p.bounds.lower, p)
    assert not rep.feasible
    assert rep.balance_residual < 0.0


def test_feasibility_reports_box_violation():
    p = make_instance([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0)
    rep = check_feasibility(np.array([1.1, -0.1]), p)
    assert not rep.feasible
    assert_allclose(rep.max_box_violation, 0.1, atol=1e-12)


# ------------------------------------------- knapsack against the plain loop


def minimize_linear_loop(c, p):
    """The sequential greedy knapsack: coordinates from their lower bound, the
    balance budget spent in increasing order of c_i / a_i, ties to the lowest
    index. Reference for the array implementation."""
    a = p.equality.a
    signs = np.sign(a)
    aa = a * signs
    lo = np.where(signs > 0, p.bounds.lower, -p.bounds.upper)
    hi = np.where(signs > 0, p.bounds.upper, -p.bounds.lower)
    cc = c * signs
    order = np.lexsort((np.arange(a.shape[0]), cc / aa))
    y = lo.copy()
    budget = p.equality.beta - float(aa @ lo)
    for idx in order:
        if budget <= 0.0:
            break
        cap = aa[idx] * (hi[idx] - lo[idx])
        if budget >= cap:
            y[idx] = hi[idx]
            budget -= cap
        else:
            y[idx] = lo[idx] + budget / aa[idx]
            budget = 0.0
    y *= signs
    return y, float(c @ y)


@st.composite
def knapsacks(draw):
    """Signed a, n from 2, beta anywhere in its range including both ends,
    costs with repeated ratios so that ties occur."""
    n = draw(st.integers(2, 8))
    vec = lambda lo, hi: np.array(draw(st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n)))
    a = vec(0.1, 5.0) * np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                               min_size=n, max_size=n)))
    lower = vec(-3.0, 3.0)
    upper = lower + vec(0.01, 4.0)
    lo_sum = float(np.sum(np.minimum(a * lower, a * upper)))
    hi_sum = float(np.sum(np.maximum(a * lower, a * upper)))
    frac = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    beta = lo_sum if frac == 0.0 else hi_sum if frac == 1.0 else (
        lo_sum + frac * (hi_sum - lo_sum))
    c = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0])
                               | st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    return make_instance(a, lower, upper, beta), c


@settings(max_examples=300, deadline=None)
@given(knapsacks())
def test_minimize_linear_equals_loop_bit_for_bit(case):
    p, c = case
    y, val = minimize_linear(c, p)
    y_ref, val_ref = minimize_linear_loop(c, p)
    assert y.tobytes() == y_ref.tobytes()
    assert val == val_ref


@settings(max_examples=100, deadline=None)
@given(knapsacks())
def test_minimize_linear_value_matches_linprog(case):
    optimize = pytest.importorskip("scipy.optimize")
    p, c = case
    _, val = minimize_linear(c, p)
    res = optimize.linprog(c, A_eq=p.equality.a[None, :], b_eq=[p.equality.beta],
                           bounds=list(zip(p.bounds.lower, p.bounds.upper)),
                           method="highs")
    assert res.status == 0
    scale = 1.0 + float(np.abs(c) @ np.maximum(np.abs(p.bounds.lower),
                                               np.abs(p.bounds.upper)))
    assert abs(val - res.fun) <= 1e-7 * scale


@st.composite
def wide_knapsacks(draw):
    """n up to 300. Either distinct ratios, which take the fast sort, or
    ratios from three values, exact because a is a power of two, so that
    long runs of ties straddle the fill index."""
    n = draw(st.integers(2, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    tied = draw(st.booleans())
    signed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if tied:
        a = 2.0 ** rng.integers(-2, 3, n)
        c = rng.choice([-1.5, 0.0, 2.0], n) * a
    else:
        a = rng.uniform(0.1, 5.0, n)
        c = rng.standard_normal(n)
    if signed:
        a = a * rng.choice([-1.0, 1.0], n)
    lower = rng.uniform(-3.0, 3.0, n)
    upper = lower + rng.uniform(0.01, 4.0, n)
    lo_sum = float(np.sum(np.minimum(a * lower, a * upper)))
    hi_sum = float(np.sum(np.maximum(a * lower, a * upper)))
    beta = lo_sum + draw(st.floats(0.0, 1.0)) * (hi_sum - lo_sum)
    return make_instance(a, lower, upper, beta), c


@settings(max_examples=200, deadline=None)
@given(wide_knapsacks())
def test_wide_knapsack_equals_loop_bit_for_bit(case):
    p, c = case
    y, val = minimize_linear(c, p)
    y_ref, val_ref = minimize_linear_loop(c, p)
    assert y.tobytes() == y_ref.tobytes()
    assert val == val_ref


N_LOOP = geometry.NUMPY_FILL_MIN_N


@pytest.mark.parametrize("n", [3, 101, N_LOOP - 1, N_LOOP, N_LOOP + 1, 300])
def test_knapsack_tie_run_straddles_the_fill_index(n):
    # every ratio ties and the budget runs out halfway through coordinate
    # n // 2, so only the index order decides which coordinates are filled
    rng = np.random.default_rng(n)
    a = 2.0 ** rng.integers(-2, 3, n)
    lower = rng.uniform(-1.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 2.0, n)
    caps = a * (upper - lower)
    k = n // 2
    beta = float(a @ lower) + float(caps[:k].sum()) + 0.5 * caps[k]
    p = make_instance(a, lower, upper, beta)
    c = 3.0 * a
    y, val = minimize_linear(c, p)
    y_ref, val_ref = minimize_linear_loop(c, p)
    assert y.tobytes() == y_ref.tobytes()
    assert val == val_ref
    assert np.all(y[:k] == upper[:k]) and np.all(y[k + 1:] == lower[k + 1:])
    assert lower[k] < y[k] < upper[k]


def test_small_knapsack_with_nan_costs_equals_loop_bit_for_bit():
    # below the loop's threshold NaN ratios sort last, after their ties
    rng = np.random.default_rng(7)
    n = N_LOOP - 1
    a = rng.uniform(0.1, 5.0, n) * rng.choice([-1.0, 1.0], n)
    lower = rng.uniform(-3.0, 3.0, n)
    upper = lower + rng.uniform(0.01, 4.0, n)
    c = rng.choice([-1.0, 0.5, 2.0], n) * np.abs(a)
    c[rng.random(n) < 0.3] = np.nan
    lo_sum = float(np.sum(np.minimum(a * lower, a * upper)))
    hi_sum = float(np.sum(np.maximum(a * lower, a * upper)))
    for t in (0.2, 0.9):
        assert_equals_loop(c, make_instance(a, lower, upper,
                                            lo_sum + t * (hi_sum - lo_sum)))


def test_small_knapsack_fills_a_cap_the_budget_equals():
    # the cheapest coordinate's cap is the whole budget: the fill raises it
    # to its upper bound, where lower + budget / a would round below it
    a = np.array([1.0, 3.0, 1.0])
    lower = np.zeros(3)
    upper = np.array([1.0, 0.7, 1.0])
    cap = a[1] * upper[1]
    assert cap / a[1] != upper[1]
    p = make_instance(a, lower, upper, cap)
    y = assert_equals_loop(np.array([2.0, 1.0, 3.0]), p)
    assert y.tolist() == [0.0, 0.7, 0.0]


def test_knapsack_through_normalize_signs():
    rng = np.random.default_rng(41)
    n = 200
    a = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    lower = rng.uniform(-2.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 3.0, n)
    lo_sum = float(np.sum(np.minimum(a * lower, a * upper)))
    hi_sum = float(np.sum(np.maximum(a * lower, a * upper)))
    p = make_instance(a, lower, upper, 0.3 * lo_sum + 0.7 * hi_sum)
    # the sign-normalized mirror, y = signs * x, built from the knapsack form
    ks = p.knapsack
    q = make_instance(ks.a, ks.lower, ks.upper, p.equality.beta)
    for c in (rng.standard_normal(n), rng.choice([-1.0, 2.0], n) * np.abs(a)):
        y, val = minimize_linear(c, p)
        y_ref, val_ref = minimize_linear_loop(c, p)
        assert y.tobytes() == y_ref.tobytes() and val == val_ref
        y_q, _ = minimize_linear(ks.signs * c, q)
        assert (ks.signs * y_q).tobytes() == y.tobytes()


# ------------------------------------------ the selection step at large n

N_SELECT = geometry.PREFIX_SORT_MIN_N
# where the budget sits between 0 and the caps' sum: both ends, just inside
# each, and three places between
BUDGET_AT = (0.0, 1e-9, 0.05, 0.3, 0.5, 1.0 - 1e-9, 1.0)


def large_knapsack(seed):
    """n from the selection threshold to 3x it. By seed % 4: distinct ratios;
    power-of-two a with three-valued costs, so that tie runs straddle the
    selected ratio and the split; signed a; NaN costs (1% or 60% of them).
    The budget sits at BUDGET_AT[seed // 4 % 7] of the caps' sum."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(N_SELECT, 3 * N_SELECT + 1))
    kind = seed % 4
    if kind == 1:
        a = 2.0 ** rng.integers(-2, 3, n)
        c = rng.choice([-1.5, 0.0, 2.0], n) * a
    else:
        a = rng.uniform(0.1, 5.0, n)
        c = rng.standard_normal(n)
    if kind == 2:
        a *= rng.choice([-1.0, 1.0], n)
    if kind == 3:
        c[rng.random(n) < rng.choice([0.01, 0.6])] = np.nan
    lower = rng.uniform(-3.0, 3.0, n)
    upper = lower + rng.uniform(0.01, 4.0, n)
    lo_sum = float(np.sum(np.minimum(a * lower, a * upper)))
    hi_sum = float(np.sum(np.maximum(a * lower, a * upper)))
    t = BUDGET_AT[seed // 4 % len(BUDGET_AT)]
    beta = lo_sum if t == 0.0 else hi_sum if t == 1.0 else (
        lo_sum + t * (hi_sum - lo_sum))
    return make_instance(a, lower, upper, beta), c


def assert_equals_loop(c, p):
    y, val = minimize_linear(c, p)
    y_ref, val_ref = minimize_linear_loop(c, p)
    assert y.tobytes() == y_ref.tobytes()
    assert np.array(val).tobytes() == np.array(val_ref).tobytes()
    return y


@pytest.mark.parametrize("seed", range(56))
def test_selection_knapsack_equals_loop_bit_for_bit(seed):
    p, c = large_knapsack(seed)
    assert_equals_loop(c, p)


def test_selection_cases_take_both_paths(monkeypatch):
    # the cases above reach the selected prefix as well as the fallbacks
    splits = []
    prefix_split = geometry._prefix_split

    def spied(ratios, ks):
        splits.append(prefix_split(ratios, ks))
        return splits[-1]

    monkeypatch.setattr(geometry, "_prefix_split", spied)
    taken = {kind: 0 for kind in range(4)}
    for seed in range(56):
        p, c = large_knapsack(seed)
        minimize_linear(c, p)
        taken[seed % 4] += splits[-1] is not None
    assert len(splits) == 56
    assert all(0 < count < 14 for count in taken.values())


def guess_short_knapsack(share):
    """The cheaper half of 8192 coordinates has caps 1e-3 and the dearer half
    caps 1, with the budget at `share` of the caps' sum: a fill guessed from
    the average cap stops among the cheap coordinates, whose caps fall far
    short of the budget."""
    n = 2 * N_SELECT
    rng = np.random.default_rng(n)
    c = rng.permutation(n).astype(float)
    upper = np.where(c < n // 2, 1e-3, 1.0)
    return make_instance(np.ones(n), np.zeros(n), upper, share * upper.sum()), c


@pytest.mark.parametrize("share, prefix", [(0.35, True), (0.3, False)])
def test_short_guess_doubles_once_then_sorts_everything(share, prefix,
                                                        monkeypatch):
    # at 35% the doubled guess reaches past the budget and a prefix is
    # sorted; at 30% it does not either, and the only sort is the full one
    p, c = guess_short_knapsack(share)
    sorted_sizes = []
    cost_order = geometry._cost_order

    def spied(ratios):
        sorted_sizes.append(ratios.shape[0])
        return cost_order(ratios)

    monkeypatch.setattr(geometry, "_cost_order", spied)
    assert_equals_loop(c, p)
    assert len(sorted_sizes) == 1
    assert (sorted_sizes[0] < p.n) == prefix


def test_fill_past_the_prefix_by_rounding_sorts_everything():
    # the 64 cheapest caps, summed in index order, exceed the budget by an
    # ulp, but the running budget in cost order stays positive after them:
    # the fill continues into the 65th cheapest coordinate, past the prefix
    n = N_SELECT
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cheap = np.sort(rng.choice(n, 64, replace=False))
        cheap_caps = rng.uniform(0.5, 2.0, 64)
        rank = rng.permutation(64)
        budget = float(np.nextafter(cheap_caps.sum(), -np.inf))
        left = budget
        for cap in cheap_caps[np.argsort(rank)]:
            left -= cap
        if left > 0.0:
            break
    assert left > 0.0
    upper = np.full(n, 1e6)
    upper[cheap] = cheap_caps
    c = 64.0 + rng.permutation(n).astype(float)
    c[cheap] = rank
    p = make_instance(np.ones(n), np.zeros(n), upper, budget)
    assert geometry._prefix_split(c, p.knapsack) is None
    y = assert_equals_loop(c, p)
    assert y[c == 64.0] == left


def test_ties_at_the_selected_ratio_stay_out_of_the_prefix():
    # every ratio ties: the prefix below the selected ratio is empty at
    # both guesses, so the selection step sorts nothing
    n = 2 * N_SELECT
    rng = np.random.default_rng(5)
    a = 2.0 ** rng.integers(-2, 3, n)
    lower = rng.uniform(-1.0, 0.0, n)
    upper = lower + rng.uniform(0.5, 2.0, n)
    p = make_instance(a, lower, upper, float(a @ lower)
                      + 0.5 * float(a @ (upper - lower)))
    c = 3.0 * a
    assert geometry._prefix_split(c / a, p.knapsack) is None
    assert_equals_loop(c, p)


def test_knapsack_constants_are_cached_read_only_views():
    p = make_instance([1.0, 2.0, 0.5], [0.0, -1.0, 0.0], [1.0, 1.0, 2.0], 1.0)
    ks = p.knapsack
    assert p.knapsack is ks
    # all a_i > 0: no flip and no copy of the instance's arrays
    assert ks.signs is None
    assert ks.a is p.equality.a
    assert ks.lower is p.bounds.lower and ks.upper is p.bounds.upper
    assert ks.caps.tobytes() == (ks.a * (ks.upper - ks.lower)).tobytes()
    assert ks.budget == p.equality.beta - float(ks.a @ ks.lower)
    q = make_instance([1.0, -2.0], [0.0, -1.0], [1.0, 1.0], 0.5)
    for ks in (p.knapsack, q.knapsack):
        for v in (ks.a, ks.lower, ks.upper, ks.caps):
            assert not v.flags.writeable
    assert q.knapsack.a.tolist() == [1.0, 2.0]
    assert q.knapsack.lower.tolist() == [0.0, -1.0]
    assert q.knapsack.upper.tolist() == [1.0, 1.0]


def test_floor_zero_keeps_nan_and_the_bits_of_max():
    for v in (-1.0, -0.0, 0.0, 5e-324, 2.5, np.inf, -np.inf):
        assert np.array(floor_zero(v)).tobytes() == np.array(max(0.0, v)).tobytes()
    assert np.isnan(floor_zero(np.nan))


def test_linear_gap_of_a_nan_gradient_is_nan():
    p = make_instance([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0)
    x = np.array([0.5, 0.25, 0.25])
    assert linear_gap(np.array([0.0, 1.0, 2.0]), x, p) == 0.75
    assert np.isnan(linear_gap(np.array([np.nan, 1.0, 2.0]), x, p))


# ------------------------------ projection against the plain bisection


def project_reference(z, p, passes=None):
    """project as it was with a plain bisection over the sorted breakpoints,
    the balance evaluated again at both ends of the final bracket. Reference
    for the bracket search's bits; appends one entry to passes per balance
    evaluation."""
    a = p.equality.a
    lower, upper = p.bounds.lower, p.bounds.upper
    beta = p.equality.beta
    z = np.asarray(z, dtype=float)
    bps = np.stack((lower, upper))
    bps -= z
    bps /= a
    bps = bps.ravel()
    bps.sort()
    buf = np.empty_like(a)

    def balance(lam):
        if passes is not None:
            passes.append(lam)
        return _balance(lam, z, a, lower, upper, buf)

    g_lo = balance(bps[0])
    g_hi = balance(bps[-1])
    if beta <= g_lo:
        lam = float(bps[0])
    elif beta >= g_hi:
        lam = float(bps[-1])
    else:
        left, right = 0, len(bps) - 1
        while right - left > 1:
            mid = (left + right) // 2
            if balance(bps[mid]) < beta:
                left = mid
            else:
                right = mid
        bl, br = float(bps[left]), float(bps[right])
        gl = balance(bl)
        gr = balance(br)
        if gr > gl:
            lam = bl + (beta - gl) * (br - bl) / (gr - gl)
        else:
            lam = bl

    residual = beta - balance(lam)
    if abs(residual) > 1e-11 * max(1.0, abs(beta)):
        lo, hi = float(bps[0]) - 1.0, float(bps[-1]) + 1.0
        for _ in range(200):
            if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if balance(mid) < beta:
                lo = mid
            else:
                hi = mid
        # the bisection's lam only where it ends closer to beta
        residual_b = beta - balance(0.5 * (lo + hi))
        if abs(residual_b) < abs(residual):
            residual = residual_b
        else:
            balance(lam)
    x = buf
    free = (x > lower) & (x < upper)
    denom = float((a[free] ** 2).sum())
    if denom > 0.0 and residual != 0.0:
        x[free] += (residual / denom) * a[free]
        np.clip(x, lower, upper, out=x)
    return x


def projection_case(seed, n, kind, where, start):
    """A projection of size n. kind: a positive, signed, or signed integers
    over an integer box, so that breakpoints tie. where: beta at the low end
    of its range, the high end, or inside. start: z feasible, on the
    bounds, clipped (within 1 of the box) or far (1e6 off)."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        a = rng.choice([-1.0, 1.0], n) * rng.integers(1, 4, n)
        lower = rng.integers(-3, 2, n).astype(float)
        upper = lower + rng.integers(1, 3, n)
    else:
        a = rng.uniform(0.1, 3.0, n)
        if kind == "signed":
            a *= rng.choice([-1.0, 1.0], n)
        lower = rng.uniform(-2.0, 0.0, n)
        upper = lower + rng.uniform(0.01, 3.0, n)
    lo_sum = float(np.minimum(a * lower, a * upper).sum())
    hi_sum = float(np.maximum(a * lower, a * upper).sum())
    beta = {"low": lo_sum, "high": hi_sum,
            "inside": lo_sum + rng.uniform(0.1, 0.9) * (hi_sum - lo_sum)}[where]
    if start == "feasible":
        z = rng.uniform(lower, upper)
        if where == "inside":
            beta = float(a @ z)
    elif start == "bounds":
        z = np.where(rng.random(n) < 0.5, lower, upper)
    elif start == "clipped":
        z = rng.uniform(lower - 1.0, upper + 1.0)
    else:
        z = rng.uniform(lower, upper) + rng.choice([-1e6, 1e6])
    return make_instance(a, lower, upper, beta), z


KINDS = ("positive", "signed", "integer")
WHERES = ("low", "high", "inside")
STARTS = ("feasible", "bounds", "clipped", "far")


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([2, 3, 5, 2000]) | st.integers(2, 2000),
       st.sampled_from(KINDS), st.sampled_from(WHERES), st.sampled_from(STARTS))
def test_project_equals_plain_bisection_bit_for_bit(seed, n, kind, where, start):
    p, z = projection_case(seed, n, kind, where, start)
    assert project(z, p).tobytes() == project_reference(z, p).tobytes()


@pytest.mark.parametrize("n", [7, 100, 2000])
def test_balance_is_exactly_monotone_over_sorted_breakpoints(n):
    # the bracket search's bits rest on this: the last breakpoint whose
    # computed balance is below beta does not depend on the probe order
    rng = np.random.default_rng(53 + n)
    for _ in range(10):
        p = random_instance(rng, n=n, signed=True)
        a, lower, upper = p.equality.a, p.bounds.lower, p.bounds.upper
        z = rng.uniform(lower - 1.0, upper + 1.0)
        bps = np.concatenate([(lower - z) / a, (upper - z) / a])
        lams = np.sort(np.concatenate([
            bps, np.nextafter(bps, -np.inf), np.nextafter(bps, np.inf),
            rng.uniform(bps.min() - 1.0, bps.max() + 1.0, 200)]))
        buf = np.empty(n)
        vals = np.array([_balance(lam, z, a, lower, upper, buf) for lam in lams])
        assert (vals[1:] >= vals[:-1]).all()


@pytest.fixture
def balance_passes(monkeypatch):
    """The lam of every balance evaluation project makes."""
    passes = []

    def counted(lam, *args):
        passes.append(lam)
        return _balance(lam, *args)

    monkeypatch.setattr(geometry, "_balance", counted)
    return passes


def test_feasible_start_at_1e5_takes_few_balance_passes(balance_passes):
    rng = np.random.default_rng(59)
    n = 100_000
    a = rng.uniform(0.5, 2.0, n)
    upper = rng.uniform(0.5, 2.0, n)
    z = rng.uniform(0.0, upper)
    p = make_instance(a, np.zeros(n), upper, a @ z)
    x = project(z, p)
    assert len(balance_passes) <= 3
    reference = []
    assert x.tobytes() == project_reference(z, p, reference).tobytes()
    assert len(reference) == 22


def test_only_starts_off_the_feasible_set_sort_the_breakpoints(monkeypatch):
    # the probe next to lam = 0 settles the grid's protocol starts and the
    # 1e5-agent market's "no trade" start; a far start takes the sort
    searches = []
    sorted_search = geometry._sorted_search

    def counted(bps, beta, balance):
        searches.append(len(bps))
        return sorted_search(bps, beta, balance)

    monkeypatch.setattr(geometry, "_sorted_search", counted)
    for make, beta, n in itertools.product(
            (gen_quadratic, gen_convex_log, gen_nonsmooth_l1), (5.0, 10.0, 20.0),
            (10, 20, 50, 100)):
        p = make(n, beta)
        project(protocol_start(p), p)
    rng = np.random.default_rng(61)
    m = 50_000
    quotes = [np.column_stack([rng.uniform(lo, lo + 2.0, m),
                               sign * rng.uniform(0.5, 2.0, m),
                               rng.uniform(0.5, 2.0, m)])
              for lo, sign in ((1.0, 1.0), (2.0, -1.0))]
    market, _ = build_market(MarketModel(*quotes))
    project(np.zeros(market.n), market)
    assert searches == []
    project(protocol_start(p) + 1e6, p)
    assert searches == [2 * p.n]


def test_project_rejects_a_point_that_is_not_finite():
    p = make_instance([1.0, 1.0, 1.0], np.zeros(3), np.ones(3), 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="point is not finite"):
            project(np.array([bad, 0.5, 0.5]), p)


# balance evaluations the plain bisection makes over the cases below, its
# fallback bisection on lam included
BISECTION_PASSES = 1677


def test_projection_set_takes_no_more_passes_than_bisection(balance_passes):
    cases = itertools.product(KINDS, WHERES, STARTS, (2, 3, 10, 100, 2000))
    for seed, (kind, where, start, n) in enumerate(cases):
        p, z = projection_case(seed, n, kind, where, start)
        assert project(z, p).tobytes() == project_reference(z, p).tobytes()
    assert len(balance_passes) <= BISECTION_PASSES


def test_fallback_never_ends_farther_from_beta(monkeypatch):
    # far starts trip the interpolation's residual test; the fallback
    # bisection may end farther from beta, and then project keeps the
    # interpolated lam
    fallbacks, balances = [], []
    bisect_lambda = geometry._bisect_lambda

    def bisect(z, a, lower, upper, beta, lo, hi, buf):
        # buf holds the point at the interpolated lam
        fallbacks.append(beta - float(a @ buf))
        return bisect_lambda(z, a, lower, upper, beta, lo, hi, buf)

    def balance(lam, *args):
        balances.append(_balance(lam, *args))
        return balances[-1]

    monkeypatch.setattr(geometry, "_bisect_lambda", bisect)
    monkeypatch.setattr(geometry, "_balance", balance)
    cases = itertools.product(KINDS, WHERES, STARTS, (2, 3, 10, 100, 2000))
    for seed, (kind, where, start, n) in enumerate(cases):
        if start != "far":
            continue
        p, z = projection_case(seed, n, kind, where, start)
        before = len(fallbacks)
        project(z, p)
        if len(fallbacks) > before:
            r_start = fallbacks[-1]
            # the last balance project takes is its final residual's
            r_end = p.equality.beta - balances[-1]
            assert abs(r_end) <= abs(r_start), (seed, r_start, r_end)
    assert len(fallbacks) >= 10


def geometric_coefficients(frac):
    # a over six decades, z below the box: the balance map is so far from
    # linear that the secant alone creeps one breakpoint at a time
    n = 2000
    a = np.geomspace(1e-3, 1e3, n)
    return make_instance(a, np.zeros(n), np.ones(n), frac * a.sum()), np.full(n, -1.0)


def huge_coefficient(frac):
    # one coefficient 1e4 times the others: the map jumps near lam = 0
    n = 2000
    a = np.ones(n)
    a[0] = 1e4
    z = np.linspace(-1.0, 2.0, n)
    z[0] = 0.5
    return make_instance(a, np.zeros(n), np.ones(n), frac * a.sum()), z


@pytest.mark.parametrize("case", [geometric_coefficients, huge_coefficient])
@pytest.mark.parametrize("frac", [0.001, 0.5, 0.99])
def test_bracket_search_stays_within_twice_the_bisection(balance_passes, case,
                                                         frac):
    p, z = case(frac)
    x = project(z, p)
    reference = []
    assert x.tobytes() == project_reference(z, p, reference).tobytes()
    assert len(balance_passes) <= 2 * len(reference)
