"""Line models, which start every Armijo backtrack at the first trial that
a quadratic lower model cannot reject.

`QuadraticObjective.gradient_line(x)` gives cgm's model along d, and the
quadratic and separable pair states give `line_model` along a pair: a
lower bound on the computed trial less the threshold's start f_0, and a cut
past which trials leave the log domain. A search that starts at the
model's first trial must return what a scan of every trial returns, so
the model must hold with the rounding of the trial, of f_0 and of the
threshold included. These tests check the bound over the benchmark
families and random instances: PSD, slightly asymmetric and zero P, signed
coefficients, d from a knapsack vertex, tiny steps, log arguments near zero
and the smoothed-l1 term alone; compare a started search with a full scan
at sigma and theta of 0.1, 0.5 and 0.9; and count the trials that cgm, bcv
and mbc evaluate on the benchmark grid and on a converged market.
"""

from fractions import Fraction
import itertools
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from bicoord import (
    BenchmarkSpec,
    BoxBounds,
    DomainError,
    LinearEquality,
    MarketModel,
    QuadraticObjective,
    SeparableQuadraticObjective,
    SolverConfig,
    bcv_solve,
    build_market,
    build_problem,
    cgm_solve,
    gen_convex_log,
    gen_nonsmooth_l1,
    gen_quadratic,
    mbc_solve,
    minimize_linear,
    run_cell_detailed,
)
from bicoord import objectives, solvers
from bicoord.solvers import LinesearchError, _backtrack, _start_index

FAMILIES = {1: gen_quadratic, 2: gen_convex_log, 3: gen_nonsmooth_l1}


def random_problem(rng, matrix: str, log: str | None, l1: bool, scale: float):
    """An instance with signed coefficients over a box of size `scale`; P
    is PSD, PSD with asymmetric entries that the symmetry check still admits, or
    zero; the log term is absent, random, near zero at the box's middle,
    or constant (c = 0)."""
    n = int(rng.integers(2, 9))
    a = rng.choice([-1.0, 1.0], n) * rng.choice([0.5, 1.0, 2.0, 3.0], n)
    lower = scale * rng.choice([-2.0, -0.5, 0.0, 1.0], n)
    upper = lower + scale * rng.choice([0.5, 1.0, 3.0], n)
    M = rng.standard_normal((n, n))
    P = M @ M.T + n * np.eye(n)
    if matrix == "asymmetric":
        P = P * (1.0 + 4e-6 * rng.uniform(-1.0, 1.0, (n, n)))
    elif matrix == "zero":
        P = np.zeros((n, n))
    c, xi = None, 0.0
    if log == "constant":
        c, xi = np.zeros(n), 1.0
    elif log is not None:
        c = rng.uniform(-2.0, 2.0, n)
        if log == "random":
            radius = np.maximum(np.abs(lower), np.abs(upper))
            xi = float(np.abs(c) @ radius) + 1.0
        else:
            middle = 0.5 * (lower + upper)
            xi = float(10.0 ** -rng.integers(1, 15) - c @ middle)
    tau = float(rng.choice([1e-3, 0.1, 1.6])) if l1 else None
    obj = QuadraticObjective(P, c, xi, tau)
    z = rng.uniform(lower, upper)
    return build_problem(BoxBounds(lower, upper),
                         LinearEquality(a, float(a @ z)), obj)


@st.composite
def lines(draw):
    """(objective, x, d, radius): x in the box or at its middle, d toward a
    knapsack vertex, maybe shrunk to a tiny step, and radius the box's l1
    radius, which bounds ||x + lam d||_1 for lam in [0, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["family", "psd", "asymmetric", "zero"]))
    if source == "family":
        family = FAMILIES[draw(st.sampled_from([1, 2, 3]))]
        p = family(draw(st.sampled_from([2, 10, 40])),
                   draw(st.sampled_from([5.0, 20.0])))
    else:
        log = draw(st.sampled_from([None, "random", "near_zero", "constant"]))
        l1 = log is not None and draw(st.booleans())
        p = random_problem(rng, source, log, l1,
                           draw(st.sampled_from([1.0, 100.0])))
    lo, hi = p.bounds.lower, p.bounds.upper
    # at the box's middle a "near_zero" log argument is 1e-14 to 0.1
    x = rng.uniform(lo, hi) if draw(st.booleans()) else 0.5 * (lo + hi)
    y, _ = minimize_linear(rng.standard_normal(p.n), p)
    d = (y - x) * draw(st.sampled_from([1.0, 1e-9, 1e-15]))
    obj = p.objective
    if obj.smoothing is not None:
        obj = obj.with_smoothing(draw(st.sampled_from([1.6, 1e-3, 1e-7])))
    return obj, x, d, float(p.box_radius.sum())


def below(model, lam, change) -> bool:
    """slope lam + kappa lam^2 / 2 - margin <= change, in exact arithmetic."""
    slope, kappa, margin, _ = model
    lam = Fraction(lam)
    bound = (Fraction(slope) * lam + Fraction(kappa) * lam * lam / 2
             - Fraction(margin))
    return bound <= Fraction(change)


def scan(trial, gamma, mu, sigma, theta, f_0, m0):
    """_backtrack's result from m0, or the LinesearchError it raises."""
    try:
        return _backtrack(trial, gamma, mu, sigma, theta, 60, f_0, m0)
    except LinesearchError:
        return "linesearch"


def assert_started_search_is_full_scan(model, trial, gamma, mu, f_0):
    for sigma, theta in itertools.product((0.1, 0.5, 0.9), repeat=2):
        m0 = _start_index(model, gamma, mu, sigma, theta, f_0, 60)
        full = scan(trial, gamma, mu, sigma, theta, f_0, 0)
        assert scan(trial, gamma, mu, sigma, theta, f_0, m0) == full
        if full != "linesearch":
            assert m0 <= full[1]


@settings(max_examples=300, deadline=None)
@given(lines())
def test_line_model_never_exceeds_the_computed_change(line):
    obj, x, d, radius = line
    try:
        f_x = obj.value(x)
    except DomainError:
        return
    g, model_at = obj.gradient_line(x)
    assert g.tobytes() == obj.gradient(x).tobytes()
    model = model_at(d, 1.0, radius)
    for m in range(61):
        lam = 0.5**m
        if lam >= model[3]:
            with pytest.raises(DomainError):
                obj.value(x + lam * d)
            continue
        try:
            value = obj.value(x + lam * d)
        except DomainError:
            continue
        assert below(model, lam, Fraction(value) - Fraction(f_x)), (m, model)


@settings(max_examples=150, deadline=None)
@given(lines())
def test_cgm_search_from_the_model_is_a_full_scan(line):
    obj, x, d, radius = line
    try:
        f_x = obj.value(x)
    except DomainError:
        return
    g, model_at = obj.gradient_line(x)
    mu = float(g @ d)
    if not mu < 0.0:
        # x - lam d may leave the box, but ||x - lam d||_1 <= 3 radius
        d, mu, radius = -d, -mu, 3.0 * radius
    if not mu < 0.0:
        return
    model = model_at(d, 1.0, radius)

    def trial(lam):
        return obj.value(x + lam * d)

    assert_started_search_is_full_scan(model, trial, 1.0, mu, f_x)


def test_line_model_cuts_trials_outside_the_log_domain():
    # f = -ln(x0 - x1 + 0.1): from (1, 0) toward (0, 1) the log argument is
    # 1.1 - 2 lam, so every trial with lam > 0.55 lies outside the domain
    obj = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, -1.0]), 0.1)
    x, d = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
    cut = obj.gradient_line(x)[1](d, 1.0, 1.0)[3]
    assert 0.55 <= cut <= 0.56


def test_only_the_quadratic_family_has_a_line_model():
    p = gen_quadratic(4, 5.0)
    x = np.ones(4)
    assert p.objective.gradient_line(x)[1] is not None
    for obj in (objectives.LinearObjective(np.ones(4)),
                SeparableQuadraticObjective(np.ones(4), np.ones(4))):
        g, line = obj.gradient_line(x)
        assert line is None and g.tobytes() == obj.gradient(x).tobytes()
    assert objectives.PairState(p.objective, x).line_model(0, 1.0, 1, -1.0,
                                                           0.0) is None


def first_unrejected(model, gamma, mu, sigma, theta, f_0, max_backtracks=60):
    """The first m whose trial at lam = gamma theta^m, as _backtrack computes
    it, the model cannot reject, by a scan over m in exact arithmetic, or
    max_backtracks + 1: a trial is rejected at lam >= cut, or where
    kappa lam^2 / 2 - b lam - c > 0 with _start_index's b and c, rounding
    terms included. A NaN b or c rejects nothing."""
    slope, kappa, margin, cut = model
    u = Fraction(2.0**-53)
    finite = all(math.isfinite(t) for t in (slope, kappa, margin))
    if finite:
        b = (Fraction(sigma) * Fraction(mu) - Fraction(slope)
             + 8 * u * (abs(Fraction(mu)) + abs(Fraction(slope))))
        c = Fraction(margin) + 2 * u * abs(Fraction(f_0))
    for m in range(max_backtracks + 1):
        lam = gamma * theta**m
        if lam >= cut:
            continue
        if finite and Fraction(kappa) * Fraction(lam)**2 / 2 - b * Fraction(lam) - c > 0:
            continue
        return m
    return max_backtracks + 1


def first_at_or_below(lam_bar, gamma, theta, max_backtracks=60):
    """The first m with gamma theta^m <= lam_bar, or max_backtracks + 1."""
    return next((m for m in range(max_backtracks + 1)
                 if gamma * theta**m <= lam_bar), max_backtracks + 1)


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("gamma", [1.0, 0.3, 1e5, 1e-310, 1e-322])
def test_start_index_settles_a_cut_at_every_trial(gamma, theta):
    # the model rejects by its cut alone (b > 0, kappa = 0), set at
    # gamma theta^k and one ulp either side; at subnormal gamma and
    # theta = 0.9 neighbouring trials round to the same lam, and the guess
    # from the logarithms lands past the first one and walks down
    model_at = lambda cut: (-2.0, 0.0, 0.0, cut)  # noqa: E731
    for k in range(61):
        lam = gamma * theta**k
        for cut in (np.nextafter(lam, 0.0), lam, np.nextafter(lam, np.inf)):
            model = model_at(float(cut))
            m0 = _start_index(model, gamma, -1.0, 0.5, theta, 1.0, 60)
            assert m0 == first_at_or_below(cut, gamma, theta), (k, cut)
            assert m0 <= first_unrejected(model, gamma, -1.0, 0.5, theta, 1.0)


def test_start_index_takes_the_root_where_b_is_at_most_zero():
    # slope >= sigma mu leaves b <= 0, so the root comes from c alone:
    # 0 where c = 0, which starts past every trial
    for kappa, slope, margin, f_0, cut, theta in itertools.product(
            (1e-8, 1.0, 1e8), (-0.4, 0.0, 3.0), (0.0, 1e-300, 1e-12, 1.0, 1e12),
            (0.0, 1.0), (math.inf, 0.3), (0.1, 0.5, 0.9)):
        model = (slope, kappa, margin, cut)
        m0 = _start_index(model, 1.0, -1.0, 0.5, theta, f_0, 60)
        full = first_unrejected(model, 1.0, -1.0, 0.5, theta, f_0)
        assert full - 1 <= m0 <= full, (model, f_0, theta)


@pytest.mark.parametrize("slope, margin", [(math.nan, 0.0), (-2.0, math.nan),
                                           (0.0, math.nan)])
@pytest.mark.parametrize("cut", [math.inf, 0.3])
def test_start_index_falls_back_to_the_cut_on_a_nan_model(slope, margin, cut):
    for theta in (0.1, 0.5, 0.9):
        model = (slope, 1.0, margin, cut)
        m0 = _start_index(model, 1.0, -1.0, 0.5, theta, 1.0, 60)
        assert m0 == first_at_or_below(cut, 1.0, theta)
        assert m0 <= first_unrejected(model, 1.0, -1.0, 0.5, theta, 1.0)


def random_pair_problem(rng, kind: str):
    """A separable quadratic with signed coefficients, or random_problem's
    quadratic family: PSD P, a log term near zero or random, maybe the
    smoothed-l1 term."""
    if kind == "separable":
        n = int(rng.integers(2, 9))
        a = rng.choice([-1.0, 1.0], n) * rng.choice([0.5, 1.0, 2.0, 3.0], n)
        lower = rng.choice([-2.0, -0.5, 0.0, 1.0], n)
        upper = lower + rng.choice([0.5, 1.0, 3.0], n)
        obj = SeparableQuadraticObjective(rng.uniform(-5.0, 5.0, n),
                                          rng.uniform(0.0, 2.0, n))
        z = rng.uniform(lower, upper)
        return build_problem(BoxBounds(lower, upper),
                             LinearEquality(a, float(a @ z)), obj)
    log = rng.choice([None, "random", "near_zero"])
    return random_problem(rng, "psd", log, log is not None and rng.random() < 0.5,
                          float(rng.choice([1.0, 100.0])))


@st.composite
def pair_lines(draw):
    """(state, i, j, d_i, d_j, gamma, f_0) at a random point of the box: a
    benchmark family or a random quadratic or separable problem, a random
    pair along -1/a_i, 1/a_j or its reverse, whichever descends, a step cap
    up to the box's, tiny or not, and f_0 the state's value or the change's
    zero, maybe off by rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["family", "quadratic", "separable"]))
    if kind == "family":
        p = FAMILIES[draw(st.sampled_from([1, 2, 3]))](
            draw(st.sampled_from([2, 10, 40])), draw(st.sampled_from([5.0, 20.0])))
    else:
        p = random_pair_problem(rng, kind)
    lo, hi = p.bounds.lower, p.bounds.upper
    x = rng.uniform(lo, hi) if draw(st.booleans()) else 0.5 * (lo + hi)
    try:
        state = p.objective.pair_state(x)
        state.gradient()
    except DomainError:
        return None
    i, j = (int(k) for k in rng.choice(p.n, 2, replace=False))
    a = p.equality.a
    d_i, d_j = -1.0 / a.item(i), 1.0 / a.item(j)
    g = state.gradient()
    if d_i * g[i] + d_j * g[j] > 0.0:
        d_i, d_j = -d_i, -d_j
    gamma = float(draw(st.sampled_from([1.0, 1e-6, 1e-13])) * rng.uniform(0.01, 3.0))
    f_0 = 0.0 if state.trial_is_change else float(state.value())
    f_0 *= 1.0 + draw(st.sampled_from([0.0, 2.0**-52, -2.0**-52]))
    return state, i, j, d_i, d_j, gamma, f_0


@settings(max_examples=300, deadline=None)
@given(pair_lines())
def test_pair_model_never_exceeds_the_computed_trial(line):
    if line is None:
        return
    state, i, j, d_i, d_j, gamma, f_0 = line
    model = state.line_model(i, d_i, j, d_j, f_0)
    for m in range(61):
        lam = gamma * 0.7**m
        value = state.trial(i, lam * d_i, j, lam * d_j)
        if lam >= model[3]:
            assert value == np.inf
        elif np.isfinite(value):
            assert below(model, lam, Fraction(value) - Fraction(f_0)), (m, model)


@settings(max_examples=300, deadline=None)
@given(pair_lines())
def test_pair_search_from_the_model_is_a_full_scan(line):
    if line is None:
        return
    state, i, j, d_i, d_j, gamma, f_0 = line
    g = state.gradient()
    mu = float(d_i * g[i] + d_j * g[j])
    if not mu < 0.0:
        return
    model = state.line_model(i, d_i, j, d_j, f_0)

    def trial(lam):
        return state.trial(i, lam * d_i, j, lam * d_j)

    assert_started_search_is_full_scan(model, trial, gamma, mu, f_0)


def log_domain_problem():
    """f = 50 x0^2 - ln(x0 - x1 + 0.1) on x0 + x1 = 1, [0, 1]^2. From
    (1, 0) the pair and cgm move along (-1, 1), where the log argument is
    1.1 - 2 lam: with theta = 0.9 the trials at lam = 0.9 to 0.59 lie
    outside the domain, below the model's root of about 0.98."""
    obj = QuadraticObjective(np.diag([100.0, 0.0]), np.array([1.0, -1.0]), 0.1)
    return build_problem(BoxBounds(np.zeros(2), np.ones(2)),
                         LinearEquality(np.ones(2), 1.0), obj)


@pytest.mark.parametrize("solve", [bcv_solve, mbc_solve, cgm_solve])
def test_no_evaluated_trial_leaves_the_log_domain(solve, monkeypatch):
    outside = []
    trial = objectives._QuadraticPairState.trial
    value = QuadraticObjective.value

    def counted_trial(self, i, di, j, dj):
        result = trial(self, i, di, j, dj)
        outside.append(result == np.inf)
        return result

    def counted_value(self, x, *products):
        try:
            return value(self, x, *products)
        except DomainError:
            outside.append(True)
            raise

    monkeypatch.setattr(objectives._QuadraticPairState, "trial", counted_trial)
    monkeypatch.setattr(QuadraticObjective, "value", counted_value)
    res = solve(log_domain_problem(), SolverConfig(theta=0.9),
                z0=np.array([1.0, 0.0]))
    assert res.trace[0].backtracks == 6
    assert not any(outside)


def test_cgm_makes_about_one_full_value_per_step_on_the_grid(monkeypatch):
    calls = []
    value = QuadraticObjective.value
    monkeypatch.setattr(QuadraticObjective, "value",
                        lambda self, x, *products: calls.append(1)
                        or value(self, x, *products))
    spec = BenchmarkSpec()
    steps = 0
    for series in spec.series:
        for beta, n in itertools.product(spec.betas, spec.sizes):
            steps += run_cell_detailed(series, beta, n, "cgm",
                                       spec).result.inner_iterations_total
    # 11.2 values per step when every trial is evaluated
    assert steps == 10619
    assert len(calls) <= 1.1 * steps


def count_linesearch_trials(monkeypatch) -> list:
    """A list that grows by one per trial evaluated by a linesearch."""
    trials = []
    backtrack = solvers._backtrack

    def counting(trial, *args):
        return backtrack(lambda lam: trials.append(lam) or trial(lam), *args)

    monkeypatch.setattr(solvers, "_backtrack", counting)
    return trials


def test_pair_methods_evaluate_about_one_trial_per_step_on_the_grid(monkeypatch):
    trials = count_linesearch_trials(monkeypatch)
    spec = BenchmarkSpec()
    steps = 0
    for series in spec.series:
        for beta, n in itertools.product(spec.betas, spec.sizes):
            for method in set(spec.methods_for(series)) - {"cgm"}:
                steps += run_cell_detailed(series, beta, n, method,
                                           spec).result.inner_iterations_total
    # 6.1 trials per step when every trial is evaluated
    assert steps == 5790
    assert len(trials) <= 2 * steps


def seeded_market(agents: int, seed: int):
    rng = np.random.default_rng(seed)
    m = agents // 2
    k = agents - m
    traders = np.column_stack([rng.uniform(1.0, 3.0, m), rng.uniform(0.5, 2.0, m),
                               rng.uniform(0.5, 2.0, m)])
    buyers = np.column_stack([rng.uniform(2.0, 4.0, k), -rng.uniform(0.5, 2.0, k),
                              rng.uniform(0.5, 2.0, k)])
    return build_market(MarketModel(traders, buyers, 0.0))[0]


@pytest.mark.parametrize("solve", [bcv_solve, mbc_solve])
def test_converged_market_evaluates_about_one_trial_per_step(solve, monkeypatch):
    # the separable state's trial is its exact change, so the model is the
    # trial up to rounding and the first trial it cannot reject passes
    p = seeded_market(2000, 3)
    trials = count_linesearch_trials(monkeypatch)
    res = solve(p, SolverConfig(target_accuracy=1e-2, max_inner_iterations=10**5),
                z0=np.zeros(p.n))
    assert res.converged
    assert len(trials) <= 1.2 * res.inner_iterations_total
