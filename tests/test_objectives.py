import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import (
    BoxBounds,
    LinearEquality,
    LinearObjective,
    PortfolioObjective,
    QuadraticObjective,
    SeparableQuadraticObjective,
    SvmDualObjective,
    build_problem,
    smooth_plus,
    to_document,
)
import bicoord.objectives
from bicoord.objectives import _symmetric_matrix, _symmetry


def objective_document(obj):
    """The document's objective entry for obj on the unit simplex."""
    n = obj.P.shape[0]
    p = build_problem(BoxBounds(np.zeros(n), np.ones(n)),
                      LinearEquality(np.ones(n), 1.0), obj)
    return to_document(p)["objective"]


def fd_gradient(obj, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return g


def assert_gradient_matches_fd(obj, points, rtol=1e-5):
    for x in points:
        g = obj.gradient(x)
        fd = fd_gradient(obj, x)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(g - fd) / scale) <= rtol


def spd_matrix(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_linear_objective_oracle():
    c = np.array([1.0, -2.0, 0.5])
    obj = LinearObjective(c)
    x = np.array([2.0, 1.0, 4.0])
    assert_allclose(obj.value(x), 2.0)
    assert_allclose(obj.gradient(x), c)
    assert_allclose(obj.partial(1, x), -2.0)


def test_quadratic_objective_value_and_fd():
    rng = np.random.default_rng(53)
    P = spd_matrix(rng, 5)
    obj = QuadraticObjective(P)
    x = rng.standard_normal(5)
    assert_allclose(obj.value(x), 0.5 * x @ (P @ x), rtol=1e-12)
    assert_gradient_matches_fd(obj, rng.standard_normal((10, 5)))


def test_quadratic_objective_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [1, 2, 5, 300, 700])
def test_symmetry_check_agrees_with_allclose(n):
    # at n = 300 and 700 the check runs over several row blocks
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    S = B + B.T
    atol = 1e-12 * max(1.0, float(np.abs(S).max()))
    assert _symmetry(S, atol) is not None
    cases = []
    for scale in (1e-3, 1e-6, 1e-14):
        M = S.copy()
        i, j = rng.integers(0, n, 2)
        M[i, j] += scale * (abs(M[i, j]) + 1e-12)
        cases.append(M)
    cases.append(S * (1.0 + 1e-5 * rng.uniform(-1.0, 1.0, (n, n))))
    if n > 1:
        # a relative gap just above rtol of the smaller entry and below rtol
        # of the larger one, on either side of the diagonal
        off = np.abs(S) - np.diag(np.full(n, np.inf))
        i, j = np.unravel_index(np.argmax(off), off.shape)
        for u, v in ((i, j), (j, i)):
            M = S.copy()
            M[u, v] *= 1.0 + 1.00001e-5
            assert not np.allclose(M, M.T, atol=atol)
            cases.append(M)
    for M in cases:
        assert (_symmetry(M, atol) is not None) == np.allclose(M, M.T, atol=atol)
    for i, j in ((0, n - 1), (n - 1, n - 1)):
        M = S.copy()
        M[i, j] = np.nan
        assert _symmetry(M, atol) is None


def test_quadratic_objective_rejects_nan():
    with pytest.raises(ValueError):
        QuadraticObjective(np.array([[1.0, np.nan], [np.nan, 1.0]]))


NON_FINITE_MATRICES = [
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, -np.inf], [-np.inf, 1.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
]


@pytest.mark.parametrize("P", NON_FINITE_MATRICES)
def test_quadratic_objective_names_a_non_finite_matrix(P):
    # these are symmetric or NaN, and were once rejected as asymmetric,
    # after a RuntimeWarning from inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="P must be finite"):
            QuadraticObjective(np.array(P))


#: tile edges of the symmetry check, which compares 256 x 256 tiles
TILE_EDGE_SIZES = [1, 2, 255, 256, 257, 700]


@st.composite
def near_symmetric(draw):
    """(M, atol): a random symmetric M, changed inside one tile of the upper
    triangle or its mirror: entries scaled by 1e-3 to 1e-14, mirrored
    +0.0/-0.0 pairs, NaN and +-inf, alone or mirrored. The tile is off the
    diagonal where M has more than one tile row."""
    n = draw(st.sampled_from(TILE_EDGE_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n, n))
    M = B + B.T
    atol = 1e-12 * max(1.0, float(np.abs(M).max()))
    starts = list(range(0, n, 256))
    ti = draw(st.sampled_from(starts[:-1] or starts))
    tj = draw(st.sampled_from([t for t in starts if t > ti] or [ti]))
    rows = range(ti, min(ti + 256, n))
    cols = range(tj, min(tj + 256, n))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.sampled_from(rows)), draw(st.sampled_from(cols))
        if draw(st.booleans()):
            i, j = j, i
        kind = draw(st.sampled_from(["scale", "zero", "nan", "inf", "mirror"]))
        if kind == "scale":
            rel = draw(st.sampled_from([1e-3, 1e-5, 1.00001e-5, 1e-6, 1e-9,
                                        1e-12, 1e-14]))
            rel *= draw(st.sampled_from([-1.0, 1.0]))
            # an entry already set to inf or NaN stays as it is
            if np.isfinite(M[i, j]):
                M[i, j] += rel * (abs(M[i, j]) + 1e-12)
        elif kind == "zero":
            M[i, j], M[j, i] = 0.0, -0.0
        elif kind == "nan":
            M[i, j] = np.nan
        else:
            sign = draw(st.sampled_from([-1.0, 1.0]))
            M[i, j] = sign * np.inf
            if kind == "mirror":
                M[j, i] = draw(st.sampled_from([sign, -sign])) * np.inf
    return M, atol


@settings(max_examples=150, deadline=None)
@given(case=near_symmetric())
def test_symmetry_verdict_is_allclose_and_exact_is_array_equal(case):
    M, atol = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdict = _symmetry(M, atol)
    assert (verdict is not None) == np.allclose(M, M.T, atol=atol)
    if verdict is not None:
        assert verdict == np.array_equal(M, M.T)


def test_quadratic_log_value_and_fd():
    rng = np.random.default_rng(59)
    P = spd_matrix(rng, 4)
    c = rng.uniform(1.0, 3.0, size=4)
    obj = QuadraticObjective(P, c, xi=5.0)
    pts = rng.uniform(0.0, 2.0, size=(10, 4))
    x = pts[0]
    expected = 0.5 * x @ (P @ x) - np.log(c @ x + 5.0)
    assert_allclose(obj.value(x), expected, rtol=1e-12)
    assert_gradient_matches_fd(obj, pts)


def test_quadratic_log_rejects_nonpositive_argument():
    obj = QuadraticObjective(np.eye(2), np.ones(2), xi=1.0)
    with pytest.raises(ValueError):
        obj.value(np.array([-3.0, 0.0]))


def test_smoothed_l1_value_identity():
    rng = np.random.default_rng(61)
    P = spd_matrix(rng, 4)
    c = rng.uniform(1.0, 3.0, size=4)
    base = QuadraticObjective(P, c, xi=5.0)
    tau = 0.3
    obj = QuadraticObjective(P, c, xi=5.0, tau=tau)
    x = rng.uniform(0.0, 2.0, size=4)
    assert_allclose(obj.value(x),
                    base.value(x) + np.sum(np.sqrt(x**2 + tau**2)),
                    rtol=1e-12)
    assert_gradient_matches_fd(obj, rng.uniform(0.0, 2.0, size=(10, 4)))


def test_smoothed_l1_gap_to_nonsmooth_value():
    rng = np.random.default_rng(67)
    P = spd_matrix(rng, 6)
    c = rng.uniform(1.0, 3.0, size=6)
    base = QuadraticObjective(P, c, xi=5.0)
    x = rng.uniform(0.0, 1.5, size=6)
    nonsmooth = base.value(x) + np.sum(np.abs(x))
    for tau in (0.5, 0.1, 1e-3):
        obj = QuadraticObjective(P, c, xi=5.0, tau=tau)
        gap = obj.value(x) - nonsmooth
        assert 0.0 <= gap <= 6 * tau + 1e-12


def test_smoothed_l1_with_smoothing_rebuild():
    obj = QuadraticObjective(np.eye(2), np.ones(2), xi=5.0, tau=1.6)
    tighter = obj.with_smoothing(0.8)
    assert tighter.smoothing == 0.8
    assert obj.smoothing == 1.6
    x = np.array([0.5, 0.25])
    assert tighter.value(x) < obj.value(x)


def test_with_smoothing_shares_the_matrix_without_a_second_check(monkeypatch):
    obj = QuadraticObjective(np.eye(3), np.ones(3), xi=5.0, tau=1.6)
    unsmoothed = QuadraticObjective(np.eye(3), np.ones(3), xi=5.0)

    def no_check(M, atol):
        raise AssertionError("P checked again")

    monkeypatch.setattr(bicoord.objectives, "_symmetry", no_check)
    tighter = obj.with_smoothing(0.4)
    assert tighter.P is obj.P and tighter.c is obj.c
    assert (tighter.smoothing, tighter.xi) == (0.4, 5.0)
    assert objective_document(tighter)["params"]["tau"] == 0.4
    assert objective_document(obj)["params"]["tau"] == 1.6
    with pytest.raises(ValueError):
        obj.with_smoothing(0.0)
    with pytest.raises(ValueError):
        unsmoothed.with_smoothing(0.4)


def test_quadratic_rejects_tau_without_c():
    with pytest.raises(ValueError, match="needs the log term"):
        QuadraticObjective(np.eye(2), tau=0.5)
    with pytest.raises(ValueError):
        QuadraticObjective(np.eye(2), np.ones(3), xi=5.0)


def test_quadratic_spec_kind_follows_the_terms():
    P, c = np.eye(2), np.ones(2)
    specs = [objective_document(QuadraticObjective(P)),
             objective_document(QuadraticObjective(P, c, xi=5.0)),
             objective_document(QuadraticObjective(P, c, xi=5.0, tau=0.5))]
    assert [(s["kind"], list(s["params"])) for s in specs] == [
        ("quadratic", ["matrix"]),
        ("quadratic_log", ["matrix", "c", "xi"]),
        ("quadratic_log_l1", ["matrix", "c", "xi", "tau"]),
    ]


def test_svm_dual_value_at_zero():
    rng = np.random.default_rng(71)
    A = rng.standard_normal((6, 3))
    y0 = np.zeros(6)
    # p = 2: exact plus of -1 vanishes
    assert_allclose(SvmDualObjective(A, tau=10.0, p=2).value(y0), 0.0)
    # p = 1: each feature contributes two smoothed plus terms at -1
    eps = 1e-2
    obj = SvmDualObjective(A, tau=10.0, p=1, smooth_eps=eps)
    expected = 10.0 * 3 * 2 * smooth_plus(-1.0, eps)[0]
    assert_allclose(obj.value(y0), expected, rtol=1e-12)


def test_svm_dual_gradients_fd():
    rng = np.random.default_rng(73)
    A = rng.standard_normal((6, 3))
    pts = rng.uniform(0.0, 2.0, size=(10, 6))
    assert_gradient_matches_fd(SvmDualObjective(A, tau=7.0, p=2), pts,
                               rtol=1e-4)
    assert_gradient_matches_fd(
        SvmDualObjective(A, tau=7.0, p=1, smooth_eps=1e-2), pts)


def test_svm_dual_validation():
    A = np.ones((2, 2))
    with pytest.raises(ValueError):
        SvmDualObjective(A, tau=0.0, p=2)
    with pytest.raises(ValueError):
        SvmDualObjective(A, tau=1.0, p=3)
    with pytest.raises(ValueError):
        SvmDualObjective(A, tau=1.0, p=1)  # missing smooth_eps


def test_portfolio_penalty_inactive():
    obj = PortfolioObjective(np.eye(2), means=np.ones(2), target=0.0,
                             tau=10.0, p=2)
    x = np.array([0.5, 0.5])
    assert_allclose(obj.value(x), x @ x, rtol=1e-12)
    assert_allclose(obj.gradient(x), 2.0 * x, rtol=1e-12)


def test_portfolio_penalty_active_and_fd():
    rng = np.random.default_rng(79)
    C = spd_matrix(rng, 3)
    means = rng.uniform(0.0, 2.0, size=3)
    pts = rng.uniform(0.0, 1.0, size=(10, 3))
    obj2 = PortfolioObjective(C, means, target=5.0, tau=4.0, p=2)
    x = pts[0]
    short = 5.0 - means @ x
    assert_allclose(obj2.value(x), x @ (C @ x) + 2.0 * short**2, rtol=1e-12)
    assert_gradient_matches_fd(obj2, pts, rtol=1e-4)
    obj1 = PortfolioObjective(C, means, target=5.0, tau=4.0, p=1,
                              smooth_eps=1e-2)
    assert_gradient_matches_fd(obj1, pts)


#: its gradient 2 C x at (0.2, 0.3, 0.5) is (1.7, 0.6, 1.0), where central
#: differences of the value give (0.8, 1.2, 1.0)
SKEWED_COVARIANCE = [[2.0, 1.5, 0.0], [-1.5, 2.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("C, fault", [
    (SKEWED_COVARIANCE, "symmetric"),
    ([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]], "finite"),
    (np.ones((3, 2)), "square")])
def test_portfolio_objective_refuses_a_covariance_its_gradient_cannot_use(C, fault):
    with pytest.raises(ValueError, match=f"covariance must be {fault}"):
        PortfolioObjective(np.array(C), np.ones(3), 1.0, tau=10.0, p=2)


def test_symmetric_matrix_check_returns_what_quadratic_keeps():
    P = np.array([[2.0, -3.0], [-3.0, 1.0]])
    M, m_max, exact = _symmetric_matrix(P.tolist(), "P", 1e-12)
    assert M.dtype == float and np.array_equal(M, P)
    assert (m_max, exact) == (3.0, True)
    obj = QuadraticObjective(P)
    assert (obj._p_max, obj._symmetric) == (3.0, True)
    # np.allclose's rtol of 1e-5 admits a gap of 1e-6 next to 3, not 1e-3
    step = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert _symmetric_matrix(P + 1e-6 * step, "P", 1e-12)[2] is False
    with pytest.raises(ValueError, match="P must be symmetric"):
        _symmetric_matrix(P + 1e-3 * step, "P", 1e-12)


def test_separable_quadratic_cheap_partial():
    lin = np.array([1.0, -1.0, 0.0])
    quad = np.array([2.0, 1.0, 3.0])
    obj = SeparableQuadraticObjective(lin, quad)
    x = np.array([1.0, 2.0, -1.0])
    assert_allclose(obj.value(x), lin @ x + 0.5 * quad @ x**2)
    assert_allclose(obj.gradient(x), lin + quad * x)
    assert_allclose(obj.partial(2, x), -3.0)


def test_partials_agree_with_gradient_everywhere():
    rng = np.random.default_rng(89)
    A = rng.standard_normal((5, 2))
    objs = [
        QuadraticObjective(spd_matrix(rng, 5)),
        QuadraticObjective(spd_matrix(rng, 5), rng.uniform(1, 2, 5), xi=5.0),
        QuadraticObjective(spd_matrix(rng, 5), rng.uniform(1, 2, 5), xi=5.0,
                           tau=0.5),
        SvmDualObjective(A, tau=3.0, p=2),
        PortfolioObjective(spd_matrix(rng, 5), rng.uniform(0, 1, 5),
                           target=2.0, tau=3.0, p=2),
    ]
    for obj in objs:
        x = rng.uniform(0.0, 1.0, size=5)
        g = obj.gradient(x)
        for i in range(5):
            assert abs(obj.partial(i, x) - g[i]) <= 1e-12 * max(1, abs(g[i]))


def test_base_with_smoothing_requires_parameter():
    with pytest.raises(ValueError):
        LinearObjective(np.ones(2)).with_smoothing(0.1)


@pytest.mark.parametrize("c, xi, name", [([np.nan, 1.0], 1.0, "c"),
                                         ([1.0, np.inf], 1.0, "c"),
                                         ([1.0, 1.0], np.nan, "xi"),
                                         ([1.0, 1.0], -np.inf, "xi")])
def test_quadratic_log_rejects_non_finite_data(c, xi, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        QuadraticObjective(np.eye(2), c, xi)
