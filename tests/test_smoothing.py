import numpy as np
import pytest
from numpy.testing import assert_allclose

from bicoord import smooth_abs_sqrt, smooth_plus


def central_diff(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def test_sqrt_at_zero():
    value, der = smooth_abs_sqrt(0.0, 0.04)
    assert_allclose(value, 0.2)
    assert der == 0.0


def test_sqrt_345_triple():
    value, der = smooth_abs_sqrt(4.0, 9.0)
    assert_allclose(value, 5.0)
    assert_allclose(der, 0.8)


def test_sqrt_derivative_finite_difference():
    fd = central_diff(lambda t: smooth_abs_sqrt(t, 1.0)[0], 1.0)
    _, der = smooth_abs_sqrt(1.0, 1.0)
    assert_allclose(der, fd, rtol=1e-6)


def test_sqrt_upper_bound_on_abs():
    rng = np.random.default_rng(7)
    for eps in (1e-4, 0.01, 1.0, 9.0):
        t = rng.uniform(-10, 10, size=200)
        value, _ = smooth_abs_sqrt(t, eps)
        gap = value - np.abs(t)
        assert np.all(gap >= 0.0)
        assert np.all(gap <= np.sqrt(eps) + 1e-15)


def test_sqrt_symmetry():
    t = np.linspace(-3, 3, 41)
    v_pos, d_pos = smooth_abs_sqrt(t, 0.5)
    v_neg, d_neg = smooth_abs_sqrt(-t, 0.5)
    assert_allclose(v_pos, v_neg)
    assert_allclose(d_pos, -d_neg)


def test_plus_at_zero():
    value, _ = smooth_plus(0.0, 0.04)
    assert_allclose(value, 0.1)


def test_plus_large_argument():
    value, _ = smooth_plus(10.0, 1e-4)
    expected = (10.0 + np.sqrt(100.0 + 1e-4)) / 2.0
    assert_allclose(value, expected, rtol=1e-12)
    assert_allclose(value, 10.0000025, rtol=1e-7)


def test_plus_bounds_and_derivative_range():
    rng = np.random.default_rng(13)
    for eps in (1e-4, 0.04, 1.0):
        t = rng.uniform(-5, 5, size=200)
        value, der = smooth_plus(t, eps)
        gap = value - np.maximum(t, 0.0)
        assert np.all(gap >= 0.0)
        assert np.all(gap <= np.sqrt(eps) / 2 + 1e-15)
        assert np.all(der > 0.0)
        assert np.all(der < 1.0)


def test_plus_derivative_finite_difference():
    for t in (-1.0, 1.0):
        fd = central_diff(lambda s: smooth_plus(s, 0.25)[0], t)
        _, der = smooth_plus(t, 0.25)
        assert_allclose(der, fd, rtol=1e-6)


@pytest.mark.parametrize("fn", [smooth_abs_sqrt, smooth_plus])
def test_nonpositive_eps_rejected(fn):
    with pytest.raises(ValueError):
        fn(1.0, 0.0)
    with pytest.raises(ValueError):
        fn(1.0, -0.5)


def test_array_inputs_keep_shape():
    t = np.array([[0.0, 4.0], [-4.0, 1.0]])
    value, der = smooth_abs_sqrt(t, 9.0)
    assert value.shape == t.shape
    assert der.shape == t.shape
    assert_allclose(value[0, 1], 5.0)
