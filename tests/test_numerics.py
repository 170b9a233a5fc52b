"""Numeric kernels against closed forms and scipy references."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from trellis.numerics import (
    LOG0,
    adaptive_simpson_1d,
    adaptive_simpson_2d,
    bessel_i0_log,
    bessel_j0,
    log_normalize,
    safe_log,
    simpson_1d,
    simpson_2d,
    simpson_weights,
)


def test_safe_log_zero_sentinel():
    assert safe_log(0.0) == LOG0
    out = safe_log(np.array([0.0, 1.0, np.e]))
    assert out[0] == LOG0
    assert_allclose(out[1:], [0.0, 1.0], atol=1e-15)


def test_safe_log_scalar_type():
    assert isinstance(safe_log(2.0), float)


def test_bessel_j0_series_vs_scipy():
    z = np.linspace(0.0, 15.0, 2000)
    assert_allclose(bessel_j0(z), special.j0(z), atol=2e-11)


def test_bessel_j0_asymptotic_vs_scipy():
    # two-term expansion past the switch; only coarse accuracy is needed there
    z = np.linspace(15.01, 120.0, 3000)
    assert_allclose(bessel_j0(z), special.j0(z), atol=1e-6)


def test_bessel_j0_even_and_origin():
    assert bessel_j0(0.0) == 1.0
    assert bessel_j0(-3.7) == bessel_j0(3.7)


def test_bessel_i0_log_vs_scipy():
    z = np.concatenate([np.linspace(0.0, 15.0, 500), np.linspace(15.01, 700.0, 800)])
    ref = np.log(special.i0e(z)) + z
    assert_allclose(bessel_i0_log(z), ref, atol=5e-13)


def test_bessel_i0_log_continuous_at_switch():
    lo, hi = bessel_i0_log(15.0 - 1e-9), bessel_i0_log(15.0 + 1e-9)
    assert abs(hi - lo) < 1e-7


def test_simpson_weights_reject_odd():
    with pytest.raises(ValueError):
        simpson_weights(5)


def test_simpson_exact_for_cubic():
    val = simpson_1d(lambda x: x ** 3, 0.0, 1.0, 8)
    assert_allclose(val, 0.25, rtol=1e-14)


def test_adaptive_simpson_1d_exponential():
    val = adaptive_simpson_1d(np.exp, 0.0, 1.0, rtol=1e-12)
    assert_allclose(val, np.e - 1.0, rtol=1e-11)


def test_adaptive_simpson_1d_narrow_gaussian():
    s = 0.01
    val = adaptive_simpson_1d(
        lambda x: np.exp(-x * x / (2 * s * s)) / (s * np.sqrt(2 * np.pi)), -1.0, 1.0)
    assert_allclose(val, 1.0, rtol=1e-8)


def test_simpson_2d_separable_gaussian():
    def f(x, y):
        return np.exp(-(x * x + y * y) / 2.0) / (2.0 * np.pi)

    val = simpson_2d(f, -6, 6, -6, 6, 256)
    truth = special.erf(6 / np.sqrt(2)) ** 2
    assert_allclose(val, truth, rtol=1e-10)


def test_adaptive_simpson_2d_converges():
    def f(x, y):
        return np.exp(-(x * x + y * y) / 2.0) / (2.0 * np.pi)

    val = adaptive_simpson_2d(f, -6, 6, -6, 6, rtol=1e-10)
    assert_allclose(val, special.erf(6 / np.sqrt(2)) ** 2, rtol=1e-9)


def test_adaptive_simpson_2d_atol_stop():
    # rtol=0 forces the absolute criterion to do the stopping
    def f(x, y):
        return np.exp(-(x * x + y * y) / 2.0) / (2.0 * np.pi)

    val = adaptive_simpson_2d(f, -6, 6, -6, 6, rtol=0.0, atol=1e-6)
    assert abs(val - special.erf(6 / np.sqrt(2)) ** 2) < 1e-6


def test_log_normalize_shift_invariant():
    rng = np.random.default_rng(3)
    logw = rng.normal(size=17)
    a = log_normalize(logw)
    b = log_normalize(logw + 1234.5)
    assert_allclose(a, b, atol=1e-14)
    assert_allclose(a.sum(), 1.0, atol=1e-12)


def test_log_normalize_rows_equal_single_calls():
    logw = np.random.default_rng(4).normal(size=(5, 33)) * 40.0
    block = log_normalize(logw)
    for row, w in zip(logw, block):
        assert np.array_equal(log_normalize(row), w)
    assert_allclose(block.sum(axis=1), 1.0, atol=1e-12)


def test_log_normalize_extreme_range():
    out = log_normalize(np.array([0.0, -1e9, -2e9]))
    assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-300)
