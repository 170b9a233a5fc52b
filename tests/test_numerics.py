"""Numeric kernels against closed forms and scipy references."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from conftest import flushed_exp, fresh_simpson_2d, reference_bessel_i0_log

from trellis.numerics import (
    LOG0,
    adaptive_simpson_1d,
    adaptive_simpson_2d,
    bessel_i0_log,
    bessel_j0,
    exp_inplace,
    log_normalize_inplace,
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
    a = log_normalize_inplace(logw.copy())
    b = log_normalize_inplace(logw + 1234.5)
    assert_allclose(a, b, atol=1e-14)
    assert_allclose(a.sum(), 1.0, atol=1e-12)


def test_log_normalize_rows_equal_single_calls():
    logw = np.random.default_rng(4).normal(size=(5, 33)) * 40.0
    block = log_normalize_inplace(logw.copy())
    for row, w in zip(logw, block):
        assert np.array_equal(log_normalize_inplace(row.copy()), w)
    assert_allclose(block.sum(axis=1), 1.0, atol=1e-12)


def test_log_normalize_extreme_range():
    out = log_normalize_inplace(np.array([0.0, -1e9, -2e9]))
    assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-300)


# exp rounds to +0.0 at and below log(2**-1075); the float64 just above
# this rounds up to the smallest subnormal
_HALF_SUBNORMAL_LOG = -745.1332191019412
# exp is normal (at least tiny) from this float64 up, subnormal below it
_NORMAL_LOG = -708.3964185322641
_TINY = np.finfo(float).tiny


def _exp_mixture(rng, shape):
    """Shifted-log-like entries drawn from every band np.exp treats apart."""
    bands = [
        rng.uniform(-50.0, 0.0, shape),
        rng.uniform(-745.1, -708.4, shape),  # subnormal and near-underflow results
        rng.uniform(-1e5, -745.2, shape),
        np.full(shape, LOG0),
        np.full(shape, -np.inf),
        np.full(shape, np.nan),
        np.full(shape, -0.0),
        np.full(shape, np.nextafter(_HALF_SUBNORMAL_LOG, 0.0)),
        np.full(shape, _HALF_SUBNORMAL_LOG),
        np.full(shape, np.nextafter(_HALF_SUBNORMAL_LOG, -np.inf)),
        np.full(shape, np.nextafter(_NORMAL_LOG, 0.0)),
        np.full(shape, _NORMAL_LOG),
        np.full(shape, np.nextafter(_NORMAL_LOG, -np.inf)),
    ]
    pick = rng.integers(0, len(bands), shape)
    return np.choose(pick, bands)


def _subnormal(a):
    return (a > 0) & (a < _TINY)


def test_the_cut_is_where_exp_stops_being_normal():
    # the module's cut is the log of the smallest normal double, and on
    # this platform's np.exp that float is exactly the normal edge
    from trellis.numerics import _EXP_ZERO_BELOW

    assert _EXP_ZERO_BELOW == _NORMAL_LOG
    assert np.exp(_NORMAL_LOG) >= _TINY
    assert _subnormal(np.exp(np.nextafter(_NORMAL_LOG, -np.inf)))


@pytest.mark.parametrize("shape", [(257,), (9, 33), (4, 7, 5)])
def test_exp_inplace_bits_equal_np_exp(shape):
    x = _exp_mixture(np.random.default_rng(sum(shape)), shape)
    want = flushed_exp(x)
    got = x.copy()
    assert exp_inplace(got) is got
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the bands the mixture must reach, subnormal results of np.exp among
    # them, which the flush sets to +0.0
    assert np.isnan(want).any() and (want == 0).any() and (got == 1.0).any()
    assert _subnormal(np.exp(x)).any() and not _subnormal(got).any()


def test_exp_inplace_at_the_rounding_edge():
    x = np.array([np.nextafter(_HALF_SUBNORMAL_LOG, 0.0), _HALF_SUBNORMAL_LOG,
                  np.nextafter(_HALF_SUBNORMAL_LOG, -np.inf), -745.2, -745.3])
    assert np.exp(x)[0] == 5e-324 and not np.exp(x)[1:].any()
    want = flushed_exp(x)
    assert not want.any()
    got = exp_inplace(x.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a strided view, as gaussian_psi passes a block of its output
    block = np.tile(x, (3, 2))[:, ::2]
    want = flushed_exp(block)
    assert np.array_equal(exp_inplace(block).view(np.int64), want.view(np.int64))


def test_exp_inplace_at_the_normal_cut():
    up, down = np.nextafter(_NORMAL_LOG, 0.0), np.nextafter(_NORMAL_LOG, -np.inf)
    x = np.array([up, _NORMAL_LOG, down, -0.0, 0.0, np.nan, np.inf, -np.inf, -708.0])
    with np.errstate(over="ignore"):
        want = flushed_exp(x)
    # np.exp's bits at and above the cut, +0.0 (not -0.0) below it
    assert want[0] > want[1] >= _TINY and want[2] == 0.0 and not np.signbit(want[2])
    assert want[3] == want[4] == 1.0 and np.isnan(want[5]) and want[6] == np.inf
    assert want[7] == 0.0 and not np.signbit(want[7])
    got = exp_inplace(x.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the same entries in a strided block of a larger array, as
    # gaussian_psi passes one (every other step of a (2, 6, 9) output)
    out = np.tile(x, (2, 6, 1))
    out[:, 1::2] = -1.0
    block = out[:, ::2]
    assert not block.flags.contiguous
    exp_inplace(block)
    assert np.array_equal(block.view(np.int64), np.broadcast_to(want, block.shape).view(np.int64))
    assert (out[:, 1::2] == -1.0).all()


def test_log_normalize_bits_equal_the_plain_exp_formula():
    logw = _exp_mixture(np.random.default_rng(8), (40, 64))
    # most rows get a finite maximum; the last rows keep their NaNs
    logw[:30][np.isnan(logw[:30])] = LOG0
    logw[:30, 0] = 0.0
    want = logw - np.maximum.reduce(logw, axis=-1, keepdims=True)
    assert _subnormal(np.exp(want[:30])).any()
    want = flushed_exp(want)
    want /= np.add.reduce(want, axis=-1, keepdims=True)
    assert (want[:30] == 0).any() and np.isnan(want[30:]).all()
    assert np.array_equal(log_normalize_inplace(logw.copy()).view(np.int64),
                          want.view(np.int64))


def test_bessel_i0_log_bands_equal_whole_array_series():
    edges = np.array([0.0, 1.0, 3.0, 7.0, 15.0, 30.0, 60.0, 120.0])
    z = np.concatenate([
        np.linspace(0.0, 200.0, 400001),
        np.geomspace(1e-300, 1e5, 5000),
        edges, np.nextafter(edges, np.inf), np.nextafter(edges[1:], 0.0),
    ])
    got = bessel_i0_log(z)
    assert got.tobytes() == reference_bessel_i0_log(z).tobytes()
    # and each element alone, on both sides of every band edge
    for v in np.concatenate([edges, np.nextafter(edges, np.inf)]):
        assert bessel_i0_log(v) == reference_bessel_i0_log(v)[0]
        assert bessel_i0_log(-v) == bessel_i0_log(v)


def test_nested_simpson_equals_fresh_grids_non_separable():
    def f(x, y):
        return np.exp(-(x * x + y * y) + 1.5 * x * y) * np.log1p(x * x * y + 2.0)

    for rect in [(0.0, 1.0, 0.0, 3.0), (-1.0, 2.0, 0.5, 4.0)]:
        for rtol in (1e-6, 1e-11):
            ref, n = fresh_simpson_2d(f, *rect, rtol=rtol, n0=8)
            assert n > 16
            assert adaptive_simpson_2d(f, *rect, rtol=rtol, n0=8) == ref


def test_nested_simpson_equals_fresh_grids_pe_integrand():
    from trellis.pe import pe_logpdf, pe_model, pe_vb

    model = pe_model(0.8)
    (f1, f2), _ = pe_vb(model)

    def integrand(x, y):
        lf = f1.logpdf(x) + f2.logpdf(y)
        return np.exp(lf) * (lf - pe_logpdf(x, y, model))

    ref, n = fresh_simpson_2d(integrand, f1.lo, f1.hi, f2.lo, f2.hi, rtol=1e-7)
    assert n > 64
    assert adaptive_simpson_2d(integrand, f1.lo, f1.hi, f2.lo, f2.hi, rtol=1e-7) == ref


def test_mirrored_simpson_stops_each_orientation_on_its_own():
    def g(x, y):
        return np.exp(-(x * x + y * y) + 1.5 * x * y)

    rect, mirror = (0.0, 1.0, 0.0, 3.0), (0.0, 3.0, 0.0, 1.0)
    # the two orientations round their level-32 sums differently; a rtol
    # between their relative changes stops one at 32 and not the other
    change = []
    for r in (rect, mirror):
        a, b = simpson_2d(g, *r, 16), simpson_2d(g, *r, 32)
        change.append(abs(b - a) / abs(b))
    assert change[0] != change[1]
    rtol = 0.5 * (change[0] + change[1])
    ref = [fresh_simpson_2d(g, *r, rtol=rtol, n0=16) for r in (rect, mirror)]
    assert ref[0][1] != ref[1][1]
    got = adaptive_simpson_2d(g, *rect, rtol=rtol, n0=16, mirror=True)
    assert np.array(got).tobytes() == np.array([ref[0][0], ref[1][0]]).tobytes()
    assert adaptive_simpson_2d(g, *rect, rtol=rtol, n0=16) == ref[0][0]


def test_adaptive_simpson_2d_raises_at_n_max():
    def f(x, y):
        return np.exp(-(x * x + y * y) / 2.0)

    with pytest.raises(RuntimeError):
        adaptive_simpson_2d(f, -6, 6, -6, 6, rtol=0.0, n0=4, n_max=16)
    with pytest.raises(RuntimeError):
        adaptive_simpson_2d(f, -6, 6, -1, 1, rtol=0.0, n0=4, n_max=16, mirror=True)
