"""Coupled quartic-exponent density and its two factored approximations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trellis.numerics import adaptive_simpson_2d
from trellis.pe import (PE_NORM, _coordinate_ascent, pe_approximate, pe_logpdf, pe_model,
                        pe_tvb, pe_vb)


def test_model_validation():
    with pytest.raises(ValueError):
        pe_model(1.0)
    with pytest.raises(ValueError):
        pe_model(-1.0)
    with pytest.raises(ValueError):
        pe_model(0.5, method="qr")
    with pytest.raises(ValueError):
        pe_approximate(pe_model(0.5), method="mcmc")


@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_density_mass(rho):
    model = pe_model(rho)

    def f(x, y):
        return np.exp(pe_logpdf(x, y, model))

    mass = adaptive_simpson_2d(f, -8.0, 8.0, -8.0, 8.0, rtol=1e-9)
    assert_allclose(mass, 1.0, atol=1e-6)


def test_normalizer_value():
    assert_allclose(PE_NORM, np.sqrt(2.0) / np.pi ** 1.5, rtol=1e-15)
    # peak of the standard uncorrelated density is the bare normalizer
    model = pe_model(0.0)
    assert_allclose(np.exp(pe_logpdf(0.0, 0.0, model)), PE_NORM, rtol=1e-12)


def test_factors_are_normalized():
    factors, moments = pe_vb(pe_model(0.5))
    for f in factors:
        assert_allclose(f.moment(0), 1.0, atol=1e-9)
    tf, m2, lam = pe_tvb(pe_model(0.5))
    for f in tf:
        assert_allclose(f.moment(0), 1.0, atol=1e-9)
    assert np.all(m2 > 0) and np.all(lam > 0)


def test_uncorrelated_moments_are_symmetric():
    factors, moments = pe_vb(pe_model(0.0))
    assert_allclose(moments[:, 0], 0.0, atol=1e-9)   # odd moments vanish
    assert_allclose(moments[:, 2], 0.0, atol=1e-9)
    assert moments[0, 1] > 0


def test_transforms_agree_when_uncorrelated():
    for method in ("eigen", "ldu"):
        model = pe_model(0.0, method=method)
        _, kv = pe_approximate(model, "vb")
        _, kt = pe_approximate(model, "tvb")
        assert_allclose(kv, kt, atol=1e-6)


@pytest.mark.parametrize("method", ["eigen", "ldu"])
def test_transformed_divergence_dominates(method):
    klds_t = []
    for rho in (0.0, 0.5, 0.8):
        model = pe_model(rho, method=method)
        _, kv = pe_approximate(model, "vb")
        _, kt = pe_approximate(model, "tvb")
        assert kt >= -1e-6
        assert kt <= kv + 1e-9
        klds_t.append(kt)
    klds_t = np.array(klds_t)
    # decoupling first removes the correlation dependence entirely
    assert klds_t.max() - klds_t.min() < 0.05 * klds_t.mean()


def test_vb_divergence_grows_with_correlation():
    k = [pe_approximate(pe_model(r), "vb")[1] for r in (0.0, 0.4, 0.8)]
    assert k[0] < k[1] < k[2]


def test_coordinate_ascent_raises_when_the_statistics_never_settle():
    # both statistics flip sign at every sweep: a two-cycle
    calls = []

    def oscillating(i, other):
        calls.append(i)
        return None, (-1.0) ** (len(calls) // 2)

    with pytest.raises(RuntimeError, match="did not settle in 4 sweeps"):
        _coordinate_ascent(oscillating, np.zeros(2), 4, 1e-12)
    assert calls == [0, 1] * 4
