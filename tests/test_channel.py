"""Constellations, fading quantization, and the augmented product chain."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from trellis.channel import (
    QamConstellation,
    augmented_model,
    awgn_observe,
    channel_transition_matrix,
    gaussian_psi,
    op_count_proxy,
    random_source,
    rayleigh_quantizer,
    rho_from_doppler,
    sample_chain,
    snr_to_n0,
)
from trellis.hmc import HmcModel, brute_force_posterior, fb_algorithm


@pytest.mark.parametrize("M", [2, 4, 16, 64])
def test_unit_energy_per_bit(M):
    c = QamConstellation(M)
    eb = np.mean(np.abs(c.points) ** 2) / c.bits_per_symbol
    assert_allclose(eb, 1.0, atol=1e-9)
    assert c.bits.shape == (M, int(np.log2(M)))


def test_small_constellations():
    c2 = QamConstellation(2)
    assert_allclose(sorted(c2.points.real), [-1.0, 1.0])
    assert_allclose(c2.points.imag, 0.0)
    c4 = QamConstellation(4)
    assert {(round(p.real), round(p.imag)) for p in c4.points} == \
        {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_rejects_non_square_sizes():
    for M in (3, 8, 32):
        with pytest.raises(ValueError):
            QamConstellation(M)


def test_gray_adjacency_16qam():
    c = QamConstellation(16)
    L = 4
    for ai in range(L):
        for aq in range(L):
            idx = ai * L + aq
            if aq + 1 < L:
                assert c.bit_distance[idx, ai * L + aq + 1] == 1
            if ai + 1 < L:
                assert c.bit_distance[idx, (ai + 1) * L + aq] == 1


def test_bit_distance_table():
    c = QamConstellation(16)
    assert np.array_equal(c.bit_distance, c.bit_distance.T)
    assert np.all(np.diag(c.bit_distance) == 0)
    assert len({tuple(b) for b in c.bits}) == 16


def test_snr_to_n0():
    assert_allclose(snr_to_n0(0.0), 1.0)
    assert_allclose(snr_to_n0(10.0), 0.1)
    assert_allclose(snr_to_n0(20.0), 0.01)


def test_doppler_correlation():
    assert_allclose(rho_from_doppler(0.0), 1.0, atol=1e-15)
    first_zero = 2.404825557695773
    assert abs(rho_from_doppler(first_zero / (2.0 * np.pi))) < 1e-6


def test_quantizer_thresholds():
    q = rayleigh_quantizer(2, sigma2=0.5)
    assert_allclose(q.thresholds[1], np.sqrt(np.log(2.0)), atol=1e-12)
    for K in (2, 4, 8):
        q = rayleigh_quantizer(K)
        s2 = q.sigma2
        cdf = 1.0 - np.exp(-q.thresholds[1:K] ** 2 / (2.0 * s2))
        assert_allclose(cdf, np.arange(1, K) / K, atol=1e-12)
        assert np.all(np.diff(q.thresholds) > 0)


@pytest.mark.parametrize("K", [1, 4])
def test_quantizer_levels_against_quadrature(K):
    q = rayleigh_quantizer(K)
    s2 = q.sigma2
    for c in range(K):
        ref, _ = integrate.quad(
            lambda g: g * (g / s2) * np.exp(-(g ** 2) / (2.0 * s2)),
            q.thresholds[c], q.thresholds[c + 1])
        assert_allclose(q.levels[c], K * ref, rtol=1e-9)
    assert np.all(np.diff(q.levels) > 0) or K == 1


def test_transition_matrix_uncorrelated():
    Tc = channel_transition_matrix(4, rho=0.0)
    assert_allclose(Tc, 0.25, atol=1e-6)
    assert_allclose(Tc.sum(axis=0), 1.0, atol=1e-12)


def test_transition_matrix_against_quadrature():
    K, rho = 3, 0.5
    q = rayleigh_quantizer(K)
    Tc = channel_transition_matrix(K, rho, quantizer=q)
    s2 = q.sigma2
    qq = 1.0 - rho * rho

    def f(gi, gj):
        from trellis.numerics import bessel_i0_log
        lg = (np.log(gi) + np.log(gj) - np.log(s2 * s2 * qq)
              - (gi ** 2 + gj ** 2) / (2.0 * s2 * qq)
              + bessel_i0_log(gi * gj * rho / (s2 * qq)))
        return np.exp(lg)

    raw = np.empty((K, K))
    for ci in range(K):
        for cj in range(K):
            raw[ci, cj], _ = integrate.dblquad(
                lambda gi, gj: f(gi, gj),
                q.thresholds[cj], q.thresholds[cj + 1],
                q.thresholds[ci], q.thresholds[ci + 1],
                epsabs=1e-13, epsrel=1e-11)
    raw *= K
    raw /= raw.sum(axis=0, keepdims=True)
    assert_allclose(Tc, raw, atol=1e-9)


def test_transition_matrix_single_cell():
    assert_allclose(channel_transition_matrix(1, rho=0.9), [[1.0]])


def test_transition_matrix_high_correlation_is_diagonal_heavy():
    Tc = channel_transition_matrix(4, rho=0.999)
    assert np.all(np.diag(Tc) > 0.9)
    assert_allclose(Tc.sum(axis=0), 1.0, atol=1e-12)


def test_augmented_kron_columns():
    rng = np.random.default_rng(71)
    M, K = 4, 3
    T_s, _ = random_source(M, rng)
    q = rayleigh_quantizer(K)
    T_c = channel_transition_matrix(K, 0.7, quantizer=q)
    aug = augmented_model(T_s, QamConstellation(M), T_c, q)
    for k in range(K):
        for m in range(M):
            col = aug.T[:, k * M + m]
            assert_allclose(col, np.kron(T_c[:, k], T_s[:, m]), atol=1e-14)
    assert_allclose(aug.p, 1.0 / (M * K))
    for k in range(K):
        for m in range(M):
            assert aug.means[k * M + m] == q.levels[k] * aug.constellation.points[m]


def test_augmented_chain_inference_consistency():
    rng = np.random.default_rng(72)
    M, K, n = 2, 2, 5
    T_s, _ = random_source(M, rng)
    q = rayleigh_quantizer(K)
    T_c = channel_transition_matrix(K, 0.5, quantizer=q)
    aug = augmented_model(T_s, QamConstellation(M), T_c, q)
    Psi = rng.random((n, M * K)) + 1e-3
    model = HmcModel(aug.T, aug.p, Psi)
    sm = fb_algorithm(model)
    brute = brute_force_posterior(model)
    for i in range(1, n + 1):
        assert_allclose(sm.gamma[i - 1], brute.marginal(i), atol=1e-10)


def test_gaussian_psi_shape_and_peak():
    rng = np.random.default_rng(73)
    c = QamConstellation(4)
    x = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    Psi = gaussian_psi(x, c.points, n0=0.5)
    assert Psi.shape == (5, 7, 4)
    assert_allclose(Psi.max(axis=-1), 1.0)
    nearest = np.argmin(np.abs(x[..., None] - c.points), axis=-1)
    assert np.array_equal(np.argmax(Psi, axis=-1), nearest)


def test_sample_chain_statistics():
    rng = np.random.default_rng(74)
    M = 3
    T, p = random_source(M, rng)
    u = rng.random((20000, 5))
    lab = sample_chain(T, p, u)
    assert np.array_equal(sample_chain(T, p, u), lab)
    # empirical transition frequencies within 5 sigma of each column
    for k in range(M):
        src = lab[:, :-1] == k
        cnt = src.sum()
        for j in range(M):
            freq = np.logical_and(lab[:, 1:] == j, src).sum() / cnt
            sig = np.sqrt(T[j, k] * (1 - T[j, k]) / cnt)
            assert abs(freq - T[j, k]) < 5 * sig + 1e-9


def test_awgn_observe():
    rng = np.random.default_rng(75)
    sym = (rng.integers(0, 2, size=(4, 6)) * 2 - 1).astype(complex)
    clean = awgn_observe(sym, 0.5, np.zeros((4, 12)))
    assert_allclose(clean, sym)
    big = awgn_observe(np.zeros((2000, 8), dtype=complex), 0.5,
                      rng.standard_normal((2000, 16)))
    assert_allclose(np.var(big.real), 0.25, rtol=0.1)
    assert_allclose(np.var(big.imag), 0.25, rtol=0.1)


def test_op_count_ordering():
    for M in (2, 4, 16):
        n = 1000
        t = {m: op_count_proxy(m, n, M)["total"]
             for m in ("ml", "fb", "va", "vb", "fcvb")}
        assert t["fcvb"] < t["va"] < t["fb"] < t["vb"]
    with pytest.raises(ValueError):
        op_count_proxy("mystery", 10, 2)
