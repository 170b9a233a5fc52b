"""Constellations, fading quantization, and the augmented product chain."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from conftest import flushed_exp, fresh_simpson_2d, reference_bessel_i0_log
from trellis import channel
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
from trellis.numerics import safe_log


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


def _reference_transition_matrix(K, rho, sigma2=0.5):
    # the quadrature as first written: every cell and tile on its own, a
    # fresh grid at every level and one I0 series over each whole grid
    thr = rayleigh_quantizer(K, sigma2).thresholds
    s2, qq = float(sigma2), 1.0 - rho * rho
    ridge = np.sqrt(s2 * (1.0 - rho ** 2))

    def f(gi, gj):
        out = safe_log(gi) + safe_log(gj) - np.log(s2 * s2 * qq)
        out = out - (gi ** 2 + gj ** 2) / (2.0 * s2 * qq)
        if rho > 0.0:
            out = out + reference_bessel_i0_log(gi * gj * rho / (s2 * qq))
        return np.exp(out)

    def knots(lo, hi):
        return np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / (12.0 * ridge)))) + 1)

    Tc = np.empty((K, K))
    for ci in range(K):
        for cj in range(K):
            xs, ys = knots(thr[ci], thr[ci + 1]), knots(thr[cj], thr[cj + 1])
            total = 0.0
            for ax, bx in zip(xs[:-1], xs[1:]):
                for ay, by in zip(ys[:-1], ys[1:]):
                    total += fresh_simpson_2d(f, ax, bx, ay, by, atol=1e-12)[0]
            Tc[ci, cj] = K * total
    Tc /= Tc.sum(axis=0, keepdims=True)
    return Tc


@pytest.fixture
def empty_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(channel, "_TC_MEMO", memo, raising=False)
    return memo


@pytest.mark.parametrize("K, rho", [(K, rho) for K in (1, 2, 3, 4) for rho in (0.0, 0.5, 0.9)]
                         + [(2, 0.99)])
def test_transition_matrix_equals_fresh_grid_quadrature(K, rho, empty_memo):
    if rho == 0.99:  # the top cell is cut into ridge-wide tiles
        ridge = np.sqrt(0.5 * (1.0 - rho ** 2))
        thr = rayleigh_quantizer(K).thresholds
        assert thr[K] - thr[K - 1] > 3 * 12.0 * ridge
    got = channel_transition_matrix(K, rho)
    assert got.tobytes() == _reference_transition_matrix(K, rho).tobytes()


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.999])
def test_single_cell_chain_integrates_nothing(rho, monkeypatch, empty_memo):
    def no_density(*args):
        raise AssertionError("a one-cell chain evaluated the density")

    monkeypatch.setattr(channel, "rayleigh_pair_logpdf", no_density)
    assert channel_transition_matrix(1, rho).tobytes() == np.ones((1, 1)).tobytes()
    with pytest.raises(ValueError, match="sigma2"):
        channel_transition_matrix(1, rho, sigma2=0)


def test_transition_matrix_evaluates_each_point_once(monkeypatch, empty_memo):
    # fresh grids at every level and every cell on its own took the
    # density at 2,638,382 points for this matrix
    points = []
    density = channel.rayleigh_pair_logpdf

    def counting(gi, gj, rho, sigma2):
        points.append(np.broadcast(gi, gj).size)
        return density(gi, gj, rho, sigma2)

    monkeypatch.setattr(channel, "rayleigh_pair_logpdf", counting)
    channel_transition_matrix(4, 0.5)
    assert 0 < sum(points) <= 0.45 * 2638382


def test_transition_matrix_memo(monkeypatch, empty_memo):
    builds = []
    build = channel._transition_matrix

    def counting(*args):
        builds.append(args[:3])
        return build(*args)

    monkeypatch.setattr(channel, "_transition_matrix", counting)
    a = channel_transition_matrix(3, 0.5)
    a[0, 0] = -1.0
    b = channel_transition_matrix(3, 0.5, quantizer=rayleigh_quantizer(3))
    assert b[0, 0] > 0.0 and not np.shares_memory(a, b)
    assert channel_transition_matrix(3, 0.5).tobytes() == b.tobytes()
    assert len(builds) == 1 and len(empty_memo) == 1
    # sigma2 and the thresholds are both part of the key
    c = channel_transition_matrix(3, 0.5, sigma2=0.7)
    # the thresholds of c with sigma2 0.5: only sigma2 differs from c
    q7 = rayleigh_quantizer(3, 0.7)
    d = channel_transition_matrix(3, 0.5, quantizer=q7._replace(sigma2=0.5))
    # the thresholds of b scaled: only the thresholds differ from b
    q = rayleigh_quantizer(3)
    e = channel_transition_matrix(3, 0.5, quantizer=q._replace(thresholds=1.1 * q.thresholds))
    assert len(builds) == 4 and len(empty_memo) == 4
    assert not np.array_equal(d, c) and not np.array_equal(e, b)


@pytest.mark.parametrize("rho", [1.0, 1.5, -0.1, float("nan"), float("inf")])
def test_transition_matrix_rejects_rho_outside_unit_interval(rho, monkeypatch, empty_memo):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before rho was checked")

    monkeypatch.setattr(channel, "rayleigh_quantizer", no_work)
    with pytest.raises(ValueError, match="rho"):
        channel_transition_matrix(4, rho)
    assert not empty_memo


@pytest.mark.parametrize("sigma2", [0.0, -1.0, float("nan"), float("inf")])
def test_quantizer_rejects_bad_sigma2(sigma2):
    with pytest.raises(ValueError, match="sigma2"):
        rayleigh_quantizer(4, sigma2)


@pytest.mark.parametrize("quantizer, word", [
    (lambda: rayleigh_quantizer(2, 2.0), "sigma2"),
    (lambda: rayleigh_quantizer(3), "cells"),
    (lambda: rayleigh_quantizer(1), "cells"),
])
def test_transition_matrix_rejects_a_quantizer_for_another_model(quantizer, word):
    q = quantizer()
    with pytest.raises(ValueError, match=word):
        channel_transition_matrix(2, 0.5, 0.5, quantizer=q)


@pytest.mark.parametrize("M_src, K_chain", [(4, 4), (2, 2), (16, 2)])
def test_augmented_model_rejects_mismatched_chains(M_src, K_chain):
    # a 4-QAM source with a 2-cell quantizer needs a 4 x 4 T_s and a 2 x 2 T_c
    T_s = np.full((M_src, M_src), 1.0 / M_src)
    T_c = np.full((K_chain, K_chain), 1.0 / K_chain)
    with pytest.raises(ValueError, match="T_s" if M_src != 4 else "T_c"):
        augmented_model(T_s, QamConstellation(4), T_c, rayleigh_quantizer(2))


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


def _psi_exponent(x, means, n0):
    d2 = np.abs(np.asarray(x)[..., None] - np.asarray(means)) ** 2
    e = -d2 / float(n0)
    e -= e.max(axis=-1, keepdims=True)
    return e


def _psi_reference(x, means, n0):
    """The direct formula's exponentials, with subnormal results set to +0.0."""
    return flushed_exp(_psi_exponent(x, means, n0))


def _subnormal_count(a):
    return int(((a > 0) & (a < np.finfo(float).tiny)).sum())


@pytest.mark.parametrize("shape", [(7,), (64,), (130,), (1, 1), (3, 129), (2, 2, 65)])
@pytest.mark.parametrize("n0", [1e-3, 0.5, 4.0])
def test_gaussian_psi_bits_match_the_direct_formula(shape, n0):
    rng = np.random.default_rng(75)
    means = QamConstellation(16).points
    x = rng.choice(means, size=shape) + 0.4 * (rng.standard_normal(shape)
                                               + 1j * rng.standard_normal(shape))
    got = gaussian_psi(x, means, n0)
    assert got.dtype == np.float64
    assert got.tobytes() == _psi_reference(x, means, n0).tobytes()
    if n0 == 1e-3 and x.size >= 64:
        # the unflushed formula reaches the subnormal band here
        assert _subnormal_count(np.exp(_psi_exponent(x, means, n0))) > 0


def test_gaussian_psi_leaves_no_subnormal_on_a_fading_block():
    # A fading-16qam block: 16-QAM over a 4-cell channel at rho 0.5 (64
    # states), 40 trials at 16 dB. Over 1% of the plain formula's entries
    # are subnormal, and every one of them is +0.0 in gaussian_psi.
    rng = np.random.default_rng(23)
    const = QamConstellation(16)
    quant = rayleigh_quantizer(4)
    aug = augmented_model(random_source(16, rng)[0], const,
                          channel_transition_matrix(4, 0.5, quantizer=quant), quant)
    B, n = 40, 250
    states = sample_chain(aug.T, aug.p, rng.random((B, n)))
    n0 = snr_to_n0(16.0)
    x = awgn_observe(aug.means[states], n0, rng.standard_normal((B, 2 * n)))
    plain = np.exp(_psi_exponent(x, aug.means, n0))
    got = gaussian_psi(x, aug.means, n0)
    assert _subnormal_count(plain) > 0.01 * plain.size
    assert _subnormal_count(got) == 0
    assert got.tobytes() == _psi_reference(x, aug.means, n0).tobytes()


@pytest.mark.parametrize("M", [2, 4, 16, 64])
@pytest.mark.parametrize("shape", [(1, 1), (70,), (5, 130)])
def test_gaussian_psi_bits_at_nan_inf_and_exact_hits(M, shape):
    # a row's maximum is read at its argmax: NaN for a NaN row, -inf
    # (and so NaN) for an infinite one, and -0.0 at an exact hit
    rng = np.random.default_rng(M)
    means = QamConstellation(M).points
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = x.reshape(-1)
    flat[::3] = rng.choice(means, size=flat[::3].size)
    flat[1::7] = np.nan
    flat[2::11] = np.inf
    with np.errstate(invalid="ignore"):
        got = gaussian_psi(x, means, 0.25)
        want = _psi_reference(x, means, 0.25)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).any() == (flat.size > 1)


def test_gaussian_psi_holds_no_complex_copy_of_its_output():
    import tracemalloc

    rng = np.random.default_rng(76)
    means = QamConstellation(16).points
    x = rng.standard_normal((8, 1000)) + 1j * rng.standard_normal((8, 1000))
    tracemalloc.start()
    try:
        out = gaussian_psi(x, means, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus one block of steps; a complex (8, 1000, 16)
    # difference alone would be twice the output
    assert peak < 1.5 * out.nbytes


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
