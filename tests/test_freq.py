"""Tone frequency estimators: periodogram, grid posterior, mean-field refinements."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from trellis.freq import (
    FreqPrior,
    dft_grid,
    freq_posterior,
    periodogram,
    tvb_freq,
    tvb_u12,
    vb_freq,
)

PRIOR = FreqPrior(mu_a=1.0, r_a=0.1)


def _tone(n, omega, amp=1.0, noise=0.0, seed=0):
    i = np.arange(1, n + 1)
    x = amp * np.sin(omega * i)
    if noise > 0.0:
        x = x + np.sqrt(noise) * np.random.default_rng(seed).standard_normal(n)
    return x


def test_dft_grid():
    g = dft_grid(64, pad=8)
    assert g.shape == (256,)
    assert g[0] == 0.0
    assert_allclose(np.diff(g), 2.0 * np.pi / 512)
    assert g[-1] < np.pi
    with pytest.raises(ValueError):
        dft_grid(1)


@pytest.mark.parametrize("pad", [0, -2])
def test_dft_grid_rejects_pad_below_one(pad):
    with pytest.raises(ValueError, match="pad"):
        dft_grid(16, pad=pad)


def test_periodogram_peak_on_bin():
    n = 64
    grid = dft_grid(n, pad=1)
    p = periodogram(_tone(n, grid[5]), grid)
    assert int(np.argmax(p)) == 5


def test_periodogram_batched():
    n = 16
    grid = dft_grid(n, pad=2)
    X = np.stack([_tone(n, grid[3]), _tone(n, grid[7])])
    p = periodogram(X, grid)
    assert p.shape == (2, grid.size)
    assert np.array_equal(np.argmax(p, axis=1), [3, 7])


@pytest.mark.parametrize("shape", [(64,), (5, 64)])
def test_periodogram_bits_equal_the_direct_formula(shape):
    from trellis.freq import _grid_key, _phase_table

    n = shape[-1]
    grid = dft_grid(n, pad=32)
    x = np.random.default_rng(3).standard_normal(shape)
    ph = np.exp(-1j * np.outer(grid, np.arange(n)))
    want = np.abs(x @ ph.T) ** 2
    for _ in range(2):  # the call that builds the table and one that reuses it
        assert periodogram(x, grid).tobytes() == want.tobytes()
    table = _phase_table(_grid_key(grid), n)
    assert table is _phase_table(_grid_key(list(grid)), n)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_posterior_matches_quadrature():
    n, r_e = 24, 0.2
    rng = np.random.default_rng(82)
    x = _tone(n, 0.9, noise=r_e, seed=5)
    grid = dft_grid(n, pad=4)
    post = freq_posterior(x, PRIOR, grid, r_e)
    assert np.all(post.r > 0)
    assert_allclose(post.marginal.sum(), 1.0, atol=1e-12)
    idx = rng.choice(grid.size, size=5, replace=False)
    i = np.arange(1, n + 1)

    def joint_slice(omega):
        def f(a):
            resid = x - a * np.sin(omega * i)
            return np.exp(-0.5 * np.sum(resid ** 2) / r_e
                          - 0.5 * (a - PRIOR.mu_a) ** 2 / PRIOR.r_a)
        # integrand peaks around exp(-40); force pure relative control
        val, _ = integrate.quad(f, -30.0, 30.0, epsabs=0.0, epsrel=1e-10)
        return val

    quad_vals = np.array([joint_slice(grid[k]) for k in idx])
    got = post.marginal[idx]
    assert_allclose(got / got.sum(), quad_vals / quad_vals.sum(), rtol=1e-6)


def test_posterior_mean_and_map_live_on_grid():
    n, r_e = 32, 0.1
    x = _tone(n, 1.1, noise=r_e, seed=6)
    grid = dft_grid(n, pad=8)
    post = freq_posterior(x, PRIOR, grid, r_e)
    assert post.marginal_map in grid
    assert post.joint_map_omega in grid
    assert grid[0] <= post.post_mean <= grid[-1]


def test_vb_shaping_scalars_settle():
    n, r_e = 64, 0.05
    x = _tone(n, 1.08, noise=r_e, seed=7)
    grid = dft_grid(n, pad=8)
    four = vb_freq(x, PRIOR, grid, r_e, cycles=4)
    five = vb_freq(x, PRIOR, grid, r_e, cycles=5)
    assert abs(five.alpha1 - four.alpha1) < 1e-6
    assert abs(five.alpha2 - four.alpha2) < 1e-6
    assert abs(five.omega_hat - four.omega_hat) < 1e-6


def test_vb_state_consistency():
    n, r_e = 64, 0.05
    x = _tone(n, 1.08, noise=r_e, seed=8)
    grid = dft_grid(n, pad=8)
    res = vb_freq(x, PRIOR, grid, r_e)
    assert np.all(res.ftilde >= 0)
    assert_allclose(res.ftilde.sum(), 1.0, atol=1e-12)
    assert_allclose(res.mu1, float(res.ftilde @ res.posterior.mu), atol=1e-5)
    assert_allclose(res.sigma1_sq, float(res.ftilde @ res.posterior.r), atol=1e-5)
    assert_allclose(res.omega_hat, float(res.ftilde @ grid), atol=1e-12)


def test_shear_coefficient_is_curvature_ratio():
    # independent check: finite-difference cross and amplitude curvatures
    # of the negative log joint at the grid joint MAP
    n, r_e = 48, 0.1
    x = _tone(n, 0.95, noise=r_e, seed=9)
    grid = dft_grid(n, pad=16)
    post = freq_posterior(x, PRIOR, grid, r_e)
    i = np.arange(1, n + 1)

    def F(a, w):
        return (0.5 * np.sum((x - a * np.sin(w * i)) ** 2) / r_e
                + 0.5 * (a - PRIOR.mu_a) ** 2 / PRIOR.r_a)

    a0, w0 = post.joint_map_amp, post.joint_map_omega
    ha, hw = 1e-5, 1e-6
    h12 = (F(a0 + ha, w0 + hw) - F(a0 + ha, w0 - hw)
           - F(a0 - ha, w0 + hw) + F(a0 - ha, w0 - hw)) / (4 * ha * hw)
    h11 = (F(a0 + ha, w0) - 2 * F(a0, w0) + F(a0 - ha, w0)) / ha ** 2
    u12 = tvb_u12(x, post, r_e)
    assert_allclose(u12, h12 / h11, rtol=1e-4)
    # the conditional-mean ridge has slope -h12/h11, so the sheared mean
    # mu + u12 * Omega is flat at the peak
    def mu_of(w):
        s = np.sin(w * i)
        r = 1.0 / (np.sum(s ** 2) / r_e + 1.0 / PRIOR.r_a)
        return r * (s @ x / r_e + PRIOR.mu_a / PRIOR.r_a)

    h = 1e-6
    slope = (mu_of(w0 + h) - mu_of(w0 - h)) / (2 * h)
    assert_allclose(u12 + slope, 0.0, atol=abs(u12) * 1e-4)


def test_tvb_reduces_to_vb_without_shear(monkeypatch):
    n, r_e = 64, 0.05
    x = _tone(n, 1.08, noise=r_e, seed=10)
    grid = dft_grid(n, pad=8)
    monkeypatch.setattr("trellis.freq.tvb_u12", lambda x, post, r_e: 0.0)
    tv = tvb_freq(x, PRIOR, grid, r_e)
    vb = vb_freq(x, PRIOR, grid, r_e)
    assert tv.u12 == 0.0
    assert_allclose(tv.ftilde, vb.ftilde, atol=1e-12)
    assert_allclose(tv.omega_hat, vb.omega_hat, atol=1e-12)
    assert_allclose(tv.beta1, vb.alpha1, atol=1e-12)
    assert_allclose(tv.beta2, vb.alpha2, atol=1e-12)
    assert_allclose(tv.amp_mean, tv.mu2, atol=1e-15)


def test_tvb_state_consistency():
    n, r_e = 64, 0.05
    x = _tone(n, 1.08, noise=r_e, seed=11)
    grid = dft_grid(n, pad=8)
    res = tvb_freq(x, PRIOR, grid, r_e)
    assert np.all(res.ftilde >= 0)
    assert_allclose(res.ftilde.sum(), 1.0, atol=1e-12)
    assert res.u12 != 0.0
    assert_allclose(res.amp_mean, res.mu2 - res.u12 * res.omega_hat, atol=1e-14)
    # both refinements stay within half a padded bin of the truth here
    assert abs(res.omega_hat - 1.08) < np.pi / 512


def test_single_point_grid():
    n, r_e = 16, 0.1
    x = _tone(n, 0.8, noise=r_e, seed=12)
    grid = np.array([0.8])
    res = vb_freq(x, PRIOR, grid, r_e)
    assert_allclose(res.ftilde, [1.0])
    assert res.omega_hat == 0.8


def _block(B, n=24, r_e=0.2, seed=13):
    i = np.arange(1, n + 1)
    noise = np.random.default_rng(seed).standard_normal((B, n))
    return np.sin(1.05 * i) + np.sqrt(r_e) * noise


def _assert_row(block, single, b, skip=("grid", "r", "posterior")):
    for name in block._fields:
        if name in skip:
            continue
        got, want = getattr(block, name)[b], getattr(single, name)
        if np.ndim(want) == 0:
            assert type(want) in (float, int), name
            assert got == want, name
        else:
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("B", [1, 2, 63, 64, 65, 130])
def test_block_rows_equal_single_trials(B):
    n, r_e = 24, 0.2
    grid = dft_grid(n, pad=8)
    X = _block(B, n, r_e)
    post = freq_posterior(X, PRIOR, grid, r_e)
    vb = vb_freq(X, PRIOR, grid, r_e)
    tv = tvb_freq(X, PRIOR, grid, r_e)
    assert post.mu.shape == (B, grid.size) and post.r.shape == (grid.size,)
    assert tv.u12.shape == (B,)
    for b in range(B):
        one = freq_posterior(X[b], PRIOR, grid, r_e)
        _assert_row(post, one, b)
        assert np.array_equal(post.r, one.r)
        _assert_row(vb, vb_freq(X[b], PRIOR, grid, r_e), b)
        _assert_row(tv, tvb_freq(X[b], PRIOR, grid, r_e), b)
        assert tvb_u12(X[b], one, r_e) == tv.u12[b]


def test_block_posterior_matches_closed_form_loop():
    n, r_e = 24, 0.2
    grid = dft_grid(n, pad=4)
    X = _block(5, n, r_e)
    post = freq_posterior(X, PRIOR, grid, r_e)
    i = np.arange(1, n + 1)
    for b, x in enumerate(X):
        mu, r, logw = [], [], []
        for w in grid:
            s = np.sin(w * i)
            rg = 1.0 / (np.sum(s ** 2) / r_e + 1.0 / PRIOR.r_a)
            mg = rg * (np.sum(x * s) / r_e + PRIOR.mu_a / PRIOR.r_a)
            mu.append(mg)
            r.append(rg)
            logw.append(mg ** 2 / (2.0 * rg) + 0.5 * np.log(rg))
        mu, r, logw = np.array(mu), np.array(r), np.array(logw)
        marginal = np.exp(logw - logw.max())
        marginal /= marginal.sum()
        assert_allclose(post.r, r, rtol=1e-12)
        assert_allclose(post.mu[b], mu, rtol=1e-12)
        assert_allclose(post.marginal[b], marginal, rtol=1e-12)
        jm = int(np.argmax(mu ** 2 / (2.0 * r)))
        assert post.joint_map_index[b] == jm
        assert post.joint_map_amp[b] == post.mu[b, jm]
        assert_allclose(post.post_mean[b], marginal @ grid, rtol=1e-12)


def test_run_freq_chunk_is_blocking_independent():
    # below, at and above the row block, and with a lone trailing row,
    # each trial's squared errors equal those of single-trial calls, and
    # the periodogram's those of one product over the whole chunk
    from trellis.experiments import (_FREQ_ROWS, _FreqPoint, _freq_blocks, _run_freq_chunk,
                                     trial_generator)

    n, seed, omega, r_e = 16, 5, 1.1 * 2.0 * np.pi / 16, 0.3
    methods = ("periodogram", "pm", "map", "vb", "tvb")
    grid = dft_grid(n, 4)
    i = np.arange(1, n + 1)
    X = np.sin(omega * i) + np.sqrt(r_e) * np.array(
        [trial_generator(seed, t).standard_normal(n) for t in range(2 * _FREQ_ROWS + 3)])
    ref = {m: [] for m in methods[1:]}
    for x in X:
        post = freq_posterior(x, PRIOR, grid, r_e)
        est = {"pm": post.post_mean, "map": post.marginal_map,
               "vb": vb_freq(x, PRIOR, grid, r_e, 5, post=post).omega_hat,
               "tvb": tvb_freq(x, PRIOR, grid, r_e, 5, post=post).omega_hat}
        for m in ref:
            ref[m].append((est[m] - omega) ** 2)
    for B in (1, _FREQ_ROWS - 1, _FREQ_ROWS, 2 * _FREQ_ROWS + 1, 2 * _FREQ_ROWS + 3):
        point = _FreqPoint(seed, n, omega, r_e, PRIOR.mu_a, PRIOR.r_a, 4, 5, methods)
        got = _run_freq_chunk(point, 0, B)
        P = periodogram(X[:B], grid)
        assert np.array_equal(got["periodogram"], (grid[np.argmax(P, axis=1)] - omega) ** 2), B
        # the blocks' products hold the whole product's bits, not only its peaks
        blocks = list(_freq_blocks(B))
        assert np.array_equal(np.concatenate([periodogram(X[b0:b1], grid) for b0, b1 in blocks]),
                              P), B
        for m in methods[1:]:
            assert got[m] == ref[m][:B], (B, m)


def test_freq_blocks_cover_the_chunk_with_no_lone_row():
    from trellis.experiments import _FREQ_ROWS, _freq_blocks

    for B in range(1, 3 * _FREQ_ROWS + 3):
        blocks = list(_freq_blocks(B))
        assert [b0 for b0, _ in blocks] == [0] + [b1 for _, b1 in blocks[:-1]]
        assert blocks[-1][1] == B
        sizes = [b1 - b0 for b0, b1 in blocks]
        assert max(sizes) <= _FREQ_ROWS + 1 and (B == 1 or min(sizes) >= 2), (B, sizes)


def test_freq_chunk_peak_memory_does_not_grow_with_its_trials():
    # a chunk that formed its whole (B, G) complex periodogram peaked
    # 3.8 times higher at 8 blocks' trials than at one block's
    import tracemalloc

    from trellis.experiments import _FREQ_ROWS, FREQ_METHODS, _FreqPoint, _run_freq_chunk

    n, pad = 64, 32
    point = _FreqPoint(1, n, 1.1 * 2.0 * np.pi / n, 0.1, PRIOR.mu_a, PRIOR.r_a, pad, 5,
                       FREQ_METHODS)
    _run_freq_chunk(point, 0, 2)  # builds the grid's cached sin and phase tables
    peaks = []
    tracemalloc.start()
    try:
        for B in (_FREQ_ROWS, 8 * _FREQ_ROWS):
            tracemalloc.reset_peak()
            _run_freq_chunk(point, 0, B)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
