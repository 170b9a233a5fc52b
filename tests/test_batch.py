"""Vectorized kernels against their scalar reference implementations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import assert_same_arrays, dense_viterbi_trace, stepwise_kld, stepwise_kld_labels
from trellis import batch
from trellis.batch import (
    DegenerateObservation,
    batch_fb,
    batch_fcvb,
    batch_forward,
    batch_ivb,
    batch_kld,
    batch_kld_labels,
    batch_ml,
    batch_viterbi,
)
from trellis.channel import (QamConstellation, augmented_model, awgn_observe,
                             channel_transition_matrix, gaussian_psi, random_source,
                             rayleigh_quantizer, sample_chain, snr_to_n0)
from trellis.hmc import (
    HmcModel,
    fb_algorithm,
    ml_detect,
    posterior_chain_factors,
    viterbi,
)
from trellis.numerics import safe_log
from trellis.vb import StoppingConfig, fcvb_run, init_shaping, ivb_run, kld_vb


def _shared_setup(seed, B=40, M=3, n=7):
    rng = np.random.default_rng(seed)
    T = rng.random((M, M)) + 0.05
    T /= T.sum(axis=0, keepdims=True)
    p0 = rng.random(M) + 0.05
    p0 /= p0.sum()
    Psi = rng.random((B, n, M)) + 1e-3
    models = [HmcModel(T, p0, Psi[b]) for b in range(B)]
    return T, p0, Psi, models


def test_batch_fb_matches_scalar():
    T, p0, Psi, models = _shared_setup(301)
    alpha, gamma, labels = batch_fb(T, p0, Psi)
    for b, model in enumerate(models):
        sm = fb_algorithm(model)
        assert_allclose(alpha[b], sm.alpha, atol=1e-12)
        assert_allclose(gamma[b], sm.gamma, atol=1e-12)
        assert np.array_equal(labels[b] + 1, sm.labels)


def test_batch_viterbi_matches_scalar():
    T, p0, Psi, models = _shared_setup(302)
    labels = batch_viterbi(safe_log(T), safe_log(p0), safe_log(Psi))
    for b, model in enumerate(models):
        assert np.array_equal(labels[b] + 1, viterbi(model).labels)


def test_viterbi_pruning_runs_on_a_fading_block(monkeypatch):
    # A fading-16qam point: 16-QAM over a 4-cell channel at rho 0.5 (64
    # states), 40 trials at 16 dB. Nearly every step must run pruned,
    # over a few states: a kernel that fell back to the dense step, or
    # let most states through, would fail here with the same bits.
    rng = np.random.default_rng(16)
    const = QamConstellation(16)
    quant = rayleigh_quantizer(4)
    aug = augmented_model(random_source(16, rng)[0], const,
                          channel_transition_matrix(4, 0.5, quantizer=quant), quant)
    B, n, S = 40, 200, aug.T.shape[0]
    states = sample_chain(aug.T, aug.p, rng.random((B, n)))
    n0 = snr_to_n0(16.0)
    x = awgn_observe(aug.means[states], n0, rng.standard_normal((B, 2 * n)))
    logs = safe_log(aug.T), safe_log(aug.p), safe_log(gaussian_psi(x, aug.means, n0))
    largest, pruned = [], []
    in_reach, pruned_step = batch._in_reach, batch._pruned_step

    def counting_in_reach(lam, bound):
        keep = in_reach(lam, bound)
        largest.append(int(keep.sum(axis=1).max()))
        return keep

    def counting_step(*args):
        pruned.append(True)
        return pruned_step(*args)

    monkeypatch.setattr(batch, "_in_reach", counting_in_reach)
    monkeypatch.setattr(batch, "_pruned_step", counting_step)
    got = batch.viterbi_trace(*logs)
    assert len(largest) == n - 2
    assert np.mean(largest) < S / 8
    assert len(pruned) >= 0.95 * (n - 2)
    assert_same_arrays(got, dense_viterbi_trace(*logs))


@pytest.mark.parametrize("S", [2, 64, 256, 257])
def test_viterbi_back_pointers_take_the_narrowest_type(S):
    # uint8 up to 256 states, uint16 above, with the int32 reference's
    # labels, metrics and back-pointer values; the last state leads
    # every other step, so back-pointer S - 1 occurs, which the scalar
    # API's 1-based shift must not wrap
    rng = np.random.default_rng(S)
    B, n = 3, 12
    T = rng.random((S, S)) + 0.05
    T /= T.sum(axis=0, keepdims=True)
    p0 = np.full(S, 1.0 / S)
    Psi = rng.random((B, n, S)) + 1e-3
    Psi[:, ::2, S - 1] += 100.0
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    labels, lam, kappa = batch.viterbi_trace(*logs)
    want = dense_viterbi_trace(*logs, kappa_dtype=np.int32)
    assert kappa.dtype == (np.uint8 if S <= 256 else np.uint16)
    assert_same_arrays((labels, lam), want[:2])
    assert np.array_equal(kappa, want[2]) and (kappa == S - 1).any()
    trace = viterbi(HmcModel(T, p0, Psi[0]))
    assert trace.kappa.dtype == np.int32
    assert np.array_equal(trace.kappa, want[2][0] + 1)
    assert np.array_equal(trace.labels, labels[0] + 1)


def test_batch_ml_matches_scalar():
    _, _, Psi, models = _shared_setup(303)
    labels = batch_ml(Psi)
    for b, model in enumerate(models):
        assert np.array_equal(labels[b] + 1, ml_detect(model.Psi))


def test_batch_kld_matches_scalar():
    T, p0, Psi, models = _shared_setup(304, B=25)
    rng = np.random.default_rng(9)
    B, n, M = Psi.shape
    p = rng.random((B, n, M)) + 0.05
    p /= p.sum(axis=2, keepdims=True)
    alpha, _, _ = batch_fb(T, p0, Psi)
    got = batch_kld(T, alpha, p)
    for b, model in enumerate(models):
        sm = fb_algorithm(model)
        chain = posterior_chain_factors(model, sm)
        assert_allclose(got[b], kld_vb(model, sm, chain, p[b]), atol=1e-9)


def test_batch_kld_one_hot():
    T, p0, Psi, models = _shared_setup(305, B=15, n=5)
    rng = np.random.default_rng(10)
    B, n, M = Psi.shape
    lab = rng.integers(0, M, size=(B, n))
    p = np.zeros((B, n, M))
    p[np.arange(B)[:, None], np.arange(n)[None, :], lab] = 1.0
    alpha, _, _ = batch_fb(T, p0, Psi)
    got = batch_kld(T, alpha, p)
    for b, model in enumerate(models):
        sm = fb_algorithm(model)
        chain = posterior_chain_factors(model, sm)
        assert_allclose(got[b], kld_vb(model, sm, chain, p[b]), atol=1e-9)


def _block_with_zeros(rng, B, S, n):
    """T, p0 and Psi with exact zeros in about a quarter of T and a third
    of Psi. Row 0 of T, p0[0] and Psi[..., 0] stay positive, so state 0
    keeps every trial's normalizers away from zero."""
    T = rng.random((S, S)) * (rng.random((S, S)) > 0.25)
    T[0] += 0.05
    T /= T.sum(axis=0)
    p0 = rng.random(S) * (rng.random(S) > 0.25)
    p0[0] += 0.05
    p0 /= p0.sum()
    Psi = rng.random((B, n, S)) * (rng.random((B, n, S)) > 0.3)
    Psi[..., 0] += 1e-3
    return T, p0, Psi


def _pmfs(rng, B, n, S, zeros):
    p = rng.random((B, n, S))
    if zeros:
        p *= rng.random((B, n, S)) > 0.3
        p[..., -1] += 1e-3
    return p / p.sum(axis=2, keepdims=True)


@pytest.mark.parametrize("S", [2, 3, 4, 16, 64])
@pytest.mark.parametrize("n", [1, 2, 64, 65, 130])
def test_divergences_equal_their_stepwise_oracles(S, n):
    # block edges at 64 steps: n = 64 and 65 end a block with one step
    # to spare and one step over, n = 130 spans three blocks
    rng = np.random.default_rng(1000 * S + n)
    for B in (1, 2, 3, 7, 40):
        T, p0, Psi = _block_with_zeros(rng, B, S, n)
        alpha = batch_forward(T, p0, Psi)
        # several draws: summing a block's three-operand terms in one
        # einsum moves bits on a few percent of two-state blocks only
        for zeros in (False, True, False, True):
            p = _pmfs(rng, B, n, S, zeros)
            assert batch_kld(T, alpha, p).tobytes() == stepwise_kld(T, alpha, p).tobytes()
        # free labels take impossible transitions (LOG0 terms); ML labels
        # are the ones the experiments use
        for labels in (rng.integers(0, S, (B, n)), batch_ml(Psi)):
            got = batch_kld_labels(T, p0, Psi, labels)
            assert got.tobytes() == stepwise_kld_labels(T, alpha, labels).tobytes()
            # given the filtering rows, it reads them and not Psi
            assert batch_kld_labels(T, p0, None, labels, alpha).tobytes() == got.tobytes()


@pytest.mark.parametrize("B, n, S, zeroed", [
    (1, 1, 2, [(0, 0)]),
    (3, 5, 3, [(1, 4)]),  # the last step, which only the last row shows
    (7, 64, 4, [(5, 0), (2, 63)]),
    (40, 65, 16, [(39, 64), (17, 10), (30, 3)]),
    (2, 130, 64, [(1, 129), (0, 129)]),
])
def test_point_mass_divergence_names_the_degenerate_trial(B, n, S, zeroed):
    rng = np.random.default_rng(B * n * S)
    T, p0, Psi = _block_with_zeros(rng, B, S, n)
    for b, i in zeroed:
        Psi[b, i] = 0.0
    labels = rng.integers(0, S, (B, n))
    with pytest.raises(DegenerateObservation) as want:
        batch_forward(T, p0, Psi)
    with pytest.raises(DegenerateObservation) as got:
        batch_kld_labels(T, p0, Psi, labels)
    assert got.value.trial == want.value.trial == min(b for b, _ in zeroed)


@pytest.mark.parametrize("labels", [[[0, 1, 3]], [[0, -1, 2]], [[0, 1]], [[0], [1], [2]]])
def test_point_mass_divergence_rejects_bad_labels(labels):
    # a flat take would read a label past its row from the next trial's row
    rng = np.random.default_rng(3)
    T, p0, Psi = _block_with_zeros(rng, 1, 3, 3)
    with pytest.raises(ValueError, match="labels"):
        batch_kld_labels(T, p0, Psi, labels)


@pytest.mark.parametrize("accelerated", [False, True])
def test_batch_ivb_matches_scalar(accelerated):
    T, p0, Psi, models = _shared_setup(306)
    init = Psi / Psi.sum(axis=2, keepdims=True)
    p, nu_c, nu_e, converged = batch_ivb(
        T, p0, Psi, init, xi=0.01, max_cycles=100, accelerated=accelerated)
    for b, model in enumerate(models):
        res = ivb_run(model, init_shaping("ml", model.Psi),
                      StoppingConfig(xi=0.01, max_cycles=100,
                                     accelerated=accelerated))
        assert_allclose(p[b], res.p, atol=1e-9)
        assert nu_c[b] == res.nu_c
        assert nu_e[b] == res.nu_e
        assert converged[b] == res.converged


@pytest.mark.parametrize("accelerated", [False, True])
def test_batch_fcvb_matches_scalar(accelerated):
    T, p0, Psi, models = _shared_setup(307)
    start = batch_ml(Psi)
    labels, nu_c, nu_e, converged = batch_fcvb(
        T, p0, Psi, start, max_cycles=100, accelerated=accelerated)
    for b, model in enumerate(models):
        res = fcvb_run(model, ml_detect(model.Psi),
                       StoppingConfig(max_cycles=100, accelerated=accelerated))
        assert np.array_equal(labels[b] + 1, res.labels)
        assert nu_c[b] == res.nu_c
        assert nu_e[b] == res.nu_e
        assert converged[b] == res.converged


def test_batch_single_step():
    T, p0, Psi, models = _shared_setup(308, n=1)
    _, gamma, _ = batch_fb(T, p0, Psi)
    labels = batch_viterbi(safe_log(T), safe_log(p0), safe_log(Psi))
    for b, model in enumerate(models):
        assert_allclose(gamma[b], fb_algorithm(model).gamma, atol=1e-12)
        assert np.array_equal(labels[b] + 1, viterbi(model).labels)


def test_batch_ivb_rejects_bad_init():
    T, p0, Psi, _ = _shared_setup(309, B=4)
    with pytest.raises(ValueError):
        batch_ivb(T, p0, Psi, np.full((4, 2, 3), 1.0 / 3))
    with pytest.raises(ValueError):
        batch_fcvb(T, p0, Psi, np.zeros((4, 3), dtype=int))


def test_batch_fb_degenerate_trial():
    M, n = 2, 3
    T = np.full((M, M), 0.5)
    p0 = np.array([1.0, 0.0])
    Psi = np.ones((3, n, M))
    Psi[1, 0] = [0.0, 1.0]  # only reachable from the zero-mass start state
    with pytest.raises(FloatingPointError) as err:
        batch_fb(T, p0, Psi)
    assert err.value.trial == 1
    assert "trial 1" in str(err.value)


@pytest.mark.parametrize("accelerated", [False, True])
def test_batch_ivb_exact_threshold_parity(accelerated):
    # At xi=0 a block must stop where each of its trials stops alone,
    # with the same bits: the KS-resolution guard of the per-trial run
    # holds in the block too.
    T, p0, Psi, models = _shared_setup(311, B=200, M=4, n=20)
    init = Psi / Psi.sum(axis=2, keepdims=True)
    p, nu_c, nu_e, converged = batch_ivb(
        T, p0, Psi, init, xi=0.0, max_cycles=100, accelerated=accelerated)
    cfg = StoppingConfig(xi=0.0, max_cycles=100, accelerated=accelerated)
    for b, model in enumerate(models):
        res = ivb_run(model, init[b], cfg)
        assert np.array_equal(p[b], res.p)
        assert (nu_c[b], nu_e[b], converged[b]) == (res.nu_c, res.nu_e, res.converged)


@pytest.mark.parametrize("M", [1, 4, 64])
def test_row_extrema_by_index_equal_the_reductions(M):
    a = np.random.default_rng(M).standard_normal((30, M)) * 1e3
    a[3, -1] = np.nan
    a[5] = np.nan
    a[7] = -np.inf
    a[9] = 2.5  # a row of ties
    off = np.arange(0, 40 * M, M)[:, None]  # more rows than a, as a sweep's one-row step has
    for rows in (a, a[9:10], a[5:6]):
        top = batch._take_rows(rows, rows.argmax(axis=1, keepdims=True), off)
        low = batch._take_rows(rows, rows.argmin(axis=1, keepdims=True), off)
        assert top.tobytes() == np.maximum.reduce(rows, axis=1, keepdims=True).tobytes()
        assert low.tobytes() == np.minimum.reduce(rows, axis=1, keepdims=True).tobytes()
