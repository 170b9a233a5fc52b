"""Exact chain inference against the enumerated-trajectory oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_hmc
from trellis.hmc import (
    BruteForcePosterior,
    DegenerateObservation,
    HmcModel,
    bidirectional_viterbi,
    brute_force_posterior,
    fb_algorithm,
    ml_detect,
    posterior_chain_factors,
    viterbi,
)


def test_smoothing_matches_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(80):
        model = random_hmc(rng)
        brute = brute_force_posterior(model)
        sm = fb_algorithm(model)
        for i in range(1, model.n + 1):
            assert_allclose(sm.gamma[i - 1], brute.marginal(i), atol=1e-10)
        marg_labels = np.array([np.argmax(brute.marginal(i)) + 1
                                for i in range(1, model.n + 1)])
        assert np.array_equal(sm.labels, marg_labels)


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(102)
    for _ in range(80):
        model = random_hmc(rng)
        brute = brute_force_posterior(model)
        va = viterbi(model)
        assert np.array_equal(va.labels, brute.map_labels())
        assert brute.prob(va.labels) > 0.0


def test_bidirectional_agrees_with_backtracking():
    rng = np.random.default_rng(103)
    for _ in range(80):
        model = random_hmc(rng)
        bi = bidirectional_viterbi(model)
        assert np.array_equal(bi.labels, viterbi(model).labels)
        assert_allclose(bi.profiles.sum(axis=1), 1.0, atol=1e-12)


def test_tied_model_resolves_to_smallest():
    M, n = 3, 4
    model = HmcModel(np.full((M, M), 1.0 / M), np.full(M, 1.0 / M), np.ones((n, M)))
    assert np.array_equal(viterbi(model).labels, np.ones(n, dtype=int))
    assert np.array_equal(fb_algorithm(model).labels, np.ones(n, dtype=int))
    assert np.array_equal(brute_force_posterior(model).map_labels(),
                          np.ones(n, dtype=int))


def test_uniform_transitions_reduce_to_pointwise():
    rng = np.random.default_rng(104)
    M, n = 3, 6
    Psi = rng.random((n, M)) + 0.01
    model = HmcModel(np.full((M, M), 1.0 / M), np.full(M, 1.0 / M), Psi)
    sm = fb_algorithm(model)
    assert_allclose(sm.gamma, Psi / Psi.sum(axis=1, keepdims=True), atol=1e-12)
    assert np.array_equal(viterbi(model).labels, ml_detect(Psi))


def test_single_step_chain():
    T = np.array([[0.9, 0.2], [0.1, 0.8]])
    p = np.array([0.3, 0.7])
    Psi = np.array([[0.5, 1.5]])
    model = HmcModel(T, p, Psi)
    post = p * Psi[0]
    post /= post.sum()
    sm = fb_algorithm(model)
    assert_allclose(sm.gamma[0], post, atol=1e-14)
    assert viterbi(model).labels[0] == np.argmax(post) + 1
    assert np.array_equal(bidirectional_viterbi(model).labels, viterbi(model).labels)


def test_ml_detect_smallest_on_tie():
    Psi = np.array([[0.5, 0.5, 0.2], [0.1, 0.4, 0.4]])
    assert np.array_equal(ml_detect(Psi), [1, 2])


def test_smoothing_minimizes_expected_hamming_loss():
    rng = np.random.default_rng(105)
    for _ in range(10):
        model = random_hmc(rng, n=int(rng.integers(2, 7)))
        brute = brute_force_posterior(model)
        margs = [brute.marginal(i) for i in range(1, model.n + 1)]

        def loss(seq):
            return model.n - sum(m[s - 1] for m, s in zip(margs, seq))

        best = loss(fb_algorithm(model).labels)
        assert best <= loss(viterbi(model).labels) + 1e-12
        for _ in range(100):
            seq = rng.integers(1, model.M + 1, size=model.n)
            assert best <= loss(seq) + 1e-12


def test_posterior_chain_factors_are_the_posterior_conditionals():
    rng = np.random.default_rng(106)
    for _ in range(20):
        model = random_hmc(rng, n=int(rng.integers(2, 7)))
        sm = fb_algorithm(model)
        chain = posterior_chain_factors(model, sm)
        brute = brute_force_posterior(model)
        for i in range(model.n - 1):
            assert_allclose(chain.A[i].sum(axis=1), 1.0, atol=1e-12)
            assert_allclose(chain.B[i].sum(axis=0), 1.0, atol=1e-12)
            # pairwise posterior of (l_i, l_{i+1}); axes (j, k)
            axes = tuple(ax for ax in range(model.n) if ax not in (i, i + 1))
            pair = brute.table.sum(axis=axes) if axes else brute.table
            cond_back = pair / pair.sum(axis=0, keepdims=True)
            cond_fwd = pair / pair.sum(axis=1, keepdims=True)
            assert_allclose(chain.A[i], cond_back.T, atol=1e-10)
            assert_allclose(chain.B[i], cond_fwd.T, atol=1e-10)
            # marginal flow through the backward factor
            assert_allclose(sm.gamma[i + 1] @ chain.A[i], sm.gamma[i], atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_posterior_chain_factors_equal_the_per_step_formula(n):
    # the one array pass keeps each step's bits, zeros in T included
    rng = np.random.default_rng(107 + n)
    for _ in range(30):
        M = int(rng.integers(2, 6))
        T = rng.random((M, M)) * (rng.random((M, M)) < 0.6) + np.eye(M)
        model = HmcModel(T / T.sum(axis=0), np.full(M, 1.0 / M), rng.random((n, M)) + 1e-3)
        sm = fb_algorithm(model)
        chain = posterior_chain_factors(model, sm)
        assert chain.A.shape == chain.B.shape == (n - 1, M, M)
        for i in range(n - 1):
            a = model.T * sm.alpha[i][None, :]
            b = (model.Psi[i + 1] * sm.beta[i + 1])[:, None] * model.T
            assert chain.A[i].tobytes() == (a / a.sum(axis=1, keepdims=True)).tobytes()
            assert chain.B[i].tobytes() == (b / b.sum(axis=0, keepdims=True)).tobytes()


def test_degenerate_observation():
    T = np.full((2, 2), 0.5)
    p = np.array([1.0, 0.0])
    Psi = np.array([[0.0, 1.0], [1.0, 1.0]])
    model = HmcModel(T, p, Psi)
    with pytest.raises(DegenerateObservation):
        fb_algorithm(model)
    with pytest.raises(DegenerateObservation):
        BruteForcePosterior(model)


def test_brute_guard():
    M, n = 2, 21
    model = HmcModel(np.full((M, M), 0.5), np.full(M, 0.5), np.ones((n, M)))
    with pytest.raises(ValueError):
        BruteForcePosterior(model)


def test_model_validation():
    T = np.array([[0.9, 0.2], [0.1, 0.8]])
    p = np.array([0.3, 0.7])
    Psi = np.ones((3, 2))
    with pytest.raises(ValueError):
        HmcModel(np.ones((2, 3)), p, Psi)
    with pytest.raises(ValueError):
        HmcModel(T, np.array([0.3, 0.3]), Psi)
    with pytest.raises(ValueError, match="p length"):
        HmcModel(T, np.array([0.3, 0.3, 0.4]), Psi)
    with pytest.raises(ValueError):
        HmcModel(T * 1.2, p, Psi)
    with pytest.raises(ValueError):
        HmcModel(T, np.array([-0.2, 1.2]), Psi)
    with pytest.raises(ValueError):
        HmcModel(T, p, -Psi)
    with pytest.raises(ValueError):
        HmcModel(T, p, np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        HmcModel(T, p, np.ones((3, 4)))
