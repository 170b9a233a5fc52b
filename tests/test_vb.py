"""Mean-field chain schemes: fixed points, scheduling, divergence tracking."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_hmc
from trellis.hmc import (
    HmcModel,
    brute_force_posterior,
    fb_algorithm,
    ml_detect,
    posterior_chain_factors,
)
from trellis.numerics import safe_log
from trellis.vb import (
    StoppingConfig,
    fcvb_run,
    init_shaping,
    ivb_run,
    kld_vb,
)


def _kld_pieces(model):
    sm = fb_algorithm(model)
    return sm, posterior_chain_factors(model, sm)


def _product_table(p):
    out = np.array(1.0)
    for row in p:
        out = np.multiply.outer(out, row)
    return out


def test_init_shaping():
    Psi = np.array([[2.0, 2.0], [1.0, 3.0]])
    assert_allclose(init_shaping("uniform", Psi), np.full((2, 2), 0.5))
    assert_allclose(init_shaping("ml", Psi), [[0.5, 0.5], [0.25, 0.75]])
    with pytest.raises(ValueError):
        init_shaping("random", Psi)
    with pytest.raises(ValueError):
        init_shaping("ml", np.array([[0.0, 0.0]]))


def test_stopping_config_validation():
    with pytest.raises(ValueError):
        StoppingConfig(xi=-0.1)
    with pytest.raises(ValueError):
        StoppingConfig(xi=float("nan"))
    with pytest.raises(ValueError):
        StoppingConfig(xi=float("inf"))
    with pytest.raises(ValueError):
        StoppingConfig(max_cycles=0)
    cfg = StoppingConfig(xi=0.0, max_cycles=3, accelerated=True)
    assert cfg.xi == 0.0 and cfg.max_cycles == 3 and cfg.accelerated


def test_run_input_validation():
    model = random_hmc(np.random.default_rng(0), M=2, n=3)
    with pytest.raises(ValueError):
        ivb_run(model, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        ivb_run(model, np.full((3, 2), 0.7))
    with pytest.raises(ValueError):
        fcvb_run(model, [1, 2])
    with pytest.raises(ValueError):
        fcvb_run(model, [1, 2, 3])
    sm, chain = _kld_pieces(model)
    with pytest.raises(ValueError, match="p must be n x M"):
        kld_vb(model, sm, chain, np.full((2, 2), 0.5))


def test_uniform_transitions_converge_to_pointwise():
    rng = np.random.default_rng(201)
    M, n = 3, 6
    Psi = rng.random((n, M)) + 0.01
    model = HmcModel(np.full((M, M), 1.0 / M), np.full(M, 1.0 / M), Psi)
    res = ivb_run(model, init_shaping("uniform", Psi), StoppingConfig(xi=1e-12))
    assert res.converged and res.nu_c <= 2
    assert np.array_equal(res.labels, ml_detect(Psi))
    assert_allclose(res.p, Psi / Psi.sum(axis=1, keepdims=True), atol=1e-12)


def test_accelerated_ivb_matches_plain_at_zero_threshold():
    rng = np.random.default_rng(202)
    for _ in range(60):
        model = random_hmc(rng)
        init = init_shaping("ml", model.Psi)
        plain = ivb_run(model, init, StoppingConfig(xi=0.0, max_cycles=200))
        accel = ivb_run(model, init,
                        StoppingConfig(xi=0.0, max_cycles=200, accelerated=True))
        assert np.array_equal(plain.p, accel.p)
        assert np.array_equal(plain.labels, accel.labels)
        assert plain.nu_c == accel.nu_c
        assert accel.nu_e <= plain.nu_e


def test_accelerated_fcvb_matches_plain():
    rng = np.random.default_rng(203)
    for _ in range(60):
        model = random_hmc(rng)
        start = ml_detect(model.Psi)
        plain = fcvb_run(model, start, StoppingConfig(max_cycles=200))
        accel = fcvb_run(model, start,
                         StoppingConfig(max_cycles=200, accelerated=True))
        assert np.array_equal(plain.labels, accel.labels)
        assert plain.nu_c == accel.nu_c
        assert accel.nu_e <= plain.nu_e


def test_kld_trace_is_non_increasing():
    rng = np.random.default_rng(204)
    for _ in range(30):
        model = random_hmc(rng)
        res = ivb_run(model, init_shaping("uniform", model.Psi),
                      StoppingConfig(xi=1e-6, max_cycles=50), track_kld=True)
        trace = np.array(res.kld_trace)
        assert trace.shape[0] >= 1
        assert np.all(np.diff(trace) <= 1e-9)
        assert np.all(trace >= -1e-9)


def test_kld_matches_exhaustive():
    rng = np.random.default_rng(205)
    for _ in range(25):
        model = random_hmc(rng, M=2, n=int(rng.integers(1, 7)))
        p = rng.random((model.n, model.M)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        sm, chain = _kld_pieces(model)
        got = kld_vb(model, sm, chain, p)
        q = _product_table(p)
        f = brute_force_posterior(model).table
        expect = float(np.sum(q * (np.log(q) - np.log(f))))
        assert_allclose(got, expect, atol=1e-9)


def test_kld_equals_the_per_step_log_loop():
    # the factors' logs are taken in one call; the terms must keep the
    # bits of one safe_log per factor, zero entries included
    rng = np.random.default_rng(208)
    for _ in range(40):
        M, n = int(rng.integers(2, 5)), int(rng.integers(1, 9))
        T = rng.random((M, M)) * (rng.random((M, M)) < 0.6) + np.eye(M)
        model = HmcModel(T / T.sum(axis=0), np.full(M, 1.0 / M), rng.random((n, M)) + 1e-3)
        p = rng.random((n, M)) * (rng.random((n, M)) < 0.7)
        p[:, 0] += 1e-3
        p /= p.sum(axis=1, keepdims=True)
        sm, chain = _kld_pieces(model)
        want = float(np.sum(p * safe_log(p)))
        cross = float(np.sum(p[-1] * safe_log(sm.alpha[-1])))
        for i in range(model.n - 1):
            cross += float(p[i + 1] @ safe_log(chain.A[i]) @ p[i])
        want -= cross
        assert kld_vb(model, sm, chain, p) == want


def test_kld_one_hot_is_negative_log_posterior():
    rng = np.random.default_rng(206)
    for _ in range(10):
        model = random_hmc(rng, n=int(rng.integers(1, 7)))
        labels = rng.integers(1, model.M + 1, size=model.n)
        p = np.zeros((model.n, model.M))
        p[np.arange(model.n), labels - 1] = 1.0
        sm, chain = _kld_pieces(model)
        expect = -np.log(brute_force_posterior(model).prob(labels))
        assert_allclose(kld_vb(model, sm, chain, p), expect, atol=1e-9)


def test_kld_vanishes_when_posterior_factorizes():
    rng = np.random.default_rng(207)
    M, n = 2, 5
    Psi = rng.random((n, M)) + 0.1
    model = HmcModel(np.full((M, M), 1.0 / M), np.full(M, 1.0 / M), Psi)
    res = ivb_run(model, init_shaping("uniform", Psi),
                  StoppingConfig(xi=1e-12, max_cycles=50), track_kld=True)
    assert res.converged
    assert abs(res.kld_trace[-1]) < 1e-10


def test_cycle_counters():
    rng = np.random.default_rng(208)
    for _ in range(20):
        model = random_hmc(rng)
        plain = ivb_run(model, init_shaping("uniform", model.Psi),
                        StoppingConfig(xi=1e-4, max_cycles=100))
        # a plain sweep updates every step, so the two counters agree
        assert plain.nu_e == plain.nu_c
        accel = ivb_run(model, init_shaping("uniform", model.Psi),
                        StoppingConfig(xi=1e-4, max_cycles=100, accelerated=True))
        assert 1.0 <= accel.nu_e <= accel.nu_c + 1e-12


def test_fcvb_labels_are_single_flip_optimal():
    rng = np.random.default_rng(209)
    for _ in range(25):
        model = random_hmc(rng, M=int(rng.integers(2, 4)), n=int(rng.integers(1, 7)))
        res = fcvb_run(model, ml_detect(model.Psi), StoppingConfig(max_cycles=200))
        assert res.converged
        brute = brute_force_posterior(model)
        best = brute.prob(res.labels)
        for i in range(model.n):
            for s in range(1, model.M + 1):
                if s == res.labels[i]:
                    continue
                flipped = res.labels.copy()
                flipped[i] = s
                assert best >= brute.prob(flipped) * (1.0 - 1e-9)


def test_unconverged_flag():
    rng = np.random.default_rng(210)
    model = random_hmc(rng, M=4, n=8)
    res = ivb_run(model, init_shaping("uniform", model.Psi),
                  StoppingConfig(xi=0.0, max_cycles=1))
    assert not res.converged
    assert res.nu_c == 1

