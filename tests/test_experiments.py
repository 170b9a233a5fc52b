"""The symbol-detection driver against the divergence recipe of its replay.

The benchmark's traced replay computes the point-mass divergence from
public calls: a full forward-backward pass, one-hot rows at the labels
and batch_kld. run_experiment must give the same kld_mean bit for bit,
without a backward pass.
"""

import numpy as np
import pytest

from trellis import batch, channel
from trellis.experiments import (ExperimentConfig, model_generator, run_experiment,
                                 trial_generator)


def _one_hot_kld_means(cfg):
    """kld_mean per method, chunk by chunk as the replay computes it."""
    fading = cfg.scenario == "fading"
    const = channel.QamConstellation(cfg.M)
    T_s, p_s = channel.random_source(cfg.M, model_generator(cfg.seed))
    n0 = channel.snr_to_n0(cfg.ebn0_db)
    if fading:
        quant = channel.rayleigh_quantizer(cfg.K, cfg.sigma2)
        T_c = channel.channel_transition_matrix(cfg.K, cfg.rho, cfg.sigma2, quantizer=quant)
        aug = channel.augmented_model(T_s, const, T_c, quant)
        T, p, means = aug.T, aug.p, aug.means
    else:
        T, p, means = T_s, p_s, const.points.copy()
    n, S = cfg.n, means.shape[0]
    kld = dict.fromkeys(cfg.methods, 0.0)
    for t0 in range(0, cfg.trials, cfg.chunk):
        trials = range(t0, min(t0 + cfg.chunk, cfg.trials))
        su = np.empty((len(trials), n))
        cu = np.empty((len(trials), n))
        nz = np.empty((len(trials), 2 * n))
        for r, t in enumerate(trials):
            g = trial_generator(cfg.seed, t)
            su[r] = g.random(n)
            if fading:
                cu[r] = g.random(n)
            nz[r] = g.standard_normal(2 * n)
        state = channel.sample_chain(T_s, p_s, su)
        if fading:
            ch = channel.sample_chain(T_c, np.full(cfg.K, 1.0 / cfg.K), cu)
            state = ch * cfg.M + state
        Psi = channel.gaussian_psi(channel.awgn_observe(means[state], n0, nz), means, n0)
        alpha = batch.batch_fb(T, p, Psi)[0]
        for method in cfg.methods:
            labels = batch.batch_fcvb(T, p, Psi, batch.batch_ml(Psi),
                                      max_cycles=cfg.max_cycles,
                                      accelerated=method.endswith("acc"))[0]
            q = np.zeros((len(trials), n, S))
            np.put_along_axis(q, labels[:, :, None], 1.0, axis=2)
            kld[method] += float(batch.batch_kld(T, alpha, q).sum())
    return [kld[m] / cfg.trials for m in cfg.methods]


@pytest.mark.parametrize("scenario", ["awgn", "fading"])
def test_point_mass_kld_matches_one_hot_recipe(scenario, monkeypatch):
    cfg = ExperimentConfig(scenario=scenario, M=4, K=2, ebn0_db=4.0,
                           rho=0.9 if scenario == "fading" else None, n=40,
                           trials=5, seed=2718, methods=("fcvb", "fcvb-acc"), chunk=3)
    want = _one_hot_kld_means(cfg)

    def no_backward_pass(*args, **kwargs):
        raise AssertionError("a divergence ran the backward pass")

    monkeypatch.setattr(batch, "forward_backward", no_backward_pass)
    got = [row["kld_mean"] for row in run_experiment(cfg)]
    assert min(got) > 0
    assert np.array(got).tobytes() == np.array(want).tobytes()
