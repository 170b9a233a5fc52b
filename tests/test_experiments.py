"""The symbol-detection driver against the divergence recipe of its replay,
the quantities a chunk shares among its methods, and the pool size.

The benchmark's traced replay computes the point-mass divergence from
public calls: a full forward-backward pass, one-hot rows at the labels
and batch_kld. run_experiment must give the same kld_mean bit for bit,
without a backward pass.
"""

import os

import numpy as np
import pytest

from trellis import batch, channel, experiments, numerics
from trellis.experiments import (HMC_METHODS, ExperimentConfig, model_generator,
                                 run_experiment, trial_generator)


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


@pytest.mark.parametrize("methods", [("ml", "va", "fcvb"), HMC_METHODS])
def test_chunk_forms_likelihood_logs_and_ml_labels_once(methods, monkeypatch):
    # every module that takes safe_log or batch_ml is watched, so a
    # kernel that forms its own copy of either is counted
    likelihoods, log_calls, ml_calls = [], [], []
    real_psi, real_log, real_ml = channel.gaussian_psi, numerics.safe_log, batch.batch_ml

    def psi(*args):
        likelihoods.append(real_psi(*args))
        return likelihoods[-1]

    def safe_log(x):
        log_calls.extend(x is L for L in likelihoods)
        return real_log(x)

    def batch_ml(Psi):
        ml_calls.append(Psi is likelihoods[-1])
        return real_ml(Psi)

    monkeypatch.setattr(experiments, "gaussian_psi", psi)
    for module in (experiments, batch):
        monkeypatch.setattr(module, "safe_log", safe_log)
        monkeypatch.setattr(module, "batch_ml", batch_ml)
    cfg = ExperimentConfig(scenario="fading", M=4, K=2, ebn0_db=8.0, rho=0.5, n=30,
                           trials=5, seed=11, methods=methods, chunk=2)
    rows = run_experiment(cfg)
    assert len(likelihoods) == 3  # chunks of 2, 2 and 1 trials
    assert sum(log_calls) == 3 and ml_calls == [True] * 3
    # the shared arrays change no output, whichever method forms them
    back = {row["method"]: row for row in run_experiment(
        cfg._replace(methods=tuple(reversed(methods))))}
    for row in rows:
        want = dict(back[row["method"]], wall_ms=row["wall_ms"])
        assert row == want


def _counting_updates(monkeypatch):
    """Site updates run per sweep call, keyed by the schedule asked for
    (None: the cycles both schedules share), summed over the calls."""
    counts = {}
    real_sweep = batch._sweep

    def sweep(update, moved, span, max_cycles, accelerated, state):
        def counted(i, rows, mask):
            ran = (len(range(len(state.converged))[rows]) if mask is None
                   else int(np.count_nonzero(mask)))
            counts[accelerated] = counts.get(accelerated, 0) + ran
            update(i, rows, mask)

        return real_sweep(counted, moved, span, max_cycles, accelerated, state)

    monkeypatch.setattr(batch, "_sweep", sweep)
    return counts


@pytest.mark.parametrize("ebn0_db", [3.0, 10.0])
def test_chunk_runs_the_cycles_a_schedule_pair_shares_once(ebn0_db, monkeypatch):
    counts = _counting_updates(monkeypatch)
    methods = ("ml", "vb", "fcvb-acc", "vb-acc", "fcvb")
    cfg = ExperimentConfig(M=4, ebn0_db=ebn0_db, n=50, trials=7, seed=5, methods=methods,
                           chunk=4)
    rows = run_experiment(cfg)
    shared, run = counts.pop(None), sum(counts.values())
    # each method alone, and each pair in the other order
    alone = {}
    for method in methods:
        counts.clear()
        alone[method] = run_experiment(cfg._replace(methods=(method,)))[0]
        assert None not in counts
        if method != "ml":
            assert counts[method.endswith("acc")] == round(
                alone[method]["nu_e_mean"] * cfg.trials * cfg.n)
    back = run_experiment(cfg._replace(methods=tuple(reversed(methods))))
    # the shared updates ran once for the two methods that each count them
    assert shared > 0
    assert run + 2 * shared == sum(row["nu_e_mean"] * cfg.trials * cfg.n
                                   for row in alone.values() if row["nu_e_mean"] is not None)
    for got in (rows, back):
        for row in got:
            assert row == dict(alone[row["method"]], wall_ms=row["wall_ms"])
            assert row["nu_e_mean"] == alone[row["method"]]["nu_e_mean"]


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records max_workers and
    runs the chunks in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, trials, cpus, workers", [
    (5000, 3, 8, 3),  # no more workers than chunks
    (5000, 40, 3, 3),  # nor than CPUs
    (2, 40, 8, 2),
    (5000, 1, 8, None),  # one chunk runs without a pool
    (4, 40, 1, None),  # as does one CPU
    (4, 40, None, None),  # or an unknown count
])
def test_map_chunks_caps_the_pool(jobs, trials, cpus, workers, monkeypatch):
    import concurrent.futures

    _RecordingPool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    got = experiments._map_chunks(lambda point, t0, t1: (point, t0, t1), "p", trials, 1, jobs)
    assert got == [("p", t, t + 1) for t in range(trials)]
    assert _RecordingPool.sizes == ([] if workers is None else [workers])


@pytest.mark.parametrize("cfg, message", [
    (ExperimentConfig(scenario="x", seed=1), "scenario must be 'awgn' or 'fading'"),
    (ExperimentConfig(scenario="fading", K=2, seed=1), "fading needs rho"),
])
def test_run_experiment_rejects_a_bad_point_before_it_runs(cfg, message, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(experiments, "_map_chunks", no_run)
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg)
