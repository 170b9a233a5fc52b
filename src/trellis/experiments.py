"""Monte Carlo drivers: symbol detection over AWGN/fading, tone RMS runs.

Both runners take one path. `check_experiment` / `check_freq_experiment`
check the point first, drawing nothing: `_check_run` the seed, the
counts, the Eb/N0 and the methods, `_noise_level` the noise level
the Eb/N0 gives, the channel's own rules a fading point's rho, sigma2
and K, and `_check_size` the bytes of the point's largest arrays; the
point's model goes into one record, built once;
`_map_chunks` calls the chunk worker on that record and each chunk's
trial range [t0, t1), serially or on a pool of at most as many workers
as there are chunks and CPUs, and returns the partial results in trial
order. A symbol-detection chunk forms what its methods share once: the
likelihoods, their logs (va and both sweeps), the ML labels (ml and the
point-mass sweeps' start), the filtering rows (fb and both divergences;
without them the point-mass divergence runs its own forward pass) and,
when both schedules of a sweep run, the cycles they share: the first of
the pair runs them, and each schedule continues from the fork they
leave (see batch._sweep), with the bits and counts of a run alone. Both
methods' wall times include the shared cycles, as each would run them
alone. The likelihood is dropped once fb and the first uses of the
other shared arrays have run, and each method's estimate and divergence
are formed, and its rows dropped, before the next method runs.

Determinism contract: every trial owns a counter-based generator keyed
by master_seed XOR trial_index, with a fixed draw order per scenario
(source uniforms, then channel uniforms for fading, then noise
normals; the tone runs draw amplitude then noise). Partial results
are combined in trial order, so --jobs changes nothing but wall_ms.
Tone runs return per-trial squared errors and sum them over all trials.
A tone chunk runs every method, the periodogram included, through one
loop over row blocks, so each (rows, G) array it forms is bounded by
the block (see _FREQ_ROWS). A row gets the same bits in any block of
two or more rows, and a chunk of two or more trials has no one-row
block, so the chunk size changes no tone output. Only a one-trial chunk
(--chunk 1, or a last chunk of one trial) runs a one-row periodogram
product, which can round its last bits differently; a near-tie between
grid points would carry that into the estimate. Symbol detection sums its
divergences per chunk (pairwise) before adding the chunks, so the last
bits of kld_mean can move with the chunk size; its other columns, bar
wall_ms, come from integer counts and do not.
"""

import functools
import os
import sys
import time
from collections import namedtuple

import numpy as np

from .batch import (batch_fb, batch_forward, batch_kld, batch_kld_labels, batch_ml,
                    batch_viterbi, marginal_sweep, point_mass_sweep)
from .channel import (
    QamConstellation,
    augmented_model,
    awgn_observe,
    channel_transition_matrix,
    check_cells,
    check_qam_order,
    check_rho,
    check_sigma2,
    gaussian_psi,
    random_source,
    rayleigh_quantizer,
    sample_chain,
    snr_to_n0,
)
from .freq import (FreqPrior, check_variance, dft_grid, freq_posterior, periodogram,
                   tvb_freq, vb_freq)
from .numerics import safe_log
from .vb import StoppingConfig

HMC_CSV_HEADER = (
    "method,scenario,M,K,ebn0_db,rho,n,trials,ber,ber_ci95,"
    "nu_c_mean,nu_e_mean,kld_mean,wall_ms"
).split(",")
FREQ_CSV_HEADER = "method,snr_db,n,omega_bins,rms_bins,trials".split(",")
PE_CSV_HEADER = "rho,kld_vb,kld_tvb".split(",")

HMC_METHODS = ("ml", "fb", "va", "vb", "vb-acc", "fcvb", "fcvb-acc")
# the mean-field methods, which report cycle counts and a divergence
MEAN_FIELD_METHODS = ("vb", "vb-acc", "fcvb", "fcvb-acc")
FREQ_METHODS = ("periodogram", "pm", "map", "vb", "tvb")

ExperimentConfig = namedtuple(
    "ExperimentConfig",
    [
        "scenario", "M", "K", "ebn0_db", "rho", "n", "trials", "seed",
        "methods", "xi", "max_cycles", "chunk", "jobs", "sigma2",
    ],
)
ExperimentConfig.__new__.__defaults__ = (
    "awgn", 4, 1, 10.0, None, 1000, 1000, None,
    ("ml", "fb", "va", "vb", "fcvb"), 0.01, 100, 500, 1, 0.5,
)


def trial_generator(seed, t):
    return np.random.Generator(np.random.Philox(key=seed ^ t))


def model_generator(seed):
    # separate key namespace: trial keys stay below 2**64
    return np.random.Generator(np.random.Philox(key=(1 << 64) + seed))


_HmcPoint = namedtuple(
    "_HmcPoint",
    [
        "fading", "seed", "n", "n0", "T", "p", "means", "src_T", "src_p",
        "ch_T", "M_src", "methods", "xi", "max_cycles", "bit_distance",
    ],
)


def _run_hmc_chunk(spec, t0, t1):
    B = t1 - t0
    n = spec.n
    su = np.empty((B, n))
    cu = np.empty((B, n)) if spec.fading else None
    nz = np.empty((B, 2 * n))
    for r, t in enumerate(range(t0, t1)):
        g = trial_generator(spec.seed, t)
        su[r] = g.random(n)
        if spec.fading:
            cu[r] = g.random(n)
        nz[r] = g.standard_normal(2 * n)
    src = sample_chain(spec.src_T, spec.src_p, su)
    if spec.fading:
        K = spec.ch_T.shape[0]
        state = sample_chain(spec.ch_T, np.full(K, 1.0 / K), cu) * spec.M_src + src
    else:
        state = src
    Psi = gaussian_psi(awgn_observe(spec.means[state], spec.n0, nz), spec.means, spec.n0)
    # of the draws only src, for the bit errors, outlives the likelihood
    del su, cu, nz, state

    Mt = spec.means.shape[0]
    T, p = spec.T, spec.p
    # Formed at most once per chunk, the first time a method needs them:
    # the ML labels (ml and the point-mass sweeps' start), the safe_log
    # of the model and the likelihood (va and both sweeps) and the
    # filtering rows (fb and both divergences). The logs are formed
    # outside every method's timer.
    ml = logs = alpha = None
    # a sweep whose two schedules both run: its shared cycles' fork and
    # their time, from the first of the pair to run until the second
    pairs = {kind for kind in ("vb", "fcvb") if kind + "-acc" in spec.methods
             and kind in spec.methods}
    forks = {}
    out = {}
    for k, method in enumerate(spec.methods):
        if logs is None and method not in ("ml", "fb"):
            logs = (safe_log(T), safe_log(p), safe_log(Psi))
        acc = {"bit_err": 0, "nu_c": 0.0, "nu_e": 0.0, "kld": 0.0, "wall": 0.0}
        tic = time.perf_counter()
        if ml is None and (method == "ml" or method.startswith("fcvb")):
            ml = batch_ml(Psi)
        if method == "ml":
            est = ml
        elif method == "fb":
            alpha, est = batch_fb(T, p, Psi)[::2]  # the smoothing rows are not kept
        elif method == "va":
            est = batch_viterbi(*logs)
        else:
            kind = method.split("-")[0]
            if kind == "vb":
                # the uniform start pmfs are a broadcast view: the sweep copies them
                sweep = functools.partial(marginal_sweep, *logs, xi=spec.xi,
                                          max_cycles=spec.max_cycles)
                start = np.broadcast_to(1.0 / Mt, (B, n, Mt))
            else:
                sweep = functools.partial(point_mass_sweep, *logs, max_cycles=spec.max_cycles)
                start = ml
            if kind in pairs:
                if kind not in forks:
                    t = time.perf_counter()
                    start = sweep(start, accelerated=None)[-1]
                    forks[kind] = start, time.perf_counter() - t
                else:
                    # the second of the pair continues the fork itself and
                    # is charged its cycles, which it would run alone
                    start, acc["wall"] = forks.pop(kind)
            res = sweep(start, accelerated=method.endswith("acc"))
            start = None  # frees a point-mass fork: its result copies the labels
            nu_c, nu_e = res[1], res[2]
            est = res[0] if kind == "fcvb" else np.argmax(res[0], axis=2)
        acc["wall"] += time.perf_counter() - tic
        if method in MEAN_FIELD_METHODS:
            acc["nu_c"] = float(nu_c.sum())
            acc["nu_e"] = float(nu_e.sum())
            if kind == "vb":
                if alpha is None:
                    alpha = batch_forward(T, p, Psi)
                kld = batch_kld(T, alpha, res[0])
            else:
                kld = batch_kld_labels(T, p, Psi, est, alpha)
            acc["kld"] = float(kld.sum())
        est_src = est % spec.M_src if spec.fading else est
        acc["bit_err"] = int(spec.bit_distance[src, est_src].sum())
        out[method] = acc
        est = est_src = res = None  # freed before the next method runs
        # with the filtering rows, the ML labels and the logs formed, only
        # fb reads the likelihood
        if alpha is not None and ml is not None and logs is not None and (
                "fb" not in spec.methods[k + 1:]):
            Psi = None
    return out


def _check_run(seed, trials, chunk, n, jobs, db, methods, known):
    """The checks of every run, before it builds or draws anything; returns the seed.

    db is the run's Eb/N0 (SNR per bit) in dB.
    """
    if seed is None:
        raise ValueError("--seed is required for experiment runs")
    seed = int(seed)
    if not 0 <= seed < (1 << 64):
        raise ValueError("--seed: seed must fit in 64 bits")
    for name, value in (("trials", trials), ("chunk", chunk), ("n", n), ("jobs", jobs)):
        if value < 1:
            raise ValueError("--%s: need %s >= 1, got %r" % (name, name, value))
    if not np.isfinite(db):
        raise ValueError("--ebn0: need a finite Eb/N0 in dB, got %r" % (db,))
    if not methods:
        raise ValueError("--methods: need at least one method")
    for k, m in enumerate(methods):
        if m not in known:
            raise ValueError("--methods: unknown method %r" % (m,))
        if m in methods[:k]:
            raise ValueError("--methods: %s is listed twice" % (m,))
    return seed


def _noise_level(formula, setting):
    """formula(), which must be a positive finite float; setting names its inputs.

    Python's float ** raises OverflowError rather than giving inf, so
    the run's settings are reported here and not as a traceback.
    """
    try:
        level = formula()
    except (OverflowError, ZeroDivisionError):
        raise ValueError("%s gives a noise level outside the float range" % setting) from None
    if not 0.0 < level < np.inf:
        raise ValueError("%s gives noise level %r; need it positive and finite"
                         % (setting, level))
    return level


def _map_chunks(worker, point, trials, chunk, jobs):
    """worker(point, t0, t1) over the chunks of trials, results in trial order."""
    t0s = range(0, trials, chunk)
    t1s = [min(t0 + chunk, trials) for t0 in t0s]
    # the pool starts all its workers at once, so no more than there are
    # chunks to run and CPUs to run them; no output depends on the count
    workers = min(jobs, len(t0s), os.cpu_count() or 1)
    if workers > 1:
        # imported here: a serial run, the default, never loads the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(worker, [point] * len(t0s), t0s, t1s))
    return [worker(point, t0, t1) for t0, t1 in zip(t0s, t1s)]


# The most bytes a point's largest arrays may take together. Past it,
# numpy fails mid-run with a MemoryError traceback, maybe after earlier
# points have run; below it, a run fits a workstation. Criterion 7's
# 500 x 1000 x 64 chunk counts 0.48 GiB (its likelihood and logs), the
# CLI defaults and the benchmark workloads less. The tracemalloc peak of
# a 500-trial HMC chunk was 1.5 to 3.3 times its count.
_MAX_POINT_BYTES = 4 << 30


def _check_size(nbytes, flags):
    # whole GiB in integer arithmetic: a float could overflow on a huge --n
    if nbytes > _MAX_POINT_BYTES:
        raise ValueError("%s: a point's largest arrays take %d GiB; a run may ask for "
                         "at most %d GiB" % (flags, nbytes >> 30, _MAX_POINT_BYTES >> 30))


def check_experiment(cfg):
    """The checks of run_experiment(cfg), which build and draw nothing.

    Returns (seed, n0). A caller with many points checks them all
    before the first runs.
    """
    seed = _check_run(cfg.seed, cfg.trials, cfg.chunk, cfg.n, cfg.jobs, cfg.ebn0_db,
                      cfg.methods, HMC_METHODS)
    n0 = _named("--ebn0", _noise_level, lambda: snr_to_n0(cfg.ebn0_db),
                setting="Eb/N0 %r dB" % (cfg.ebn0_db,))
    # each value against the other's default, so an error names its flag
    _named("--xi", StoppingConfig, cfg.xi)
    _named("--max-cycles", StoppingConfig, 0.0, max_cycles=cfg.max_cycles)
    if cfg.scenario not in ("awgn", "fading"):
        raise ValueError("scenario must be 'awgn' or 'fading'")
    M = _named("--m", check_qam_order, cfg.M)
    K, flags = 1, "--m %d, --n %d, --chunk %d" % (M, cfg.n, cfg.chunk)
    if cfg.scenario == "fading":
        if cfg.rho is None:
            raise ValueError("fading needs rho")
        _named("--rho", check_rho, cfg.rho)
        _named("--sigma2", check_sigma2, cfg.sigma2)
        K = _named("--k", check_cells, cfg.K)
        flags += ", --k %d" % K
    # a chunk's (B, n, S) likelihood and its logs, T (S x S) and T_c (K x K)
    B, S = min(cfg.chunk, cfg.trials), M * K
    _check_size(8 * (2 * B * cfg.n * S + S * S + K * K), flags)
    return seed, n0


def _named(flag, check, value, **kw):
    """check(value, **kw), its error prefixed with the CLI flag that sets the value."""
    try:
        return check(value, **kw)
    except ValueError as e:
        raise ValueError("%s: %s" % (flag, e)) from None


def run_experiment(cfg):
    """One (scenario, Eb/N0, rho) point; one result row dict per method."""
    seed, n0 = check_experiment(cfg)
    const = QamConstellation(cfg.M)
    T_s, p_s = random_source(cfg.M, model_generator(seed))
    fading = cfg.scenario == "fading"
    if fading:
        quant = rayleigh_quantizer(cfg.K, cfg.sigma2)
        T_c = channel_transition_matrix(cfg.K, cfg.rho, cfg.sigma2, quantizer=quant)
        aug = augmented_model(T_s, const, T_c, quant)
        T, p, means = aug.T, aug.p, aug.means
    else:
        T_c = None
        T, p, means = T_s, p_s, const.points.copy()

    point = _HmcPoint(fading, seed, cfg.n, n0, T, p, means, T_s, p_s, T_c, cfg.M,
                      tuple(cfg.methods), cfg.xi, cfg.max_cycles, const.bit_distance)
    partials = _map_chunks(_run_hmc_chunk, point, cfg.trials, cfg.chunk, cfg.jobs)

    total_bits = cfg.trials * cfg.n * const.bits_per_symbol
    rows = []
    for method in cfg.methods:
        agg = {"bit_err": 0, "nu_c": 0.0, "nu_e": 0.0, "kld": 0.0, "wall": 0.0}
        for part in partials:
            for key in agg:
                agg[key] += part[method][key]
        mean_field = method in MEAN_FIELD_METHODS
        ber = agg["bit_err"] / total_bits
        rows.append({
            "method": method,
            "scenario": cfg.scenario,
            "M": cfg.M,
            "K": cfg.K if fading else None,
            "ebn0_db": float(cfg.ebn0_db),
            "rho": float(cfg.rho) if fading else None,
            "n": cfg.n,
            "trials": cfg.trials,
            "ber": ber,
            "ber_ci95": 1.96 * np.sqrt(max(ber * (1.0 - ber), 0.0) / total_bits),
            "nu_c_mean": agg["nu_c"] / cfg.trials if mean_field else None,
            "nu_e_mean": agg["nu_e"] / cfg.trials if mean_field else None,
            "kld_mean": agg["kld"] / cfg.trials if mean_field else None,
            "wall_ms": 1000.0 * agg["wall"],
        })
    return rows


_FreqPoint = namedtuple(
    "_FreqPoint", ["seed", "n", "omega", "r_e", "mu_a", "r_a", "pad", "cycles", "methods"])


# Trials per row block of a tone chunk: every (rows, G) array the chunk
# forms, the periodogram's included, is one block's, so a chunk's peak
# memory does not grow with its trials past the (B, n) samples. The
# periodogram is a BLAS product, whose rounding of a row holds for any
# block of two or more rows but not for a lone row (a one-row product
# takes another BLAS path), so a lone trailing row joins the block
# before it and a block holds up to _FREQ_ROWS + 1 rows.
_FREQ_ROWS = 64


def _freq_blocks(B):
    """The [b0, b1) row blocks of a B-trial tone chunk (see _FREQ_ROWS)."""
    b0s = list(range(0, B, _FREQ_ROWS))
    if len(b0s) > 1 and B - b0s[-1] == 1:
        b0s.pop()
    return zip(b0s, b0s[1:] + [B])


def _run_freq_chunk(spec, t0, t1):
    """Per-method squared errors of trials [t0, t1), in trial order.

    The periodogram errors are one array; the Bayesian ones are Python
    floats squared one trial at a time, as a single-trial call does.
    """
    B = t1 - t0
    n = spec.n
    grid = dft_grid(n, spec.pad)
    prior = FreqPrior(spec.mu_a, spec.r_a)
    i = np.arange(1, n + 1)
    tone = np.sin(spec.omega * i)
    X = np.empty((B, n))
    for r, t in enumerate(range(t0, t1)):
        g = trial_generator(spec.seed, t)
        X[r] = spec.mu_a * tone + np.sqrt(spec.r_e) * g.standard_normal(n)
    sq = {m: [] for m in spec.methods}
    others = [m for m in spec.methods if m != "periodogram"]
    for b0, b1 in _freq_blocks(B):
        Xb = X[b0:b1]
        if "periodogram" in sq:
            # only each row's peak outlives the block
            sq["periodogram"].append(grid[np.argmax(periodogram(Xb, grid), axis=1)])
        if others:
            post = freq_posterior(Xb, prior, grid, spec.r_e)
        for m in others:
            if m == "pm":
                est = post.post_mean
            elif m == "map":
                est = post.marginal_map
            elif m == "vb":
                est = vb_freq(Xb, prior, grid, spec.r_e, spec.cycles, post=post).omega_hat
            else:
                est = tvb_freq(Xb, prior, grid, spec.r_e, spec.cycles, post=post).omega_hat
            sq[m].extend((e - spec.omega) ** 2 for e in est.tolist())
        post = None  # freed before the next block's periodogram
    if "periodogram" in sq:
        sq["periodogram"] = (np.concatenate(sq["periodogram"]) - spec.omega) ** 2
    return sq


def _sum_in_trial_order(m, parts):
    # a one-chunk run sums exactly as a single chunk always has: the
    # periodogram errors pairwise, the others one trial after another
    if m == "periodogram":
        return float(np.sum(np.concatenate(parts)))
    total = 0.0
    for part in parts:
        for e in part:
            total += e
    return total


def check_freq_experiment(n, snr_db, trials, seed, omega_bins, pad, cycles, mu_a, r_a,
                          methods, chunk, jobs):
    """The checks of run_freq_experiment, which draw nothing; returns (seed, omega, r_e).

    A caller with many points checks them all before the first runs.
    """
    seed = _check_run(seed, trials, chunk, n, jobs, snr_db, methods, FREQ_METHODS)
    if n < 2:
        raise ValueError("--n: a tone grid needs n >= 2, got %r" % (n,))
    if pad < 1:
        raise ValueError("--pad: need pad >= 1, got %r" % (pad,))
    # the (G, n) sin and phase tables, a chunk's (B, n) samples and one
    # row block's complex periodogram, on the G = pad * n / 2 grid points
    B, G = min(chunk, trials), pad * n // 2
    _check_size(24 * G * n + 8 * B * n + 16 * min(B, _FREQ_ROWS + 1) * G,
                "--n %d, --pad %d, --chunk %d" % (n, pad, chunk))
    if cycles < 0:
        raise ValueError("--cycles: need cycles >= 0, got %r" % (cycles,))
    _named("--r-a", check_variance, r_a, what="prior variance r_a")
    if not np.isfinite(mu_a):
        raise ValueError("--mu-a: need a finite prior mean mu_a, got %r" % (mu_a,))
    if not 0.0 <= omega_bins < n / 2:
        raise ValueError("--omega-bins: need 0 <= omega_bins < n/2 = %r, got %r"
                         % (n / 2, omega_bins))
    omega = omega_bins * 2.0 * np.pi / n
    setting = "Eb/N0 %r dB with prior mean mu_a %r and variance r_a %r" % (snr_db, mu_a, r_a)
    flags = "--ebn0, --mu-a, --r-a"
    r_e = _named(flags, _noise_level,
                 lambda: (mu_a ** 2 + r_a) / (2.0 * 10.0 ** (snr_db / 10.0)), setting=setting)
    _named(flags, check_variance, r_e, what="%s gives noise level r_e, which" % setting)
    return seed, omega, r_e


def run_freq_experiment(n, snr_db, trials, seed, omega_bins=1.1, pad=8, cycles=5,
                        mu_a=1.0, r_a=0.1, methods=FREQ_METHODS, chunk=2000, jobs=1):
    """Tone-frequency RMS (in bins) per method at one SNR per bit.

    The transmitted amplitude is fixed at the prior mean; the prior
    variance still enters the inference and the SNR definition, which
    sets r_e = (mu_a^2 + r_a) / (2 * 10^(dB/10)).
    """
    seed, omega, r_e = check_freq_experiment(n, snr_db, trials, seed, omega_bins, pad,
                                             cycles, mu_a, r_a, methods, chunk, jobs)
    point = _FreqPoint(seed, n, omega, r_e, mu_a, r_a, pad, cycles, tuple(methods))
    partials = _map_chunks(_run_freq_chunk, point, trials, chunk, jobs)
    bin_w = 2.0 * np.pi / n
    rows = []
    for m in methods:
        total = _sum_in_trial_order(m, [p[m] for p in partials])
        rms = np.sqrt(total / trials) / bin_w
        rows.append({
            "method": m, "snr_db": float(snr_db), "n": n,
            "omega_bins": float(omega_bins), "rms_bins": float(rms),
            "trials": trials,
        })
    return rows


def run_pe_demo(rhos, transform="eigen"):
    """KLD of both factorizations of the quartic-exponent bivariate."""
    from .pe import pe_approximate, pe_model

    # a bad later rho fails before the first one runs
    models = [_named("--rho", pe_model, rho, method=transform) for rho in rhos]
    rows = []
    for rho, model in zip(rhos, models):
        _, kv = pe_approximate(model, "vb")
        _, kt = pe_approximate(model, "tvb")
        rows.append({"rho": float(rho), "kld_vb": kv, "kld_tvb": kt})
    return rows


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def format_csv(header, rows, manifest=None):
    lines = []
    if manifest:
        lines.append("# " + manifest)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in header))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows, manifest=None):
    """Write the CSV to path; None or "-" means stdout."""
    text = format_csv(header, rows, manifest)
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return text
