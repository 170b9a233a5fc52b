"""Traced replay of one CLI workload run, from trellis's public calls.

Usage: python perfbench/replay.py WORKLOAD SEED OUT_JSON [--tiny]

Mirrors `trellis.cli` -> `run_experiment` / `run_freq_experiment` ->
`_run_hmc_chunk` / `_run_freq_chunk` stage by stage as they are in the
library today, with a span around every call into a trellis module, and
writes the CSV text it would have produced plus the spans. The harness
checks that this CSV equals the untraced CLI's apart from `wall_ms`, so
a replay that drifts from the library's experiment code fails instead of
reporting numbers for code that no longer runs.
"""

import json
import sys

from spans import Tracer
from workloads import cli_argv

TRACER = Tracer()
with TRACER.span("cli.import"):
    import numpy as np

    import trellis  # noqa: F401
from trellis import batch, channel, freq
from trellis.cli import build_parser
from trellis.experiments import (FREQ_CSV_HEADER, HMC_CSV_HEADER, format_csv,
                                 model_generator, trial_generator)
from trellis.numerics import safe_log

KERNEL = {"ml": "ml", "fb": "fb", "va": "viterbi", "vb": "ivb", "vb-acc": "ivb_acc",
          "fcvb": "fcvb", "fcvb-acc": "fcvb_acc"}


def _one_hot(labels, M):
    out = np.zeros(labels.shape + (M,))
    np.put_along_axis(out, labels[..., None], 1.0, axis=2)
    return out


def hmc_chunk(tr, fading, seed, t0, t1, n, n0, T, p, means, src_T, src_p, ch_T,
              M_src, methods, xi, max_cycles, bit_distance):
    B = t1 - t0
    with tr.span("experiments.draws"):
        su = np.empty((B, n))
        cu = np.empty((B, n)) if fading else None
        nz = np.empty((B, 2 * n))
        for r, t in enumerate(range(t0, t1)):
            g = trial_generator(seed, t)
            su[r] = g.random(n)
            if fading:
                cu[r] = g.random(n)
            nz[r] = g.standard_normal(2 * n)
    with tr.span("channel.sample_chain"):
        src = channel.sample_chain(src_T, src_p, su)
        if fading:
            K = ch_T.shape[0]
            ch = channel.sample_chain(ch_T, np.full(K, 1.0 / K), cu)
            state = ch * M_src + src
        else:
            state = src
    with tr.span("channel.likelihood"):
        x = channel.awgn_observe(means[state], n0, nz)
        Psi = channel.gaussian_psi(x, means, n0)

    Mt = means.shape[0]
    steps = B * (n - 1) * Mt * Mt
    logT = logp = logPsi = None
    alpha = None
    out = {}
    for method in methods:
        if method == "va" and logPsi is None:
            logT, logp, logPsi = safe_log(T), safe_log(p), safe_log(Psi)
        kernel = KERNEL[method]
        acc = {"bit_err": 0, "nu_c": 0.0, "nu_e": 0.0, "kld": 0.0, "wall": 0.0,
               "has_nu": False, "has_kld": False}
        with tr.span("batch." + kernel):
            if method == "ml":
                est = batch.batch_ml(Psi)
            elif method == "fb":
                alpha, _, est = batch.batch_fb(T, p, Psi)
            elif method == "va":
                est = batch.batch_viterbi(logT, logp, logPsi)
            elif method in ("vb", "vb-acc"):
                init = np.full((B, n, Mt), 1.0 / Mt)
                phat, nu_c, nu_e, conv = batch.batch_ivb(
                    T, p, Psi, init, xi=xi, max_cycles=max_cycles,
                    accelerated=method.endswith("acc"))
                est = np.argmax(phat, axis=2)
            else:
                est, nu_c, nu_e, conv = batch.batch_fcvb(
                    T, p, Psi, batch.batch_ml(Psi), max_cycles=max_cycles,
                    accelerated=method.endswith("acc"))
        if kernel in ("fb", "viterbi"):
            tr.count("batch.%s.transitions" % kernel, steps)
        if method in ("vb", "vb-acc", "fcvb", "fcvb-acc"):
            acc["has_nu"] = True
            acc["nu_c"] = float(nu_c.sum())
            acc["nu_e"] = float(nu_e.sum())
            tr.count("batch.%s.trials" % kernel, B)
            tr.count("batch.%s.nu_c" % kernel, acc["nu_c"])
            tr.count("batch.%s.nu_e" % kernel, acc["nu_e"])
            tr.count("batch.%s.unconverged" % kernel, int((~conv).sum()))
            if alpha is None:
                with tr.span("batch.kld_forward"):
                    alpha = batch.batch_fb(T, p, Psi)[0]
            with tr.span("batch.kld"):
                q = phat if method.startswith("vb") else _one_hot(est, Mt)
                acc["has_kld"] = True
                acc["kld"] = float(batch.batch_kld(T, alpha, q).sum())
            tr.count("batch.kld.transitions", steps)
        est_src = est % M_src if fading else est
        acc["bit_err"] = int(bit_distance[src, est_src].sum())
        out[method] = acc
    return out


def hmc_point(tr, scenario, M, K, ebn0_db, rho, n, trials, seed, methods, xi,
              max_cycles, chunk, sigma2):
    const = channel.QamConstellation(M)
    T_s, p_s = channel.random_source(M, model_generator(seed))
    n0 = channel.snr_to_n0(ebn0_db)
    fading = scenario == "fading"
    if fading:
        with tr.span("channel.quantizer"):
            quant = channel.rayleigh_quantizer(K, sigma2)
        with tr.span("channel.transition_matrix"):
            T_c = channel.channel_transition_matrix(K, rho, sigma2, quantizer=quant)
        tr.count("channel.transition_matrix.calls")
        aug = channel.augmented_model(T_s, const, T_c, quant)
        T, p, means = aug.T, aug.p, aug.means
    else:
        T_c = None
        T, p, means = T_s, p_s, const.points.copy()
    partials = [
        hmc_chunk(tr, fading, seed, t0, min(t0 + chunk, trials), n, n0, T, p, means,
                  T_s, p_s, T_c, M, methods, xi, max_cycles, const.bit_distance)
        for t0 in range(0, trials, chunk)
    ]
    total_bits = trials * n * const.bits_per_symbol
    rows = []
    for method in methods:
        agg = {"bit_err": 0, "nu_c": 0.0, "nu_e": 0.0, "kld": 0.0, "wall": 0.0}
        has_nu = has_kld = False
        for part in partials:
            a = part[method]
            for key in agg:
                agg[key] += a[key]
            has_nu = a["has_nu"]
            has_kld = a["has_kld"]
        ber = agg["bit_err"] / total_bits
        rows.append({
            "method": method, "scenario": scenario, "M": M,
            "K": K if fading else None, "ebn0_db": float(ebn0_db),
            "rho": float(rho) if fading else None, "n": n, "trials": trials,
            "ber": ber,
            "ber_ci95": 1.96 * np.sqrt(max(ber * (1.0 - ber), 0.0) / total_bits),
            "nu_c_mean": agg["nu_c"] / trials if has_nu else None,
            "nu_e_mean": agg["nu_e"] / trials if has_nu else None,
            "kld_mean": agg["kld"] / trials if has_kld else None,
        })
    return rows


def replay_hmc(tr, args):
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    ebn0s = [float(v) for v in args.ebn0.split(",") if v]
    if args.cmd == "hmc-fading":
        rhos = [float(v) for v in args.rho.split(",") if v]
        K, sigma2 = args.k, args.sigma2
    else:
        rhos, K, sigma2 = [None], 1, 0.5
    rows = []
    for e in ebn0s:
        for rho in rhos:
            with tr.span("experiments.point"):
                rows.extend(hmc_point(
                    tr, args.scenario, args.m, K, e, rho, args.n, args.trials,
                    args.seed, methods, args.xi, args.max_cycles, args.chunk, sigma2))
    rows.sort(key=lambda r: (
        r["scenario"], r["M"], r["K"] or 0, r["ebn0_db"],
        r["rho"] if r["rho"] is not None else -1.0, r["n"], r["trials"], r["method"]))
    return format_csv(HMC_CSV_HEADER, rows)


def freq_chunk(tr, seed, t0, t1, n, omega, r_e, mu_a, r_a, pad, cycles, methods):
    B = t1 - t0
    grid = freq.dft_grid(n, pad)
    prior = freq.FreqPrior(mu_a, r_a)
    i = np.arange(1, n + 1)
    tone = np.sin(omega * i)
    with tr.span("experiments.draws"):
        X = np.empty((B, n))
        for r, t in enumerate(range(t0, t1)):
            g = trial_generator(seed, t)
            X[r] = mu_a * tone + np.sqrt(r_e) * g.standard_normal(n)
    sq = {m: 0.0 for m in methods}
    if "periodogram" in sq:
        with tr.span("freq.periodogram"):
            P = freq.periodogram(X, grid)
        est = grid[np.argmax(P, axis=1)]
        sq["periodogram"] = float(np.sum((est - omega) ** 2))
    others = [m for m in methods if m != "periodogram"]
    if others:
        tr.count("freq.grid_evals", B * grid.shape[0])
        for r in range(B):
            with tr.span("freq.posterior"):
                post = freq.freq_posterior(X[r], prior, grid, r_e)
            for m in others:
                if m == "pm":
                    est = post.post_mean
                elif m == "map":
                    est = post.marginal_map
                elif m == "vb":
                    with tr.span("freq.vb"):
                        est = freq.vb_freq(X[r], prior, grid, r_e, cycles, post=post).omega_hat
                else:
                    with tr.span("freq.tvb"):
                        est = freq.tvb_freq(X[r], prior, grid, r_e, cycles, post=post).omega_hat
                sq[m] += (est - omega) ** 2
    return sq


def replay_freq(tr, args):
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    n, trials, chunk = args.n, args.trials, args.chunk
    rows = []
    for snr_db in [float(v) for v in args.ebn0.split(",") if v]:
        with tr.span("experiments.point"):
            omega = args.omega_bins * 2.0 * np.pi / n
            r_e = (args.mu_a ** 2 + args.r_a) / (2.0 * 10.0 ** (snr_db / 10.0))
            partials = [
                freq_chunk(tr, args.seed, t0, min(t0 + chunk, trials), n, omega, r_e,
                           args.mu_a, args.r_a, args.pad, args.cycles, methods)
                for t0 in range(0, trials, chunk)
            ]
            bin_w = 2.0 * np.pi / n
            for m in methods:
                rms = np.sqrt(sum(p[m] for p in partials) / trials) / bin_w
                rows.append({"method": m, "snr_db": float(snr_db), "n": n,
                             "omega_bins": float(args.omega_bins),
                             "rms_bins": float(rms), "trials": trials})
    rows.sort(key=lambda r: (r["snr_db"], r["n"], r["omega_bins"], r["method"]))
    return format_csv(FREQ_CSV_HEADER, rows)


def main(argv):
    name, seed, out = argv[0], int(argv[1]), argv[2]
    args = build_parser().parse_args(cli_argv(name, seed, out, tiny="--tiny" in argv))
    replay = replay_freq if args.cmd == "freq" else replay_hmc
    csv_text = replay(TRACER, args)
    with open(out, "w") as fh:
        json.dump({"csv": csv_text, **TRACER.dump()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
