"""Command-line front end: experiment runners, model utilities, selftest.

Exit codes: 0 success, 1 configuration error, 2 selftest failure. Any
ValueError from a subcommand is reported as a configuration error. A
`--config file` of key=value lines overrides flags of the same name.
Every CSV starts with a one-line manifest comment (tool version,
subcommand, resolved settings) so a run can be replayed exactly.
"""

import argparse
import sys

import numpy as np

from . import __version__


class _ConfigError(ValueError):
    def __init__(self, message, usage_shown=False):
        super().__init__(message)
        self.usage_shown = usage_shown


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's message names the argument ("argument --m: invalid
        # int value: 'x'"); it is one config error line like any other
        self.print_usage(sys.stderr)
        sys.stderr.write("config error: %s\n" % message)
        raise _ConfigError(message, usage_shown=True)


def _csv_floats(text, flag):
    try:
        values = [float(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise _ConfigError("%s: bad numeric list %r" % (flag, text))
    if not values:
        raise _ConfigError("%s: empty numeric list %r" % (flag, text))
    return values


def _csv_ints(text):
    try:
        return [int(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise _ConfigError("bad integer list %r" % (text,))


def build_parser():
    p = _Parser(prog="trellis", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version="trellis " + __version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, trials, n):
        sp.add_argument("--seed", type=int, default=None, help="master seed (required)")
        sp.add_argument("--trials", type=int, default=trials)
        sp.add_argument("--n", type=int, default=n)
        sp.add_argument("--out", default=None, help="CSV path (default: stdout)")
        sp.add_argument("--plot-data", dest="plot_data", default=None,
                        help="also write a long-format CSV here")
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--chunk", type=int, default=500)
        sp.add_argument("--config", default=None, help="key=value file overriding flags")

    sp = sub.add_parser("hmc-awgn", help="symbol detection over a memoryless Gaussian channel")
    common(sp, trials=1000, n=1000)
    sp.set_defaults(scenario="awgn")
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--ebn0", default="6,10,14", help="comma list of dB values")
    sp.add_argument("--methods", default="ml,fb,va,vb,fcvb")
    sp.add_argument("--xi", type=float, default=0.01)
    sp.add_argument("--max-cycles", dest="max_cycles", type=int, default=100)

    sp = sub.add_parser("hmc-fading", help="symbol detection over quantized Rayleigh fading")
    common(sp, trials=1000, n=1000)
    sp.set_defaults(scenario="fading")
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--k", type=int, default=8)
    sp.add_argument("--ebn0", default="30")
    sp.add_argument("--rho", default=None, help="comma list of gain correlations")
    sp.add_argument("--fdts", default=None, help="comma list of normalized Doppler values")
    sp.add_argument("--sigma2", type=float, default=0.5)
    sp.add_argument("--methods", default="ml,fb,va,vb,fcvb")
    sp.add_argument("--xi", type=float, default=0.01)
    sp.add_argument("--max-cycles", dest="max_cycles", type=int, default=100)

    sp = sub.add_parser("freq", help="single-tone frequency estimation RMS sweep")
    common(sp, trials=10000, n=64)
    sp.set_defaults(chunk=2000)
    sp.add_argument("--ebn0", default="5,15", help="comma list of SNR-per-bit dB values")
    sp.add_argument("--omega-bins", dest="omega_bins", type=float, default=1.1)
    sp.add_argument("--pad", type=int, default=8)
    sp.add_argument("--cycles", type=int, default=5)
    sp.add_argument("--mu-a", dest="mu_a", type=float, default=1.0)
    sp.add_argument("--r-a", dest="r_a", type=float, default=0.1)
    sp.add_argument("--methods", default="periodogram,pm,map,vb,tvb")

    sp = sub.add_parser("gdl-count", help="factor-model partitions and operator counts")
    sp.add_argument("--model", required=True, help="model file (header 'm M n')")
    sp.add_argument("--keep", default="", help="comma list of variables to keep")
    sp.add_argument("--split", type=int, default=None)
    sp.add_argument("--mode", default="both", choices=["fb", "naive", "both"])
    sp.add_argument("--config", default=None)

    sp = sub.add_parser("pe-demo", help="factored-approximation divergences of the quartic bivariate")
    sp.add_argument("--rho", default="0.2,0.5,0.8")
    sp.add_argument("--transform", default="eigen", choices=["eigen", "ldu"])
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)

    sub.add_parser("selftest", help="small-instance oracle equivalence suite")
    return p


def _config_argv(args):
    """The lines of the --config file as flags, to parse after the command line."""
    try:
        with open(args.config) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise _ConfigError("cannot read config file: %s" % e)
    flags = []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _ConfigError("config line %d is not key=value" % ln)
        key, val = (s.strip() for s in line.split("=", 1))
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("cmd", "config"):
            raise _ConfigError("unknown config key %r" % key)
        flags.append("--%s=%s" % (dest.replace("_", "-"), val))
    return flags


def _manifest(args, skip=("config", "plot_data")):
    pairs = ["tool=trellis-" + __version__, "cmd=" + args.cmd]
    for key in sorted(vars(args)):
        if key in skip or key == "cmd":
            continue
        val = getattr(args, key)
        pairs.append("%s=%s" % (key, "-" if val is None else val))
    return " ".join(pairs)


def _sort_key(row):
    return (
        row["scenario"], row["M"], row["K"] or 0, row["ebn0_db"],
        row["rho"] if row["rho"] is not None else -1.0, row["n"],
        row["trials"], row["method"],
    )


def _methods(args):
    return tuple(m.strip() for m in args.methods.split(",") if m.strip())


def _write(args, header, rows, x_field=None, metrics=()):
    """The CSV with its manifest, then the long form of metrics if --plot-data is set."""
    from .experiments import write_csv

    write_csv(args.out, header, rows, _manifest(args))
    if getattr(args, "plot_data", None):
        long_rows = [
            {"method": row["method"], "x_name": x_field, "x_value": row[x_field],
             "metric": metric, "value": row[metric]}
            for row in rows for metric in metrics if row.get(metric) is not None]
        write_csv(args.plot_data, ["method", "x_name", "x_value", "metric", "value"],
                  long_rows)
    return 0


def _cmd_hmc(args):
    from .channel import check_rho, rho_from_doppler
    from .experiments import (ExperimentConfig, HMC_CSV_HEADER, _named, check_experiment,
                              run_experiment)

    ebn0s = _csv_floats(args.ebn0, "--ebn0")
    if args.cmd == "hmc-fading":
        if args.rho is not None and args.fdts is not None:
            raise _ConfigError("give --rho or --fdts, not both")
        if args.rho is not None:
            rhos = _csv_floats(args.rho, "--rho")
        elif args.fdts is not None:
            # an error names the Doppler value the user gave, not just its rho
            rhos = [_named("--fdts %r" % f, check_rho, rho_from_doppler(f))
                    for f in _csv_floats(args.fdts, "--fdts")]
        else:
            raise _ConfigError("hmc-fading needs --rho or --fdts")
        K = args.k
        sigma2 = args.sigma2
    else:
        rhos = [None]
        K = 1
        sigma2 = 0.5
    cfgs = [ExperimentConfig(
        scenario=args.scenario, M=args.m, K=K, ebn0_db=e, rho=rho,
        n=args.n, trials=args.trials, seed=args.seed, methods=_methods(args),
        xi=args.xi, max_cycles=args.max_cycles, chunk=args.chunk,
        jobs=args.jobs, sigma2=sigma2) for e in ebn0s for rho in rhos]
    # a bad later point fails before the first one runs
    for cfg in cfgs:
        check_experiment(cfg)
    rows = [row for cfg in cfgs for row in run_experiment(cfg)]
    rows.sort(key=_sort_key)
    return _write(args, HMC_CSV_HEADER, rows, "rho" if len(rhos) > 1 else "ebn0_db",
                  ["ber", "ber_ci95", "nu_c_mean", "nu_e_mean", "kld_mean", "wall_ms"])


def _cmd_freq(args):
    from .experiments import FREQ_CSV_HEADER, check_freq_experiment, run_freq_experiment

    points = [dict(n=args.n, snr_db=snr, trials=args.trials, seed=args.seed,
                   omega_bins=args.omega_bins, pad=args.pad, cycles=args.cycles,
                   mu_a=args.mu_a, r_a=args.r_a, methods=_methods(args), chunk=args.chunk,
                   jobs=args.jobs)
              for snr in _csv_floats(args.ebn0, "--ebn0")]
    # a bad later point fails before the first one runs
    for kw in points:
        check_freq_experiment(**kw)
    rows = [row for kw in points for row in run_freq_experiment(**kw)]
    rows.sort(key=lambda r: (r["snr_db"], r["n"], r["omega_bins"], r["method"]))
    return _write(args, FREQ_CSV_HEADER, rows, "snr_db", ["rms_bins"])


def _format_sets(tag_fmt, sets):
    parts = []
    for i, s in enumerate(sets, 1):
        inner = ",".join(str(v) for v in sorted(s))
        parts.append(tag_fmt % i + "={" + inner + "}")
    return " ".join(parts)


def _cmd_gdl_count(args):
    from .factors import fa_partition, load_model, nln_partition
    from .gdl import count_operators, default_split

    try:
        model = load_model(args.model)
    except (OSError, ValueError) as e:
        raise _ConfigError("bad model file: %s" % e)
    keep = frozenset(_csv_ints(args.keep)) if args.keep else frozenset()
    if not keep <= model.universe:
        raise _ConfigError("keep set outside the model universe")
    split = args.split if args.split is not None else default_split(model.n)
    # the counts are for summing out every variable that is not kept; they
    # come first, so a bad split fails before anything is printed
    S = model.universe - keep
    fb = count_operators(model, S, i=split, mode="fb") if args.mode != "naive" else None
    nv = count_operators(model, S, mode="naive") if args.mode != "fb" else None
    print("m=%d M=%d n=%d" % (model.space.m, model.space.M, model.n))
    print("NLN: " + _format_sets("[%d]", nln_partition(model)))
    print("FA: " + _format_sets("(%d)", fa_partition(model)))
    print("keep={%s} split=%d" % (",".join(str(v) for v in sorted(keep)), split))
    if fb is not None:
        print("fb: ring_sum=%d ring_product=%d total=%d phi=%d" % (
            fb["ring_sum"], fb["ring_product"], fb["total"], fb["phi"]))
    if nv is not None:
        print("naive: ring_sum=%d ring_product=%d total=%d lower=%d upper=%d" % (
            nv["ring_sum"], nv["ring_product"], nv["total"], nv["lower"], nv["upper"]))
    return 0


def _cmd_pe_demo(args):
    from .experiments import PE_CSV_HEADER, run_pe_demo

    return _write(args, PE_CSV_HEADER,
                  run_pe_demo(_csv_floats(args.rho, "--rho"), transform=args.transform))


def _selftest_checks():
    from .batch import (batch_forward, batch_kld, batch_kld_labels, forward_backward,
                        marginal_sweep, point_mass_sweep)
    from .channel import channel_transition_matrix, rayleigh_pair_logpdf, rayleigh_quantizer
    from .factors import Factor, FactorModel, VariableSpace
    from .freq import FreqPrior, dft_grid, freq_posterior, tvb_freq, vb_freq
    from .gdl import dual_entropy, fb_reduce_sequential, fb_reduce_single, naive_reduce
    from .hmc import (HmcModel, bidirectional_viterbi, brute_force_posterior,
                      fb_algorithm, viterbi)
    from .numerics import adaptive_simpson_2d, exp_inplace, safe_log, simpson_2d
    from .pe import pe_logpdf, pe_model
    from .semiring import ALL_SEMIRINGS, check_laws, semiring

    rng = np.random.default_rng(20240817)

    def random_hmc(M, n):
        T = rng.random((M, M))
        T /= T.sum(axis=0)
        Psi = rng.random((n, M)) + 0.05
        return HmcModel(T, np.full(M, 1.0 / M), Psi)

    def check_semiring_laws():
        for name in ALL_SEMIRINGS:
            check_laws(semiring(name))

    def check_fb_oracle():
        model = random_hmc(3, 5)
        bf = brute_force_posterior(model)
        sm = fb_algorithm(model)
        for i in range(1, 6):
            assert np.max(np.abs(sm.gamma[i - 1] - bf.marginal(i))) < 1e-10

    def check_viterbi_oracle():
        model = random_hmc(3, 5)
        bf = brute_force_posterior(model)
        vt = viterbi(model)
        assert np.array_equal(vt.labels, bf.map_labels())
        assert np.array_equal(bidirectional_viterbi(model).labels, vt.labels)

    def check_gdl_vs_naive():
        space = VariableSpace(4, 2)
        factors = [
            Factor([1, 2], rng.random((2, 2)) + 0.1, 2),
            Factor([2, 3], rng.random((2, 2)) + 0.1, 2),
            Factor([3, 4], rng.random((2, 2)) + 0.1, 2),
        ]
        model = FactorModel(space, factors)
        for name in ("sum-product", "max-product", "max-sum"):
            sr = semiring(name)
            a = fb_reduce_single(model, sr, {1, 2, 4})
            b = naive_reduce(model, sr, {1, 2, 4})
            assert a.vars == b.vars
            assert np.max(np.abs(a.table - b.table)) < 1e-9

    def check_chain_vs_split():
        n, M = 6, 3
        model = random_hmc(M, n)
        chain = FactorModel(VariableSpace(n, M), [Factor([1], model.p * model.Psi[0], M)] + [
            Factor([i, i + 1], model.T.T * model.Psi[i], M) for i in range(1, n)])
        for name in ("sum-product", "max-product"):
            sr = semiring(name)
            gamma = forward_backward(model.T, model.p, model.Psi[None], sr=sr)[2][0]
            marginals = fb_reduce_sequential(chain, sr, [{i} for i in range(1, n + 1)])
            for f, g in zip(marginals, gamma):
                assert np.max(np.abs(f.table / f.table.sum() - g)) < 1e-12

    def check_point_mass_divergence():
        # own generator, so the checks after it see the same draws; the
        # zero in T makes some label paths impossible (LOG0 terms)
        g = np.random.default_rng(7)
        B, n, M = 4, 6, 3
        T = g.random((M, M))
        T[0, 1] = 0.0
        T /= T.sum(axis=0)
        p0 = np.full(M, 1.0 / M)
        Psi = g.random((B, n, M)) + 0.05
        labels = g.integers(0, M, size=(B, n))
        one_hot = np.zeros((B, n, M))
        np.put_along_axis(one_hot, labels[:, :, None], 1.0, axis=2)
        got = batch_kld_labels(T, p0, Psi, labels)
        assert got.tobytes() == batch_kld(T, batch_forward(T, p0, Psi), one_hot).tobytes()

    def check_lemma_equivalence():
        # own generator, as the divergence check above
        g = np.random.default_rng(12)
        B, n, M = 3, 12, 3
        T = g.random((M, M))
        T /= T.sum(axis=0)
        p0 = np.full(M, 1.0 / M)
        Psi = g.random((B, n, M)) + 0.05
        init = np.full((B, n, M), 1.0 / M)
        start = np.argmax(Psi, axis=2)
        logs = safe_log(T), safe_log(p0), safe_log(Psi)
        runs = [(marginal_sweep(*logs, init, xi=0.0),
                 marginal_sweep(*logs, init, xi=0.0, accelerated=True)),
                (point_mass_sweep(*logs, start),
                 point_mass_sweep(*logs, start, accelerated=True))]
        for plain, accel in runs:
            # the same fixed point (pmfs or labels) after as many cycles
            assert plain[3].all() and accel[3].all()
            assert np.array_equal(plain[1], accel[1])
            assert plain[0].tobytes() == accel[0].tobytes()

    def check_flushed_exp():
        # np.exp, then every subnormal result set to +0.0, on the cut's
        # neighbours and on a mixture (own generator, as above) that
        # reaches the subnormal band, whole and as a strided view
        tiny = np.finfo(float).tiny
        cut = float(np.log(tiny))
        edge = [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf),
                -745.2, -0.0, np.nan, np.inf, -np.inf]
        mix = np.random.default_rng(13).uniform(-760.0, 0.0, (8, 64))
        mix[:, :len(edge)] = edge
        for x in (mix, mix[:, ::3]):
            want = np.exp(x)
            assert ((want > 0) & (want < tiny)).any()
            want[want < tiny] = 0.0
            got = exp_inplace(x.copy())
            assert got.tobytes() == want.tobytes()
            assert not ((got > 0) & (got < tiny)).any()

    def check_quantizer_threshold():
        q = rayleigh_quantizer(2, 0.5)
        assert abs(q.thresholds[1] - np.sqrt(np.log(2.0))) < 1e-12

    def check_channel_quadrature():
        # every cell on its own with a fresh grid at every level, against
        # the build that reuses coarser levels and mirrored cells; fixed
        # inputs, so the checks after it see the same draws. At rho = 0.7
        # no cell is cut into tiles.
        K, rho, s2 = 3, 0.7, 0.5
        thr = rayleigh_quantizer(K, s2).thresholds

        def f(gi, gj):
            return np.exp(rayleigh_pair_logpdf(gi, gj, rho, s2))

        ref = np.empty((K, K))
        for ci in range(K):
            for cj in range(K):
                edges = (thr[ci], thr[ci + 1], thr[cj], thr[cj + 1])
                prev = simpson_2d(f, *edges, 64)
                for n in (128, 256, 512, 1024, 2048):
                    cur = simpson_2d(f, *edges, n)
                    if abs(cur - prev) <= max(1e-8 * abs(cur), 1e-12):
                        break
                    prev = cur
                ref[ci, cj] = K * cur
        ref /= ref.sum(axis=0, keepdims=True)
        assert channel_transition_matrix(K, rho, s2).tobytes() == ref.tobytes()

    def check_freq_batch_rows():
        # the tone experiments run trials in blocks and the per-trial
        # replay must reproduce them, so a row of a block is bit-exact
        n, r_e, prior = 16, 0.2, FreqPrior(1.0, 0.1)
        grid = dft_grid(n, pad=4)
        noise = np.random.default_rng(64).standard_normal((3, n))
        X = np.sin(0.9 * np.arange(1, n + 1)) + np.sqrt(r_e) * noise
        post = freq_posterior(X, prior, grid, r_e)
        vb = vb_freq(X, prior, grid, r_e, post=post)
        tvb = tvb_freq(X, prior, grid, r_e, post=post)
        for b in range(3):
            one = freq_posterior(X[b], prior, grid, r_e)
            assert np.array_equal(one.marginal, post.marginal[b])
            assert one.post_mean == post.post_mean[b]
            assert one.joint_map_amp == post.joint_map_amp[b]
            assert vb_freq(X[b], prior, grid, r_e, post=one).omega_hat == vb.omega_hat[b]
            t1 = tvb_freq(X[b], prior, grid, r_e, post=one)
            assert t1.u12 == tvb.u12[b] and t1.omega_hat == tvb.omega_hat[b]

    def check_dual_entropy():
        space = VariableSpace(2, 2)
        jf = rng.random((2, 2)) + 0.1
        jf /= jf.sum()
        jq = rng.random((2, 2)) + 0.1
        jq /= jq.sum()
        mf = FactorModel(space, [Factor([1, 2], jf, 2)])
        mq = FactorModel(space, [Factor([1, 2], jq, 2)])
        direct = float(np.sum(jf * np.log(jq)))
        assert abs(dual_entropy(mf, mq) - direct) < 1e-12

    def check_pe_normalization():
        model = pe_model(0.5)
        mass = adaptive_simpson_2d(
            lambda a, b: np.exp(pe_logpdf(a, b, model)), -9, 9, -9, 9, rtol=1e-9)
        assert abs(mass - 1.0) < 1e-6

    return [
        ("semiring laws", check_semiring_laws),
        ("smoothing vs exhaustive", check_fb_oracle),
        ("trajectory MAP vs exhaustive", check_viterbi_oracle),
        ("split reduction vs direct", check_gdl_vs_naive),
        ("chain kernel vs split reduction", check_chain_vs_split),
        ("point-mass divergence vs one-hot", check_point_mass_divergence),
        ("accelerated sweep equivalence", check_lemma_equivalence),
        ("flushed exponential vs np.exp", check_flushed_exp),
        ("quantizer threshold", check_quantizer_threshold),
        ("channel quadrature vs fresh grids", check_channel_quadrature),
        ("freq_batch_rows", check_freq_batch_rows),
        ("dual-number cross entropy", check_dual_entropy),
        ("quartic density normalization", check_pe_normalization),
    ]


def _cmd_selftest(_args):
    failures = 0
    for name, fn in _selftest_checks():
        try:
            fn()
        except Exception as e:  # report every failure, keep going
            failures += 1
            print("FAIL %s: %r" % (name, e))
        else:
            print("ok   %s" % name)
    if failures:
        print("%d check(s) failed" % failures)
        return 2
    print("all checks passed")
    return 0


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # after the command line's flags, so a config line overrides its flag
            args = parser.parse_args(argv + _config_argv(args))
        if args.cmd in ("hmc-awgn", "hmc-fading"):
            return _cmd_hmc(args)
        if args.cmd == "freq":
            return _cmd_freq(args)
        if args.cmd == "gdl-count":
            return _cmd_gdl_count(args)
        if args.cmd == "pe-demo":
            return _cmd_pe_demo(args)
        return _cmd_selftest(args)
    except ValueError as e:
        if not getattr(e, "usage_shown", False):
            parser.print_usage(sys.stderr)
            sys.stderr.write("config error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
