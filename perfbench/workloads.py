"""The benchmark's workload table and the set-up each workload pays.

Every Monte Carlo workload is one `python -m trellis.cli` invocation in
a fresh process with `--jobs 1`; `exact-small` has no CLI and runs the
benchmark's own program (exact_small.py). The sizes are chosen so that
one repeat takes a few seconds on a 2-core machine, which lets a
measured run hold several repeats.
"""

# Flags passed to the CLI, in order, before --seed/--jobs/--out. "tiny"
# overrides a few of them for the harness smoke check.
CLI_WORKLOADS = {
    "awgn-4qam": {
        "cmd": "hmc-awgn",
        "flags": {"m": "4", "ebn0": "6,10",
                  "methods": "ml,fb,va,vb,vb-acc,fcvb,fcvb-acc",
                  "trials": "100", "n": "1000"},
        "tiny": {"trials": "4", "n": "60"},
    },
    "fading-16qam": {
        "cmd": "hmc-fading",
        "flags": {"m": "16", "k": "4", "ebn0": "16,22", "rho": "0.5",
                  "methods": "ml,va,fcvb", "trials": "40", "n": "1000"},
        "tiny": {"trials": "2", "n": "60"},
    },
    "freq-n64": {
        "cmd": "freq",
        "flags": {"n": "64", "ebn0": "5,15", "pad": "32", "trials": "300"},
        "tiny": {"trials": "16"},
    },
}

# exact-small: chains and factor-model reductions per repeat.
EXACT_SIZES = {"full": {"chains": 240, "reductions": 288},
               "tiny": {"chains": 12, "reductions": 8}}

NAMES = ("awgn-4qam", "fading-16qam", "freq-n64", "exact-small")


def cli_flags(name, tiny=False):
    spec = CLI_WORKLOADS[name]
    flags = dict(spec["flags"])
    if tiny:
        flags.update(spec["tiny"])
    return spec["cmd"], flags


def cli_argv(name, seed, out, tiny=False):
    """Arguments after `python -m trellis.cli` for one repeat."""
    cmd, flags = cli_flags(name, tiny)
    argv = [cmd]
    for key, val in flags.items():
        argv += ["--" + key, val]
    return argv + ["--seed", str(seed), "--jobs", "1", "--out", out]


def trial_count(name, tiny=False):
    """Trials (chains on exact-small) that one repeat completes."""
    if name == "exact-small":
        return EXACT_SIZES["tiny" if tiny else "full"]["chains"]
    _, flags = cli_flags(name, tiny)
    rhos = flags["rho"].split(",") if "rho" in flags else [None]
    return len(flags["ebn0"].split(",")) * len(rhos) * int(flags["trials"])


def run_setup(name, seed, tiny=False):
    """The model-build calls of one repeat, in the order the CLI makes them.

    Imports trellis first; the caller times the whole process.
    """
    import trellis

    if name == "exact-small":
        import exact_small

        exact_small.make_inputs(seed, **EXACT_SIZES["tiny" if tiny else "full"])
        return
    from trellis.cli import build_parser
    from trellis.experiments import model_generator

    args = build_parser().parse_args(cli_argv(name, seed, "-", tiny))
    ebn0s = [float(v) for v in args.ebn0.split(",")]
    if args.cmd == "freq":
        for _ in ebn0s:
            trellis.dft_grid(args.n, args.pad)
        return
    rhos = [float(v) for v in args.rho.split(",")] if args.cmd == "hmc-fading" else [None]
    for _ in ebn0s:
        for rho in rhos:
            const = trellis.QamConstellation(args.m)
            T_s, _ = trellis.channel.random_source(args.m, model_generator(seed))
            if rho is not None:
                quant = trellis.rayleigh_quantizer(args.k, args.sigma2)
                T_c = trellis.channel_transition_matrix(args.k, rho, args.sigma2,
                                                        quantizer=quant)
                trellis.augmented_model(T_s, const, T_c, quant)


if __name__ == "__main__":
    import sys

    run_setup(sys.argv[1], int(sys.argv[2]), tiny="--tiny" in sys.argv)
