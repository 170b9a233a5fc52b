"""exact-small: the scalar chain API and the factor engine, one small model at a time.

Usage: python perfbench/exact_small.py SEED OUT_JSON [--tiny] [--trace]

Generates seeded random chains and factor models, runs every scalar
inference call on each, and writes what the harness checks: the
results small enough for the exhaustive oracles, every label and cycle
count, and a digest of all floating-point outputs. With --trace the
same calls run inside spans.
"""

import hashlib
import json
import sys

from spans import Tracer
from workloads import EXACT_SIZES

BRUTE_LIMIT = 4096  # chains with M**n at most this are checked by enumeration


def make_inputs(seed, chains, reductions):
    """Seeded chains and (model, semiring name, kept-out set) reductions.

    Shapes are stratified by index, not drawn, so the work of a repeat
    does not depend on the seed: chain j has M = 2 + j % 3 states and
    n = 1 + (j // 3) % 40 steps; reduction j cycles through the four
    semirings, 1..6 variables, alphabets 2..3 and 2, 4 or 6 factors.
    """
    import numpy as np

    from trellis import Factor, FactorModel, HmcModel, VariableSpace
    from trellis.semiring import ALL_SEMIRINGS, semiring

    rng = np.random.default_rng(seed)
    models = []
    for j in range(chains):
        M, n = 2 + j % 3, 1 + (j // 3) % 40
        T = rng.random((M, M)) + 0.05
        T /= T.sum(axis=0, keepdims=True)
        p = rng.random(M) + 0.05
        p /= p.sum()
        models.append(HmcModel(T, p, rng.random((n, M)) + 1e-3))
    reds = []
    for j in range(reductions):
        name = ALL_SEMIRINGS[j % 4]
        sr = semiring(name)
        m, M, nf = 1 + (j // 4) % 6, 2 + (j // 24) % 2, 2 + 2 * ((j // 48) % 3)
        omegas = [list(rng.choice(np.arange(1, m + 1), size=int(rng.integers(1, m + 1)),
                                  replace=False)) for _ in range(nf)]
        covered = set().union(*map(set, omegas))
        for v in range(1, m + 1):
            if v not in covered:
                omegas[int(rng.integers(0, nf))].append(v)
        factors = [Factor(o, sr.sample(rng, (M,) * len(o)), M, tail_dims=sr.tail_dims)
                   for o in omegas]
        model = FactorModel(VariableSpace(m, M), factors)
        universe = sorted(model.universe)
        S = universe if j % 5 == 0 else [v for v in universe if rng.random() < 0.5]
        reds.append((model, name, frozenset(S)))
    return models, reds


def run(seed, chains, reductions, tr):
    with tr.span("cli.import"):
        import numpy as np

        import trellis  # noqa: F401
    from trellis import hmc, vb
    from trellis.gdl import OpCounter, fb_reduce_single, naive_reduce
    from trellis.semiring import semiring

    models, reds = make_inputs(seed, chains, reductions)
    floats = hashlib.sha256()
    out = {"chains": [], "reductions": []}
    for model in models:
        with tr.span("exact.chain"):
            with tr.span("hmc.fb"):
                sm = hmc.fb_algorithm(model)
            with tr.span("hmc.viterbi"):
                va = hmc.viterbi(model)
            with tr.span("hmc.bidirectional_viterbi"):
                bv = hmc.bidirectional_viterbi(model)
            with tr.span("hmc.chain_factors"):
                chain = hmc.posterior_chain_factors(model, sm)
            init = vb.init_shaping("uniform", model.Psi)
            start = hmc.ml_detect(model.Psi)
            runs = {}
            for key, accel in (("ivb", False), ("ivb_acc", True)):
                with tr.span("vb." + key):
                    runs[key] = vb.ivb_run(model, init, vb.StoppingConfig(accelerated=accel))
            for key, accel in (("fcvb", False), ("fcvb_acc", True)):
                with tr.span("vb." + key):
                    runs[key] = vb.fcvb_run(model, start, vb.StoppingConfig(accelerated=accel))
            one_hot = np.eye(model.M)[runs["fcvb"].labels - 1]
            with tr.span("vb.kld"):
                kld = [vb.kld_vb(model, sm, chain, runs["ivb"].p),
                       vb.kld_vb(model, sm, chain, one_hot)]
        r = runs["ivb"]
        tr.count("vb.ivb.runs")
        tr.count("vb.ivb.nu_c", r.nu_c)
        tr.count("vb.ivb.unconverged", int(not r.converged))
        for a in (sm.gamma, sm.alpha, sm.beta, bv.profiles, runs["ivb"].p,
                  runs["ivb_acc"].p, np.array(kld), *chain.A, *chain.B):
            floats.update(np.ascontiguousarray(a).tobytes())
        rec = {"viterbi": va.labels.tolist(), "bidirectional": bv.labels.tolist(),
               "kld": kld}
        for key, res in runs.items():
            rec[key] = {"labels": res.labels.tolist(), "nu_c": res.nu_c,
                        "nu_e": res.nu_e, "converged": bool(res.converged)}
        if model.M ** model.n <= BRUTE_LIMIT:
            rec["gamma"] = sm.gamma.tolist()
        out["chains"].append(rec)
    for model, name, S in reds:
        sr = semiring(name)
        cf, cn = OpCounter(), OpCounter()
        with tr.span("exact.reduction"):
            with tr.span("gdl.fb_reduce"):
                fb = fb_reduce_single(model, sr, S, counter=cf)
            with tr.span("gdl.naive_reduce"):
                nv = naive_reduce(model, sr, S, counter=cn)
        tr.count("gdl.fb_ops", cf.total)
        tr.count("gdl.naive_ops", cn.total)
        out["reductions"].append({
            "fb_vars": list(fb.vars), "naive_vars": list(nv.vars),
            "fb": fb.table.ravel().tolist(), "naive": nv.table.ravel().tolist(),
            "fb_ops": cf.total, "naive_ops": cn.total})
    out["float_digest"] = floats.hexdigest()
    return out


def main(argv):
    seed, path = int(argv[0]), argv[1]
    tr = Tracer(enabled="--trace" in argv)
    out = run(seed, tr=tr, **EXACT_SIZES["tiny" if "--tiny" in argv else "full"])
    out.update(tr.dump())
    with open(path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
