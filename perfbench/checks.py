"""Output checks behind `correct` and `failed`.

Every repeat is checked; a repeat that fails any check is counted as
failed, never dropped. The checks are:

- at the seeds listed in golden.json (taken at the commit that defined
  the benchmark), the output equals the recorded one. A digest covers
  the discrete outputs: the CSV body without its manifest line and its
  `wall_ms` and float-sum columns, or for exact-small its labels, cycle
  counts and operation counts. The float-sum columns (FLOAT_COLUMNS) are
  compared value by value within FLOAT_RTOL, so that a kernel change
  that only reorders a floating-point sum still passes;
- at any seed, invariants: BER in [0, 1], nu_e <= nu_c, divergence >= 0
  up to round-off, the exact detectors' BERs within their joint 95%
  interval, the posterior-mean tone RMS below the periodogram's; for
  exact-small, agreement with `brute_force_posterior` where M**n is
  small and with `naive_reduce` on every factor model;
- all repeats of one run give the same output.
"""

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_METHODS = ("fb", "va")
ROUND_OFF = 1e-9
FLOAT_COLUMNS = ("kld_mean", "rms_bins")
FLOAT_RTOL = 1e-9

with open(os.path.join(HERE, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def csv_body(text, keep_wall=False):
    """CSV text without the manifest comment and, unless kept, the wall_ms column."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    keep = [i for i, h in enumerate(header) if keep_wall or h != "wall_ms"]
    return "".join(",".join(ln.split(",")[i] for i in keep) + "\n" for ln in lines)


def csv_rows(body):
    lines = body.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def cli_golden(body):
    """Golden entry of a CSV body: digest of the discrete columns, float-sum values."""
    rows = [ln.split(",") for ln in body.splitlines()]
    fl = [i for i, h in enumerate(rows[0]) if h in FLOAT_COLUMNS]
    exact = "".join(",".join(v for i, v in enumerate(r) if i not in fl) + "\n" for r in rows)
    floats = [float(r[i]) if r[i] else None for r in rows[1:] for i in fl]
    return {"digest": sha(exact), "floats": floats}


def exact_golden(result):
    return {"digest": exact_digest(result), "floats": []}


def _close(a, b):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def golden_problems(name, seed, got):
    want = GOLDEN.get(name, {}).get(str(seed))
    if want is None:
        return []
    out = []
    if want["digest"] != got["digest"]:
        out.append("digest %s differs from the recorded %s at seed %s" % (
            got["digest"][:12], want["digest"][:12], seed))
    if len(want["floats"]) != len(got["floats"]) or not all(
            map(_close, want["floats"], got["floats"])):
        out.append("float columns %r differ from the recorded %r at seed %s" % (
            got["floats"], want["floats"], seed))
    return out


def hmc_problems(rows):
    out = []
    points = {}
    for r in rows:
        where = "%s at %s dB rho=%s" % (r["method"], r["ebn0_db"], r["rho"] or "-")
        ber = float(r["ber"])
        if not 0.0 <= ber <= 1.0:
            out.append("BER %r outside [0, 1] for %s" % (ber, where))
        if r["nu_c_mean"] and float(r["nu_e_mean"]) > float(r["nu_c_mean"]):
            out.append("nu_e > nu_c for %s" % where)
        if r["kld_mean"] and float(r["kld_mean"]) < -ROUND_OFF:
            out.append("negative divergence %s for %s" % (r["kld_mean"], where))
        if r["method"] in EXACT_METHODS:
            points.setdefault((r["ebn0_db"], r["rho"]), []).append(
                (ber, float(r["ber_ci95"])))
    for key, exact in points.items():
        for b1, c1 in exact:
            for b2, c2 in exact:
                if abs(b1 - b2) > c1 + c2:
                    out.append("exact detectors' BERs %r and %r disagree beyond "
                               "their joint interval at %s" % (b1, b2, key))
    return out


def freq_problems(rows):
    out = []
    rms = {(r["snr_db"], r["method"]): float(r["rms_bins"]) for r in rows}
    for (snr, method), v in rms.items():
        if not v >= 0.0:
            out.append("bad RMS %r for %s at %s dB" % (v, method, snr))
        pg = rms.get((snr, "periodogram"))
        if method == "pm" and pg is not None and not v < pg:
            out.append("pm RMS %r not below periodogram RMS %r at %s dB" % (v, pg, snr))
    return out


def cli_problems(name, seed, body, tiny):
    """Problems with one CLI CSV body (as returned by csv_body)."""
    rows = csv_rows(body)
    out = freq_problems(rows) if name == "freq-n64" else hmc_problems(rows)
    if not tiny:
        out += golden_problems(name, seed, cli_golden(body))
    return out


def exact_digest(result):
    """Digest of the discrete outputs of an exact-small run."""
    keep = {
        "chains": [{k: v for k, v in c.items() if k not in ("gamma", "kld")}
                   for c in result["chains"]],
        "reductions": [{k: r[k] for k in ("fb_vars", "naive_vars", "fb_ops", "naive_ops")}
                       for r in result["reductions"]],
    }
    return sha(json.dumps(keep, sort_keys=True))


def exact_problems(seed, result, tiny):
    """Check an exact-small result against the exhaustive oracles."""
    import numpy as np

    import exact_small
    from trellis.hmc import brute_force_posterior
    from workloads import EXACT_SIZES

    models, reds = exact_small.make_inputs(seed, **EXACT_SIZES["tiny" if tiny else "full"])
    out = []
    if (len(result["chains"]), len(result["reductions"])) != (len(models), len(reds)):
        out.append("expected %d chains and %d reductions" % (len(models), len(reds)))
    for j, (model, rec) in enumerate(zip(models, result["chains"])):
        if "gamma" in rec:
            brute = brute_force_posterior(model)
            marg = np.array([brute.marginal(i) for i in range(1, model.n + 1)])
            if np.max(np.abs(np.array(rec["gamma"]) - marg)) > 1e-10:
                out.append("chain %d: smoothing marginals differ from enumeration" % j)
            if rec["viterbi"] != brute.map_labels().tolist():
                out.append("chain %d: Viterbi path differs from the enumerated MAP" % j)
        if rec["bidirectional"] != rec["viterbi"]:
            out.append("chain %d: bidirectional profile labels differ from Viterbi" % j)
        for key in ("ivb", "ivb_acc", "fcvb", "fcvb_acc"):
            if rec[key]["nu_e"] > rec[key]["nu_c"]:
                out.append("chain %d: %s has nu_e > nu_c" % (j, key))
        if min(rec["kld"]) < -ROUND_OFF:
            out.append("chain %d: negative divergence %r" % (j, rec["kld"]))
    for j, rec in enumerate(result["reductions"]):
        fb, nv = np.array(rec["fb"]), np.array(rec["naive"])
        scale = float(np.max(np.abs(nv))) or 1.0
        if rec["fb_vars"] != rec["naive_vars"] or fb.shape != nv.shape:
            out.append("reduction %d: result domains differ" % j)
        elif np.max(np.abs(fb - nv)) / scale > 1e-12:
            out.append("reduction %d: split recursion differs from naive_reduce" % j)
    if not tiny:
        out += golden_problems("exact-small", seed, exact_golden(result))
    return out
