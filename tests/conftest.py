import numpy as np

from trellis.factors import Factor, FactorModel, VariableSpace
from trellis.hmc import HmcModel
from trellis.numerics import safe_log, simpson_2d

# acceptance tests append their "[criterion k] PASS/FAIL ..." lines here;
# echoed as one block after the run so capture mode cannot hide them
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)


def random_hmc(rng, M=None, n=None):
    """Random valid chain model; Psi rows kept away from zero."""
    if M is None:
        M = int(rng.integers(2, 5))
    if n is None:
        n = int(rng.integers(1, 9))
    T = rng.random((M, M)) + 0.05
    T /= T.sum(axis=0, keepdims=True)
    p = rng.random(M) + 0.05
    p /= p.sum()
    Psi = rng.random((n, M)) + 1e-3
    return HmcModel(T, p, Psi)


def random_factor_model(rng, sr, m_max=6, M_max=3, n_max=6):
    """Random factor model covering its universe, tables drawn by the semiring."""
    m = int(rng.integers(1, m_max + 1))
    M = int(rng.integers(2, M_max + 1))
    n = int(rng.integers(1, n_max + 1))
    omegas = []
    for _ in range(n):
        k = int(rng.integers(1, m + 1))
        omegas.append(list(rng.choice(np.arange(1, m + 1), size=k, replace=False)))
    covered = set().union(*(set(o) for o in omegas))
    for v in range(1, m + 1):
        if v not in covered:
            omegas[int(rng.integers(0, n))].append(int(v))
    factors = []
    for o in omegas:
        shape = (M,) * len(o)
        factors.append(Factor(o, sr.sample(rng, shape), M, tail_dims=sr.tail_dims))
    return FactorModel(VariableSpace(m, M), factors)


def reference_bessel_i0_log(x):
    """log I0 with one series over the whole array, as first written.

    Every element runs as many terms as the array's slowest one needs;
    the banded `bessel_i0_log` must equal it bit for bit.
    """
    x = np.atleast_1d(np.abs(np.asarray(x, dtype=float)))
    out = np.empty_like(x)
    small = x <= 15.0
    if np.any(small):
        xs = x[small]
        q = xs * xs / 4.0
        term = np.ones_like(xs)
        acc = np.ones_like(xs)
        for j in range(1, 80):
            term = term * q / (j * j)
            acc += term
            if np.all(term < 1e-18 * acc):
                break
        out[small] = np.log(acc)
    if np.any(~small):
        xl = x[~small]
        term = np.ones_like(xl)
        acc = np.ones_like(xl)
        for k in range(1, 30):
            term = term * (2 * k - 1) ** 2 / (k * 8.0 * xl)
            acc += term
            if np.all(term < 1e-16 * acc):
                break
        out[~small] = xl - 0.5 * np.log(2.0 * np.pi * xl) + np.log(acc)
    return out


def fresh_simpson_2d(f, ax, bx, ay, by, rtol=1e-8, atol=0.0, n0=64, n_max=2048):
    """`adaptive_simpson_2d` with every level on a fresh grid, as first written.

    Returns the value and the level it stopped at.
    """
    n = n0
    prev = simpson_2d(f, ax, bx, ay, by, n)
    while n < n_max:
        n *= 2
        cur = simpson_2d(f, ax, bx, ay, by, n)
        if abs(cur - prev) <= max(rtol * max(abs(cur), 1e-300), atol):
            return cur, n
        prev = cur
    raise RuntimeError("no convergence")


def dense_viterbi_trace(logT, logp0, logPsi):
    """The min-sum Viterbi with the full (B, S, S) step at every step: the
    reference the pruned kernel must equal bit for bit."""
    B, n, M = logPsi.shape
    lam = -(logPsi[:, 0] + logp0)
    kappa = np.zeros((B, n, M), dtype=np.int32)
    base = np.arange(0, B * M * M, M).reshape(B, M)
    for i in range(1, n):
        tot = lam[:, None, :] - logT
        am = tot.argmin(axis=2)
        kappa[:, i] = am
        lam = tot.take(base + am)
        lam -= logPsi[:, i]
        lam -= np.minimum.reduce(lam, axis=1, keepdims=True)
    labels = np.empty((B, n), dtype=np.int64)
    labels[:, n - 1] = lam.argmin(axis=1)
    rows = np.arange(B)
    for i in range(n - 1, 0, -1):
        labels[:, i - 1] = kappa[rows, i, labels[:, i]]
    return labels, lam, kappa


def stepwise_kld(T, alpha, p):
    """batch_kld with every per-step term its own einsum, added as it is
    formed: the reference the blocked kernel must equal bit for bit."""
    B, n, M = p.shape
    logT = safe_log(T)
    out = np.einsum("bik,bik->b", p, safe_log(p))
    out -= np.einsum("bk,bk->b", p[:, n - 1], safe_log(alpha[:, n - 1]))
    for i in range(n - 1):
        out -= np.einsum("bk,kl,bl->b", p[:, i + 1], logT, p[:, i])
        out -= np.einsum("bl,bl->b", p[:, i], safe_log(alpha[:, i]))
        out += np.einsum("bk,bk->b", p[:, i + 1], safe_log(alpha[:, i] @ T.T))
    return out


def stepwise_kld_labels(T, alpha, labels):
    """Minus the log posterior of each label path from stored filtering
    rows, one predictive product per step: the reference the fused
    forward-pass kernel must equal bit for bit."""
    B, n, M = alpha.shape
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(B)
    lt = safe_log(T)[labels[:, 1:], labels[:, :-1]]
    la = safe_log(np.take_along_axis(alpha, labels[:, :, None], axis=2)[:, :, 0])
    out = np.zeros(B)  # a point mass has no entropy
    out -= la[:, n - 1]
    for i in range(n - 1):
        out -= lt[:, i]
        out -= la[:, i]
        out += safe_log((alpha[:, i] @ T.T)[rows, labels[:, i + 1]])
    return out


def assert_same_arrays(got, want):
    """Equal shapes, dtypes and bytes, array by array."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        assert g.tobytes() == w.tobytes()
