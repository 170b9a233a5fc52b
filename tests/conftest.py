import numpy as np

from trellis.batch import KS_RESOLUTION, _take_rows, batch_kld
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


def flushed_exp(x):
    """np.exp(x) with every result below the smallest normal double set to +0.0.

    The contract of `exp_inplace`, written the plain way: NaN stays NaN,
    and only the subnormal results change.
    """
    out = np.exp(x)
    out[out < np.finfo(float).tiny] = 0.0
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


def dense_viterbi_trace(logT, logp0, logPsi, kappa_dtype=None):
    """The min-sum Viterbi with the full (B, S, S) step at every step: the
    reference the pruned kernel must equal bit for bit. Its back-pointers
    take viterbi_trace's narrowest type unless kappa_dtype is given."""
    B, n, M = logPsi.shape
    lam = -(logPsi[:, 0] + logp0)
    kappa = np.zeros((B, n, M), dtype=kappa_dtype or np.min_scalar_type(M - 1))
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


def stepwise_sweep(update, B, n, max_cycles, accelerated, after_cycle=None):
    """The mean-field schedule with every site update tested as it runs:
    update(i, rows, mask) stores step i's rows and returns which moved.
    The reference the batched move test of batch._sweep must equal bit
    for bit, with stepwise_marginal_sweep and stepwise_point_mass_sweep."""
    tau = np.ones((n + 2, B), dtype=bool)
    updates = np.zeros(B, dtype=np.int64)
    full = 0
    nu_c = np.full(B, max_cycles, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    for nu in range(1, max_cycles + 1):
        for i in range(n):
            t = tau[i + 1]
            c = np.count_nonzero(t)
            if c == 0:
                continue
            if c == B:
                rows, mask = slice(None), None
                full += 1
            elif c == 1:
                j = int(t.argmax())
                rows, mask = slice(j, j + 1), None
                updates[j] += 1
            else:
                rows, mask = slice(None), t
                updates += t
            hot = update(i, rows, mask)
            tau[i + 1, rows] = hot
            if accelerated and np.count_nonzero(hot):
                tau[i:i + 3:2, rows] |= hot
        if after_cycle is not None:
            after_cycle(~converged)
        live = tau[1:-1].any(axis=0)
        nu_c[~live & ~converged] = nu
        converged = ~live
        if not live.any():
            break
        if not accelerated:
            tau[1:-1] |= live
    return nu_c, (updates + full) / n, converged, tau[1:-1].T


def stepwise_marginal_sweep(logT, logp0, logPsi, init, xi=0.01, max_cycles=100,
                            accelerated=False, kld_rows=None):
    """batch.marginal_sweep with its KS test inside the site update."""
    B, n, M = logPsi.shape
    init = np.asarray(init, dtype=float)
    exact = xi < KS_RESOLUTION
    if exact:
        def contract(v, A):
            return np.einsum("bk,kj->bj", v, A)
    else:
        contract = np.matmul
    p = np.array(init)
    thr = max(xi, KS_RESOLUTION)
    flat = np.arange(0, B * M, M)[:, None]

    def update(i, r, t):
        s = logPsi[r, i] + contract(p[r, i - 1], logT.T) if i else logPsi[r, 0] + logp0
        if i + 1 < n:
            s += contract(p[r, i + 1], logT)
        s -= _take_rows(s, s.argmax(axis=1, keepdims=True), flat)
        np.exp(s, out=s)
        s /= np.add.reduce(s, axis=1, keepdims=True)
        d = np.abs(np.add.accumulate(s, axis=1) - np.add.accumulate(p[r, i], axis=1))
        ks = _take_rows(d, d.argmax(axis=1, keepdims=True), flat)[:, 0]
        store = ks > KS_RESOLUTION if exact else t
        if exact and t is not None:
            store &= t
        if store is None:
            p[r, i] = s
        else:
            np.copyto(p[r, i], s, where=store[:, None])
        return ks > thr if t is None else t & (ks > thr)

    after_cycle = None
    if kld_rows is not None:
        T, alpha = kld_rows
        kld = [[] for _ in range(B)]

        def after_cycle(ran):
            for b in ran.nonzero()[0]:
                kld[b].append(float(batch_kld(T, alpha[b:b + 1], p[b:b + 1])[0]))

    counts = stepwise_sweep(update, B, n, max_cycles, accelerated, after_cycle)
    return (p,) + counts + (None if kld_rows is None else kld,)


def stepwise_point_mass_sweep(logT, logp0, logPsi, init_labels, max_cycles=100,
                              accelerated=False):
    """batch.point_mass_sweep with its label test inside the site update."""
    B, n, M = logPsi.shape
    k = np.asarray(init_labels, dtype=np.int64)
    nxt = np.zeros((M + 1, M))
    nxt[:M] = logT
    prv = np.empty((M + 1, M))
    prv[:M] = logT.T
    prv[M] = logp0
    K = np.full((n + 2, B), M, dtype=np.int64)
    K[1:-1] = k.T

    def update(i, r, t):
        s = nxt[K[i + 2, r]] + prv[K[i, r]]
        s += logPsi[r, i]
        new = s.argmax(axis=1)
        moved = new != K[i + 1, r]
        if t is not None:
            moved &= t
        np.copyto(K[i + 1, r], new, where=moved)
        return moved

    counts = stepwise_sweep(update, B, n, max_cycles, accelerated)
    return (K[1:-1].T.copy(),) + counts
