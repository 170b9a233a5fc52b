"""Symbol transmission models: constellations, noise, flat-fading quantization.

Everything is complex baseband with unit energy per bit, so a linear
per-bit SNR fixes the noise level as N0 = 1/snr. Fading is handled by
quantizing the Rayleigh gain into K equiprobable cells and treating the
cell index as a second Markov label chain, independent of the source
chain; the product chain is one bigger label chain with MK states
(channel-major index: aug = channel * M + source).
"""

from collections import namedtuple
from math import isqrt, prod

import numpy as np

from .numerics import (adaptive_simpson_1d, adaptive_simpson_2d,
                       bessel_i0_log, bessel_j0, exp_inplace, safe_log)


class QamConstellation:
    """Square QAM (or antipodal M=2) with per-axis reflected Gray bits.

    Points are scaled to unit average energy per bit. Symbol index is
    row-major over (in-phase level, quadrature level).
    """

    def __init__(self, M):
        M = check_qam_order(M)
        if M == 2:
            levels = np.array([-1.0, 1.0])
            self.points = levels.astype(complex)
            self.bits = np.array([[0], [1]], dtype=np.uint8)
        else:
            L = isqrt(M)
            b_axis = L.bit_length() - 1
            d = np.sqrt(3.0 * np.log2(M) / (2.0 * (M - 1)))
            amp = d * (2 * np.arange(L) - (L - 1))
            gray = np.arange(L) ^ (np.arange(L) >> 1)
            axis_bits = (gray[:, None] >> np.arange(b_axis - 1, -1, -1)[None, :]) & 1
            ai, aq = np.divmod(np.arange(M), L)
            self.points = amp[ai] + 1j * amp[aq]
            self.bits = np.concatenate([axis_bits[ai], axis_bits[aq]], axis=1).astype(np.uint8)
        self.M = M
        self.bits_per_symbol = self.bits.shape[1]
        x = self.bits[:, None, :] ^ self.bits[None, :, :]
        self.bit_distance = x.sum(axis=2).astype(np.int64)


def random_source(M, rng):
    """Uniform-random left-stochastic transition matrix and flat prior."""
    T = rng.random((M, M))
    T /= T.sum(axis=0, keepdims=True)
    return T, np.full(M, 1.0 / M)


def snr_to_n0(ebn0_db):
    return 10.0 ** (-float(ebn0_db) / 10.0)


# steps per block of gaussian_psi
_PSI_STEPS = 64


def gaussian_psi(x, means, n0):
    """Row-rescaled Gaussian observation likelihoods.

    x (..., n) complex, means (M,) complex -> (..., n, M). Each row is
    divided by its peak (a shared per-row factor, so every inference
    method is unaffected), keeping exponentials in range at high SNR.
    Each block of steps is built in place in the one output array: the
    bits of exp(-|x - m|**2 / n0 - max) where normal, +0.0 where
    subnormal (exp_inplace's flush, which keeps the passes that read
    Psi off numpy's slow subnormal arithmetic), without a complex
    (..., n, M) temporary, and with exp_inplace's mask no larger than a
    block. A row's maximum is read at its argmax, by one flat take from
    the output: the value the short-axis max reduction gives (NaN for a
    row with a NaN), at less cost. The exponents are -(...) / n0, so every
    zero among them is -0.0 and no +0.0/-0.0 tie can pick another zero.
    """
    x, means = np.asarray(x), np.asarray(means)
    n0 = float(n0)
    e = np.empty(x.shape + means.shape)
    n, M = e.shape[-2:]
    # flat start of each row of steps, as (..., 1) against a block's steps
    starts = (n * M * np.arange(prod(x.shape[:-1]))).reshape(x.shape[:-1] + (1,))
    for i in range(0, n, _PSI_STEPS):
        b = e[..., i:i + _PSI_STEPS, :]
        np.abs(x[..., i:i + _PSI_STEPS, None] - means, out=b)
        np.square(b, out=b)
        np.negative(b, out=b)
        b /= n0
        k = b.argmax(axis=-1)
        k += starts + np.arange(i * M, (i + b.shape[-2]) * M, M)
        b -= e.take(k)[..., None]
        exp_inplace(b)
    return e


def sample_chain(T, p, u):
    """Markov labels from per-step uniforms via CDF inversion.

    u is (B, n); returns 0-based labels (B, n). Column k of T is the
    next-state pmf from state k.
    """
    B, n = u.shape
    M = T.shape[0]
    labels = np.empty((B, n), dtype=np.int64)
    c0 = np.cumsum(p)
    labels[:, 0] = np.minimum((c0[None, :] <= u[:, :1]).sum(axis=1), M - 1)
    C = np.cumsum(T, axis=0)
    for i in range(1, n):
        cdfs = C.T[labels[:, i - 1]]
        labels[:, i] = np.minimum((cdfs <= u[:, i : i + 1]).sum(axis=1), M - 1)
    return labels


def awgn_observe(symbols, n0, normals):
    """symbols (B, n) complex plus circular noise built from (B, 2n) normals."""
    B, n = symbols.shape
    scale = np.sqrt(n0 / 2.0)
    return symbols + scale * (normals[:, :n] + 1j * normals[:, n:])


def rho_from_doppler(fd_ts):
    """Gain correlation over one symbol at normalized Doppler fd*Ts."""
    return float(bessel_j0(2.0 * np.pi * float(fd_ts)))


QuantizerSpec = namedtuple("QuantizerSpec", ["thresholds", "levels", "sigma2"])


def check_qam_order(M):
    """M as an int: a constellation size must be 2 or an even power of two."""
    M = int(M)
    L = isqrt(max(M, 0))
    if M != 2 and (L * L != M or L < 2 or (L & (L - 1)) != 0):
        raise ValueError("M must be 2 or an even power of two, got %r" % (M,))
    return M


def check_cells(K):
    """K as an int: a gain quantizer needs at least one cell."""
    K = int(K)
    if K < 1:
        raise ValueError("K must be positive, got %r" % (K,))
    return K


def check_rho(rho):
    """rho as a float: a gain correlation must lie in [0, 1)."""
    r = float(rho)
    if not 0.0 <= r < 1.0:
        raise ValueError("rho must be in [0, 1), got %r" % (rho,))
    return r


# The bivariate Rayleigh density divides by sigma2**2, which must stay a
# normal float: beyond about 1e-154 or 1e154 it underflows to 0 or
# overflows to inf, and the channel quadrature fails or gives NaN. The
# bounds keep a margin.
_SIGMA2_RANGE = (1e-150, 1e150)


def check_sigma2(sigma2):
    """sigma2 as a float: a Gaussian component variance in _SIGMA2_RANGE."""
    s2 = float(sigma2)
    lo, hi = _SIGMA2_RANGE
    if not lo <= s2 <= hi:
        raise ValueError("sigma2 must be in [%r, %r], got %r" % (lo, hi, sigma2))
    return s2


def rayleigh_quantizer(K, sigma2=0.5):
    """Equiprobable K-cell quantizer for a Rayleigh gain.

    Interior thresholds invert the CDF at k/K; the top cell is cut off
    at five times the RMS of the underlying pair of Gaussians. Each
    representative level is the cell's conditional mean.
    """
    K = check_cells(K)
    s2 = check_sigma2(sigma2)
    thr = np.empty(K + 1)
    thr[0] = 0.0
    k = np.arange(1, K)
    thr[1:K] = np.sqrt(-2.0 * s2 * np.log(1.0 - k / K))
    thr[K] = 5.0 * np.sqrt(2.0 * s2)

    def g_pdf_weighted(g):
        return g * (g / s2) * np.exp(-(g ** 2) / (2.0 * s2))

    levels = np.empty(K)
    for c in range(K):
        levels[c] = K * adaptive_simpson_1d(g_pdf_weighted, thr[c], thr[c + 1])
    return QuantizerSpec(thr, levels, s2)


def rayleigh_pair_logpdf(gi, gj, rho, sigma2):
    """Log joint density of two correlated Rayleigh gains (rho in [0, 1))."""
    s2 = float(sigma2)
    r = check_rho(rho)
    q = 1.0 - r * r
    out = safe_log(gi) + safe_log(gj) - np.log(s2 * s2 * q)
    out = out - (gi ** 2 + gj ** 2) / (2.0 * s2 * q)
    if r > 0.0:
        out = out + bessel_i0_log(gi * gj * r / (s2 * q))
    return out


# one matrix per (K, rho, sigma2, thresholds) in this process; the CLI and
# the experiment runners build the same T_c for every Eb/N0 point
_TC_MEMO = {}


def channel_transition_matrix(K, rho, sigma2=0.5, quantizer=None):
    """Column-stochastic K x K gain-cell transition matrix.

    Cell-pair masses of the bivariate Rayleigh density are integrated
    over the quantizer rectangles and columns are renormalized (the
    top cell is truncated, so the raw masses fall slightly short).
    Each (K, rho, sigma2, quantizer thresholds) is integrated once per
    process; every call returns its own copy. A given quantizer must
    have K cells and the same sigma2.
    """
    r = check_rho(rho)
    q = quantizer if quantizer is not None else rayleigh_quantizer(K, sigma2)
    if len(q.levels) != K:
        raise ValueError("quantizer has %d cells, need K = %r" % (len(q.levels), K))
    if q.sigma2 != float(sigma2):
        raise ValueError("quantizer is for sigma2 = %r, need %r" % (q.sigma2, sigma2))
    if K == 1:
        # one cell: its column normalizes to 1.0 exactly, whatever it integrates to
        return np.ones((1, 1))
    key = (K, r, float(sigma2), q.thresholds.tobytes())
    if key not in _TC_MEMO:
        _TC_MEMO[key] = _transition_matrix(K, r, sigma2, q.thresholds)
    return _TC_MEMO[key].copy()


def _transition_matrix(K, rho, sigma2, thr):
    # near rho = 1 the density rides a diagonal ridge of conditional width
    # sqrt(s2 (1 - rho^2)); tile wide cells down to that scale so each
    # tile's interval doubling resolves it
    ridge = np.sqrt(float(sigma2) * (1.0 - float(rho) ** 2))

    def f(gi, gj):
        return np.exp(rayleigh_pair_logpdf(gi, gj, rho, sigma2))

    def axis_knots(lo, hi):
        pieces = max(1, int(np.ceil((hi - lo) / (12.0 * ridge))))
        return np.linspace(lo, hi, pieces + 1)

    # every operation in the density commutes, so f(gi, gj) == f(gj, gi)
    # bit for bit and a tile's mirror image is integrated from its grid
    pending = {}

    def tile(ax, bx, ay, by):
        key = (ax, bx, ay, by)
        if key not in pending:
            if (ax, bx) == (ay, by):
                return adaptive_simpson_2d(f, ax, bx, ay, by, atol=1e-12)
            pending[key], pending[(ay, by, ax, bx)] = adaptive_simpson_2d(
                f, ax, bx, ay, by, atol=1e-12, mirror=True)
        return pending.pop(key)

    def cell(ci, cj):
        xs = axis_knots(thr[ci], thr[ci + 1])
        ys = axis_knots(thr[cj], thr[cj + 1])
        total = 0.0
        for ax, bx in zip(xs[:-1], xs[1:]):
            for ay, by in zip(ys[:-1], ys[1:]):
                total += tile(ax, bx, ay, by)
        return total

    Tc = np.empty((K, K))
    for ci in range(K):
        for cj in range(K):
            Tc[ci, cj] = K * cell(ci, cj)
    Tc /= Tc.sum(axis=0, keepdims=True)
    return Tc


AugmentedModel = namedtuple(
    "AugmentedModel", ["T", "p", "means", "M", "K", "constellation", "quantizer"]
)


def augmented_model(T_s, constellation, T_c, quantizer):
    """Product chain of an M-state source and a K-cell gain channel."""
    M = constellation.M
    K = len(quantizer.levels)
    if T_s.shape != (M, M):
        raise ValueError("T_s is %r, need %d x %d for the constellation" % (T_s.shape, M, M))
    if T_c.shape != (K, K):
        raise ValueError("T_c is %r, need %d x %d for the quantizer" % (T_c.shape, K, K))
    T = np.kron(T_c, T_s)
    p = np.full(M * K, 1.0 / (M * K))
    means = (quantizer.levels[:, None] * constellation.points[None, :]).ravel()
    return AugmentedModel(T, p, means, M, K, constellation, quantizer)


def op_count_proxy(method, n, M, nu=1.0):
    """Dominant-term operation tallies per method for one trial.

    nu is the effective cycle count for the iterative methods. The
    totals give the cost ordering fcvb < va < fb < vb for M >= 2.
    """
    n = float(n)
    M = float(M)
    nu = float(nu)
    if method == "ml":
        ops = {"max": n * M}
    elif method == "fb":
        ops = {"mul": 2 * n * M * M, "add": 2 * n * M * M, "max": n * M}
    elif method == "va":
        ops = {"add": n * M * M, "max": n * M * M}
    elif method == "vb":
        ops = {"exp": n * M * nu, "mul": 2 * n * M * M * nu, "add": 2 * n * M * M * nu, "max": n * M}
    elif method == "fcvb":
        ops = {"add": n * M * nu, "max": n * M * nu}
    else:
        raise ValueError("unknown method %r" % (method,))
    ops["total"] = sum(ops.values())
    return ops
