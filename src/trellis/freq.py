"""Single-tone frequency estimation in white Gaussian noise.

Omega lives on a shared zero-padded DFT grid, where the periodogram is
evaluated. The Bayesian path models real samples x_i = a sin(Omega i)
+ z_i: the amplitude is eliminated analytically, and two approximations
(plain mean-field and the sheared-variable variant) refine the grid
marginal. All grid marginals are discrete pmfs.

The Bayesian calls take one trial x of shape (n,) or a block of B
trials of shape (B, n). A block runs each step once as a (B, G) array
operation over the G grid points, and its per-trial result fields gain
a leading B axis; a single trial is run as the B=1 row of the same
kernel and returns Python floats for its scalar fields. Every row of a
block equals the single-trial call on that row bit for bit: no
contraction goes through BLAS, whose rounding depends on the batch
shape, and every reduction runs along the contiguous last axis.
"""

import functools
from collections import namedtuple

import numpy as np

from .numerics import log_normalize_inplace

FreqPrior = namedtuple("FreqPrior", ["mu_a", "r_a"])

# The tone kernels' largest terms grow as n * r**1.5 in a variance r
# (the shear's r_hat * sum(...)) and as n**2 * r (the periodogram), and
# they divide by r and by r / n. Both variances, the prior's and the
# noise's, stay in this range, so those terms stay finite for every n
# the point size check admits.
VARIANCE_RANGE = (1e-100, 1e100)


def check_variance(r, what):
    """r as a float: a variance of the tone model in VARIANCE_RANGE."""
    v = float(r)
    lo, hi = VARIANCE_RANGE
    if not lo <= v <= hi:
        raise ValueError("%s must be in [%r, %r], got %r" % (what, lo, hi, r))
    return v


FreqPosteriorGrid = namedtuple(
    "FreqPosteriorGrid",
    ["grid", "r", "mu", "marginal", "post_mean", "marginal_map", "joint_map_omega", "joint_map_amp",
     "joint_map_index"],
)

VbFreqState = namedtuple(
    "VbFreqState", ["omega_hat", "ftilde", "mu1", "sigma1_sq", "alpha1", "alpha2", "posterior"]
)

TvbFreqState = namedtuple(
    "TvbFreqState",
    ["omega_hat", "ftilde", "u12", "mu2", "sigma2_sq", "beta1", "beta2", "amp_mean", "posterior"],
)


def dft_grid(n, pad=8):
    """Zero-padded DFT bins covering [0, pi)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if pad < 1:
        raise ValueError("need pad >= 1, got pad=%r" % (pad,))
    G = pad * n
    return 2.0 * np.pi * np.arange(G // 2) / G


def _grid_key(grid):
    return np.ascontiguousarray(grid, dtype=float).tobytes()


@functools.lru_cache(maxsize=8)
def _phase_table(grid_bytes, n):
    ph = np.exp(-1j * np.outer(np.frombuffer(grid_bytes), np.arange(n)))
    ph.flags.writeable = False
    return ph


def periodogram(x, grid):
    """|sum_i x_i exp(-j Omega i)|^2 at each grid point; x is (n,) or (B, n).

    The (G, n) phase table depends only on (grid, n), so it is built
    once and shared read-only, as the Bayesian calls share their sin
    table (see _design_table). The product goes through BLAS: a row gets
    the same bits in any block of two or more rows, but a single row
    takes another BLAS path and can differ in the last bits, so a caller
    that splits its rows into blocks keeps two or more in each.
    """
    x = np.asarray(x)
    ph = _phase_table(_grid_key(grid), x.shape[-1])
    return np.abs(x @ ph.T) ** 2


@functools.lru_cache(maxsize=8)
def _design_table(grid_bytes, n):
    """Sin table sin(Omega_g i), i = 1..n, and its row energies s2.

    Neither depends on the data, so both are built once per (grid, n)
    and shared read-only by every later call on that grid.
    """
    sinT = np.sin(np.outer(np.frombuffer(grid_bytes), np.arange(1, n + 1)))
    s2 = (sinT ** 2).sum(axis=1)
    sinT.flags.writeable = False
    s2.flags.writeable = False
    return sinT, s2


def _rows(x):
    """(B, n) float block of x and whether x was a single (n,) trial."""
    x = np.asarray(x, dtype=float)
    return np.ascontiguousarray(np.atleast_2d(x)), x.ndim == 1


def _rowdot(a, b):
    # per-row dot product along the last axis; einsum without BLAS
    return np.einsum("...g,...g->...", a, b)


_SHARED = ("grid", "r")


def _lift(post):
    """A single-trial posterior as the B=1 block the kernels take."""
    return post._replace(**{
        f: np.asarray(v)[None] for f, v in zip(post._fields, post) if f not in _SHARED})


def _first(state, **keep):
    """Row 0 of a block result, with Python scalars for per-trial scalars."""
    out = {}
    for f, v in zip(state._fields, state):
        if f in keep:
            out[f] = keep[f]
        elif f not in _SHARED:
            out[f] = v[0].item() if v.ndim == 1 else v[0]
    return state._replace(**out)


def freq_posterior(x, prior, grid, r_e):
    """Closed-form amplitude elimination on the grid.

    Per grid point: 1/r = sum sin^2(Omega i)/r_e + 1/r_a and
    mu = r (sum x_i sin(Omega i)/r_e + mu_a/r_a). The grid marginal is
    proportional to exp(mu^2/(2r)) sqrt(r); the joint MAP maximizes
    exp(mu^2/(2r)) alone and carries amplitude mu at that point. r
    depends only on the grid, so it stays (G,) for a block.
    """
    X, one = _rows(x)
    grid = np.asarray(grid)
    sinT, s2 = _design_table(_grid_key(grid), X.shape[1])
    r = 1.0 / (s2 / r_e + 1.0 / prior.r_a)
    # r * (X sin / r_e + mu_a / r_a) and mu^2 / (2r), in place
    mu = np.einsum("gi,bi->bg", sinT, X)
    mu /= r_e
    mu += prior.mu_a / prior.r_a
    mu *= r
    half = np.square(mu)
    half /= 2.0 * r
    marginal = log_normalize_inplace(half + 0.5 * np.log(r))
    jm = np.argmax(half, axis=1)
    post = FreqPosteriorGrid(
        grid, r, mu, marginal, _rowdot(marginal, grid), grid[np.argmax(marginal, axis=1)],
        grid[jm], mu[np.arange(mu.shape[0]), jm], jm)
    return _first(post) if one else post


def _mean_field(post, mean, extra, cycles):
    """Shared moment-matching cycles of the plain and sheared refinements.

    Each cycle matches the shaping mean to the grid expectation of mu
    and the spread to that of r, then renormalizes
    exp((c1 mean + c2)/(2r) + extra). Returns the final grid factor and
    the last (m, s, c1, c2), all zero when cycles is 0.
    """
    # warm start at the exact grid marginal; a flat start anchors the
    # first moment mid-grid and the fixed cycle budget cannot recover
    ftilde = post.marginal.copy()
    m, s, c1, c2 = np.zeros((4, ftilde.shape[0]))
    two_r = 2.0 * post.r
    for _ in range(cycles):
        m = _rowdot(ftilde, post.mu)
        s = _rowdot(ftilde, post.r)
        c1 = 2.0 * m
        c2 = -(m ** 2 + s)
        # (c1 mean + c2) / (2r) + extra, normalized, written over the
        # factor the two dots above were the last to read
        np.multiply(c1[:, None], mean, out=ftilde)
        ftilde += c2[:, None]
        ftilde /= two_r
        if extra is not None:
            ftilde += extra
        log_normalize_inplace(ftilde)
    return ftilde, m, s, c1, c2


def vb_freq(x, prior, grid, r_e, cycles=5, post=None):
    """Mean-field refinement of the grid marginal, fixed cycle count.

    Amplitude moments are matched to grid expectations of mu and r;
    the grid factor is then exp((alpha1 mu + alpha2)/(2r)), renormalized.
    """
    if post is None:
        post = freq_posterior(x, prior, grid, r_e)
    one = post.mu.ndim == 1
    P = _lift(post) if one else post
    ftilde, mu1, sigma1_sq, alpha1, alpha2 = _mean_field(P, P.mu, None, cycles)
    res = VbFreqState(_rowdot(ftilde, P.grid), ftilde, mu1, sigma1_sq, alpha1, alpha2, P)
    return _first(res, posterior=post) if one else res


def tvb_u12(x, post, r_e):
    """Shear coefficient at the joint MAP.

    Ratio of the amplitude-frequency cross curvature to the amplitude
    curvature of the negative log joint, both at the peak. The amplitude
    curvature is 1/r there, so u12 = -r * sum i cos(Omega i)(x_i -
    2 a sin(Omega i))/r_e. This slope makes the sheared conditional mean
    mu + u12 Omega stationary at the peak, which keeps the refinement
    anchored instead of dragging it along the amplitude ridge.
    """
    X, one = _rows(x)
    P = _lift(post) if one else post
    i = np.arange(1, X.shape[1] + 1)
    wi = P.joint_map_omega[:, None] * i
    a = P.joint_map_amp[:, None]
    r_hat = P.r[P.joint_map_index]
    u12 = -r_hat * np.sum(i * np.cos(wi) * (X - 2.0 * a * np.sin(wi)), axis=1) / r_e
    return u12[0].item() if one else u12


def tvb_freq(x, prior, grid, r_e, cycles=5, post=None):
    """Mean-field refinement after shearing amplitude along Omega.

    The sheared mean is mu0 = mu + u12 Omega. Cycles match the shaping
    mean to the grid expectation of mu and the spread to that of r, then
    renormalize exp((beta1 mu0 + beta2)/(2r)) times the constant extra
    factor exp((mu^2 - mu0^2)/(2r)). The Omega marginal transforms back
    unchanged; the amplitude mean picks up -u12 * omega_hat. u12 = 0
    reduces exactly to vb_freq.
    """
    if post is None:
        post = freq_posterior(x, prior, grid, r_e)
    one = post.mu.ndim == 1
    P = _lift(post) if one else post
    u12 = np.reshape(tvb_u12(x, post, r_e), -1)
    mu0 = u12[:, None] * P.grid
    mu0 += P.mu
    extra = np.square(P.mu)
    extra -= np.square(mu0)
    extra /= 2.0 * P.r
    ftilde, mu2, sigma2_sq, beta1, beta2 = _mean_field(P, mu0, extra, cycles)
    omega_hat = _rowdot(ftilde, P.grid)
    res = TvbFreqState(omega_hat, ftilde, u12, mu2, sigma2_sq, beta1, beta2,
                       mu2 - u12 * omega_hat, P)
    return _first(res, posterior=post) if one else res
