"""Exact inference for a known-parameter homogeneous hidden Markov chain.

Transition matrices are left-stochastic: column k holds the next-state
distribution given current state k. Labels are 1-based at the public
API; everything internal is 0-based. Ties in any argmax/argmin resolve
to the smallest index, uniformly (including the brute-force oracles),
so label comparisons can be exact.
The recursions run in trellis.batch; the posterior's chain factors
and its enumeration are independent references for them.
"""

from collections import namedtuple

import numpy as np

from .batch import DegenerateObservation, forward_backward, viterbi_trace
from .numerics import safe_log
from .semiring import semiring

BRUTE_GUARD = 10 ** 6


class HmcModel:
    def __init__(self, T, p, Psi):
        T = np.asarray(T, dtype=float)
        p = np.asarray(p, dtype=float)
        Psi = np.asarray(Psi, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("T must be square")
        M = T.shape[0]
        if p.shape != (M,):
            raise ValueError("p length must match T")
        if Psi.ndim != 2 or Psi.shape[1] != M:
            raise ValueError("Psi must be n x M")
        if np.any(T < 0) or np.max(np.abs(T.sum(axis=0) - 1.0)) > 1e-9:
            raise ValueError("T columns must sum to one")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("p must be a simplex vector")
        if np.any(Psi < 0):
            raise ValueError("Psi entries must be non-negative")
        if np.any(Psi.max(axis=1) <= 0):
            raise ValueError("each Psi row needs at least one positive entry")
        self.T = T
        self.p = p
        self.Psi = Psi
        self.M = M
        self.n = Psi.shape[0]


SmoothingResult = namedtuple("SmoothingResult", ["alpha", "beta", "gamma", "labels"])
ViterbiTrace = namedtuple("ViterbiTrace", ["lam", "kappa", "labels"])
ProfileResult = namedtuple("ProfileResult", ["profiles", "labels"])
PosteriorChainFactors = namedtuple("PosteriorChainFactors", ["A", "B"])


def fb_algorithm(model):
    """Filtering, backward and smoothing statistics plus marginal-MAP labels."""
    alpha, beta, gamma = forward_backward(model.T, model.p, model.Psi[None], keep_beta=True)
    return SmoothingResult(alpha[0], beta[0], gamma[0], np.argmax(gamma[0], axis=1) + 1)


def viterbi(model):
    """Joint-MAP trajectory; lam holds the final (shifted) path metrics."""
    labels, lam, kappa = viterbi_trace(
        safe_log(model.T), safe_log(model.p), safe_log(model.Psi)[None])
    # 1-based, widened first: a uint8 back-pointer 255 + 1 wraps to 0
    return ViterbiTrace(lam[0], kappa[0].astype(np.int32) + 1, labels[0] + 1)


def bidirectional_viterbi(model):
    """Per-time profile distributions from two max-recursions.

    The profile at i is the normalized maximum of the trajectory
    posterior over all labels except l_i; its argmax sequence matches
    the back-tracked joint MAP.
    """
    _, _, profiles = forward_backward(model.T, model.p, model.Psi[None],
                                      sr=semiring("max-product"))
    return ProfileResult(profiles[0], np.argmax(profiles[0], axis=1) + 1)


def ml_detect(Psi):
    """Per-time maximum-likelihood labels, smallest index on ties."""
    return np.argmax(np.asarray(Psi), axis=1) + 1


def posterior_chain_factors(model, smoothing):
    """Backward (A_i) and forward (B_i) transition factors of the posterior.

    Row k of A_i is the distribution of l_i given l_{i+1} = k and the
    data up to i; column k of B_i is the distribution of l_{i+1} given
    l_i = k and the data after i.
    """
    T, Psi = model.T, model.Psi
    n = model.n
    alpha, beta = smoothing.alpha, smoothing.beta
    A = []
    B = []
    for i in range(n - 1):
        Ai = T * alpha[i][None, :]
        A.append(Ai / Ai.sum(axis=1, keepdims=True))
        Bi = (Psi[i + 1] * beta[i + 1])[:, None] * T
        B.append(Bi / Bi.sum(axis=0, keepdims=True))
    return PosteriorChainFactors(A, B)


class BruteForcePosterior:
    """Full normalized joint posterior over all M^n trajectories."""

    def __init__(self, model):
        n, M = model.n, model.M
        if M ** n > BRUTE_GUARD:
            raise ValueError("brute force exceeds the %d-trajectory guard" % BRUTE_GUARD)
        w = np.ones((M,) * n)
        w *= (model.p * model.Psi[0]).reshape((M,) + (1,) * (n - 1))
        for i in range(1, n):
            f = (model.Psi[i][:, None] * model.T).T  # axes (l_{i-1}, l_i)
            w = w * f.reshape((1,) * (i - 1) + (M, M) + (1,) * (n - 1 - i))
        z = w.sum()
        if z <= 0:
            raise DegenerateObservation(0, "joint posterior has zero mass")
        self.table = w / z
        self.n = n
        self.M = M

    def marginal(self, i):
        """Marginal of l_i (1-based time index)."""
        axes = tuple(ax for ax in range(self.n) if ax != i - 1)
        return self.table.sum(axis=axes)

    def map_labels(self):
        """Joint argmax, smallest (lexicographic) trajectory on ties, 1-based."""
        flat = np.argmax(self.table)
        return np.array(np.unravel_index(flat, self.table.shape)) + 1

    def prob(self, labels):
        return float(self.table[tuple(np.asarray(labels) - 1)])


def brute_force_posterior(model):
    return BruteForcePosterior(model)
