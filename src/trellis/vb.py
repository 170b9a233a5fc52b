"""Variational label inference on a known-parameter hidden Markov chain.

Two mean-field schemes over the label chain: independent marginal
updates (ivb_run, distributions per time step) and the functionally
constrained point-mass variant (fcvb_run, hard labels per time step).
Each scheme is a site update and a move test, and one schedule loop in
trellis.batch runs both over i = 1..n repeatedly, skipping a step until
a neighbour moves; the plain sweep re-wakes every step of an
unconverged trial after each cycle, the accelerated one does not. The
loop tests the moves of a run of steps at once, where the schedule
needs them, rather than after every update. A run stops once no step
is left due, and tau flags the steps still due. Cycle counts:
nu_c counts full sweeps, nu_e is total single-step updates divided by
n. The divergence trace is built by continuing the sweep's returned
state one cycle per call, which gives the bits of one call. kld_vb,
from the posterior's chain factors (one (n-1, M, M) array, its logs
taken in one call), is the reference for the batch divergence.
"""

from collections import namedtuple

import numpy as np

from .batch import batch_forward, batch_kld, marginal_sweep, point_mass_sweep
from .numerics import safe_log


class StoppingConfig:
    def __init__(self, xi=0.01, max_cycles=100, accelerated=False):
        # an infinite xi would stop every trial after its first cycle
        if not 0 <= xi < np.inf:
            raise ValueError("xi must be finite and non-negative, got %r" % (xi,))
        if max_cycles < 1:
            raise ValueError("max_cycles must be positive")
        self.xi = float(xi)
        self.max_cycles = int(max_cycles)
        self.accelerated = bool(accelerated)


VbResult = namedtuple(
    "VbResult", ["p", "labels", "nu_c", "nu_e", "converged", "tau", "kld_trace"]
)
FcvbResult = namedtuple("FcvbResult", ["labels", "nu_c", "nu_e", "converged", "tau"])


def init_shaping(mode, Psi):
    """Initial per-step marginals: 'uniform' rows or row-normalized 'ml'."""
    Psi = np.asarray(Psi, dtype=float)
    n, M = Psi.shape
    if mode == "uniform":
        return np.full((n, M), 1.0 / M)
    if mode == "ml":
        z = Psi.sum(axis=1, keepdims=True)
        if np.any(z <= 0):
            raise ValueError("ml shaping needs a positive mass in every row")
        return Psi / z
    raise ValueError("unknown init mode %r" % (mode,))


def kld_vb(model, smoothing, chain, p):
    """Divergence of the factored approximation from the exact posterior.

    Uses the chain decomposition of the posterior, so no joint table is
    needed; with one-hot rows this equals minus the log posterior of
    the encoded trajectory.
    """
    p = np.asarray(p, dtype=float)
    n = model.n
    if p.shape != (n, model.M):
        raise ValueError("p must be n x M")
    ent = float(np.sum(p * safe_log(p)))
    cross = float(np.sum(p[n - 1] * safe_log(smoothing.alpha[n - 1])))
    logA = safe_log(chain.A)  # elementwise: each factor's own bits
    for i in range(n - 1):
        cross += float(p[i + 1] @ logA[i] @ p[i])
    return ent - cross


def ivb_run(model, init, cfg=None, track_kld=False):
    """Mean-field marginal updates, plain or accelerated sweeps.

    init is an n x M array of starting pmfs (see init_shaping). With
    track_kld, one divergence value is recorded after every completed
    cycle, nu_c in all, the last that of the returned p (this runs the
    exact forward pass once up front).
    """
    if cfg is None:
        cfg = StoppingConfig()
    n, M = model.n, model.M
    p = np.asarray(init, dtype=float)
    if p.shape != (n, M):
        raise ValueError("init must be n x M")
    if np.any(p < 0) or np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("init rows must be simplex vectors")
    T, Psi = model.T, model.Psi[None]
    logs = safe_log(T), safe_log(model.p), safe_log(Psi)
    # with track_kld the sweep runs one cycle per call, each call
    # continuing the state the last returned (the bits of one call), and
    # the trace takes the divergence after each
    if track_kld:
        alpha, kld = batch_forward(T, model.p, Psi), []
    state = p[None]
    for cycles in range(1 if track_kld else cfg.max_cycles, cfg.max_cycles + 1):
        p, nu_c, nu_e, converged, tau, state = marginal_sweep(
            *logs, state, cfg.xi, cycles, cfg.accelerated)
        if track_kld:
            kld.append(float(batch_kld(T, alpha, p)[0]))
        if converged[0]:
            break
    return VbResult(p[0], np.argmax(p[0], axis=1) + 1, int(nu_c[0]), float(nu_e[0]),
                    bool(converged[0]), tau[0], kld if track_kld else None)


def fcvb_run(model, init_labels, cfg=None):
    """Point-mass mean-field updates, plain or accelerated sweeps.

    init_labels are 1-based starting labels (ml_detect output works).
    Plain mode stops after the first change-free cycle, which is
    included in nu_c.
    """
    if cfg is None:
        cfg = StoppingConfig()
    n, M = model.n, model.M
    k = np.asarray(init_labels, dtype=int) - 1
    if k.shape != (n,):
        raise ValueError("init_labels must have length n")
    if np.any(k < 0) or np.any(k >= M):
        raise ValueError("init labels out of range")
    labels, nu_c, nu_e, converged, tau, _ = point_mass_sweep(
        safe_log(model.T), safe_log(model.p), safe_log(model.Psi)[None], k[None],
        cfg.max_cycles, cfg.accelerated)
    return FcvbResult(labels[0] + 1, int(nu_c[0]), float(nu_e[0]), bool(converged[0]), tau[0])
