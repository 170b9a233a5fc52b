"""The chain recursions, each written once for a block of trials.

Every function takes a block of B trials of n steps over M states that
share one transition matrix. forward_backward over a trellis.semiring
instance, its forward half batch_forward and the point-mass divergence
batch_kld_labels, which runs that forward pass itself, take the
likelihoods Psi (B, n, M). The min-sum viterbi_trace and the mean-field
marginal_sweep and point_mass_sweep take their safe_log (logT, logp0,
logPsi), so a caller that runs several of them forms the logs once;
batch_ivb and batch_fcvb run the sweeps from Psi. batch_kld takes
filtering rows and pmfs. Each mean-field sweep is a site update, which
computes and stores one step of one block of trials, and a move test,
which tells for a run of steps at once which trials' rows moved since
it last saw them (a KS distance above xi, or a changed label). A single
schedule loop, _sweep, runs and counts the updates, and runs the test
only where the schedule needs its answer: at the end of each cycle and
of each block of steps, and on the accelerated schedule wherever a
forward wake could make the next step due for another trial.
A sweep maps one state, a SweepFork, to the next: it returns the state
after its last cycle, never writes the one it was given, and continues
a state passed back in with the bits of one longer call. So a caller
running both schedules runs the cycles they share once (see _sweep)
and continues that state under each, and vb.ivb_run builds its
divergence trace one cycle per call. The scalar API in hmc and vb
runs the sweeps with B=1. Labels are
0-based and ties resolve to the smallest index. A trial gets the same
bits alone or in a block, with three exceptions. A BLAS matrix product
may round a row differently with a different number of rows: in the
sum-product pass, in the marginal sweep at xi >= KS_RESOLUTION and in
batch_kld's per-step predictive product. On two states, numpy's
three-operand einsum in batch_kld (bk,kl,bl->b) orders its sum by the
block's shape. And batch_kld's entropy einsum (bik,bik->b) on a
one-trial block sums along another path once n * M passes numpy's
8192-element buffer (at n * M of 8196 to 8400, the terms of 1 to 5 of
6 random trials alone differed from theirs in the block; at 8160 and
8192, none did). So vb.ivb_run's per-cycle divergence trace, which
calls batch_kld on one trial, can differ in the last bits from a
batch_kld call on a block that holds that trial.

The Viterbi step is exact but pruned: with at least _PRUNE_MIN_STATES
states it runs only over the states whose shifted metric is within a
precomputed bound (plus a rounding margin) of their trial's best
state, since no other state can win or tie any target. It forms the
same float differences as the full (B, S, S) step, so its bits are the
full step's. The first step, whose metrics are not yet shifted, steps
where some trial keeps more than a quarter of the states, and smaller
chains run the full step (see viterbi_trace).

The marginal sweep normalizes its (B, M) rows itself, with a plain
np.exp: numerics.log_normalize_inplace's underflow mask pays for itself only on
long rows such as the tone posterior's. The per-step row maxima and
minima (the sweep's shift and KS distance, Viterbi's shift) come from
argmax/argmin and one flat take (_take_rows): the same values as the
short-axis reductions, at less cost.
"""

from collections import namedtuple

import numpy as np

from .numerics import safe_log
from .semiring import SUM_PRODUCT

# Float sweeps can wander forever in the last bit of a pmf entry, which
# would keep the xi=0 stopping rule from ever firing. Movement at or
# below this KS resolution counts as none, and at xi=0 it leaves the
# stored pmf untouched, so a reached fixed point stays bit-exact.
KS_RESOLUTION = 1e-13


class DegenerateObservation(ValueError, FloatingPointError):
    """A normalizer collapsed to zero; `trial` is the first such trial."""

    def __init__(self, trial, what="zero normalizer in recursion"):
        super().__init__(trial, what)
        self.trial = trial

    def __str__(self):
        return "trial %d: %s" % self.args


def _forward(T, p0, Psi, contract):
    """The forward recursion: normalized rows, filled with NaN from a
    trial's first zero normalizer on."""
    B, n, M = Psi.shape
    alpha = np.empty((B, n, M))
    with np.errstate(invalid="ignore", divide="ignore"):
        a = Psi[:, 0] * p0
        np.divide(a, np.add.reduce(a, axis=1, keepdims=True), out=alpha[:, 0])
        for i in range(1, n):
            a = contract(alpha[:, i - 1], T.T)
            a *= Psi[:, i]
            np.divide(a, np.add.reduce(a, axis=1, keepdims=True), out=alpha[:, i])
    return alpha


def _check_trials(rows):
    """Raise DegenerateObservation for the first trial with NaN rows."""
    bad = np.flatnonzero(np.isnan(np.add.reduce(rows[:, :, 0], axis=1)))
    if bad.size:
        raise DegenerateObservation(int(bad[0]))


def forward_backward(T, p0, Psi, sr=SUM_PRODUCT, keep_beta=False):
    """Normalized forward rows, backward rows and their normalized products.

    sr is a semiring whose ring-product multiplies. Under sum-product:
    filtering rows alpha and smoothing marginals gamma; under
    max-product, gamma holds the max-product profiles. Returns
    (alpha, beta, gamma); gamma takes over beta's storage unless
    keep_beta.
    """
    if sr.combine is not np.multiply:
        raise ValueError("forward_backward normalizes by division: %s is not a product ring"
                         % sr.name)
    B, n, M = Psi.shape
    if sr.sum is np.add:
        contract = np.matmul  # the sum-product step is a matrix product
    else:
        def contract(v, A):
            return sr.reduce_axis(sr.combine(v[:, :, None], A), 1)
    # A zero normalizer turns its trial's rows into NaN, which the
    # recursion carries on; the trials are checked once at the end.
    alpha = _forward(T, p0, Psi, contract)
    beta = np.empty((B, n, M))
    with np.errstate(invalid="ignore", divide="ignore"):
        beta[:, n - 1] = 1.0 / M
        for i in range(n - 2, -1, -1):
            b = contract(Psi[:, i + 1] * beta[:, i + 1], T)
            np.divide(b, np.add.reduce(b, axis=1, keepdims=True), out=beta[:, i])
        gamma = alpha * beta if keep_beta else np.multiply(alpha, beta, out=beta)
        gamma /= np.add.reduce(gamma, axis=2, keepdims=True)
    _check_trials(gamma)
    return alpha, (beta if keep_beta else None), gamma


def batch_forward(T, p0, Psi):
    """Filtering rows alpha of every trial, with no backward pass.

    The rows equal forward_backward's sum-product alpha bit for bit.
    """
    alpha = _forward(T, p0, Psi, np.matmul)
    _check_trials(alpha)
    return alpha


def batch_fb(T, p0, Psi):
    """Filtering and smoothing rows for every trial.

    Returns (alpha, gamma, labels); alpha is kept because the
    divergence computation reuses it.
    """
    alpha, _, gamma = forward_backward(T, p0, Psi)
    return alpha, gamma, np.argmax(gamma, axis=2)


def _take_rows(a, k, offsets):
    """a[r, k[r]] for each row r of a C-ordered (rows, M) array, as (rows, 1).

    k is a.argmax or a.argmin along axis 1 with keepdims, and is
    overwritten; offsets, np.arange(0, B * M, M)[:, None] with B >= rows,
    are the rows' flat starts. A row's maximum or minimum taken so is
    the value np.maximum.reduce or np.minimum.reduce gives (NaN for a
    row with a NaN), at less cost on rows of a few states, where the
    reduction's per-row set-up dominates: 2.5 us against 6.3-8.7 us at
    (100, 4), 0.7-0.9 us against 1.3-1.4 us at (1, 4) (2-core x86 VM).
    Only a tie of +0.0 with -0.0 may give the other zero; subtracting
    either changes at most the sign of a zero result, which exp and
    argmin ignore.
    """
    if len(k) > 1:  # a lone row's offset is 0
        k += offsets[:len(k)]
    return a.take(k)


# Below this many states the dense Viterbi step is a few numpy calls on
# a small array, and the per-step candidate test costs more than it
# saves. On 40-trial blocks of 1000 steps (2-core x86 VM) pruning ran
# 1.6x slower at 4 states, within 20% either way at 16, and 1.0-2x
# faster at 32.
_PRUNE_MIN_STATES = 32


def _prune_bound(logT):
    """Dm[k0, k]: the largest shifted metric with which state k can still
    win or tie some target's step when k0 holds the metric 0.

    D[k0, k] = max_j (logT[j, k] - logT[j, k0]), accumulated over j so
    that no (S, S, S) array is formed, plus the rounding margin
    1e-12 * (|D| + max|logT|) (see viterbi_trace).
    """
    M = logT.shape[0]
    D = np.full((M, M), -np.inf)
    for row in logT:
        np.maximum(D, row[None, :] - row[:, None], out=D)
    with np.errstate(invalid="ignore"):
        D += 1e-12 * (np.abs(D) + np.abs(logT).max())
    return D


def _in_reach(lam, bound):
    """Mask of the states that may win or tie some target's min-sum step:
    each trial's shifted metrics against the bound row of its best
    state. NaN metrics stay in, as they win the dense argmin."""
    return ~(lam > bound[lam.argmin(axis=1)])


def _pruned_step(lam, logTt, keep, C):
    """The min-sum step over the states in keep: (metrics, argmins).

    Each trial visits its states in ascending order, C times in all (a
    trial with fewer then revisits state 0 or meets one out of reach,
    neither of which undercuts its minimum), and a target's running
    minimum moves only to a strictly smaller total, so ties go to the
    smallest index.
    """
    rows = np.arange(lam.shape[0])
    left = keep.copy()
    best = am = None
    for _ in range(C):
        k = left.argmax(axis=1)
        left[rows, k] = False
        tot = logTt[k]
        np.subtract(lam[rows, k][:, None], tot, out=tot)
        if best is None:
            best, am = tot, np.repeat(k[:, None], tot.shape[1], axis=1)
        else:
            better = tot < best
            np.copyto(best, tot, where=better)
            np.copyto(am, k[:, None], where=better)
    return best, am


def viterbi_trace(logT, logp0, logPsi):
    """Min-sum Viterbi: (labels, final metrics, back-pointers).

    Each step shifts the metrics to a minimum of exactly 0, which
    changes no argmin. The dense step takes, for every target j, the
    argmin over k of lam[k] - logT[j, k]. From the second step on, with
    at least _PRUNE_MIN_STATES states, a state k enters the step only if
    lam[k] <= D[k0, k] + margin, where k0 is its trial's best state
    (lam[k0] = 0) and D[k0, k] = max_j (logT[j, k] - logT[j, k0]): any
    other state's total exceeds k0's total -logT[j, k0] for every target
    j, so it is no argmin and no tie. The margin,
    1e-12 * (|D| + max|logT|), covers the rounding of D and of the
    subtraction lam[k] - logT[j, k], each within a few ulps of those
    magnitudes; a margin relative to |D| alone misses a state whose
    tiny metric rounds away in the subtraction. The candidates form the
    same float differences as the dense step, in ascending state order,
    and a running minimum moves only to a strictly smaller total, so
    labels, metrics and back-pointers equal the dense step's bit for
    bit. The dense (B, S, S) step runs at the first step, whose metrics
    are not yet shifted, at any step where some trial keeps more than
    S/4 candidates, and at every step below _PRUNE_MIN_STATES states.
    Infinite or NaN entries in logT make the bound infinite or NaN,
    which keeps every state and so runs the dense step.
    """
    B, n, M = logPsi.shape
    lam = -(logPsi[:, 0] + logp0)
    # back-pointers in the narrowest type that holds a state: uint8 up to 256
    kappa = np.zeros((B, n, M), dtype=np.min_scalar_type(M - 1))
    base = np.arange(0, B * M * M, M).reshape(B, M)
    flat = np.arange(0, B * M, M)[:, None]
    prune = M >= _PRUNE_MIN_STATES and n > 2
    if prune:
        bound = _prune_bound(logT)
        logTt = np.ascontiguousarray(logT.T)
    for i in range(1, n):
        keep = _in_reach(lam, bound) if prune and i > 1 else None
        C = M if keep is None else int(np.add.reduce(keep, axis=1).max())
        if 4 * C <= M:
            lam, am = _pruned_step(lam, logTt, keep, C)
        else:
            tot = lam[:, None, :] - logT
            am = tot.argmin(axis=2)
            lam = tot.take(base + am)
        kappa[:, i] = am
        lam -= logPsi[:, i]
        lam -= _take_rows(lam, lam.argmin(axis=1, keepdims=True), flat)
    labels = np.empty((B, n), dtype=np.int64)
    labels[:, n - 1] = lam.argmin(axis=1)
    rows = np.arange(B)
    for i in range(n - 1, 0, -1):
        labels[:, i - 1] = kappa[rows, i, labels[:, i]]
    return labels, lam, kappa


def batch_viterbi(logT, logp0, logPsi):
    """Joint-MAP labels for every trial (min-metric form, smallest-index ties)."""
    return viterbi_trace(logT, logp0, logPsi)[0]


def batch_ml(Psi):
    return np.argmax(Psi, axis=2)


# Steps per block of the divergences' per-step terms: their temporaries
# are (B, _KLD_STEPS, M) at most, never (B, n, M).
_KLD_STEPS = 64


def batch_kld(T, alpha, p):
    """Divergence of factored marginals p from each trial's posterior.

    alpha are the normalized filtering rows from batch_forward. Works
    off the chain decomposition, so nothing of size (B, M, M) per step
    is stored. For point masses use batch_kld_labels, which gives the
    one-hot result from the labels alone.

    Per step i it subtracts p[i+1]' logT p[i] and p[i]' log alpha[i] and
    adds p[i+1]' log(T alpha[i]), in that order. The second and third
    are einsums over blocks of _KLD_STEPS steps, the first one einsum
    per step (a block of three-operand einsums may sum in another order
    on two states), and each predictive product T alpha[i] is its own
    per-step matrix product; one np.add.accumulate per block then adds
    the terms in step order, so every bit is that of adding them one
    step at a time.
    """
    B, n, M = p.shape
    logT = safe_log(T)
    Tt = T.T
    out = np.einsum("bik,bik->b", p, safe_log(p))
    out -= np.einsum("bk,bk->b", p[:, n - 1], safe_log(alpha[:, n - 1]))
    pred = np.empty((B, min(_KLD_STEPS, n), M))
    for i0 in range(0, n - 1, _KLD_STEPS):
        i1 = min(i0 + _KLD_STEPS, n - 1)
        m = i1 - i0
        cross = []
        for i in range(i0, i1):
            cross.append(np.einsum("bk,kl,bl->b", p[:, i + 1], logT, p[:, i]))
            np.matmul(alpha[:, i], Tt, out=pred[:, i - i0])
        terms = np.empty((3 * m + 1, B))  # step-major, with the running sum first
        terms[0] = out
        np.negative(cross, out=terms[1::3])
        np.negative(np.einsum("bil,bil->bi", p[:, i0:i1], safe_log(alpha[:, i0:i1])).T,
                    out=terms[2::3])
        terms[3::3] = np.einsum("bik,bik->bi", p[:, i0 + 1:i1 + 1], safe_log(pred[:, :m])).T
        out = np.add.accumulate(terms, axis=0)[-1]
    return out


def batch_kld_labels(T, p0, Psi, labels, alpha=None):
    """Minus the log posterior of each trial's label path, from its own forward pass.

    Equals batch_kld of batch_forward's rows and one-hot rows at the
    labels bit for bit: each einsum term there is the one entry its
    one-hot rows select, because safe_log is finite. The sum-product
    forward recursion runs here, as batch_forward's steps, and reads two
    entries per step: the predictive entry (T alpha[i-1])[l_i] from the
    product the step forms anyway, and the filtered entry alpha[i][l_i].
    No (B, n, M) array is formed. Given alpha, batch_forward's rows, it
    reads the filtered entries from them and forms each predictive
    product as batch_forward did, and does not read Psi. The entries'
    logs are added in batch_kld's order, one np.add.accumulate per block
    of _KLD_STEPS steps. A degenerate trial raises
    DegenerateObservation, as batch_forward does.
    """
    B, n, M = (Psi if alpha is None else alpha).shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (B, n) or labels.min() < 0 or labels.max() >= M:
        raise ValueError("labels must be B x n states in [0, M)")
    # flat offsets of the labels' entries in a (B, M) row block, time-major
    at = (labels + np.arange(0, B * M, M)[:, None]).T.copy()
    filt = np.empty((n, B))
    pred = np.empty((n, B))  # pred[0] is not used
    Tt = T.T
    if alpha is not None:
        # the same entries' offsets in alpha
        alpha.take(at + np.arange(0, n * M, M)[:, None] + (n - 1) * M * np.arange(B),
                   out=filt, mode="clip")
        for i in range(1, n):
            np.matmul(alpha[:, i - 1], Tt).take(at[i], out=pred[i], mode="clip")
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            a = Psi[:, 0] * p0
            a /= np.add.reduce(a, axis=1, keepdims=True)
            a.take(at[0], out=filt[0], mode="clip")
            for i in range(1, n):
                a = np.matmul(a, Tt)
                a.take(at[i], out=pred[i], mode="clip")
                a *= Psi[:, i]
                a /= np.add.reduce(a, axis=1, keepdims=True)
                a.take(at[i], out=filt[i], mode="clip")
        # a NaN row makes every later row NaN, so the last row shows the
        # trials whose rows batch_forward finds NaN
        _check_trials(a[:, None])
    logT = safe_log(T)
    lab = labels.T
    out = np.subtract(0.0, safe_log(filt[n - 1]))  # a point mass has no entropy
    for i0 in range(0, n - 1, _KLD_STEPS):
        i1 = min(i0 + _KLD_STEPS, n - 1)
        terms = np.empty((3 * (i1 - i0) + 1, B))  # as in batch_kld
        terms[0] = out
        np.negative(logT[lab[i0 + 1:i1 + 1], lab[i0:i1]], out=terms[1::3])
        np.negative(safe_log(filt[i0:i1]), out=terms[2::3])
        terms[3::3] = safe_log(pred[i0 + 1:i1 + 1])
        out = np.add.accumulate(terms, axis=0)[-1]
    return out


# Items in a block of the sweeps' move test: moves are tested, and the
# rows they are tested against are kept, for the steps of one aligned
# block at a time, of at most this many floats or labels (and at least
# one step), so no (B, n, M) copy is held.
_MOVE_ITEMS = 1 << 14


class SweepFork(namedtuple("SweepFork", "rows tau cycles nu_c converged updates full")):
    """A mean-field sweep's state between two cycles.

    rows is the sweep's working array: the pmfs p (B, n, M), or the
    labels with their end pads, (n + 2, B). tau (n + 2, B) holds the
    schedule's flags with their pads, cycles the cycles run, nu_c and
    converged as the sweeps return them, and updates (B,) and full the
    integer update counts (see _sweep). A sweep returns a new state and
    never writes the one it was given.
    """

    __slots__ = ()

    @classmethod
    def start(cls, rows, B, n):
        """The state before cycle 1: every step due, nothing counted."""
        # each trial's update count, less the steps that updated every
        # trial: those go to the scalar `full`, as adding a mask at every
        # step cost about a tenth of the point-mass sweep's time on
        # one-trial blocks
        return cls(rows, np.ones((n + 2, B), dtype=bool), 0, np.zeros(B, dtype=np.int64),
                   np.zeros(B, dtype=bool), np.zeros(B, dtype=np.int64), 0)


def _sweep(update, moved, span, max_cycles, accelerated, state):
    """The mean-field schedule over site updates, from state up to
    max_cycles cycles in all.

    Returns the next state's fields after rows: (tau, cycles, nu_c,
    converged, updates, full), with nu_c set to the cycles run for each
    trial not yet converged. tau, nu_c and updates are copies; the rows
    are the caller's to copy.

    update(i, rows, mask) computes and stores step i's new rows for the
    due trials, which rows selects (with the boolean mask, if not None).
    A lone due trial gets a one-row slice, so that its step costs and
    rounds as a B=1 step does. moved(lo, hi) returns, as (hi - lo, B),
    which trials' steps lo..hi-1 moved since the test last saw them; a
    step that did not run has not moved. lo and hi - 1 always lie in one
    block of span steps (b * span up to (b + 1) * span), so a sweep need
    only keep the rows of one block to test against, and formed afresh
    from the rows at the start of a call, that block state is the one
    a longer call would hold there.

    tau, laid out (n + 2, B) with one pad step at both ends, flags the
    steps due: a moved step stays due, a quiet one goes to sleep. The
    accelerated schedule also wakes a moved step's neighbours; the plain
    one re-wakes every step of an unconverged trial at the end of each
    cycle. So at the end of a cycle a step's flag is its own move, OR on
    the accelerated schedule its right neighbour's, and a trial has
    converged once no step is left due; it keeps its rows from then on.

    Moves are tested for a run of steps at a time, not after every
    update: at the end of each block and each cycle, and on the
    accelerated schedule before step i + 1 whenever some trial that ran
    step i is not yet due there, since the forward wake of step i could
    add it. Otherwise step i + 1's due set is its flag at the start of
    the cycle. Each test writes tau as a test after every update would:
    the steps' own moves, the backward wakes and the forward wake of the
    next step. The plain schedule's due set, the trials still running,
    is fixed within a cycle, so it tests at block and cycle ends only.

    The two schedules coincide in every cycle at whose start each step
    of each unconverged trial is due on the accelerated one: that is the
    plain due set, so both run the same updates with the same rows and
    masks and the same tests, and the plain re-wake at the end of the
    cycle before changes nothing. accelerated=None runs these shared
    cycles, with the accelerated flags, and stops at the end of the
    first cycle after which they leave some step of an unconverged trial
    asleep, at max_cycles or once every trial has converged. Either
    schedule continues such a state; the plain one first re-wakes the
    unconverged trials, as it would have at the end of that cycle. A
    state carries everything the schedule keeps between cycles, the
    counts as integers, so continuing it returns the bits of one call
    that ran the whole schedule.
    """
    _, tau, cycles, nu_c, converged, updates, full = state
    tau, nu_c, updates = tau.copy(), nu_c.copy(), updates.copy()
    B, n = len(converged), len(tau) - 2
    if accelerated is False:
        tau[1:-1] |= ~converged
    wake = accelerated is not False
    every = slice(None)

    def flush(lo, hi):
        m = moved(lo, hi)
        tau[lo + 1:hi + 1] = m
        if wake:
            tau[lo:hi] |= m
            tau[hi + 1] |= m[-1]

    while cycles < max_cycles and not converged.all():
        cycles += 1
        # step i's due count, and whether some trial due there is not due
        # at i + 1, as long as no test has woken step i; on the plain
        # schedule every step's due set is the trials still running, so
        # there is no such trial and no test inside a block
        due = tau[1:-1]
        count = due.sum(axis=1).tolist()
        gap = (due > tau[2:]).any(axis=1).tolist()
        lo = -1  # the first step run since the last test
        woken = False
        for b in range(0, n, span):
            for i in range(b, min(b + span, n)):
                if woken:
                    t = tau[i + 1]
                    c = np.count_nonzero(t)
                    g = np.count_nonzero(t > tau[i + 2])
                    woken = False
                else:
                    c, g = count[i], gap[i]
                if c == 0:
                    continue
                if c == B:
                    rows, mask = every, None
                    full += 1
                else:
                    t = tau[i + 1]
                    if c == 1:
                        j = int(t.argmax())
                        rows, mask = slice(j, j + 1), None
                        updates[j] += 1
                    else:
                        rows, mask = every, t
                        updates += t
                update(i, rows, mask)
                if lo < 0:
                    lo = i
                if g:
                    flush(lo, i + 1)
                    lo, woken = -1, True
            # a step that ran is followed by a due step or a test, so a
            # run still open here ends at the end of the block
            if lo >= 0:
                flush(lo, min(b + span, n))
                lo = -1
        live = tau[1:-1].any(axis=0)
        nu_c[~live & ~converged] = cycles
        converged = ~live
        if accelerated is None:
            if not (tau[1:-1] | converged).all():
                break  # the schedules part
        elif not accelerated:
            tau[1:-1] |= live
    nu_c[~converged] = cycles
    return tau, cycles, nu_c, converged, updates, full


def _result(rows, state):
    """A sweep's return value: (rows, nu_c, nu_e, converged, tau, state),
    tau without its pads as (B, n)."""
    n = len(state.tau) - 2
    return (rows, state.nu_c, (state.updates + state.full) / n, state.converged,
            state.tau[1:-1].T, state)


def marginal_sweep(logT, logp0, logPsi, init, xi=0.01, max_cycles=100, accelerated=False):
    """Mean-field marginal updates, plain or accelerated, on safe_log'd inputs.

    A step moves when its pmf moves more than xi in KS distance; a
    trial stops after the first cycle with no step moved (see _sweep).
    The inputs are read, never written: init is copied, and the start
    prior enters step 0's update, not logPsi. Returns (p, nu_c, nu_e,
    converged, tau, state): tau flags the steps still due, all False
    for a converged trial, and state is the SweepFork after the last
    cycle run. init may be such a state, from a call on the same inputs
    and xi; the sweep then continues it, up to max_cycles cycles in
    all, and returns what one call from the start would. accelerated=None
    runs only the cycles the plain and the accelerated schedule share
    (see _sweep), and either schedule can continue its state.
    """
    B, n, M = logPsi.shape
    if not isinstance(init, SweepFork):
        init = np.asarray(init, dtype=float)
        if init.shape != (B, n, M):
            raise ValueError("init must be B x n x M")
        init = SweepFork.start(init, B, n)
    # xi below the resolution asks for an exact fixed point, with the
    # same bits alone or in a block: moves within the resolution are not
    # stored, and products are per-row dots. Coarser thresholds store
    # every update and keep the BLAS product the experiment outputs
    # were recorded with.
    exact = xi < KS_RESOLUTION
    if exact:
        def contract(v, A):
            return np.einsum("bk,kj->bj", v, A)
    else:
        contract = np.matmul
    p = np.array(init.rows)
    thr = max(xi, KS_RESOLUTION)
    span = max(1, _MOVE_ITEMS // (B * M))
    flat = np.arange(0, B * min(n, span) * M, M)[:, None]
    logTt = logT.T
    # cum[:, j]: the cumulative pmfs of step b0 + j as the move test last
    # saw them, for the block of span steps from b0 that the first update
    # in it forms; a KS distance from them is the one from the rows an
    # update replaced
    b0, cum = -span, None

    def update(i, r, t):
        nonlocal b0, cum
        if not b0 <= i < b0 + span:
            b0 = i - i % span
            cum = np.add.accumulate(p[:, b0:b0 + span], axis=2)
        s = logPsi[r, i] + contract(p[r, i - 1], logTt) if i else logPsi[r, 0] + logp0
        if i + 1 < n:
            s += contract(p[r, i + 1], logT)
        # numerics.log_normalize_inplace's steps, with a plain np.exp: on a few
        # states its underflow mask costs more than the exp it spares
        s -= _take_rows(s, s.argmax(axis=1, keepdims=True), flat)
        np.exp(s, out=s)
        s /= np.add.reduce(s, axis=1, keepdims=True)
        store = t
        if exact:
            d = np.abs(np.add.accumulate(s, axis=1) - cum[r, i - b0])
            store = _take_rows(d, d.argmax(axis=1, keepdims=True), flat)[:, 0] > KS_RESOLUTION
            if t is not None:
                store &= t
        if store is None:
            p[r, i] = s
        else:
            np.copyto(p[r, i], s, where=store[:, None])

    def moved(lo, hi):
        now = np.add.accumulate(p[:, lo:hi], axis=2)
        was = cum[:, lo - b0:hi - b0]
        d = np.subtract(now, was)
        d = np.abs(d, out=d).reshape(-1, M)
        ks = _take_rows(d, d.argmax(axis=1, keepdims=True), flat)
        was[...] = now
        return (ks.reshape(B, hi - lo) > thr).T

    return _result(p, SweepFork(p, *_sweep(update, moved, span, max_cycles, accelerated, init)))


def point_mass_sweep(logT, logp0, logPsi, init_labels, max_cycles=100, accelerated=False):
    """Point-mass mean-field updates, plain or accelerated, on safe_log'd inputs.

    A step moves when its label changes; a trial stops after the first
    change-free cycle, which nu_c counts (see _sweep). Returns (labels,
    nu_c, nu_e, converged, tau, state), as marginal_sweep does, and as
    there init_labels may be a state to continue.
    """
    B, n, M = logPsi.shape
    if not isinstance(init_labels, SweepFork):
        k = np.asarray(init_labels, dtype=np.int64)
        if k.shape != (B, n) or k.min() < 0 or k.max() >= M:
            raise ValueError("init_labels must be B x n states in [0, M)")
        K = np.full((n + 2, B), M, dtype=np.int64)  # K[i + 1]: labels of step i
        K[1:-1] = k.T
        init_labels = SweepFork.start(K, B, n)
    # Label M stands for the chain's ends: as the previous label it
    # selects the start prior, as the next label a zero row.
    nxt = np.zeros((M + 1, M))
    nxt[:M] = logT
    prv = np.empty((M + 1, M))
    prv[:M] = logT.T
    prv[M] = logp0
    K = init_labels.rows.copy()
    span = max(1, _MOVE_ITEMS // B)
    b0, seen = -span, None  # seen[j]: the labels of step b0 + j as last tested

    def update(i, r, t):
        nonlocal b0, seen
        if not b0 <= i < b0 + span:
            b0 = i - i % span
            seen = K[b0 + 1:b0 + span + 1].copy()
        s = nxt[K[i + 2, r]] + prv[K[i, r]]
        s += logPsi[r, i]
        if t is None:
            K[i + 1, r] = s.argmax(axis=1)
        else:
            np.copyto(K[i + 1, r], s.argmax(axis=1), where=t)

    def moved(lo, hi):
        now = K[lo + 1:hi + 1]
        was = seen[lo - b0:hi - b0]
        m = now != was
        was[...] = now
        return m

    state = SweepFork(K, *_sweep(update, moved, span, max_cycles, accelerated, init_labels))
    return _result(K[1:-1].T.copy(), state)


def batch_ivb(T, p0, Psi, init, xi=0.01, max_cycles=100, accelerated=False):
    """Mean-field marginal sweeps from likelihoods Psi: (p, nu_c, nu_e, converged)."""
    return marginal_sweep(safe_log(T), safe_log(p0), safe_log(Psi), init, xi, max_cycles,
                          accelerated)[:4]


def batch_fcvb(T, p0, Psi, init_labels, max_cycles=100, accelerated=False):
    """Point-mass mean-field sweeps from likelihoods Psi: (labels, nu_c, nu_e, converged)."""
    return point_mass_sweep(safe_log(T), safe_log(p0), safe_log(Psi), init_labels,
                            max_cycles, accelerated)[:4]
