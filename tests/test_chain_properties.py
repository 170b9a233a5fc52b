"""Property tests of the chain kernels against the enumerated posterior,
of the forward-only pass and the point-mass divergence against the
full pass and the one-hot divergence they must equal bit for bit, and
of the plain mean-field schedule against the accelerated one, of
sweeps continued one cycle per call and the divergence trace built so
against one call and the stepwise schedule, and of the pruned Viterbi
step against the dense one it must equal bit for bit.

Models are drawn with zero entries in the transition matrix and the
start pmf, likelihood entries down to 1e-30 and blocks of several
trials sharing one chain, including n=1 and M=2.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import assert_same_arrays, dense_viterbi_trace, stepwise_marginal_sweep
from trellis import batch
from trellis.batch import (DegenerateObservation, batch_fb, batch_forward, batch_kld,
                           batch_kld_labels, forward_backward, marginal_sweep,
                           point_mass_sweep, viterbi_trace)
from trellis.hmc import BruteForcePosterior, HmcModel
from trellis.numerics import safe_log
from trellis.semiring import semiring
from trellis.vb import StoppingConfig, ivb_run

# an enumerated MAP must beat the runner-up by this relative margin
# before the kernels are required to find it: ties may go either way
MAP_MARGIN = 1e-9

MAX_PRODUCT = semiring("max-product")


PMF_LEVELS = (0.0, 0.01, 0.1, 0.5, 1.0)


def _pmf(draw, M, levels=PMF_LEVELS):
    """Simplex vector drawn from levels (exact zeros where 0.0 is one),
    positive entries >= ~0.003."""
    w = np.array(draw(st.lists(st.sampled_from(levels), min_size=M, max_size=M)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, M - 1))] = 1.0
    return w / w.sum()


@st.composite
def chain_blocks(draw, states=st.integers(2, 3), shared_columns=False):
    """T, p0 and Psi of a block; with shared_columns, T's columns come
    from a pool of at most three, without zeros in about half the draws,
    so that states tie in every target."""
    M = draw(states)
    n = draw(st.integers(1, 5))
    B = draw(st.integers(1, 3))
    if shared_columns:
        levels = PMF_LEVELS[1:] if draw(st.booleans()) else PMF_LEVELS
        pool = [_pmf(draw, M, levels) for _ in range(draw(st.integers(1, 3)))]
        T = np.column_stack([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(M)])
    else:
        T = np.column_stack([_pmf(draw, M) for _ in range(M)])
    p0 = _pmf(draw, M)
    level = st.sampled_from([0.0, 1e-30, 1e-12, 1e-3, 0.3, 1.0])
    Psi = np.array(draw(st.lists(level, min_size=B * n * M, max_size=B * n * M)))
    Psi = Psi.reshape(B, n, M)
    empty = Psi.max(axis=2) == 0.0
    Psi[empty, 0] = 1e-30
    return T, p0, Psi


def _brute(T, p0, Psi):
    """Enumerated posterior per trial, or None where it has no mass."""
    out = []
    for row in Psi:
        try:
            out.append(BruteForcePosterior(HmcModel(T, p0, row)))
        except DegenerateObservation:
            out.append(None)
    return out


def _unique_map(brute):
    top = np.sort(brute.table.ravel())[::-1]
    return top.size == 1 or top[0] > top[1] * (1.0 + MAP_MARGIN)


def _check_degenerate(call, brute):
    bad = [b for b, post in enumerate(brute) if post is None]
    try:
        call()
    except DegenerateObservation as e:
        assert bad and e.trial == bad[0]
        return True
    assert not bad
    return False


SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(chain_blocks())
def test_smoothing_matches_enumeration(block):
    T, p0, Psi = block
    brute = _brute(T, p0, Psi)
    if _check_degenerate(lambda: forward_backward(T, p0, Psi), brute):
        return
    _, _, gamma = forward_backward(T, p0, Psi)
    for b, post in enumerate(brute):
        marg = np.array([post.marginal(i) for i in range(1, Psi.shape[1] + 1)])
        assert_allclose(gamma[b], marg, atol=1e-10)
        # the sum-product step is a BLAS product, whose rounding may
        # depend on how many rows it multiplies
        assert_allclose(forward_backward(T, p0, Psi[b:b + 1])[2][0], gamma[b],
                        rtol=0, atol=1e-14)


@SETTINGS
@given(chain_blocks())
def test_forward_rows_equal_forward_backward(block):
    T, p0, Psi = block
    try:
        want = batch_fb(T, p0, Psi)[0]
    except DegenerateObservation as e:
        with pytest.raises(DegenerateObservation) as got:
            batch_forward(T, p0, Psi)
        assert got.value.trial == e.trial
        return
    assert batch_forward(T, p0, Psi).tobytes() == want.tobytes()


@SETTINGS
@given(chain_blocks(), st.data())
def test_point_mass_divergence_equals_one_hot(block, data):
    # labels are drawn freely, so zero entries of T give impossible
    # paths whose terms are LOG0
    T, p0, Psi = block
    B, n, M = Psi.shape
    labels = np.array(data.draw(st.lists(st.integers(0, M - 1), min_size=B * n,
                                         max_size=B * n))).reshape(B, n)
    try:
        alpha = batch_forward(T, p0, Psi)
    except DegenerateObservation as e:
        with pytest.raises(DegenerateObservation) as got:
            batch_kld_labels(T, p0, Psi, labels)
        assert got.value.trial == e.trial
        return
    one_hot = np.zeros((B, n, M))
    np.put_along_axis(one_hot, labels[:, :, None], 1.0, axis=2)
    want = batch_kld(T, alpha, one_hot)
    assert batch_kld_labels(T, p0, Psi, labels).tobytes() == want.tobytes()


@SETTINGS
@given(chain_blocks())
def test_viterbi_and_profiles_find_the_map(block):
    T, p0, Psi = block
    brute = _brute(T, p0, Psi)
    if _check_degenerate(lambda: forward_backward(T, p0, Psi, sr=MAX_PRODUCT), brute):
        return
    logT, logp0 = safe_log(T), safe_log(p0)
    labels = viterbi_trace(logT, logp0, safe_log(Psi))[0]
    _, _, profiles = forward_backward(T, p0, Psi, sr=MAX_PRODUCT)
    for b, post in enumerate(brute):
        alone = viterbi_trace(logT, logp0, safe_log(Psi[b:b + 1]))[0][0]
        assert np.array_equal(alone, labels[b])
        single = forward_backward(T, p0, Psi[b:b + 1], sr=MAX_PRODUCT)[2][0]
        assert np.array_equal(single, profiles[b])
        if _unique_map(post):
            assert np.array_equal(labels[b] + 1, post.map_labels())
            assert np.array_equal(np.argmax(profiles[b], axis=1), labels[b])


def _viterbi_pruned_at_any_size(logT, logp0, logPsi):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batch, "_PRUNE_MIN_STATES", 0)
        return viterbi_trace(logT, logp0, logPsi)


@SETTINGS
@given(chain_blocks(st.integers(4, 9), shared_columns=True))
def test_pruned_viterbi_equals_the_dense_step(block):
    # The pruned step needs at most S/4 candidates and a trial's best
    # state is always one, so these blocks have 4-9 states. Their steps
    # mix pruned and dense ones; zeros in T make the bound LOG0-sized,
    # which sends a step to the dense path; few-valued T and Psi tie.
    T, p0, Psi = block
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    assert_same_arrays(_viterbi_pruned_at_any_size(*logs), dense_viterbi_trace(*logs))


def test_pruning_margin_covers_the_rounding_of_the_step():
    # Columns 0 and 1 of T are equal, so D[1, 0] = 0. Step 1 leaves the
    # metrics [4e-16, 0, 50, ...], and 4e-16 - log 1e-4 rounds to
    # -log 1e-4: state 0 ties the best state 1 for target 0 and wins it
    # by the smaller index. A margin relative to |D| alone drops it.
    S = 8
    T = np.full((S, S), 1.0 / S)
    T[:, :2] = (1.0 - 1e-4) / (S - 1)
    T[0, :2] = 1e-4
    logT = np.log(T)
    logPsi = np.zeros((1, 3, S))
    logPsi[0, 0] = -50.0
    logPsi[0, 0, 2] = -logT[0, 2]  # every target's step-1 minimum is 0, from state 2
    logPsi[0, 1, 0] = -4e-16
    logPsi[0, 1, 2:] = -50.0
    assert np.all(logT[:, 2] - logT[0, 2] == 0.0)
    assert 4e-16 - logT[0, 0] == -logT[0, 1]
    got = _viterbi_pruned_at_any_size(logT, np.zeros(S), logPsi)
    want = dense_viterbi_trace(logT, np.zeros(S), logPsi)
    assert want[2][0, 2, 0] == 0
    assert_same_arrays(got, want)


@SETTINGS
@given(chain_blocks(), st.booleans())
def test_mean_field_rows_match_their_single_runs(block, accelerated):
    T, p0, Psi = block
    B = Psi.shape[0]
    logT, logp0, logPsi = safe_log(T), safe_log(p0), safe_log(Psi)
    init = Psi / Psi.sum(axis=2, keepdims=True)
    p, nu_c, nu_e, conv, tau, _ = marginal_sweep(
        logT, logp0, logPsi, init, xi=0.0, max_cycles=60, accelerated=accelerated)
    start = np.argmax(Psi, axis=2)
    k, mu_c, mu_e, mconv, mtau, _ = point_mass_sweep(
        logT, logp0, logPsi, start, max_cycles=60, accelerated=accelerated)
    for b in range(B):
        one = marginal_sweep(logT, logp0, logPsi[b:b + 1], init[b:b + 1], xi=0.0,
                             max_cycles=60, accelerated=accelerated)
        assert np.array_equal(one[0][0], p[b])
        assert (one[1][0], one[2][0], one[3][0]) == (nu_c[b], nu_e[b], conv[b])
        assert np.array_equal(one[4][0], tau[b])
        pm = point_mass_sweep(logT, logp0, logPsi[b:b + 1], start[b:b + 1], max_cycles=60,
                              accelerated=accelerated)
        assert np.array_equal(pm[0][0], k[b])
        assert (pm[1][0], pm[2][0], pm[3][0]) == (mu_c[b], mu_e[b], mconv[b])
        assert np.array_equal(pm[4][0], mtau[b])
        assert nu_e[b] <= nu_c[b] and mu_e[b] <= mu_c[b]


def _same_state(got, want):
    assert (got.cycles, got.full) == (want.cycles, want.full)
    assert_same_arrays([got.rows, got.tau, got.nu_c, got.converged, got.updates],
                       [want.rows, want.tau, want.nu_c, want.converged, want.updates])


@SETTINGS
@given(chain_blocks(), st.booleans(), st.sampled_from([0.0, 0.01]),
       st.sampled_from([1, 2, 60]))
def test_sweeps_continued_one_cycle_per_call_give_one_calls_bits(block, accelerated, xi,
                                                                  max_cycles):
    # each call continues the state the last returned for one more
    # cycle, past the cycle where every trial converged if there is one
    T, p0, Psi = block
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    init = Psi / Psi.sum(axis=2, keepdims=True)
    runs = ((functools.partial(marginal_sweep, *logs, xi=xi), init),
            (functools.partial(point_mass_sweep, *logs), np.argmax(Psi, axis=2)))
    for sweep, start in runs:
        want = sweep(start, max_cycles=max_cycles, accelerated=accelerated)
        got = sweep(start, max_cycles=1, accelerated=accelerated)
        for cycles in range(2, max_cycles + 1):
            got = sweep(got[-1], max_cycles=cycles, accelerated=accelerated)
        assert_same_arrays(got[:5], want[:5])
        _same_state(got[-1], want[-1])


@SETTINGS
@given(chain_blocks(), st.booleans(), st.sampled_from([0.0, 0.01]),
       st.sampled_from([1, 2, 60]))
def test_ivb_kld_trace_matches_the_stepwise_schedule(block, accelerated, xi, max_cycles):
    # one divergence per cycle, for converged runs and those cut at
    # max_cycles, the last of them that of the returned pmfs
    T, p0, Psi = block
    model = HmcModel(T, p0, Psi[0])
    try:
        alpha = batch_forward(T, p0, Psi[:1])
    except DegenerateObservation:
        assume(False)
    init = Psi[0] / Psi[0].sum(axis=1, keepdims=True)
    res = ivb_run(model, init, StoppingConfig(xi, max_cycles, accelerated), track_kld=True)
    want = stepwise_marginal_sweep(safe_log(T), safe_log(p0), safe_log(Psi[:1]), init[None],
                                   xi, max_cycles, accelerated, kld_rows=(T, alpha))
    assert len(res.kld_trace) == res.nu_c == want[1][0]
    assert np.array(res.kld_trace).tobytes() == np.array(want[5][0]).tobytes()
    assert res.p.tobytes() == want[0][0].tobytes()
    last = batch_kld(T, alpha, res.p[None])[0]
    assert np.array_equal(res.kld_trace[-1], last, equal_nan=True)


@SETTINGS
@given(chain_blocks())
def test_accelerated_sweeps_reach_the_plain_fixed_point(block):
    # the lemma of the skipping schedule: at xi=0 it stops at the plain
    # sweep's fixed point after as many cycles, with at most its updates
    T, p0, Psi = block
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    init = Psi / Psi.sum(axis=2, keepdims=True)
    plain, accel = (marginal_sweep(*logs, init, xi=0.0, max_cycles=60, accelerated=a)
                    for a in (False, True))
    assert plain[0].tobytes() == accel[0].tobytes()
    assert np.array_equal(plain[1], accel[1]) and np.array_equal(plain[3], accel[3])
    assert np.all(accel[2] <= plain[2])
    start = np.argmax(Psi, axis=2)
    plain, accel = (point_mass_sweep(*logs, start, max_cycles=60, accelerated=a)
                    for a in (False, True))
    assert np.array_equal(plain[0], accel[0])
    assert np.array_equal(plain[1], accel[1]) and np.array_equal(plain[3], accel[3])
    assert np.all(accel[2] <= plain[2])


@SETTINGS
@given(chain_blocks(), st.sampled_from([1, 2, 60]))
def test_plain_sweep_tau_flags_the_steps_still_due(block, max_cycles):
    # none for a converged trial, every step for one cut at max_cycles
    T, p0, Psi = block
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    init = Psi / Psi.sum(axis=2, keepdims=True)
    runs = (marginal_sweep(*logs, init, xi=0.0, max_cycles=max_cycles)[1:5],
            point_mass_sweep(*logs, np.argmax(Psi, axis=2), max_cycles=max_cycles)[1:5])
    for nu_c, _, converged, tau in runs:
        assert not tau[converged].any()
        assert tau[~converged].all()
        assert np.all(nu_c[~converged] == max_cycles)
