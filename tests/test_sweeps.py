"""The mean-field sweeps against the stepwise schedule they replace.

batch._sweep forms the moves of a run of steps at once, against the
rows as the move test last saw them; conftest.stepwise_sweep tests
every site update as it runs. Both must give the same bits: pmfs or
labels, cycle and update counts, convergence flags, tau and the
divergence trace. Blocks cover one trial, trials that converge in
different cycles (masked steps) and one trial that runs on after all
the others (one-row steps).
"""

import itertools

import numpy as np
import pytest

from conftest import assert_same_arrays, stepwise_marginal_sweep, stepwise_point_mass_sweep
from trellis import batch
from trellis.batch import batch_forward, marginal_sweep, point_mass_sweep
from trellis.numerics import safe_log


def _block(seed, B, n, M):
    """T, p0 and Psi of a block, with zeros in T and trials whose
    likelihoods are drawn at different sharpness."""
    rng = np.random.default_rng(seed)
    T = rng.random((M, M)) ** 3 * (rng.random((M, M)) < 0.8) + np.eye(M)
    T /= T.sum(axis=0)
    p0 = rng.random(M) * (rng.random(M) < 0.8) + 1e-3
    p0 /= p0.sum()
    sharp = rng.choice([0.3, 1.0, 3.0, 10.0], size=(B, 1, 1))
    return T, p0, rng.random((B, n, M)) ** sharp + 1e-3


def _starts(logs, Psi, settled):
    """Start pmfs and labels, and the mask of the settled trials: those
    start at their fixed point, found by a plain exact sweep, and stop
    after one cycle; the others start from their normalized likelihoods.
    settled is "none", "odd" (the odd trials) or "all but 0"."""
    B = Psi.shape[0]
    settled = {"none": np.zeros(B, dtype=bool), "odd": np.arange(B) % 2 == 1,
               "all but 0": np.arange(B) > 0}[settled]
    init = Psi / Psi.sum(axis=2, keepdims=True)
    start = np.argmax(Psi, axis=2)
    init[settled] = marginal_sweep(*logs, init, xi=0.0, max_cycles=1000)[0][settled]
    start[settled] = point_mass_sweep(*logs, start, max_cycles=1000)[0][settled]
    return init, start, settled


# (B, n, M, settled): every B in {1, 2, 3, 7, 40}, n in {1, 2, 3, 64, 65}
# and M in {2, 3, 4, 16} at least once. "none" starts every trial afresh;
# "odd" settles the odd trials, so the block converges in different
# cycles and runs masked steps; "all but 0" leaves trial 0 to run on
# alone in one-row steps.
BLOCKS = [(1, 1, 2, "none"), (1, 64, 3, "none"), (1, 65, 16, "none"),
          (2, 2, 4, "odd"), (2, 65, 2, "all but 0"), (3, 3, 3, "odd"),
          (3, 64, 16, "all but 0"), (7, 1, 16, "odd"), (7, 64, 4, "none"),
          (7, 65, 3, "all but 0"), (40, 2, 3, "all but 0"), (40, 3, 2, "none"),
          (40, 65, 4, "odd")]


@pytest.mark.parametrize("B,n,M,settled", BLOCKS)
def test_sweeps_match_the_stepwise_schedule(B, n, M, settled):
    T, p0, Psi = _block(1000 * B + 10 * n + M, B, n, M)
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    alpha = batch_forward(T, p0, Psi)
    init, start, mask = _starts(logs, Psi, settled)
    for xi, max_cycles, accelerated in itertools.product((0.0, 0.01, 0.3), (1, 2, 100),
                                                         (False, True)):
        args = xi, max_cycles, accelerated, (T, alpha)
        got = marginal_sweep(*logs, init, *args)
        want = stepwise_marginal_sweep(*logs, init, *args)
        assert_same_arrays(got[:5], want[:5])
        assert got[5] == want[5]
        if xi == 0.0:
            pm = point_mass_sweep(*logs, start, max_cycles, accelerated)
            want = stepwise_point_mass_sweep(*logs, start, max_cycles, accelerated)
            assert_same_arrays(pm, want)
        if xi == 0.0 and max_cycles == 100 and mask.any():
            # the settled trials stop after one cycle, and the others
            # run on after them
            for nu_c in (got[1], pm[1]):
                assert np.all(nu_c[mask] == 1) and np.all(nu_c[~mask] > 1)


@pytest.mark.parametrize("items", [1, 7, 100])
@pytest.mark.parametrize("B,n,M,settled", [(1, 65, 3, "none"), (3, 64, 4, "all but 0"),
                                           (7, 65, 2, "odd")])
def test_sweeps_match_the_stepwise_schedule_across_blocks(monkeypatch, items, B, n, M, settled):
    # moves are tested a block of steps at a time; small blocks put
    # block ends inside runs of due steps, and at one item every step
    # is a block of its own
    monkeypatch.setattr(batch, "_MOVE_ITEMS", items)
    T, p0, Psi = _block(B + n + M, B, n, M)
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    init, start, _ = _starts(logs, Psi, settled)
    for xi, accelerated in itertools.product((0.0, 0.01), (False, True)):
        assert_same_arrays(marginal_sweep(*logs, init, xi, 100, accelerated)[:5],
                           stepwise_marginal_sweep(*logs, init, xi, 100, accelerated)[:5])
        assert_same_arrays(point_mass_sweep(*logs, start, 100, accelerated),
                           stepwise_point_mass_sweep(*logs, start, 100, accelerated))


def test_point_mass_sweep_rejects_labels_out_of_range():
    T = np.full((4, 4), 0.25)
    logs = safe_log(T), safe_log(np.full(4, 0.25)), np.zeros((1, 6, 4))
    for bad in (4, -1, 5):
        with pytest.raises(ValueError, match=r"init_labels must be B x n states in \[0, M\)"):
            point_mass_sweep(*logs, np.array([[0, 1, bad, 2, 3, 1]]))
    with pytest.raises(ValueError, match="B x n"):
        point_mass_sweep(*logs, np.zeros((1, 5), dtype=int))


@pytest.mark.parametrize("accelerated", [False, True])
@pytest.mark.parametrize("xi", [0.0, 0.01])
def test_sweeps_leave_read_only_inputs_unchanged(xi, accelerated):
    T, p0, Psi = _block(7, 3, 20, 3)
    logs = [safe_log(T), safe_log(p0), safe_log(Psi)]
    inputs = logs + list(_starts(logs, Psi, "all but 0")[:2])
    kept = [a.copy() for a in inputs]
    for a in inputs:
        a.flags.writeable = False
    logT, logp0, logPsi, init, start = inputs
    p = marginal_sweep(logT, logp0, logPsi, init, xi=xi, accelerated=accelerated)[0]
    k = point_mass_sweep(logT, logp0, logPsi, start, accelerated=accelerated)[0]
    assert_same_arrays(inputs, kept)
    # a broadcast start, as the experiments pass the uniform one
    flat = np.broadcast_to(1.0 / 3, logPsi.shape)
    full = np.full(logPsi.shape, 1.0 / 3)
    assert_same_arrays(*(marginal_sweep(logT, logp0, logPsi, s, xi=xi, accelerated=accelerated)[:5]
                         for s in (flat, full)))
    assert p.flags.writeable and k.flags.writeable


def _fork_end(fork, max_cycles):
    """Where the shared cycles stopped."""
    if fork.converged.all():
        return "every trial converged"
    if fork.cycles == max_cycles:
        return "max_cycles"
    return "after cycle 1" if fork.cycles == 1 else "after a later cycle"


def _forks(B, n, M, settled):
    """The block's logs and starts, and its shared cycles' forks at each
    (xi, max_cycles): marginal, and point-mass (None but at xi=0)."""
    T, p0, Psi = _block(1000 * B + 10 * n + M, B, n, M)
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    init, start, _ = _starts(logs, Psi, settled)
    for xi, max_cycles in itertools.product((0.0, 0.01, 0.3), (1, 2, 3, 100)):
        fork = marginal_sweep(*logs, init, xi, max_cycles, accelerated=None)
        pm_fork = point_mass_sweep(*logs, start, max_cycles, None) if xi == 0.0 else None
        yield logs, init, start, xi, max_cycles, fork, pm_fork


@pytest.mark.parametrize("B,n,M,settled", BLOCKS)
def test_shared_cycles_then_either_schedule_match_the_stepwise_schedule(B, n, M, settled):
    # the fork is continued once from a copy, then in place, as a chunk
    # running both schedules continues it
    for logs, init, start, xi, max_cycles, fork, pm_fork in _forks(B, n, M, settled):
        for accelerated in (False, True):
            want = stepwise_marginal_sweep(*logs, init, xi, max_cycles, accelerated)
            got = marginal_sweep(*logs, fork.copy() if not accelerated else fork, xi,
                                 max_cycles, accelerated)
            assert_same_arrays(got[:5], want[:5])
            if pm_fork is not None:
                want = stepwise_point_mass_sweep(*logs, start, max_cycles, accelerated)
                got = point_mass_sweep(*logs, pm_fork.copy() if not accelerated else pm_fork,
                                       max_cycles, accelerated)
                assert_same_arrays(got, want)


def test_shared_cycles_end_in_every_way_on_the_grid():
    # the blocks above fork after cycle 1 and after a later cycle, stop
    # at max_cycles and run whole schedules in the shared cycles
    ends = set()
    for block in BLOCKS:
        for _, _, _, _, max_cycles, fork, pm_fork in _forks(*block):
            ends.update(_fork_end(f, max_cycles) for f in (fork, pm_fork) if f is not None)
    assert ends == {"after cycle 1", "after a later cycle", "max_cycles",
                    "every trial converged"}


def test_shared_cycles_are_those_where_every_live_step_is_due():
    # at the fork some unconverged trial has a step the accelerated
    # schedule leaves asleep; before it, none had
    T, p0, Psi = _block(5, 7, 64, 4)
    logs = safe_log(T), safe_log(p0), safe_log(Psi)
    init = np.full(Psi.shape, 0.25)
    fork = marginal_sweep(*logs, init, 0.01, 100, accelerated=None)
    assert 1 < fork.cycles < 100 and not fork.converged.all()
    assert not (fork.tau[1:-1] | fork.converged).all()
    earlier = marginal_sweep(*logs, init, 0.01, fork.cycles - 1, accelerated=None)
    assert earlier.cycles == fork.cycles - 1
    assert (earlier.tau[1:-1] | earlier.converged).all()
