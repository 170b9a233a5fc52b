"""Forward-backward reduction of factored models over a pre-semiring.

Evaluates ring-sum reductions of ring-product factor combinations
either naively (full joint table) or through the split recursion driven
by the no-longer-needed / first-appearance partitions, with exact
operator tallies for both routes.
"""

import numpy as np

from .factors import Factor, eta_set, fa_partition, nln_partition, CITopology
from .numerics import safe_log
from .semiring import semiring

NAIVE_GUARD = 10 ** 7


class NofViolation(ValueError):
    """An objective set that fits no in-process tri-partition."""

    def __init__(self, objective):
        self.objective = frozenset(objective)
        super().__init__("objective set %s is not non-overflowed" % sorted(objective))


class OpCounter:
    """Tally of executed binary ring-sum / ring-product operations."""

    def __init__(self):
        self.ring_sum = 0
        self.ring_product = 0

    @property
    def total(self):
        return self.ring_sum + self.ring_product


def _aligned(f, union):
    """View of f.table broadcastable over the ascending union of variables."""
    missing = tuple(k for k, v in enumerate(union) if v not in f.index_set)
    if not missing:
        return f.table
    return np.expand_dims(f.table, axis=missing)


def _combine(sr, f1, f2, counter):
    union = sorted(f1.index_set | f2.index_set)
    out = sr.combine(_aligned(f1, union), _aligned(f2, union))
    if counter is not None:
        counter.ring_product += f1.M ** len(union)
    return Factor(union, out, f1.M, tail_dims=sr.tail_dims)


def _reduce(sr, f, kill, counter):
    kill = set(kill) & f.index_set
    if not kill:
        return f
    table = f.table
    vars_left = list(f.vars)
    M = f.M
    for v in sorted(kill, reverse=True):
        ax = vars_left.index(v)
        table = sr.reduce_axis(table, ax)
        vars_left.pop(ax)
        if counter is not None:
            counter.ring_sum += (M ** len(vars_left)) * (M - 1)
    return Factor(vars_left, table, M, tail_dims=sr.tail_dims)


def _sweep(sr, factors, kills, counter):
    """Fold the factors in order, eliminating kills[k] after taking in factors[k].

    Returns the tables as they stood before each elimination, and the
    last result.
    """
    before = []
    cur = None
    for g, kill in zip(factors, kills):
        u = g if cur is None else _combine(sr, g, cur, counter)
        before.append(u)
        cur = _reduce(sr, u, kill, counter)
    return before, cur


def naive_reduce(model, sr, S, counter=None):
    """Full-joint evaluation: combine everything over the universe, then reduce S."""
    S = frozenset(S)
    if not S <= model.universe:
        raise ValueError("operator set is not a subset of the universe")
    m, M = model.space.m, model.space.M
    if M ** m > NAIVE_GUARD:
        raise ValueError("naive evaluation exceeds the %d-entry guard" % NAIVE_GUARD)
    union = list(range(1, m + 1))
    shape = (M,) * m + (2,) * sr.tail_dims
    cur = Factor(union, np.broadcast_to(_aligned(model.factors[0], union), shape).copy(),
                 M, tail_dims=sr.tail_dims)
    for g in model.factors[1:]:
        cur = Factor(union, sr.combine(cur.table, _aligned(g, union)), M,
                     tail_dims=sr.tail_dims)
        if counter is not None:
            counter.ring_product += M ** m
    return _reduce(sr, cur, S, counter)


def default_split(n):
    """ceil(n/2); the optimal split is an open problem, this is the fixed default."""
    return (n + 1) // 2


def fb_reduce_single(model, sr, S, i=None, counter=None):
    """Reduce over S via the split recursion; result domain is the complement.

    Forward steps eliminate the no-longer-needed part of S, backward
    steps the first-appearance part, and the final combine eliminates
    the common part.
    """
    S = frozenset(S)
    if not S <= model.universe:
        raise ValueError("operator set is not a subset of the universe")
    n = model.n
    if n == 1:
        return _reduce(sr, model.factors[0], S, counter)
    if i is None:
        i = default_split(n)
    if not 1 <= i <= n - 1:
        raise ValueError("split index must satisfy 1 <= i <= n-1")
    nln = nln_partition(model)
    fa = fa_partition(model)
    _, fwd = _sweep(sr, model.factors[:i], [k & S for k in nln[:i]], counter)
    _, bwd = _sweep(sr, model.factors[i:][::-1], [k & S for k in fa[i:][::-1]], counter)
    res = _reduce(sr, _combine(sr, bwd, fwd, counter), eta_set(model, i) & S, counter)
    assert res.index_set == model.universe - S
    return res


def fb_reduce_sequential(model, sr, objectives, counter=None):
    """One forward and one backward sweep, then per-objective extraction.

    Each objective is a set of variables to keep. It must fit inside
    some in-process set A_i; the stored pre-reduction tables for the
    smallest such split are then reduced without re-running the sweeps.
    """
    objs = [frozenset(o) for o in objectives]
    for o in objs:
        if not o:
            raise ValueError("objective sets must be non-empty")
        if not o <= model.universe:
            raise ValueError("objective set outside the universe")
    n = model.n
    if n == 1:
        return [_reduce(sr, model.factors[0], model.universe - o, counter)
                for o in objs]

    topo = CITopology(model)
    nln, fa = topo.nln, topo.fa
    in_proc = [topo.in_process(i) for i in range(1, n)]

    # ubars[k]: factors 1..k+1 folded, before nln[k] is eliminated;
    # vbars[k]: factors n-k..n folded, before fa[n-1-k] is eliminated.
    # Nothing reads a sweep's last result, so its elimination is skipped.
    ubars, _ = _sweep(sr, model.factors[:n - 1], nln[:n - 2] + [frozenset()], counter)
    vbars, _ = _sweep(sr, model.factors[1:][::-1], fa[2:][::-1] + [frozenset()], counter)

    results = []
    for o in objs:
        split = next((i for i in range(1, n) if o <= in_proc[i - 1]), None)
        if split is None:
            raise NofViolation(o)
        left = _reduce(sr, ubars[split - 1], nln[split - 1] - o, counter)
        right = _reduce(sr, vbars[n - 1 - split], fa[split] - o, counter)
        res = _reduce(sr, _combine(sr, right, left, counter),
                      eta_set(model, split) - o, counter)
        assert res.index_set == o
        results.append(res)
    return results


def gdl_applies(model, S, i):
    """True when some reduction executes before the final combine."""
    S = frozenset(S)
    n = model.n
    if n < 2:
        return False
    nln = nln_partition(model)
    fa = fa_partition(model)
    return any(nln[j - 1] & S for j in range(1, i + 1)) or \
        any(fa[j - 1] & S for j in range(i + 1, n + 1))


def phi_closed_form(model, S, i):
    """Per-step working-domain cost M^F_j + M^B_j plus the combine term M^W."""
    S = frozenset(S)
    n, M = model.n, model.space.M
    nln = nln_partition(model)
    fa = fa_partition(model)

    phi = 0
    dom = frozenset()
    for j in range(1, i + 1):
        work = model.omega(j) | dom
        phi += M ** len(work)
        dom = work - (nln[j - 1] & S)
    dom_b = frozenset()
    for j in range(n, i, -1):
        work = model.omega(j) | dom_b
        phi += M ** len(work)
        dom_b = work - (fa[j - 1] & S)
    phi += M ** len(dom | dom_b)
    return phi


def count_operators(model, S, i=None, mode="fb"):
    """Instrumented tallies plus the closed-form / bound bookkeeping."""
    # tallies are value-free, but the instrumented run must parse the
    # model's tables, so honor a trailing dual component pair
    sr = semiring("dual" if model.factors[0].tail_dims else "sum-product")
    c = OpCounter()
    m, M = model.space.m, model.space.M
    if mode == "fb":
        if i is None:
            i = default_split(model.n)
        fb_reduce_single(model, sr, S, i=i, counter=c)
        if model.n == 1:
            phi = M ** len(model.omega(1))
        else:
            phi = phi_closed_form(model, S, i)
        return {"ring_sum": c.ring_sum, "ring_product": c.ring_product,
                "total": c.total, "phi": phi}
    if mode == "naive":
        naive_reduce(model, sr, S, counter=c)
        return {"ring_sum": c.ring_sum, "ring_product": c.ring_product,
                "total": c.total, "lower": M ** m, "upper": model.n * M ** m}
    raise ValueError("mode must be 'fb' or 'naive'")


def dual_entropy(model_f, model_q):
    """E_f log q via one dual-number reduction over the whole universe.

    The factors of f and q must pair up positionally with identical
    index sets. Zeros of q under the support of f contribute the
    log(0) sentinel.
    """
    if model_f.n != model_q.n:
        raise ValueError("factor counts differ")
    for gf, gq in zip(model_f.factors, model_q.factors):
        if gf.vars != gq.vars:
            raise ValueError("paired factors must share an index set")
        if np.any(gf.table < 0):
            raise ValueError("f factors must be non-negative")
    mass = fb_reduce_single(model_f, semiring("sum-product"), model_f.universe)
    if abs(float(mass.table) - 1.0) > 1e-9:
        raise ValueError("f factors do not form a normalized joint")

    duals = []
    for gf, gq in zip(model_f.factors, model_q.factors):
        a = gf.table
        b = a * safe_log(gq.table)
        duals.append(Factor(gf.vars, np.stack([a, b], axis=-1), gf.M, tail_dims=1))
    from .factors import FactorModel

    dual_model = FactorModel(model_f.space, duals)
    res = fb_reduce_single(dual_model, semiring("dual"), dual_model.universe)
    a, b = float(res.table[0]), float(res.table[1])
    return b / a
