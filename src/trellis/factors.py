"""Factored models over discrete variables and their index-set topology.

A model is an ordered list of factors g_1..g_n, each a dense table over
a subset of the universe of variable indices 1..m (all variables share
one alphabet size M). The no-longer-needed / first-appearance partitions
of the universe drive the forward-backward reduction in gdl.py.
"""

import numpy as np


class VariableSpace:
    """m variables, indices 1..m, each over an alphabet of size M."""

    def __init__(self, m, alphabet_size):
        if m < 1 or alphabet_size < 1:
            raise ValueError("need m >= 1 and M >= 1")
        self.m = int(m)
        self.M = int(alphabet_size)

    def __repr__(self):
        return "VariableSpace(m=%d, M=%d)" % (self.m, self.M)


class Factor:
    """Dense table over an index set; axes follow ascending variable order.

    The constructor accepts the index set in any order with the table
    axes matching the given order; storage is canonicalized so tests and
    the reduction engine can rely on a single mixed-radix layout.
    """

    def __init__(self, index_set, table, M, tail_dims=0):
        # empty index sets are allowed on reduction results, not in models
        idx = [int(v) for v in index_set]
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate variable index in factor")
        table = np.asarray(table, dtype=float)
        expect = (M,) * len(idx) + (2,) * tail_dims
        if table.shape != expect:
            table = table.reshape(expect)
        order = np.argsort(idx)
        self.vars = tuple(idx[k] for k in order)
        perm = tuple(order) + tuple(len(idx) + k for k in range(tail_dims))
        # ascontiguousarray promotes 0-d to (1,); pin the canonical shape
        self.table = np.ascontiguousarray(np.transpose(table, perm)).reshape(expect)
        self.M = int(M)
        self.tail_dims = tail_dims

    @property
    def index_set(self):
        return frozenset(self.vars)

    def __repr__(self):
        return "Factor(vars=%s)" % (self.vars,)


class FactorModel:
    """Ordered factors g_1..g_n whose index sets cover the universe 1..m."""

    def __init__(self, space, factors):
        self.space = space
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("need at least one factor")
        union = set()
        for g in self.factors:
            if g.M != space.M:
                raise ValueError("factor alphabet mismatch")
            if not g.vars:
                raise ValueError("model factors need a non-empty index set")
            # compared without a set of 1..m, which a huge m cannot build
            if not all(1 <= v <= space.m for v in g.vars):
                raise ValueError("factor indexes a variable outside 1..m")
            union |= g.index_set
        if len(union) != space.m:
            raise ValueError("every variable must appear in at least one factor")
        self.universe = frozenset(union)

    @property
    def n(self):
        return len(self.factors)

    def omega(self, i):
        """Index set of factor i (1-based)."""
        return self.factors[i - 1].index_set

    def omega_range(self, lo, hi):
        """Union of index sets of factors lo..hi inclusive; empty if lo > hi."""
        out = set()
        for i in range(lo, hi + 1):
            if 1 <= i <= self.n:
                out |= self.omega(i)
        return frozenset(out)


def nln_partition(model):
    """[i] = omega_{i:n} minus omega_{i+1:n}; disjoint, union is the universe."""
    n = model.n
    out = []
    later = frozenset()
    for i in range(n, 0, -1):
        out.append(model.omega(i) - later)
        later = later | model.omega(i)
    out.reverse()
    return out


def fa_partition(model):
    """(i) = omega_{1:i} minus omega_{1:i-1}; disjoint, union is the universe."""
    out = []
    seen = frozenset()
    for i in range(1, model.n + 1):
        out.append(model.omega(i) - seen)
        seen = seen | model.omega(i)
    return out


def eta_set(model, i):
    """Common indices still in process after factor i."""
    return model.omega_range(i + 1, model.n) & model.omega_range(1, i)


class CITopology:
    """NLN/FA partitions plus the per-split common and in-process sets."""

    def __init__(self, model):
        self.model = model
        self.nln = nln_partition(model)
        self.fa = fa_partition(model)
        self.eta = [eta_set(model, i) for i in range(1, model.n + 1)]

    def in_process(self, i):
        """A_i: indices live while combining the split at i (1 <= i <= n-1)."""
        n = self.model.n
        if not 1 <= i <= n - 1:
            raise ValueError("in-process set needs 1 <= i <= n-1")
        return self.fa[i] | self.eta[i - 1] | self.nln[i - 1]


def save_model(model, path):
    """Line format: header `m M n`, then `|omega| idx... v1 v2 ...` per factor."""
    with open(path, "w") as fh:
        fh.write("%d %d %d\n" % (model.space.m, model.space.M, model.n))
        for g in model.factors:
            vals = " ".join(repr(float(v)) for v in g.table.ravel())
            fh.write("%d %s %s\n" % (len(g.vars), " ".join(map(str, g.vars)), vals))


def load_model(path):
    with open(path) as fh:
        tokens = fh.read().split()
    it = iter(tokens)
    try:
        m, M, n = int(next(it)), int(next(it)), int(next(it))
        space = VariableSpace(m, M)
        factors = []
        for _ in range(n):
            k = int(next(it))
            if k < 1:
                raise ValueError("factor %d has %d variables; need at least one"
                                 % (len(factors) + 1, k))
            idx = [int(next(it)) for _ in range(k)]
            vals = np.array([float(next(it)) for _ in range(M ** k)])
            factors.append(Factor(idx, vals.reshape((M,) * k), M))
    except StopIteration:
        raise ValueError("truncated model file")
    return FactorModel(space, factors)
