"""Factor containers and the conditional-independence topology sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import random_factor_model
from trellis.factors import (
    CITopology,
    Factor,
    FactorModel,
    VariableSpace,
    eta_set,
    fa_partition,
    load_model,
    nln_partition,
    save_model,
)
from trellis.semiring import semiring


def _model(omegas, m, M=2, rng=None):
    rng = rng or np.random.default_rng(0)
    factors = [Factor(o, rng.random((M,) * len(o)), M) for o in omegas]
    return FactorModel(VariableSpace(m, M), factors)


# the five-variable, four-factor worked example used throughout
EX5 = [[2, 1], [3, 2], [4, 3], [5, 3, 1]]
CHAIN5 = [[2, 1], [3, 2], [4, 3], [5, 4]]


def test_factor_canonicalizes_axis_order():
    t = np.arange(4.0).reshape(2, 2)
    a = Factor([1, 2], t, 2)
    b = Factor([2, 1], t.T, 2)
    assert a.vars == b.vars == (1, 2)
    assert_allclose(a.table, b.table)


def test_factor_rejects_duplicates():
    with pytest.raises(ValueError):
        Factor([1, 1], np.zeros((2, 2)), 2)


def test_model_requires_coverage():
    with pytest.raises(ValueError):
        _model([[1, 2]], m=3)


def test_nln_worked_example():
    nln = nln_partition(_model(EX5, 5))
    assert nln == [frozenset(), {2}, {4}, {5, 3, 1}]


def test_nln_chain():
    nln = nln_partition(_model(CHAIN5, 5))
    assert nln == [{1}, {2}, {3}, {5, 4}]


def test_fa_worked_example_and_chain():
    assert fa_partition(_model(EX5, 5)) == [{2, 1}, {3}, {4}, {5}]
    assert fa_partition(_model(CHAIN5, 5)) == [{2, 1}, {3}, {4}, {5}]


def test_disjoint_factors_trivial_partitions():
    model = _model([[1, 2], [3], [4, 5]], 5)
    assert nln_partition(model) == [{1, 2}, {3}, {4, 5}]
    assert fa_partition(model) == [{1, 2}, {3}, {4, 5}]


def test_ternary_partition_worked_example():
    # the middle set of the universe's split at factor 3, between {5}
    # (first seen after it) and {4, 2} (no longer needed after it)
    assert eta_set(_model(EX5, 5), 3) == {3, 1}


def test_eta_chain():
    assert eta_set(_model(CHAIN5, 5), 2) == {3}


def test_in_process_sets():
    model = _model(EX5, 5)
    topo = CITopology(model)
    for i in range(1, model.n):
        # A_i covers both adjacent factors by construction
        assert model.omega(i) | model.omega(i + 1) <= topo.in_process(i) | \
            model.omega_range(1, i)
    with pytest.raises(ValueError):
        topo.in_process(model.n)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_partitions_are_partitions(seed):
    rng = np.random.default_rng(seed)
    model = random_factor_model(rng, semiring("sum-product"), m_max=8, n_max=8)
    for sets in (nln_partition(model), fa_partition(model)):
        union = set()
        total = 0
        for s in sets:
            total += len(s)
            union |= s
        assert union == set(model.universe)
        assert total == len(model.universe)  # disjointness


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    model = _model(EX5, 5, M=3, rng=rng)
    path = tmp_path / "ex5.model"
    save_model(model, path)
    back = load_model(path)
    assert back.space.m == 5 and back.space.M == 3 and back.n == 4
    for g, h in zip(model.factors, back.factors):
        assert g.vars == h.vars
        assert_allclose(g.table, h.table, rtol=0, atol=0)


def test_load_truncated_file(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("2 2 1\n2 1 2 0.5\n")
    with pytest.raises(ValueError):
        load_model(path)
