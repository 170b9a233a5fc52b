"""Split-recursion reduction vs naive evaluation, operator counts, duals."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_factor_model, random_hmc
from trellis.batch import forward_backward
from trellis.factors import Factor, FactorModel, VariableSpace
from trellis.gdl import (
    NofViolation,
    OpCounter,
    count_operators,
    default_split,
    dual_entropy,
    fb_reduce_sequential,
    fb_reduce_single,
    gdl_applies,
    naive_reduce,
)
from trellis.semiring import ALL_SEMIRINGS, semiring


def _random_subset(rng, universe):
    return frozenset(v for v in universe if rng.random() < 0.5)


@pytest.mark.parametrize("name", sorted(ALL_SEMIRINGS))
def test_fb_matches_naive(name):
    sr = semiring(name)
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    for trial in range(40):
        model = random_factor_model(rng, sr)
        S = model.universe if trial % 5 == 0 else _random_subset(rng, model.universe)
        nv = naive_reduce(model, sr, S)
        fb = fb_reduce_single(model, sr, S)
        assert fb.vars == nv.vars
        assert_allclose(fb.table, nv.table, rtol=1e-12, atol=1e-12)


def test_split_choice_is_free():
    sr = semiring("sum-product")
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_factor_model(rng, sr, m_max=5, n_max=5)
        if model.n < 2:
            continue
        S = _random_subset(rng, model.universe)
        ref = fb_reduce_single(model, sr, S, i=1)
        for i in range(2, model.n):
            res = fb_reduce_single(model, sr, S, i=i)
            assert_allclose(res.table, ref.table, rtol=1e-12, atol=1e-12)


def test_empty_set_gives_full_product():
    sr = semiring("sum-product")
    rng = np.random.default_rng(9)
    model = random_factor_model(rng, sr, m_max=4, n_max=4)
    res = fb_reduce_single(model, sr, frozenset())
    m, M = model.space.m, model.space.M
    full = np.empty((M,) * m)
    for flat in range(M ** m):
        assign = np.unravel_index(flat, (M,) * m)
        val = 1.0
        for g in model.factors:
            val *= g.table[tuple(assign[v - 1] for v in g.vars)]
        full[assign] = val
    assert_allclose(res.table, full, rtol=1e-12)


def test_single_factor_model():
    sr = semiring("sum-product")
    t = np.random.default_rng(3).random((2, 2, 2))
    model = FactorModel(VariableSpace(3, 2), [Factor([1, 2, 3], t, 2)])
    res = fb_reduce_single(model, sr, {1, 3})
    assert res.vars == (2,)
    assert_allclose(res.table, t.sum(axis=(0, 2)), rtol=1e-13)


def test_scalar_total_reduction():
    sr = semiring("sum-product")
    rng = np.random.default_rng(21)
    model = random_factor_model(rng, sr, m_max=4, n_max=4)
    res = fb_reduce_single(model, sr, model.universe)
    nv = naive_reduce(model, sr, model.universe)
    assert res.vars == ()
    assert_allclose(float(res.table), float(nv.table), rtol=1e-12)


def test_invalid_arguments():
    sr = semiring("sum-product")
    rng = np.random.default_rng(2)
    model = random_factor_model(rng, sr, m_max=3, n_max=3)
    with pytest.raises(ValueError):
        fb_reduce_single(model, sr, {model.space.m + 1})
    with pytest.raises(ValueError):
        naive_reduce(model, sr, {model.space.m + 1})
    if model.n >= 2:
        with pytest.raises(ValueError):
            fb_reduce_single(model, sr, frozenset(), i=model.n)


def test_naive_guard():
    sr = semiring("sum-product")
    m = 24
    factors = [Factor([v], np.ones(2), 2) for v in range(1, m + 1)]
    model = FactorModel(VariableSpace(m, 2), factors)
    with pytest.raises(ValueError):
        naive_reduce(model, sr, model.universe)


def test_fb_count_beats_naive_when_a_step_applies():
    sr = semiring("sum-product")
    rng = np.random.default_rng(13)
    applied = 0
    for _ in range(60):
        model = random_factor_model(rng, sr)
        S = _random_subset(rng, model.universe)
        i = default_split(model.n)
        fb = count_operators(model, S, mode="fb")
        nv = count_operators(model, S, mode="naive")
        if gdl_applies(model, S, i):
            applied += 1
            assert fb["total"] < nv["total"]
    assert applied > 10


def test_naive_count_bounds():
    sr = semiring("sum-product")
    rng = np.random.default_rng(29)
    for _ in range(20):
        model = random_factor_model(rng, sr)
        m, M = model.space.m, model.space.M
        nv = count_operators(model, model.universe, mode="naive")
        assert nv["lower"] == M ** m
        assert nv["upper"] == model.n * M ** m
        assert nv["total"] <= nv["upper"]
        if model.n >= 2:
            assert nv["lower"] <= nv["total"]


def test_phi_accounts_for_every_combine():
    # every forward/backward work domain contributes one combine except the
    # two sweep seeds, so the product tally is phi minus those two terms
    sr = semiring("sum-product")
    rng = np.random.default_rng(31)
    for _ in range(20):
        model = random_factor_model(rng, sr)
        if model.n < 2:
            continue
        S = _random_subset(rng, model.universe)
        i = default_split(model.n)
        fb = count_operators(model, S, i=i, mode="fb")
        M = model.space.M
        seeds = M ** len(model.omega(1)) + M ** len(model.omega(model.n))
        assert fb["ring_product"] == fb["phi"] - seeds
        assert fb["ring_sum"] < fb["phi"]


def test_sequential_matches_per_variable_marginals():
    sr = semiring("sum-product")
    rng = np.random.default_rng(41)
    for _ in range(15):
        model = random_factor_model(rng, sr, m_max=5, n_max=5)
        objectives = [{v} for v in sorted(model.universe)]
        try:
            results = fb_reduce_sequential(model, sr, objectives)
        except NofViolation:
            continue
        for v, res in zip(sorted(model.universe), results):
            ref = naive_reduce(model, sr, model.universe - {v})
            assert res.vars == (v,)
            assert_allclose(res.table, ref.table, rtol=1e-12)


def test_sequential_tally_skips_unread_eliminations():
    # each sweep's last elimination fed nothing: 24 of 632 operations here
    n, M = 8, 4
    rng = np.random.default_rng(8)
    chain = FactorModel(VariableSpace(n, M), [Factor([1], rng.random(M), M)] + [
        Factor([i, i + 1], rng.random((M, M)), M) for i in range(1, n)])
    c = OpCounter()
    fb_reduce_sequential(chain, semiring("sum-product"), [{i} for i in range(1, n + 1)],
                         counter=c)
    assert (c.ring_sum, c.ring_product, c.total) == (300, 308, 608)


@pytest.mark.parametrize("name", ["sum-product", "max-product"])
def test_chain_kernel_matches_split_reduction(name):
    # the same ring through both engines: batch.forward_backward's rows
    # are the normalized single-variable reductions of the chain's factors
    sr = semiring(name)
    rng = np.random.default_rng(17)
    for trial in range(100):
        hm = random_hmc(rng, n=1 if trial < 10 else None)
        n, M = hm.n, hm.M
        chain = FactorModel(VariableSpace(n, M), [Factor([1], hm.p * hm.Psi[0], M)] + [
            Factor([i, i + 1], hm.T.T * hm.Psi[i], M) for i in range(1, n)])
        gamma = forward_backward(hm.T, hm.p, hm.Psi[None], sr=sr)[2][0]
        marginals = fb_reduce_sequential(chain, sr, [{i} for i in range(1, n + 1)])
        for i, f in enumerate(marginals):
            assert f.vars == (i + 1,)
            assert_allclose(f.table / f.table.sum(), gamma[i], rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["max-sum", "dual"])
def test_chain_kernel_rejects_non_product_rings(name):
    hm = random_hmc(np.random.default_rng(3))
    with pytest.raises(ValueError, match=name):
        forward_backward(hm.T, hm.p, hm.Psi[None], sr=semiring(name))


def test_sequential_rejects_split_objective():
    sr = semiring("sum-product")
    rng = np.random.default_rng(0)
    factors = [Factor([i, i + 1], rng.random((2, 2)), 2) for i in range(1, 5)]
    model = FactorModel(VariableSpace(5, 2), factors)
    with pytest.raises(NofViolation) as exc:
        fb_reduce_sequential(model, sr, [{1, 5}])
    assert exc.value.objective == frozenset({1, 5})
    with pytest.raises(ValueError):
        fb_reduce_sequential(model, sr, [set()])


def _joint_table(model):
    m, M = model.space.m, model.space.M
    full = np.empty((M,) * m)
    for flat in range(M ** m):
        assign = np.unravel_index(flat, (M,) * m)
        val = 1.0
        for g in model.factors:
            val *= g.table[tuple(assign[v - 1] for v in g.vars)]
        full[assign] = val
    return full


def _normalized_chain(rng, m, M):
    factors = [Factor([1], rng.random(M), M)]
    for v in range(2, m + 1):
        factors.append(Factor([v - 1, v], rng.random((M, M)), M))
    # normalize: leading factor to a distribution, links to conditionals
    factors[0].table /= factors[0].table.sum()
    for g in factors[1:]:
        g.table /= g.table.sum(axis=1, keepdims=True)
    return FactorModel(VariableSpace(m, M), factors)


def test_dual_entropy_self_is_negative_entropy():
    rng = np.random.default_rng(51)
    model = _normalized_chain(rng, 4, 3)
    joint = _joint_table(model)
    expect = float(np.sum(joint * np.log(joint)))
    assert_allclose(dual_entropy(model, model), expect, rtol=1e-12)


def test_dual_entropy_cross():
    rng = np.random.default_rng(53)
    f = _normalized_chain(rng, 3, 2)
    q = _normalized_chain(rng, 3, 2)
    expect = float(np.sum(_joint_table(f) * np.log(_joint_table(q))))
    assert_allclose(dual_entropy(f, q), expect, rtol=1e-12)


def test_dual_entropy_uniform_reference():
    rng = np.random.default_rng(57)
    m, M = 3, 2
    t = rng.random((M,) * m)
    t /= t.sum()
    f = FactorModel(VariableSpace(m, M), [Factor([1, 2, 3], t, M)])
    q = FactorModel(VariableSpace(m, M),
                    [Factor([1, 2, 3], np.full((M,) * m, M ** -m), M)])
    assert_allclose(dual_entropy(f, q), -m * np.log(M), rtol=1e-13)


def test_dual_entropy_validation():
    rng = np.random.default_rng(59)
    f = _normalized_chain(rng, 3, 2)
    q = _normalized_chain(rng, 3, 2)
    q.factors[1] = Factor([1, 3], q.factors[1].table, 2)
    with pytest.raises(ValueError):
        dual_entropy(f, q)
    bad = _normalized_chain(rng, 3, 2)
    bad.factors[0].table *= 2.0
    with pytest.raises(ValueError):
        dual_entropy(bad, bad)


def test_dual_entropy_zero_in_reference():
    m, M = 2, 2
    t = np.full((M,) * m, 0.25)
    f = FactorModel(VariableSpace(m, M), [Factor([1, 2], t, M)])
    qt = t.copy()
    qt[0, 0] = 0.0
    q = FactorModel(VariableSpace(m, M), [Factor([1, 2], qt, M)])
    assert dual_entropy(f, q) < -1e8


def test_op_counter_total():
    c = OpCounter()
    c.ring_sum, c.ring_product = 3, 4
    assert c.total == 7
