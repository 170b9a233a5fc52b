"""Semiring instances: laws, reductions, and the dual-number tables."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import trellis
from trellis.semiring import ALL_SEMIRINGS, Semiring, check_laws, semiring

SRC = os.path.dirname(os.path.dirname(os.path.abspath(trellis.__file__)))

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
positive = st.floats(min_value=0.01, max_value=50, allow_nan=False)


def test_registry_names():
    assert set(ALL_SEMIRINGS) == {"sum-product", "max-product", "max-sum", "dual"}
    for name in ALL_SEMIRINGS:
        assert isinstance(semiring(name), Semiring)
    with pytest.raises(KeyError):
        semiring("tropical")


def test_registry_caches_instances():
    assert semiring("max-sum") is semiring("max-sum")


def test_lookup_runs_no_law_check():
    # a fresh process, so no earlier lookup has run anything yet
    code = ("import importlib\n"
            "m = importlib.import_module('trellis.semiring')\n"
            "def boom(*a, **k): raise AssertionError('law check on lookup')\n"
            "m.check_laws = boom\n"
            "for name in m.ALL_SEMIRINGS: m.semiring(name)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ALL_SEMIRINGS)
def test_laws_hold(name):
    assert check_laws(semiring(name), rng=np.random.default_rng(7), triples=200)


def test_sum_product_reduce():
    sr = semiring("sum-product")
    t = np.arange(6, dtype=float).reshape(2, 3)
    assert_allclose(sr.reduce_axis(t, 0), t.sum(axis=0))
    assert_allclose(sr.combine(t, t), t * t)


def test_max_semirings_reduce():
    t = np.array([[1.0, 5.0], [4.0, 2.0]])
    assert_allclose(semiring("max-product").reduce_axis(t, 1), [5.0, 4.0])
    assert_allclose(semiring("max-sum").combine(t, t), 2 * t)


@given(a=positive, b=positive, c=positive)
def test_max_product_distributivity(a, b, c):
    sr = semiring("max-product")
    lhs = sr.combine(np.asarray(a), sr.reduce_axis(np.array([b, c]), 0))
    rhs = sr.reduce_axis(np.stack([sr.combine(np.asarray(a), np.asarray(b)),
                                   sr.combine(np.asarray(a), np.asarray(c))]), 0)
    assert_allclose(lhs, rhs, rtol=1e-12)


@given(a=finite, b=finite, c=finite)
def test_max_sum_distributivity(a, b, c):
    sr = semiring("max-sum")
    lhs = sr.combine(np.asarray(a), sr.reduce_axis(np.array([b, c]), 0))
    rhs = sr.reduce_axis(np.stack([sr.combine(np.asarray(a), np.asarray(b)),
                                   sr.combine(np.asarray(a), np.asarray(c))]), 0)
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_dual_table_combine_and_reduce():
    sr = semiring("dual")
    x = np.array([[2.0, 6.0], [1.0, 0.0]])   # two dual scalars
    y = np.array([[4.0, 20.0], [3.0, 3.0]])
    out = sr.combine(x, y)
    assert_allclose(out[0], [8.0, 64.0])     # (2 + 6e)(4 + 20e)
    assert_allclose(out[1], [3.0, 3.0])
    assert_allclose(sr.reduce_axis(out, 0), [11.0, 67.0])
