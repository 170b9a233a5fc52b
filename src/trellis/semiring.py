"""Commutative pre-semirings shared by the chain kernel and the reduction engine.

Each instance is a record of a ring-sum ufunc, whose reduce is the axis
reduction, and a ring-product combine over numpy tables. Identities are
not required; reductions are only ever taken over non-empty axes.
Values are plain floats except for the dual instance, whose tables
carry a trailing axis of length 2 holding (real, dual) parts.
trellis.batch runs its forward-backward pass over these same instances.

The four instances are module constants, so their laws are fixed:
check_laws spot-checks them in the tests and the CLI selftest, and
semiring(name) is a plain registry lookup.
"""

from collections import namedtuple

import numpy as np


class Semiring(namedtuple("Semiring", "name sum combine low high tail_dims")):
    """A (ring-sum ufunc, ring-product) pair acting on numpy tables.

    sample draws test values uniformly from [low, high); tail_dims is
    the number of trailing non-variable axes in a value table (1 for
    the dual instance, else 0).
    """

    __slots__ = ()

    def reduce_axis(self, table, axis):
        return self.sum.reduce(table, axis)

    def sample(self, rng, shape):
        return rng.uniform(self.low, self.high, tuple(shape) + (2,) * self.tail_dims)


def _dual_combine(x, y):
    out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    out[..., 0] = x[..., 0] * y[..., 0]
    out[..., 1] = x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0]
    return out


# The chain kernel's default; semiring("sum-product") returns this same object.
SUM_PRODUCT = Semiring("sum-product", np.add, np.multiply, 0.1, 2.0, 0)

_RINGS = {sr.name: sr for sr in (
    SUM_PRODUCT,
    Semiring("max-product", np.maximum, np.multiply, 0.1, 2.0, 0),
    Semiring("max-sum", np.maximum, np.add, -3.0, 3.0, 0),
    Semiring("dual", np.add, _dual_combine, -2.0, 2.0, 1),
)}


def check_laws(sr, rng=None, triples=100, rtol=1e-9):
    """Spot-check commutativity, associativity and distributivity.

    The laws are contracts over the whole domain; this samples them on
    random triples rather than proving them.
    """
    rng = rng or np.random.default_rng(0)
    for _ in range(triples):
        a, b, c = (sr.sample(rng, ()) for _ in range(3))
        a, b, c = (np.asarray(v) for v in (a, b, c))
        pairs = [
            (sr.combine(a, b), sr.combine(b, a)),
            (sr.combine(sr.combine(a, b), c), sr.combine(a, sr.combine(b, c))),
        ]
        # ring-sum on scalars via stacked reduction
        def rsum(x, y):
            return sr.reduce_axis(np.stack([x, y]), 0)

        pairs.append((rsum(a, b), rsum(b, a)))
        pairs.append((rsum(rsum(a, b), c), rsum(a, rsum(b, c))))
        pairs.append(
            (sr.combine(a, rsum(b, c)), rsum(sr.combine(a, b), sr.combine(a, c)))
        )
        for lhs, rhs in pairs:
            if not np.allclose(lhs, rhs, rtol=rtol, atol=1e-12):
                raise AssertionError(
                    "semiring %s law violation: %r vs %r" % (sr.name, lhs, rhs)
                )
    return True


ALL_SEMIRINGS = tuple(_RINGS)


def semiring(name):
    """Return the named instance; KeyError for an unknown name."""
    if name not in _RINGS:
        raise KeyError("unknown semiring %r" % name)
    return _RINGS[name]
