"""Order-2 truncated Taylor scalars in nilpotent variables (forward-mode jets).

A JetScalar in k variables t_1..t_k, subject to t_i^3 == 0, is one dense
coefficient array `c` of shape (3,)*k + value_shape: `c[i_1, ..., i_k]` is
the coefficient of t_1^i_1 ... t_k^i_k, and every coefficient is an array
of the value shape (Bettencourt, Johnson & Duvenaud 2019, "Taylor-mode
automatic differentiation for higher-order derivatives in JAX").  Plugging
such jets through an evaluation gives the exact first and second
directional derivatives of the composition: pushing one-parameter
subgroups through matrix expressions needs nothing beyond ring operations,
which truncate exactly (there is no series-truncation error anywhere on
this path).

The product is the truncated Cauchy product: one broadcast multiply per
pair of degrees whose sum survives truncation (6 pairs for k = 1, 36 for
k = 2).  With a contraction of the matrix axes in place of the multiply
the same routine is a bilinear pairing of two jet matrices (the Frobenius
pairing of `matrices.py`).  A jet's value may end in matrix axes: `@` with
a plain array, on either side, is one matmul over the stacked
coefficients.  The operations are those the evaluation of phi and the
Horner pass of `formal.evaluate_formal` need: `+`, `*` and `@` with a
plain array; a function of a jet, such as phi^a (log phi)^b, is composed
there as a univariate Taylor series.  Value axes broadcast as numpy arrays
do, aligned on the right, which is how whole batches of derivative
directions are carried through a single evaluation.

Nothing here fixes a dtype: the coefficients keep the precision they come
in (complex128, or clongdouble for extended-precision checks).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

_NUMERIC = (int, float, complex, np.integer, np.floating, np.complexfloating)


@lru_cache(maxsize=None)
def _degree_pairs(k: int) -> Tuple[tuple, ...]:
    """(degrees of a, degrees of b, degrees of a*b) for every pair of monomials
    whose product survives truncation (no degree above 2), a-major then b, so
    a product accumulates its terms in the same order on every call."""
    keys = list(np.ndindex(*(3,) * k))
    return tuple(
        (ka, kb, tuple(a + b for a, b in zip(ka, kb)))
        for ka in keys
        for kb in keys
        if all(a + b <= 2 for a, b in zip(ka, kb))
    )


def _cauchy(a: np.ndarray, b: np.ndarray, k: int, op: Callable) -> np.ndarray:
    """The coefficients of the truncated product of two jets in k variables,
    with op (np.multiply, or a contraction such as a Frobenius pairing)
    combining two coefficients."""
    out = None
    for da, db, d in _degree_pairs(k):
        term = op(a[da], b[db])
        if out is None:
            out = np.zeros((3,) * k + term.shape, dtype=term.dtype)
        out[d] += term
    return out


def _lift(c: np.ndarray, k: int, ndim: int) -> np.ndarray:
    """c with singleton axes after its k degree axes, so that its value has
    at least ndim axes and lines up with a value of ndim axes."""
    missing = ndim - (c.ndim - k)
    return c.reshape(c.shape[:k] + (1,) * missing + c.shape[k:]) if missing > 0 else c


class JetScalar:
    """Truncated Taylor scalar: one coefficient array of shape (3,)*k + value shape."""

    __slots__ = ("k", "c")

    # numpy defers arithmetic with a jet to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, k: int, c):
        c = np.asarray(c)
        if c.shape[:k] != (3,) * k:
            raise ValueError(f"a jet in {k} variables needs {k} leading axes of size 3, got shape {c.shape}")
        self.k = k
        self.c = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, k: int = 1) -> "JetScalar":
        value = np.asarray(value)
        c = np.zeros((3,) * k + value.shape, dtype=value.dtype)
        c[(0,) * k] = value
        return JetScalar(k, c)

    @property
    def value(self):
        return self.c[(0,) * self.k]

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, JetScalar):
            if other.k != self.k:
                raise ValueError(f"jet variable counts differ: {self.k} vs {other.k}")
            return other
        if isinstance(other, (np.ndarray, *_NUMERIC)):
            return JetScalar.constant(other, self.k)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ndim = max(self.c.ndim, o.c.ndim) - self.k
        return JetScalar(self.k, _lift(self.c, self.k, ndim) + _lift(o.c, self.k, ndim))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (np.ndarray, *_NUMERIC)):
            return JetScalar(self.k, _lift(self.c, self.k, np.ndim(other)) * other)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return JetScalar(self.k, _cauchy(self.c, o.c, self.k, np.multiply))

    __rmul__ = __mul__

    def __matmul__(self, other):
        """A jet whose values end in matrix axes times a plain array, which is
        a constant, multiplied into every coefficient at once."""
        if isinstance(other, np.ndarray):
            return JetScalar(self.k, np.matmul(_lift(self.c, self.k, other.ndim), other))
        return NotImplemented

    def __rmatmul__(self, other):
        if isinstance(other, np.ndarray):
            return JetScalar(self.k, np.matmul(other, _lift(self.c, self.k, other.ndim)))
        return NotImplemented

    def __repr__(self):
        return f"JetScalar(k={self.k}, {self.c!r})"
