"""Order-2 truncated Taylor scalars in nilpotent variables, collapsed over
their directions (forward-mode jets).

A JetScalar in k variables t_1..t_k (t_v^3 == 0) holds one block `b[d]`,
the coefficient of t_1^d_1 ... t_k^d_k, per degree d in {0, 1, 2}^k.  A
block has one leading axis per variable, then the value axes.  Variable v
stands for a stack of D_v directions (a sweep's chunk, `diffops.py`): its
axis has size D_v where d_v = 1 and size 1 where d_v is 0, the same along
every direction, or 2, summed over them, which is all a Laplacian reads
(Li et al. 2023, "Forward Laplacian"; Dangel et al. 2025, "Collapsing
Taylor mode automatic differentiation").  A jet thus holds prod_v (D_v + 2)
coefficients where a dense one holds prod_v 3 D_v.

The product is the truncated Cauchy product, one broadcast multiply per
pair of degrees that survives truncation (6 pairs for k = 1, 36 for
k = 2); a term of two degree-1 blocks in v is summed over v's axis.  Every
block of a product is thus linear in the dense ones, and ring operations
are exact.  With a contraction of matrix axes in place of the multiply the
same routine is the Frobenius pairing of two jet matrices (`matrices.py`).
A plain array @ a jet moves each block's variable axes into its columns,
so the block takes one product per matrix of its value axes; a jet on the
left of `@` raises TypeError, since phi forms no such product.  Value axes
broadcast as in numpy, aligned on the right; the blocks keep their dtype
(complex128, or clongdouble).  A function of a jet, such as
phi^a (log phi)^b, is composed in `formal.evaluate_formal`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

_NUMERIC = (int, float, complex, np.integer, np.floating, np.complexfloating)


@lru_cache(maxsize=None)
def _degree_pairs(k: int) -> Tuple[tuple, ...]:
    """(degrees of a, of b, of a*b, the variables summed over) for every pair
    of monomials whose product survives truncation, a-major then b."""
    keys = list(np.ndindex(*(3,) * k))
    return tuple(
        (ka, kb, tuple(a + b for a, b in zip(ka, kb)), tuple(v for v in range(k) if ka[v] == kb[v] == 1))
        for ka in keys for kb in keys if all(a + b <= 2 for a, b in zip(ka, kb))
    )


def _direction_sum(v: np.ndarray, axis: int) -> np.ndarray:
    """The sum over a direction axis, kept with size 1, taken as a contiguous
    last axis: numpy sums such an axis pairwise but a leading one term by
    term, so this gives a point of a batch the same bits as the point alone."""
    return np.ascontiguousarray(v.swapaxes(axis, -1)).sum(axis=-1, keepdims=True).swapaxes(axis, -1)


def _lift(c: np.ndarray, k: int, ndim: int) -> np.ndarray:
    """A block with singleton axes after its k variable axes, up to ndim value axes."""
    missing = ndim - (c.ndim - k)
    return c.reshape(c.shape[:k] + (1,) * missing + c.shape[k:]) if missing > 0 else c


def _cauchy(x: "JetScalar", y: "JetScalar", op: Callable) -> "JetScalar":
    """The truncated product of two jets in the same variables, with op
    (np.multiply, or a contraction such as a Frobenius pairing) combining two
    blocks; a product of two degree-1 blocks in v is summed over v's axis."""
    k, ndim = x.k, max(np.ndim(x.value), np.ndim(y.value))
    a, b = ({d: _lift(c, k, ndim) for d, c in j.b.items()} for j in (x, y))
    out = {}
    for da, db, d, summed in _degree_pairs(k):
        term = op(a[da], b[db])
        for v in summed:
            term = _direction_sum(term, v)
        out[d] = out[d] + term if d in out else term
    return JetScalar(k, out)


class JetScalar:
    """Truncated Taylor scalar: one block per degree in {0, 1, 2}^k."""

    __slots__ = ("k", "b")

    # numpy defers arithmetic with a jet to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, k: int, b: dict):
        if len(b) != 3**k:
            raise ValueError(f"a jet in {k} variables needs {3**k} blocks, got {len(b)}")
        self.k, self.b = k, b

    @staticmethod
    def constant(value, k: int = 1) -> "JetScalar":
        value = np.asarray(value)
        base = value.reshape((1,) * k + value.shape)
        zero = np.broadcast_to(value.dtype.type(0), base.shape)
        return JetScalar(k, {d: zero if any(d) else base for d in np.ndindex(*(3,) * k)})

    @property
    def value(self):
        return self.b[(0,) * self.k][(0,) * self.k]

    def map(self, fn: Callable) -> "JetScalar":
        """fn applied to every block: a linear map that acts on the value axes."""
        return JetScalar(self.k, {d: fn(c) for d, c in self.b.items()})

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, JetScalar):
            return NotImplemented
        if other.k != self.k:
            raise ValueError(f"jet variable counts differ: {self.k} vs {other.k}")
        return other

    def __add__(self, other):
        k, base = self.k, (0,) * self.k
        if isinstance(other, (np.ndarray, *_NUMERIC)):  # a constant: only the base block moves
            ndim = max(np.ndim(self.value), np.ndim(other))
            out = {d: _lift(c, k, ndim) for d, c in self.b.items()}
            out[base] = out[base] + other
            return JetScalar(k, out)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ndim = max(np.ndim(self.value), np.ndim(o.value))
        return JetScalar(k, {d: _lift(c, k, ndim) + _lift(o.b[d], k, ndim) for d, c in self.b.items()})

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (np.ndarray, *_NUMERIC)):
            return self.map(lambda c: _lift(c, self.k, np.ndim(other)) * other)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _cauchy(self, o, np.multiply)

    __rmul__ = __mul__

    def __rmatmul__(self, other):
        """A plain array times a jet whose values end in matrix axes, one
        product per matrix of the value axes: each block's variable axes move
        into its columns first, so a chunk's directions share one product."""
        if isinstance(other, np.ndarray):
            return self.map(lambda c: _columns_matmul(other, _lift(c, self.k, other.ndim), self.k))
        return NotImplemented


@lru_cache(maxsize=None)
def _variables_last(k: int, ndim: int) -> Tuple[tuple, tuple]:
    """The axis order that moves k leading variable axes in front of the last
    of ndim axes, and its inverse."""
    order = tuple(range(k, ndim - 1)) + tuple(range(k)) + (ndim - 1,)
    return order, tuple(int(i) for i in np.argsort(order))


def _columns_matmul(a: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """a @ c for a block c whose k leading variable axes, V, stand in front
    of its value axes (..., r, n), as one product a @ (..., r, V n), laid
    out again variables first: the pairings that read it then sum
    contiguous matrices."""
    order, inverse = _variables_last(k, c.ndim)
    moved = c.transpose(order)
    out = np.matmul(a, moved.reshape(moved.shape[: -k - 1] + (-1,)))
    return np.ascontiguousarray(out.reshape(out.shape[:-1] + c.shape[:k] + c.shape[-1:]).transpose(inverse))
