"""The matrix wrapper that the function of a `GroupFunction` is written in.

`GroupFunction.__call__` (diffops) wraps P g, its point g times the
function's fixed left factor P, a plain complex array or a jet, in a
CMatrix, so that one function body serves every kind of point.  A CMatrix
is one of three kinds:

* numeric: `data` is a complex array (complex128 in the fast mode; any
  complex dtype works), either one matrix or a stack (..., rows, cols)
  with leading batch axes, handled as one: `@` broadcasts over them,
  `pair` contracts each pair of matrices, and `shape` is the shape of one
  matrix;
* exact: `data` is a 2-D object array of RationalComplex entries; `@`
  and `pair` of two exact matrices stay exact, and `trace` sums the
  diagonal exactly;
* jet-valued, built by `CMatrix.from_jet`: `data` is None and the `jet`
  slot holds one JetScalar whose value axes end in (rows, cols), in front
  of them any batch axes shared by every entry.  `@` with a numeric
  matrix, on either side, is one matmul per degree block (`jets.py`), and
  `pair` is the truncated Cauchy product of `jets.py` with the Frobenius
  contraction as the product of two blocks; a term of two degree-1 blocks
  in a variable is summed over that variable's directions there, so a
  pairing of two swept jet matrices comes out collapsed.

`x.swap_j()` is x J for the standard symplectic J = [[0, I], [-I, 0]],
the exact signed column swap of `swap_j`, with no product.

`x.pair(y)` is the complex-bilinear Frobenius pairing sum_ij x_ij y_ij =
trace(x^t y), with no conjugation: it costs O(rows cols) per matrix where
forming x^t y and taking its trace costs a matrix product.

A jet-valued matrix counts as an object matrix (`is_object`), since its
entries are not plain numbers.  Exact and numeric matrices do not mix.

All operations are pure; a CMatrix is never mutated after construction.
That covers the blocks of a jet: nothing may update them in place.
"""

from __future__ import annotations

import numpy as np

from .jets import JetScalar, _cauchy, _lift


class ShapeError(ValueError):
    """Dimension mismatch in a matrix operation."""


def _frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ij a_ij b_ij over the two matrix axes, for each pair of a stack."""
    return (a * b).sum(axis=(-2, -1))


def swap_j(m: np.ndarray) -> np.ndarray:
    """m J for J = [[0, I], [-I, 0]]: [-m[..., n:], m[..., :n]] over the last
    (column) axis of size 2n, so it applies to every coefficient of a jet."""
    n = m.shape[-1] // 2
    out = np.empty_like(m)
    np.negative(m[..., n:], out=out[..., :n])
    out[..., n:] = m[..., :n]
    return out


def _as_matrices(data) -> np.ndarray:
    """A 2-D array, or a complex stack (..., rows, cols) of matrices."""
    arr = np.asarray(data)
    if arr.ndim < 2 or (arr.ndim > 2 and arr.dtype == object):
        raise ShapeError(f"expected a 2-D array or a numeric stack of them, got shape {arr.shape}")
    return arr


class CMatrix:
    __slots__ = ("data", "jet", "shape")

    def __init__(self, data):
        self.data = _as_matrices(data)
        self.jet = None
        self.shape = self.data.shape[-2:]

    @staticmethod
    def from_jet(jet: JetScalar) -> "CMatrix":
        """A jet-valued matrix from its jet, whose value axes end in (rows, cols)."""
        shape = np.shape(jet.value)
        if len(shape) < 2:
            raise ShapeError(f"a jet matrix needs two matrix axes, got value shape {shape}")
        m = CMatrix.__new__(CMatrix)
        m.data, m.jet = None, jet
        m.shape = shape[-2:]
        return m

    # -- structure ---------------------------------------------------------

    def is_object(self) -> bool:
        return self.jet is not None or self.data.dtype == object

    def _values(self):
        """The jet of a jet-valued matrix, the array of any other."""
        return self.data if self.jet is None else self.jet

    @staticmethod
    def _of(values) -> "CMatrix":
        return CMatrix.from_jet(values) if isinstance(values, JetScalar) else CMatrix(values)

    # -- arithmetic ----------------------------------------------------------

    def _binary_check(self, other: "CMatrix", op: str):
        if not isinstance(other, CMatrix):
            raise TypeError(f"{op}: expected CMatrix, got {type(other).__name__}")

    def __matmul__(self, other):
        self._binary_check(other, "matmul")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"matmul: shapes {self.shape} and {other.shape} incompatible")
        return CMatrix._of(self._values() @ other._values())

    def swap_j(self) -> "CMatrix":
        """self J for the standard symplectic J, by `swap_j`."""
        if self.jet is None:
            return CMatrix(swap_j(self.data))
        return CMatrix.from_jet(self.jet.map(swap_j))

    def pair(self, other: "CMatrix"):
        """The Frobenius pairing sum_ij x_ij y_ij = trace(x^t y) of each matrix
        of a stack, complex bilinear (no conjugation): a number for one
        matrix, an array for a stack, a jet if either side is jet-valued."""
        self._binary_check(other, "pair")
        if self.shape != other.shape:
            raise ShapeError(f"pair: shapes {self.shape} and {other.shape} differ")
        x, y = self._values(), other._values()
        if isinstance(x, JetScalar) and isinstance(y, JetScalar):
            return _cauchy(x, x._coerce(y), _frobenius)
        if isinstance(x, JetScalar):
            return x.map(lambda c: _frobenius(_lift(c, x.k, y.ndim), y))
        if isinstance(y, JetScalar):
            return y.map(lambda c: _frobenius(x, _lift(c, y.k, x.ndim)))
        return _frobenius(x, y)

    def trace(self):
        """The sum of the diagonal of one numeric or exact matrix, exact for
        an exact one."""
        shape = np.shape(self.data)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ShapeError(f"trace: expected one square matrix, got shape {shape}")
        total = self.data[0, 0]
        for i in range(1, shape[0]):
            total = total + self.data[i, i]
        return total

    def __repr__(self):
        return f"CMatrix({self._values()!r})"
