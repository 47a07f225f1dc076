"""The matrix wrapper that the function of a `GroupFunction` is written in.

`GroupFunction.__call__` (diffops) wraps the point it is given, a plain
complex array or a jet, in a CMatrix, so that one function body serves
every kind of point.  A CMatrix is one of three kinds:

* numeric: `data` is a complex array (complex128 in the fast mode; any
  complex dtype works), either one matrix or a stack (..., rows, cols)
  with leading batch axes, handled as one: `@` broadcasts over them,
  `transpose` swaps the matrix axes, `trace` sums each matrix's diagonal,
  `pair` contracts each pair of matrices, indexing with a pair picks one
  entry of every matrix, and `shape` is the shape of one matrix;
* exact: `data` is a 2-D object array of RationalComplex entries; `@`
  and `pair` of two exact matrices stay exact;
* jet-valued, built by `CMatrix.from_jet`: `data` is None and the `jet`
  slot holds one JetScalar whose value axes end in (rows, cols), in front
  of them any batch axes shared by every entry.  `+`, `-`, `scale`,
  indexing, `transpose` and `trace` act on its coefficient array, and `@`
  is the jet product of `jets.py`: a truncated Cauchy product of matmuls
  between two jets, one matmul over the stacked coefficients between a
  jet and a numeric matrix.  `pair` is the same with the Frobenius
  contraction in place of the matmul.

`x.pair(y)` is the complex-bilinear Frobenius pairing sum_ij x_ij y_ij =
trace(x^t y), with no conjugation: it costs O(rows cols) per matrix where
forming x^t y and taking its trace costs a matrix product.

A jet-valued matrix counts as an object matrix (`is_object`), since its
entries are not plain numbers.  Exact and numeric matrices do not mix.

All operations are pure; a CMatrix is never mutated after construction.
That covers the coefficient arrays of a jet: nothing may update them in
place.
"""

from __future__ import annotations

import numpy as np

from .jets import JetScalar, _cauchy, _lift


class ShapeError(ValueError):
    """Dimension mismatch in a matrix operation."""


def _frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ij a_ij b_ij over the two matrix axes, for each pair of a stack."""
    return (a * b).sum(axis=(-2, -1))


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
        if jet.c.ndim < jet.k + 2:
            raise ShapeError(f"a jet matrix needs two matrix axes, got coefficient shape {jet.c.shape[jet.k:]}")
        m = CMatrix.__new__(CMatrix)
        m.data, m.jet = None, jet
        m.shape = jet.c.shape[-2:]
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

    def __getitem__(self, idx):
        """A pair (i, j) picks entry (i, j) of every matrix of a stack, or of
        every coefficient of a jet."""
        pair = isinstance(idx, tuple) and len(idx) == 2
        if self.jet is not None:
            if not pair:
                raise TypeError("a jet-valued matrix is indexed by an entry pair (i, j)")
            return JetScalar(self.jet.k, self.jet.c[(Ellipsis, *idx)])
        if pair and self.data.ndim > 2:
            return self.data[(Ellipsis, *idx)]
        return self.data[idx]

    # -- arithmetic ----------------------------------------------------------

    def _binary_check(self, other: "CMatrix", op: str):
        if not isinstance(other, CMatrix):
            raise TypeError(f"{op}: expected CMatrix, got {type(other).__name__}")

    def __add__(self, other):
        self._binary_check(other, "add")
        if self.shape != other.shape:
            raise ShapeError(f"add: shapes {self.shape} and {other.shape} differ")
        return CMatrix._of(self._values() + other._values())

    def __sub__(self, other):
        self._binary_check(other, "sub")
        if self.shape != other.shape:
            raise ShapeError(f"sub: shapes {self.shape} and {other.shape} differ")
        return CMatrix._of(self._values() - other._values())

    def __neg__(self):
        return CMatrix._of(-self._values())

    def __matmul__(self, other):
        self._binary_check(other, "matmul")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"matmul: shapes {self.shape} and {other.shape} incompatible")
        return CMatrix._of(self._values() @ other._values())

    def pair(self, other: "CMatrix"):
        """The Frobenius pairing sum_ij x_ij y_ij = trace(x^t y) of each matrix
        of a stack, complex bilinear (no conjugation): a number for one
        matrix, an array for a stack, a jet if either side is jet-valued."""
        self._binary_check(other, "pair")
        if self.shape != other.shape:
            raise ShapeError(f"pair: shapes {self.shape} and {other.shape} differ")
        x, y = self._values(), other._values()
        if isinstance(x, JetScalar) and isinstance(y, JetScalar):
            return JetScalar(x.k, _cauchy(x.c, x._coerce(y).c, x.k, _frobenius))
        if isinstance(x, JetScalar):
            return JetScalar(x.k, _frobenius(_lift(x.c, x.k, y.ndim), y))
        if isinstance(y, JetScalar):
            return JetScalar(y.k, _frobenius(x, _lift(y.c, y.k, x.ndim)))
        return _frobenius(x, y)

    def scale(self, scalar) -> "CMatrix":
        return CMatrix._of(self._values() * scalar)

    def __mul__(self, scalar):
        return self.scale(scalar)

    __rmul__ = __mul__

    def transpose(self) -> "CMatrix":
        if self.jet is not None:
            return CMatrix.from_jet(JetScalar(self.jet.k, np.swapaxes(self.jet.c, -1, -2)))
        return CMatrix(np.swapaxes(self.data, -1, -2))

    @property
    def T(self) -> "CMatrix":
        return self.transpose()

    def trace(self):
        if self.shape[0] != self.shape[1]:
            raise ShapeError(f"trace: matrix is {self.shape}, not square")
        if self.jet is not None:
            return JetScalar(self.jet.k, np.trace(self.jet.c, axis1=-2, axis2=-1))
        total = self[0, 0]
        for i in range(1, self.shape[0]):
            total = total + self[i, i]
        return total

    def __repr__(self):
        return f"CMatrix({self._values()!r})"
