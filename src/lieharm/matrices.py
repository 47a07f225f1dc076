"""Dense complex matrices over interchangeable scalar types.

A CMatrix is one of three kinds:

* numeric: `data` is a complex array (complex128 in the fast mode; any
  complex dtype works), either one matrix or a stack (..., rows, cols)
  with leading batch axes, handled as one: `@` broadcasts over them,
  `transpose` swaps the matrix axes, `trace` sums each matrix's diagonal,
  `pair` contracts each pair of matrices, indexing with a pair picks one
  entry of every matrix, and `shape` is the shape of one matrix;
* exact: `data` is a 2-D object array of RationalComplex entries;
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
entries are not plain numbers.  A product of a numeric and an exact matrix
demotes the exact side to complex.

All operations are pure; a CMatrix is never mutated after construction.
That covers the coefficient arrays of a jet: nothing may update them in
place.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exact import RC_ONE, RC_ZERO, RationalComplex
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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_jet(jet: JetScalar) -> "CMatrix":
        """A jet-valued matrix from its jet, whose value axes end in (rows, cols)."""
        if jet.c.ndim < jet.k + 2:
            raise ShapeError(f"a jet matrix needs two matrix axes, got coefficient shape {jet.c.shape[jet.k:]}")
        m = CMatrix.__new__(CMatrix)
        m.data, m.jet = None, jet
        m.shape = jet.c.shape[-2:]
        return m

    @staticmethod
    def from_rows(rows: Iterable[Iterable], exact: bool = False) -> "CMatrix":
        rows = [list(r) for r in rows]
        if exact:
            arr = np.empty((len(rows), len(rows[0])), dtype=object)
            for i, r in enumerate(rows):
                for j, v in enumerate(r):
                    arr[i, j] = v if isinstance(v, RationalComplex) else RationalComplex(v)
            return CMatrix(arr)
        return CMatrix(np.array(rows, dtype=complex))

    @staticmethod
    def zeros(rows: int, cols: int, exact: bool = False) -> "CMatrix":
        if exact:
            arr = np.empty((rows, cols), dtype=object)
            arr[:] = RC_ZERO
            return CMatrix(arr)
        return CMatrix(np.zeros((rows, cols), dtype=complex))

    @staticmethod
    def identity(n: int, exact: bool = False) -> "CMatrix":
        if exact:
            arr = np.empty((n, n), dtype=object)
            arr[:] = RC_ZERO
            for i in range(n):
                arr[i, i] = RC_ONE
            return CMatrix(arr)
        return CMatrix(np.eye(n, dtype=complex))

    # -- structure ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

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
        if self.cols != other.rows:
            raise ShapeError(f"matmul: shapes {self.shape} and {other.shape} incompatible")
        if self.jet is not None or other.jet is not None:
            return CMatrix.from_jet(self._values() @ other._values())
        if self.is_object() and other.is_object():
            return CMatrix(np.dot(self.data, other.data))
        # mixing a floating matrix with an exact one demotes the exact side
        return CMatrix(self.to_complex() @ other.to_complex())

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
        if self.is_object() != other.is_object():
            # as in a product, a floating side demotes an exact one
            x, y = self.to_complex(), other.to_complex()
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

    def conjugate(self) -> "CMatrix":
        if self.jet is not None:
            raise TypeError("conjugation of jet-valued matrices is not defined")
        if self.data.dtype == object:
            out = np.empty(self.shape, dtype=object)
            for i in range(self.rows):
                for j in range(self.cols):
                    out[i, j] = self.data[i, j].conjugate()
            return CMatrix(out)
        return CMatrix(np.conj(self.data))

    def conj_transpose(self) -> "CMatrix":
        return self.conjugate().transpose()

    def trace(self):
        if self.rows != self.cols:
            raise ShapeError(f"trace: matrix is {self.shape}, not square")
        if self.jet is not None:
            return JetScalar(self.jet.k, np.trace(self.jet.c, axis1=-2, axis2=-1))
        total = self[0, 0]
        for i in range(1, self.rows):
            total = total + self[i, i]
        return total

    # -- conversions and norms ----------------------------------------------

    def to_complex(self) -> np.ndarray:
        """Plain complex array; exact entries convert, jets are rejected."""
        if self.jet is not None:
            raise TypeError("cannot flatten a jet-valued matrix to complex")
        if self.data.dtype != object:
            return self.data
        out = np.empty(self.shape, dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = complex(self.data[i, j])
        return out

    def max_abs(self) -> float:
        values = self.to_complex()
        return float(np.max(np.abs(values))) if values.size else 0.0

    def exact_equals(self, other: "CMatrix") -> bool:
        if self.shape != other.shape:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                if not (self.data[i, j] == other.data[i, j]):
                    return False
        return True

    def __repr__(self):
        return f"CMatrix({self._values()!r})"


def jet_width(x: CMatrix) -> int:
    """Number of jet variables of a matrix; 0 for complex and exact ones."""
    return 0 if x.jet is None else x.jet.k


def standard_symplectic(n: int, exact: bool = False) -> CMatrix:
    """The 2n x 2n block matrix [[0, I], [-I, 0]]."""
    if exact:
        m = CMatrix.zeros(2 * n, 2 * n, exact=True).data.copy()
        for i in range(n):
            m[i, n + i] = RC_ONE
            m[n + i, i] = RationalComplex(-1)
        return CMatrix(m)
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, n:] = np.eye(n)
    m[n:, :n] = -np.eye(n)
    return CMatrix(m)
