"""Dense complex matrices over interchangeable scalar types.

A CMatrix wraps a numpy array whose dtype is either complex128 (the fast
numeric mode) or object (entries are RationalComplex for exact work, or
JetScalar for derivative-carrying work).  An object array is 2-D.  A
complex array may carry leading batch axes in front of its two matrix
axes, a stack of matrices handled as one: `@` broadcasts over them,
`transpose` swaps the matrix axes, `trace` sums each matrix's diagonal,
indexing with a pair picks one entry of every matrix, and `shape` is the
shape of one matrix.

A jet-valued CMatrix built by `CMatrix.from_jet` carries its packed jet in
the `jet` slot: one JetScalar whose coefficients are complex arrays of
shape (..., rows, cols), the leading axes being batch axes shared by every
entry.  Products of jet-valued matrices are computed on the packed form,
as `cols` broadcast JetScalar products of a column slice by a row slice,
so the truncated Taylor product stays in `jets.py`; the object array of
entries is built from the packed arrays only when something reads `data`,
and its batched coefficients are views into them.

All operations are pure; a CMatrix is never mutated after construction.
That covers the packed coefficient arrays and the entries' coefficients:
nothing may update them in place.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exact import RC_ONE, RC_ZERO, RationalComplex
from .jets import JetScalar


class ShapeError(ValueError):
    """Dimension mismatch in a matrix operation."""


def _as_matrices(data) -> np.ndarray:
    """A 2-D array, or a complex stack (..., rows, cols) of matrices."""
    arr = np.asarray(data)
    if arr.ndim < 2 or (arr.ndim > 2 and arr.dtype == object):
        raise ShapeError(f"expected a 2-D array or a numeric stack of them, got shape {arr.shape}")
    return arr


def _coefficientwise(jet: JetScalar, fn) -> JetScalar:
    return JetScalar(jet.k, {key: fn(v) for key, v in jet.coeffs.items()})


def _take(x, idx):
    """x[idx] for a complex array, or applied to every coefficient of a packed jet."""
    if isinstance(x, JetScalar):
        return _coefficientwise(x, lambda v: v[idx])
    return x[idx]


def _jet_matmul(a, b, cols: int) -> JetScalar:
    """Product of two packed operands, at least one of them a JetScalar.

    A complex operand stays an array; JetScalar.__mul__ broadcasts it over
    the coefficients, so it is kept on the right of each product.
    """
    total = None
    for l in range(cols):
        left, right = _take(a, np.s_[..., :, l : l + 1]), _take(b, np.s_[..., l : l + 1, :])
        term = left * right if isinstance(left, JetScalar) else right * left
        total = term if total is None else total + term
    return total


def _pack(data: np.ndarray, k: int) -> JetScalar:
    """One jet in k variables with (..., rows, cols) coefficients from an object
    array of jet and constant entries; missing keys read as zero."""
    entries = [v if isinstance(v, JetScalar) else JetScalar.constant(v, k) for v in data.flat]
    for v in entries:
        if v.k != k:
            raise ValueError(f"jet variable counts differ: {k} vs {v.k}")
    keys = sorted({(0,) * k}.union(*(v.coeffs for v in entries)))
    batch = np.broadcast_shapes(*(np.shape(c) for v in entries for c in v.coeffs.values()))
    coeffs = {}
    for key in keys:
        arr = np.zeros(batch + data.shape, dtype=complex)
        for (i, j), v in zip(np.ndindex(data.shape), entries):
            if key in v.coeffs:
                arr[..., i, j] = v.coeffs[key]
        coeffs[key] = arr
    return JetScalar(k, coeffs)


def _entries(jet: JetScalar, shape) -> np.ndarray:
    """The object array of JetScalar entries of a packed jet."""
    out = np.empty(shape, dtype=object)
    for i, j in np.ndindex(shape):
        # unbatched coefficients give scalars, batched ones views into the packed arrays
        out[i, j] = JetScalar(jet.k, {key: v[..., i, j][()] for key, v in jet.coeffs.items()})
    return out


class CMatrix:
    __slots__ = ("_data", "jet", "shape")

    def __init__(self, data):
        self._data = _as_matrices(data)
        self.jet = None
        self.shape = self._data.shape[-2:]

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = _entries(self.jet, self.shape)
        return self._data

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_jet(jet: JetScalar) -> "CMatrix":
        """A jet-valued matrix from its packed jet (coefficients (..., rows, cols))."""
        m = CMatrix.__new__(CMatrix)
        m._data, m.jet = None, jet
        m.shape = np.shape(jet.value)[-2:]
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
        return self.jet is not None or self._data.dtype == object

    def __getitem__(self, idx):
        """A pair (i, j) picks entry (i, j) of every matrix of a stack."""
        if isinstance(idx, tuple) and len(idx) == 2 and self.data.ndim > 2:
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
        return CMatrix(self.data + other.data)

    def __sub__(self, other):
        self._binary_check(other, "sub")
        if self.shape != other.shape:
            raise ShapeError(f"sub: shapes {self.shape} and {other.shape} differ")
        return CMatrix(self.data - other.data)

    def __neg__(self):
        return CMatrix(-self.data)

    def _exact_entries(self) -> bool:
        if self.jet is not None or self._data.dtype != object:
            return False
        return isinstance(self._data[0, 0], RationalComplex)

    def packed(self):
        """The packed jet of a jet-valued matrix, the complex array of any other."""
        if self.jet is not None:
            return self.jet
        k = jet_width(self)
        return _pack(self.data, k) if k else self.to_complex()

    def __matmul__(self, other):
        self._binary_check(other, "matmul")
        if self.cols != other.rows:
            raise ShapeError(f"matmul: shapes {self.shape} and {other.shape} incompatible")
        if jet_width(self) or jet_width(other):
            return CMatrix.from_jet(_jet_matmul(self.packed(), other.packed(), self.cols))
        a, b = self, other
        # mixing a floating matrix with an exact one demotes the exact side
        if not a.is_object() and b._exact_entries():
            b = CMatrix(b.to_complex())
        elif not b.is_object() and a._exact_entries():
            a = CMatrix(a.to_complex())
        if a.is_object() or b.is_object():
            return CMatrix(np.dot(a.data, b.data))
        return CMatrix(a.data @ b.data)

    def scale(self, scalar) -> "CMatrix":
        return CMatrix(self.data * scalar)

    def __mul__(self, scalar):
        return self.scale(scalar)

    __rmul__ = __mul__

    def transpose(self) -> "CMatrix":
        if self.jet is not None:
            return CMatrix.from_jet(_coefficientwise(self.jet, lambda v: np.swapaxes(v, -1, -2)))
        return CMatrix(np.swapaxes(self.data, -1, -2))

    @property
    def T(self) -> "CMatrix":
        return self.transpose()

    def conjugate(self) -> "CMatrix":
        if self.data.dtype == object:
            out = np.empty(self.shape, dtype=object)
            for i in range(self.rows):
                for j in range(self.cols):
                    v = self.data[i, j]
                    if isinstance(v, JetScalar):
                        raise TypeError("conjugation of jet-valued matrices is not defined")
                    out[i, j] = v.conjugate()
            return CMatrix(out)
        return CMatrix(np.conj(self.data))

    def conj_transpose(self) -> "CMatrix":
        return self.conjugate().transpose()

    def trace(self):
        if self.rows != self.cols:
            raise ShapeError(f"trace: matrix is {self.shape}, not square")
        if self.jet is not None:
            return _coefficientwise(self.jet, lambda v: np.trace(v, axis1=-2, axis2=-1))
        total = self[0, 0]
        for i in range(1, self.rows):
            total = total + self[i, i]
        return total

    # -- conversions and norms ----------------------------------------------

    def to_complex(self) -> np.ndarray:
        """Plain complex128 array; exact entries convert, jets are rejected."""
        if self.data.dtype != object:
            return self.data
        out = np.empty(self.shape, dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                v = self.data[i, j]
                if isinstance(v, JetScalar):
                    raise TypeError("cannot flatten a jet-valued matrix to complex")
                out[i, j] = complex(v)
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.to_complex()))) if self.data.size else 0.0

    def exact_equals(self, other: "CMatrix") -> bool:
        if self.shape != other.shape:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                if not (self.data[i, j] == other.data[i, j]):
                    return False
        return True

    def __repr__(self):
        return f"CMatrix({self.data!r})"


def jet_width(x: CMatrix) -> int:
    """Number of jet variables of a matrix's entries; 0 for complex and exact ones."""
    if x.jet is not None:
        return x.jet.k
    if not x.is_object() or x._exact_entries():
        return 0
    for v in x.data.flat:
        if isinstance(v, JetScalar):
            return v.k
    return 0


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
