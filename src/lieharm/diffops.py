"""The Laplace-Beltrami operator tau and the conformality operator kappa,
realised as exact order-2 jet evaluations along one-parameter subgroups.

For a direction Z the curve t -> x exp(tZ) is pushed through a function f
as the exact polynomial x (I + tZ + t^2 Z^2/2) with t^3 == 0, so first and
second directional derivatives come out of a single evaluation with no
truncation error.  Summing second derivatives over an orthonormal basis
gives tau; summing products of first derivatives gives kappa.  On a group
with bi-invariant metric the connection term for a left-invariant field is
nabla_Z Z = [Z, Z]/2 = 0, and on the duals (naturally reductive for the
symmetric pair) the m-projection [Z, Z]_m/2 vanishes equally, so no
correction term appears in either sum.  The dual Laplacian is the same sum
over the directions i Z, Z in m.

A point is a plain complex array, one matrix (n, n) or a batch
(..., n, n), or a JetScalar whose value axes end in (n, n).  A
`GroupFunction` may carry a fixed left factor P, a (rows, n) array, and
reads g only through P g: a call applies P to its point and wraps P g in
the CMatrix its function sees, and nothing else here makes a CMatrix.
One sweep serves every point.  Since P x exp(tZ) = (P x) exp(tZ), `_sweep`
applies P once to its point and moves P x, not x, along the curve.  It
gives the jet of P x (a plain point is a jet in no variables) one fresh
nilpotent variable, which stands for a whole chunk of directions Z
(`jets.py`) and goes in front of the variables of x: its blocks of degree
0, 1 and 2 in the new variable are P x, (P x) Z along a direction axis, and
(P x) C with C the sum of Z^2/2 over the chunk.  One evaluation of f then
yields the first derivatives along every direction, in the degree-1
blocks, and the sum of the second derivatives, in the degree-2 blocks: tau
reads that sum as it is, and kappa multiplies first derivatives and sums
them over the direction axis, taken as a contiguous last axis so that a
point of a batch keeps the bits it has alone.  Their value is a numpy
scalar at a plain point, an array of one value per point at a batch of
plain points, and a jet at a jet-valued point; the dtype follows the
point, so a clongdouble point gives clongdouble values.  tau applied p
times is tau of the function y -> tau(f, y): the outer sweep hands the
inner one a point that is already a jet of P x, collapsed over the outer
directions, so the inner sweep runs f without P (Li et al. 2023,
"Forward Laplacian", collapse one level the same way; Dangel et al. 2025,
"Collapsing Taylor mode automatic differentiation", nest it).

The directions are swept in chunks, so that the jet argument holds at most
`_CHUNK_ENTRIES` entries: m directions at a point whose blocks hold E
entries give an argument of (m + 2) E, the blocks of P x at degrees 0 and
2 of the new variable and m times them at degree 1.  A batch of 50 points
of any n = 3 space fits into one chunk, and so does the inner sweep of a
nested tau^2 at one point of any n = 3 space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .jets import JetScalar, _direction_sum
from .lie import Basis, UsageError
from .matrices import CMatrix

Scalar = Union[np.complexfloating, np.ndarray, JetScalar]
# a plain point (an (..., n, n) complex array: one matrix or a batch) or a jet-valued one
Point = Union[np.ndarray, JetScalar]

# largest number of entries in the blocks of one jet argument of a sweep
_CHUNK_ENTRIES = 2**16


class BudgetExceeded(RuntimeError):
    """An iterated-tau request would exceed the budget of direction tuples."""


@dataclass(eq=False)
class GroupFunction:
    """A scalar-polymorphic function on a matrix group, g -> fn(P g).

    `left`, the fixed left factor P, is a (rows, n) array or None (P = I).
    fn must be built from CMatrix operations only, so that plugging in a
    jet-valued group element yields the jet of the composition.  A call
    checks that its point, a complex array or a jet, is made of n x n
    matrices, applies P to it and wraps P g in the CMatrix that fn
    receives; this is the only place a point becomes a CMatrix.
    """

    fn: Callable[[CMatrix], Scalar]
    name: str = ""
    left: Optional[np.ndarray] = None

    def project(self, c: np.ndarray) -> np.ndarray:
        """P c for the coefficients c (..., n, n) of a point: one matmul;
        UsageError, before any product, if the matrices are not n x n."""
        if self.left is None:
            return c
        size = self.left.shape[1]
        if c.shape[-2:] != (size, size):
            raise UsageError(f"{self.name or 'f'}: expected a {size}x{size} group element, got {c.shape[-2:]}")
        return np.matmul(self.left, c)

    def __call__(self, x: Point) -> Scalar:
        if isinstance(x, JetScalar):
            return self.fn(CMatrix.from_jet(x.map(self.project)))
        return self.fn(CMatrix(self.project(np.asarray(x))))


def _dirs_array(dirs, x: Point) -> np.ndarray:
    """The directions as an array: a Basis is read in the complex dtype of
    the point x, so that a clongdouble point gets clongdouble directions."""
    if not isinstance(dirs, Basis):
        return np.asarray(dirs)
    base = x.value if isinstance(x, JetScalar) else np.asarray(x)
    return dirs.stack(np.result_type(base, np.complex128))


def jet_width(x: Point) -> int:
    """Number of jet variables of a point; 0 for a plain one."""
    return x.k if isinstance(x, JetScalar) else 0


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _sweep(f: GroupFunction, x: Point, dirs: np.ndarray) -> Iterator[Tuple[JetScalar, JetScalar]]:
    """The first and second derivative jets of f along x (I + tZ + t^2 Z^2/2),
    one pair per chunk of the directions Z, from f's function at the jet
    with blocks P x, (P x) Z and (P x) C, C the sum of Z^2/2 over the chunk.
    The blocks (P x) Z of a chunk's m directions come from one product
    (P x) [Z_1 ... Z_m] per matrix of P x, never one that spans two points,
    so a point of a batch keeps the bits it has alone.

    The jets have the variables of x.  The first derivatives have the
    chunk's direction axis in front of the value axes of x; the second
    derivatives come summed over the chunk.
    """
    k = jet_width(x)
    # a plain point is a jet in no variables
    base = x.map(f.project) if k else JetScalar(0, {(): f.project(np.asarray(x))})
    f = replace(f, left=None)  # its points below are jets of P x already
    dirs = dirs.astype(np.result_type(dirs, base.value), copy=False)
    size = dirs.shape[-1]
    # the argument holds (chunk + 2) times the entries of the blocks of P x
    chunk = max(1, _CHUNK_ENTRIES // sum(c.size for c in base.b.values()) - 2)
    for start in range(0, len(dirs), chunk):
        z = dirs[start : start + chunk]
        side_by_side = z.transpose(1, 0, 2).reshape(size, -1)  # [Z_1 ... Z_m]
        # C = sum_Z Z Z / 2 as one product [Z_1 ... Z_m] [Z_1; ...; Z_m] / 2
        half_square = np.matmul(side_by_side, z.reshape(-1, size)) / 2
        arg = {}
        for d, y in base.b.items():
            # (P x) [Z_1 ... Z_m], one product per matrix of P x, its m column
            # blocks then moved onto the new variable's axis, which goes in
            # front of those of x
            moved = np.matmul(y, side_by_side).reshape(y.shape[:-1] + z.shape[:1] + (size,))
            moved = moved.transpose((y.ndim - 1,) + tuple(range(y.ndim - 1)) + (y.ndim,))
            arg[(0,) + d], arg[(1,) + d], arg[(2,) + d] = y[None], moved, y[None] @ half_square
        w = f(JetScalar(k + 1, arg))
        if not isinstance(w, JetScalar):  # its blocks have size 1 along the chunk
            w = JetScalar.constant(np.broadcast_to(w, np.shape(base.value)[:-2]), k + 1)
        # Z^d f is d! times the coefficient of t^d, and d! = d for d <= 2
        first = {d[1:]: np.moveaxis(np.broadcast_to(c, z.shape[:1] + c.shape[1:]), 0, k)
                 for d, c in w.b.items() if d[0] == 1}
        second = {d[1:]: 2 * c[0] for d, c in w.b.items() if d[0] == 2}
        yield JetScalar(k, first), JetScalar(k, second)


def _chunk_sum(part: JetScalar, k: int) -> JetScalar:
    """A per-chunk jet summed over the chunk's direction axis, its first
    value axis."""
    return part.map(lambda c: _direction_sum(c, k).squeeze(k))


def _total(parts: Iterable[JetScalar], k: int) -> Scalar:
    """The sum of per-chunk jets: at a plain point (k == 0) its value, a numpy
    scalar or an array with one per point of a batch, in the dtype of the
    point; a jet in the k variables of a jet-valued point."""
    total = sum(parts)
    return total if k else total.value


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------


def tau(f: GroupFunction, x: Point, basis) -> Scalar:
    """Laplace-Beltrami operator: sum of Z^2(f)(x) over the given directions."""
    return _total((second for _, second in _sweep(f, x, _dirs_array(basis, x))), jet_width(x))


def kappa(f: GroupFunction, g: GroupFunction, x: Point, basis) -> Scalar:
    """Conformality operator: sum of Z(f) Z(g) over the given directions;
    complex bilinear, no conjugation."""
    dirs, k = _dirs_array(basis, x), jet_width(x)
    df = [first for first, _ in _sweep(f, x, dirs)]
    dg = df if g is f else [first for first, _ in _sweep(g, x, dirs)]
    return _total((_chunk_sum(a * b, k) for a, b in zip(df, dg)), k)


def tau_and_kappa(f: GroupFunction, x: Point, basis) -> tuple:
    """(tau f, kappa(f, f), Z f) from one sweep: Z f holds the first
    derivatives along the directions, in order, on an axis in front of the
    point's value axes; an array at a plain point, a jet at a jet point."""
    chunks = list(_sweep(f, x, _dirs_array(basis, x)))
    k = jet_width(x)
    first = JetScalar(k, {d: np.concatenate([c.b[d] for c, _ in chunks], axis=k) for d in chunks[0][0].b})
    t, kap = _total((s for _, s in chunks), k), _total((_chunk_sum(d * d, k) for d, _ in chunks), k)
    return t, kap, first if k else first.value


def tau_iterated(f: GroupFunction, x: Point, basis, p: int, budget: int = 10**6) -> Scalar:
    """tau applied p times via nested jets; cost grows like (dim basis)^p."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    dirs = _dirs_array(basis, x)
    cost = len(dirs) ** p
    if cost > budget:
        raise BudgetExceeded(f"tau^{p}: {cost} direction tuples over {len(dirs)} directions (budget {budget})")
    for _ in range(p - 1):
        # the outer sweep's point is a jet of P x; the inner tau sweeps that jet
        # with f's function alone, since P (x e^{sZ}) e^{tW} = (P x e^{sZ}) e^{tW}
        inner = replace(f, left=None)
        f = GroupFunction(lambda y, inner=inner: tau(inner, y.jet, dirs), name=f"tau({f.name})", left=f.left)
    return tau(f, x, dirs)


# ---------------------------------------------------------------------------
# kappa of every coordinate function, from the identity suite's sweep of g -> g
# ---------------------------------------------------------------------------


def coordinate_kappa(first: np.ndarray) -> np.ndarray:
    """kappa [:, j, a, k, c] = sum_b first[b, :, j, a] first[b, :, k, c] of all
    coordinate functions at a batch, from their first derivatives (B, S, n, n)
    along each direction as `_sweep` lays them out, direction first, as one
    product (S, n^2, B) @ (S, B, n^2).  The left factor is made contiguous: a
    transposed view runs another BLAS kernel, whose code pages add about
    128 KB to the peak memory of a run."""
    flat = first.reshape(first.shape[:2] + (-1,))
    left = np.ascontiguousarray(flat.transpose(1, 2, 0))
    return np.matmul(left, flat.swapaxes(0, 1)).reshape(first.shape[1:2] + first.shape[2:] * 2)
