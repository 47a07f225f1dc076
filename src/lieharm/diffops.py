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
(..., n, n), or a JetScalar whose value axes end in (n, n); the function
of a `GroupFunction` sees it wrapped in a CMatrix, and nothing else here
does.  One sweep serves every point.  `_sweep` gives the jet of x (a
plain point has none) one fresh nilpotent variable, whose degree axis
goes in front of the degree axes of x; the direction axis of a stack of
directions goes right after the degree axes, in front of any batch axes x
already carries.  The coefficients of t and t^2 vary along it, and that
of t^0 is x repeated.  One evaluation of f then yields the derivatives
along all the directions, and the projection onto degree d of the new
variable is the coefficient array's index d.  tau and kappa sum over the
direction axis, so their value is a number at a plain point, an array of
one value per point at a batch of plain points, and a jet at a
jet-valued point; the dtype follows the point, so a clongdouble point
gives clongdouble values.  tau applied p times is tau of the function
y -> tau(f, y): the outer sweep hands the inner one a point that is
already a jet, batched over the outer directions (Li et al. 2023, "Forward
Laplacian", sum the direction axis the same way inside one forward pass).

The directions are swept in chunks, so that no coefficient of the jet
argument, a (..., rows, cols) array with the direction and batch axes,
exceeds `_CHUNK_ENTRIES` entries; the whole coefficient array holds 3^(k+1)
of them.  A batch of 50 points of any n = 3 space fits into one chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .jets import JetDomainError, JetScalar
from .lie import Basis, GroupSpec
from .matrices import CMatrix

Scalar = Union[complex, np.ndarray, JetScalar]
# a plain point (an (..., n, n) complex array: one matrix or a batch) or a jet-valued one
Point = Union[np.ndarray, JetScalar]

# largest number of entries in one coefficient of a swept jet argument
_CHUNK_ENTRIES = 2**16


class BudgetExceeded(RuntimeError):
    """An iterated-tau request would exceed the jet-evaluation budget."""


@dataclass
class GroupFunction:
    """A scalar-polymorphic function on a matrix group.

    fn must be built from CMatrix operations only, so that plugging in a
    jet-valued group element yields the jet of the composition.  A call
    wraps its point, a complex array or a jet, in the CMatrix that fn
    receives; this is the only place a point becomes a CMatrix.
    """

    fn: Callable[[CMatrix], Scalar]
    domain: Optional[GroupSpec] = None
    name: str = ""

    def __call__(self, x: Union[Point, CMatrix]) -> Scalar:
        if not isinstance(x, CMatrix):
            x = CMatrix.from_jet(x) if isinstance(x, JetScalar) else CMatrix(x)
        return self.fn(x)


def coordinate_function(j: int, alpha: int, domain: Optional[GroupSpec] = None) -> GroupFunction:
    """The matrix-coefficient function g -> g_{j,alpha} (1-based indices)."""

    def fn(g: CMatrix):
        return g[j - 1, alpha - 1]

    return GroupFunction(fn, domain=domain, name=f"coord[{j},{alpha}]")


def _dirs_array(dirs) -> np.ndarray:
    return dirs.stack() if isinstance(dirs, Basis) else np.asarray(dirs)


def jet_width(x: Point) -> int:
    """Number of jet variables of a point; 0 for a plain one."""
    return x.k if isinstance(x, JetScalar) else 0


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _sweep(f: GroupFunction, x: Point, dirs: np.ndarray) -> Iterator[Tuple[JetScalar, JetScalar]]:
    """The first and second derivative jets of f along x (I + tZ + t^2 Z^2/2),
    one pair per chunk of the directions Z.

    The jets have the variables of x; their values have the chunk's
    direction axis in front of the batch axes of x.
    """
    k = jet_width(x)
    base = x.c if k else np.asarray(x)
    dirs = dirs.astype(np.result_type(dirs, base), copy=False)
    dirs2 = np.matmul(dirs, dirs) / 2
    # the direction axis goes right after the degree axes of x
    y = np.expand_dims(base, k)
    stack = (-1,) + (1,) * (base.ndim - k - 2) + dirs.shape[1:]
    chunk = max(1, _CHUNK_ENTRIES // math.prod(base.shape[k:]))
    for start in range(0, len(dirs), chunk):
        z, z2 = (d[start : start + chunk].reshape(stack) for d in (dirs, dirs2))
        # the new variable's degree axis goes in front of those of x
        coeffs = np.stack(np.broadcast_arrays(y, y @ z, y @ z2))
        try:
            w = f(JetScalar(k + 1, coeffs))
        except JetDomainError as exc:
            raise JetDomainError(f"{f.name or 'f'} along directions {start}..{start + len(z) - 1}: {exc}") from exc
        if not isinstance(w, JetScalar):
            w = JetScalar.constant(np.broadcast_to(w, coeffs.shape[k + 1 : -2]), k + 1)
        # Z^d f is d! times the coefficient of t^d, and d! = d for d <= 2
        yield JetScalar(k, w.c[1]), JetScalar(k, 2 * w.c[2])


def _direction_sum(v: np.ndarray, axis: int) -> np.ndarray:
    """The sum over the direction axis, taken as a contiguous last axis:
    numpy sums such an axis pairwise but a leading one term by term, so this
    gives a point of a batch the same bits as the point alone."""
    return np.ascontiguousarray(np.moveaxis(v, axis, -1)).sum(axis=-1)


def _reduce(parts: Iterable[JetScalar], k: int) -> Scalar:
    """The sum of per-chunk jets over their direction axes: at a plain point
    (k == 0) a number, or an array with one per point of a batch; a jet in
    the k variables of a jet-valued point."""
    total = sum(JetScalar(k, _direction_sum(part.c, k)) for part in parts)
    if k:
        return total
    return total.c.item() if total.c.ndim == 0 else total.c


# ---------------------------------------------------------------------------
# directional derivatives and the operators
# ---------------------------------------------------------------------------


def directional_jet(f: GroupFunction, x: Point, z) -> tuple:
    """(f, Z(f), Z^2(f)) at x along the one-parameter subgroup of Z."""
    z = np.asarray(z, dtype=complex)
    value = f(x)
    first, second = next(_sweep(f, x, z[None]))
    return value, _reduce([first], first.k), _reduce([second], second.k)


def tau(f: GroupFunction, x: Point, basis) -> Scalar:
    """Laplace-Beltrami operator: sum of Z^2(f)(x) over the given directions."""
    return _reduce((second for _, second in _sweep(f, x, _dirs_array(basis))), jet_width(x))


def kappa(f: GroupFunction, g: GroupFunction, x: Point, basis) -> Scalar:
    """Conformality operator: sum of Z(f) Z(g) over the given directions;
    complex bilinear, no conjugation."""
    dirs = _dirs_array(basis)
    df = [first for first, _ in _sweep(f, x, dirs)]
    dg = df if g is f else [first for first, _ in _sweep(g, x, dirs)]
    return _reduce((a * b for a, b in zip(df, dg)), jet_width(x))


def tau_and_kappa(f: GroupFunction, x: Point, basis) -> tuple:
    """(tau f, kappa(f, f)) from one sweep."""
    chunks = list(_sweep(f, x, _dirs_array(basis)))
    k = jet_width(x)
    return _reduce((s for _, s in chunks), k), _reduce((d * d for d, _ in chunks), k)


def tau_iterated(f: GroupFunction, x: Point, basis, p: int, budget: int = 10**6) -> Scalar:
    """tau applied p times via nested jets; cost grows like (dim basis)^p."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    dirs = _dirs_array(basis)
    cost = len(dirs) ** p
    if cost > budget:
        raise BudgetExceeded(
            f"tau^{p} over {len(dirs)} directions needs {cost} jet evaluations "
            f"(budget {budget})"
        )
    for _ in range(p - 1):
        # the outer sweep's point is a jet; the inner tau sweeps that jet
        f = GroupFunction(lambda y, inner=f: tau(inner, y.jet, dirs), domain=f.domain, name=f"tau({f.name})")
    return tau(f, x, dirs)


# ---------------------------------------------------------------------------
# whole-matrix sweeps (used by the identity suite)
# ---------------------------------------------------------------------------


def coordinate_sweep(x: np.ndarray, basis) -> tuple:
    """Base, first and second derivative arrays of every matrix coefficient.

    Returns (x0, first, second) with shapes (n,n), (B,n,n), (B,n,n): the
    jets of all coordinate functions from a single batched construction,
    so whole families of coordinate identities can be checked at once.
    """
    dirs = _dirs_array(basis)
    x0 = np.asarray(x)
    first = np.einsum("ij,bjk->bik", x0, dirs)
    second = 2.0 * np.einsum("ij,bjk->bik", x0, np.matmul(dirs, dirs) / 2.0)
    return x0, first, second
