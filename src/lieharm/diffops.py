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
correction term appears in either sum.

A sweep at a plain complex point carries all B basis directions through a
single evaluation: `batched_jet` builds the packed jet of the matrix
x (I + tZ_b + t^2 Z_b^2/2) directly, with coefficient arrays x of shape
(n, n) and x Z_b, x Z_b^2/2 of shape (B, n, n).  Matrix products then run
on those stacks (see `matrices`), and the value of f is one jet whose first
and second coefficients are (B,) arrays, one entry per direction.

Iterated tau nests fresh nilpotent variables: the outer sweep sees a group
element that is already jet-valued (packed, and batched over the outer
directions), and `one_parameter_jet` appends one more variable per level by
multiplying every packed coefficient by Z and Z^2/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .jets import JetDomainError, JetScalar
from .lie import AlgebraBasis, GroupSpec
from .matrices import CMatrix, jet_width

Scalar = Union[complex, JetScalar]


class BudgetExceeded(RuntimeError):
    """An iterated-tau request would exceed the jet-evaluation budget."""


@dataclass
class GroupFunction:
    """A scalar-polymorphic function on a matrix group.

    fn must be built from CMatrix operations only, so that plugging in a
    jet-valued group element yields the jet of the composition.
    """

    fn: Callable[[CMatrix], Scalar]
    domain: Optional[GroupSpec] = None
    k_invariant: bool = False
    name: str = ""

    def __call__(self, x: CMatrix) -> Scalar:
        return self.fn(x)


def coordinate_function(j: int, alpha: int, domain: Optional[GroupSpec] = None) -> GroupFunction:
    """The matrix-coefficient function g -> g_{j,alpha} (1-based indices)."""

    def fn(g: CMatrix):
        return g[j - 1, alpha - 1]

    return GroupFunction(fn, domain=domain, name=f"coord[{j},{alpha}]")


def _dirs_array(dirs) -> np.ndarray:
    if isinstance(dirs, AlgebraBasis):
        return dirs.stack()
    if isinstance(dirs, np.ndarray):
        return dirs
    return np.stack([d.to_complex() if isinstance(d, CMatrix) else np.asarray(d, dtype=complex) for d in dirs])


# ---------------------------------------------------------------------------
# jet arguments
# ---------------------------------------------------------------------------


def one_parameter_jet(x: CMatrix, z: np.ndarray) -> CMatrix:
    """The order-2 jet of t -> x (I + tZ + t^2 Z^2/2) in one fresh variable.

    Works both for plain complex x (producing 1-variable jets) and for
    jet-valued x (appending a new trailing variable to its packed jet).
    """
    z = np.asarray(z, dtype=complex)
    z2 = z @ z / 2.0
    k = jet_width(x)
    base = x.packed() if k else JetScalar(0, {(): x.to_complex()})
    coeffs = {}
    for key, v in base.coeffs.items():
        coeffs[key + (0,)] = v
        coeffs[key + (1,)] = v @ z
        coeffs[key + (2,)] = v @ z2
    return CMatrix.from_jet(JetScalar(k + 1, coeffs))


def batched_jet(x: CMatrix, dirs: np.ndarray) -> CMatrix:
    """One-variable jets through a plain complex x, batched over all directions.

    Coefficient arrays carry a leading axis over the directions; a single
    evaluation then yields every directional derivative at once.
    """
    x0 = x.to_complex()
    x1 = np.einsum("ij,bjk->bik", x0, dirs)
    x2 = np.einsum("ij,bjk->bik", x0, np.matmul(dirs, dirs) / 2.0)
    return CMatrix.from_jet(JetScalar(1, {(0,): x0, (1,): x1, (2,): x2}))


def _as_jet(value: Scalar, k: int) -> JetScalar:
    if isinstance(value, JetScalar):
        return value
    return JetScalar.constant(value, k)


def _numeric_point(x: CMatrix) -> CMatrix:
    """Exact group elements differentiate as plain complex points."""
    if x.is_object() and jet_width(x) == 0:
        return CMatrix(x.to_complex())
    return x


# ---------------------------------------------------------------------------
# directional derivatives
# ---------------------------------------------------------------------------


def directional_jet(f: GroupFunction, x: CMatrix, z) -> tuple:
    """(f, Z(f), Z^2(f)) at x along the one-parameter subgroup of Z."""
    x = _numeric_point(x)
    z = z.to_complex() if isinstance(z, CMatrix) else np.asarray(z, dtype=complex)
    w = _as_jet(f(one_parameter_jet(x, z)), jet_width(x) + 1)
    if x.is_object():
        base = w.drop_last(0)
        first = w.drop_last(1)
        second = 2.0 * w.drop_last(2)
    else:
        base = w.coeff((0,))
        first = w.coeff((1,))
        second = 2.0 * w.coeff((2,))
    return base, first, second


def _sweep_complex(f: GroupFunction, x: CMatrix, dirs: np.ndarray):
    """Batched (value, first-array, second-array) over all directions at once."""
    w = f(batched_jet(x, dirs))
    b = len(dirs)
    if not isinstance(w, JetScalar):
        zero = np.zeros(b, dtype=complex)
        return w, zero, zero
    first = np.broadcast_to(np.asarray(w.coeff((1,))), (b,))
    second = np.broadcast_to(np.asarray(w.coeff((2,))) * 2.0, (b,))
    return w.coeff((0,)), first, second


def tau_over_directions(f: GroupFunction, x: CMatrix, dirs) -> Scalar:
    """Sum of second directional derivatives of f at x over the given directions."""
    x = _numeric_point(x)
    dirs = _dirs_array(dirs)
    if not x.is_object():
        _, _, second = _sweep_complex(f, x, dirs)
        return complex(np.sum(second))
    k = jet_width(x)
    total = JetScalar(k, {})
    for i, z in enumerate(dirs):
        try:
            _, _, second = directional_jet(f, x, z)
        except JetDomainError as exc:
            raise JetDomainError(f"{f.name or 'f'} along basis direction {i}: {exc}") from exc
        total = total + second
    return total


def kappa_over_directions(f: GroupFunction, g: GroupFunction, x: CMatrix, dirs) -> Scalar:
    """Sum over directions of Z(f) Z(g); complex bilinear, no conjugation."""
    x = _numeric_point(x)
    dirs = _dirs_array(dirs)
    if not x.is_object():
        _, df, _ = _sweep_complex(f, x, dirs)
        dg = df if g is f else _sweep_complex(g, x, dirs)[1]
        return complex(np.sum(df * dg))
    k = jet_width(x)
    total = JetScalar(k, {})
    for i, z in enumerate(dirs):
        try:
            _, df, _ = directional_jet(f, x, z)
            dg = df if g is f else directional_jet(g, x, z)[1]
        except JetDomainError as exc:
            raise JetDomainError(f"kappa along basis direction {i}: {exc}") from exc
        total = total + df * dg
    return total


def tau(f: GroupFunction, x: CMatrix, basis) -> Scalar:
    """Laplace-Beltrami operator: sum of Z^2(f)(x) over the orthonormal basis."""
    return tau_over_directions(f, x, basis)


def kappa(f: GroupFunction, g: GroupFunction, x: CMatrix, basis) -> Scalar:
    """Conformality operator kappa(f, g)(x) over the orthonormal basis."""
    return kappa_over_directions(f, g, x, basis)


def tau_and_kappa(f: GroupFunction, x: CMatrix, basis) -> tuple:
    """(tau f, kappa(f, f)) from a single batched sweep at a complex point."""
    x = _numeric_point(x)
    dirs = _dirs_array(basis)
    if x.is_object():
        return tau_over_directions(f, x, dirs), kappa_over_directions(f, f, x, dirs)
    _, first, second = _sweep_complex(f, x, dirs)
    return complex(np.sum(second)), complex(np.sum(first * first))


# ---------------------------------------------------------------------------
# iterated and subspace variants
# ---------------------------------------------------------------------------


def tau_as_function(f: GroupFunction, dirs) -> GroupFunction:
    """tau(f) wrapped as a new scalar-polymorphic group function."""
    dirs = _dirs_array(dirs)

    def fn(x: CMatrix):
        return tau_over_directions(f, x, dirs)

    return GroupFunction(fn, domain=f.domain, k_invariant=f.k_invariant, name=f"tau({f.name})")


def tau_iterated(
    f: GroupFunction, x: CMatrix, basis, p: int, budget: int = 10**6
) -> Scalar:
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
    g = f
    for _ in range(p - 1):
        g = tau_as_function(g, dirs)
    return tau_over_directions(g, x, dirs)


def tau_subspace(f: GroupFunction, x: CMatrix, m_basis, sign: int = 1) -> Scalar:
    """sign * sum over m of second derivatives along x exp(t iZ).

    With sign +1 this is the Laplacian of the non-compact dual (directions
    i m); with sign -1 it equals the sum over the real m-directions for
    holomorphic functions.
    """
    dirs = 1j * _dirs_array(m_basis)
    return sign * tau_over_directions(f, x, dirs)


def kappa_subspace(
    f: GroupFunction, g: GroupFunction, x: CMatrix, m_basis, sign: int = 1
) -> Scalar:
    """sign * sum over m of products of first derivatives along x exp(t iZ)."""
    dirs = 1j * _dirs_array(m_basis)
    return sign * kappa_over_directions(f, g, x, dirs)


def tau_subspace_iterated(
    f: GroupFunction, x: CMatrix, m_basis, p: int, sign: int = 1, budget: int = 10**6
) -> Scalar:
    """The dual Laplacian applied p times (nested jets along i m directions)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    dirs = 1j * _dirs_array(m_basis)
    cost = len(dirs) ** p
    if cost > budget:
        raise BudgetExceeded(
            f"dual tau^{p} over {len(dirs)} directions needs {cost} jet evaluations "
            f"(budget {budget})"
        )
    g = f
    for _ in range(p - 1):
        gg = g

        def fn(y: CMatrix, inner=gg):
            return sign * tau_over_directions(inner, y, dirs)

        g = GroupFunction(fn, domain=f.domain, name=f"tau*({g.name})")
    return sign * tau_over_directions(g, x, dirs)


# ---------------------------------------------------------------------------
# whole-matrix sweeps (used by the identity suite)
# ---------------------------------------------------------------------------


def coordinate_sweep(x: CMatrix, basis) -> tuple:
    """Base, first and second derivative arrays of every matrix coefficient.

    Returns (x0, first, second) with shapes (n,n), (B,n,n), (B,n,n): the
    jets of all coordinate functions from a single batched construction,
    so whole families of coordinate identities can be checked at once.
    """
    dirs = _dirs_array(basis)
    x0 = x.to_complex()
    first = np.einsum("ij,bjk->bik", x0, dirs)
    second = 2.0 * np.einsum("ij,bjk->bik", x0, np.matmul(dirs, dirs) / 2.0)
    return x0, first, second
