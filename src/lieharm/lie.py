"""Catalog of the classical groups in play: orthonormal Lie-algebra bases,
Cartan decompositions of the four symmetric pairs, the exact eigenvalue
pair (lambda, mu) of each space's family (`expected_eigenvalues`), and
random sampling.  The eigenvalue pair is a fact of the space, so the exact
route (`harness.pharmonic_suite`) reads it here without loading the
numeric route's `eigenfamilies`.

Conventions.  The inner product is g(Z, W) = Re trace(Z W*); every basis
below is orthonormal for it.  Elementary matrices E_rs, the symmetric /
skew-symmetric / diagonal generators

    X_rs = (E_rs + E_sr)/sqrt2,   Y_rs = (E_rs - E_sr)/sqrt2,   D_r = E_rr,

and the complex structure J = [[0, I], [-I, 0]].  Every basis is one `Basis`
built once from integer patterns: each element is c N with N a
Gaussian-integer matrix (int64 real and imaginary parts) and c^2 rational.
The exact route reads N and c^2; the numeric route reads the matrices c N
in a complex dtype of its choice (complex128 by default, clongdouble for
extended precision), with c = sqrt(num)/sqrt(den) formed in that dtype.
A unitary z = x + iy embeds into the 2n x 2n real matrices as
[[x, y], [-y, x]]; that single embedding realises U(n) inside both
SO(2n) and Sp(n).

Generators, J (`standard_symplectic`) and sample points are plain complex
arrays.  Sample points are r(sum_q c_q Z_q) with Gaussian c, and dual
points r(sum a_i K_i) r(sum b_j iM_j), for r the (2,2) Pade approximant
of exp (`pade_exp`); both are rebuilt from coefficient arrays drawn
elsewhere (`rebuild_sample`, `rebuild_dual_sample`).  r(A) r(-A) = I, so
r maps so(n), sp(n) and the embedded u(n) into their groups and su(n)
into U(n); r sends i m to positive definite factors, so a dual point lies
in K exp(i m) at any sigma.  On the SU families a point is a phase (a
positive scalar on the duals) times a point of the group, which no check
sees: each checked identity is homogeneous of the same degree on both
sides.  One call builds a whole batch: the coefficients carry leading
batch axes, and `pade_exp` maps the (..., n, n) stack at once, giving
each point the bits it has alone, with one LU solve per complex128 point
(q(-A) is well conditioned; wider dtypes add one refinement step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from .harness import CounterStream

SO = "SO"
SU = "SU"
SP = "Sp"
U_IN_SO2N = "U_in_SO2n"
U_IN_SPN = "U_in_Spn"

GROUP_FAMILIES = (SO, SU, SP, U_IN_SO2N, U_IN_SPN)

SUN_SON = "sun_son"
SPN_UN = "spn_un"
SO2N_UN = "so2n_un"
SU2N_SPN = "su2n_spn"

SPACE_FAMILIES = (SUN_SON, SPN_UN, SO2N_UN, SU2N_SPN)


class UsageError(ValueError):
    """Invalid argument for a catalog operation."""


@dataclass(frozen=True)
class GroupSpec:
    family: str
    n: int

    def __post_init__(self):
        if self.family not in GROUP_FAMILIES:
            raise UsageError(f"unknown group family {self.family!r}")
        if self.n < 2:
            raise UsageError(f"n must be >= 2, got {self.n}")

    @property
    def matrix_size(self) -> int:
        return self.n if self.family in (SO, SU) else 2 * self.n

    def __str__(self):
        return f"{self.family}({self.n})"


@dataclass(frozen=True)
class SymmetricSpaceSpec:
    family: str
    n: int

    def __post_init__(self):
        if self.family not in SPACE_FAMILIES:
            raise UsageError(f"unknown symmetric-space family {self.family!r}")
        if self.n < 2:
            raise UsageError(f"n must be >= 2, got {self.n}")

    @property
    def matrix_size(self) -> int:
        return self.n if self.family == SUN_SON else 2 * self.n

    def group_spec(self) -> GroupSpec:
        """The dividend group G."""
        if self.family == SUN_SON:
            return GroupSpec(SU, self.n)
        if self.family == SPN_UN:
            return GroupSpec(SP, self.n)
        if self.family == SO2N_UN:
            return GroupSpec(SO, 2 * self.n)
        return GroupSpec(SU, 2 * self.n)

    def subgroup_spec(self) -> GroupSpec:
        """The divisor group K, in its embedded realisation."""
        if self.family == SUN_SON:
            return GroupSpec(SO, self.n)
        if self.family == SPN_UN:
            return GroupSpec(U_IN_SPN, self.n)
        if self.family == SO2N_UN:
            return GroupSpec(U_IN_SO2N, self.n)
        return GroupSpec(SP, self.n)

    def __str__(self):
        names = {
            SUN_SON: f"SU({self.n})/SO({self.n})",
            SPN_UN: f"Sp({self.n})/U({self.n})",
            SO2N_UN: f"SO({2 * self.n})/U({self.n})",
            SU2N_SPN: f"SU({2 * self.n})/Sp({self.n})",
        }
        return names[self.family]


def expected_eigenvalues(spec_or_space) -> Tuple[Fraction, Fraction]:
    """The exact eigenvalue pair (lambda, mu) of the family, two Fractions:
    tau phi = lambda phi and kappa(phi, phi) = mu phi^2 for each phi of the
    family on the space, or on the `.space` of an eigenfunction spec."""
    space = getattr(spec_or_space, "space", spec_or_space)
    n = space.n
    if space.family == SUN_SON:
        lam = Fraction(-2 * (n * n + n - 2), n)
        mu = Fraction(-4 * (n - 1), n)
    elif space.family == SPN_UN:
        lam = Fraction(-2 * (n + 1))
        mu = Fraction(-2)
    elif space.family == SO2N_UN:
        lam = Fraction(-2 * (n - 1))
        mu = Fraction(-1)
    else:
        lam = Fraction(-2 * (2 * n * n - n - 1), n)
        mu = Fraction(-2 * (n - 1), n)
    return lam, mu


# ---------------------------------------------------------------------------
# bases from integer patterns
# ---------------------------------------------------------------------------

# c^2 of X_rs = N/sqrt2, Y_rs = N/sqrt2 and D_r = N, for N the pattern of each
_WEIGHT = {"X": Fraction(1, 2), "Y": Fraction(1, 2), "D": Fraction(1)}


def _root(weight: Fraction, real: np.dtype):
    """c = sqrt(num) / sqrt(den) for c^2 = weight, formed in the real dtype `real`."""
    return np.sqrt(real.type(weight.numerator)) / np.sqrt(real.type(weight.denominator))


@dataclass(frozen=True, eq=False)
class Basis:
    """An ordered orthonormal basis of a matrix Lie algebra: the matrices
    c_q N_q, each N_q a Gaussian-integer pattern held as the int64 real and
    imaginary parts `re[q]`, `im[q]`, and each c_q^2 = `weights[q]` rational.

    The exact route reads N and the weights: sums of products of two entries
    of one element, such as sum_q c_q^2 N_q E_ab N_q^t, are integer linear
    algebra weighted by rationals.  The numeric route reads `stack(dtype)`.
    The arrays of a cached basis are read-only.
    """

    name: str
    re: np.ndarray
    im: np.ndarray
    weights: Tuple[Fraction, ...]
    _stacks: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self):
        return len(self.weights)

    def stack(self, dtype=np.complex128) -> np.ndarray:
        """Every element c_q N_q as one read-only (count, size, size) array of
        the complex dtype `dtype`, with c_q formed in its real type; cached."""
        dtype = np.dtype(dtype)
        if dtype not in self._stacks:
            real = np.finfo(dtype).dtype
            c = np.array([_root(w, real) for w in self.weights], dtype=real)[:, None, None]
            out = np.empty(self.re.shape, dtype=dtype)
            out.real, out.imag = self.re * c, self.im * c
            out.flags.writeable = False
            self._stacks[dtype] = out
        return self._stacks[dtype]


def _basis(name: str, families) -> Basis:
    """A basis from (c^2, Gaussian-integer complex patterns) families, in order."""
    stack = np.array([m for _, fam in families for m in fam], dtype=complex)
    re, im = stack.real.astype(np.int64), stack.imag.astype(np.int64)
    re.flags.writeable = im.flags.writeable = False
    return Basis(name, re, im, tuple(w for w, fam in families for _ in fam))


def _pattern(kind: str, n: int, r: int, s: Optional[int] = None) -> np.ndarray:
    """The int64 pattern N of a generator: X_rs = N/sqrt2, Y_rs = N/sqrt2, D_r = N."""
    m = np.zeros((n, n), dtype=np.int64)
    if kind == "D":
        if s is not None and s != r:
            raise UsageError("generator: D takes a single index")
        if not 1 <= r <= n:
            raise UsageError(f"generator: D index {r} out of range for n={n}")
        m[r - 1, r - 1] = 1
        return m
    if kind not in ("X", "Y"):
        raise UsageError(f"generator: unknown kind {kind!r}")
    if s is None or not (1 <= r < s <= n):
        raise UsageError(f"generator: need 1 <= r < s <= n, got r={r}, s={s}, n={n}")
    m[r - 1, s - 1] = 1
    m[s - 1, r - 1] = 1 if kind == "X" else -1
    return m


def _patterns(kind: str, n: int) -> List[np.ndarray]:
    """The patterns of every X_rs or Y_rs (r < s), or of every D_t, in index order."""
    if kind == "D":
        return [_pattern("D", n, t) for t in range(1, n + 1)]
    return [_pattern(kind, n, r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]


def generator(kind: str, n: int, r: int, s: Optional[int] = None) -> np.ndarray:
    """X_rs, Y_rs (1 <= r < s <= n) or D_r (1 <= r <= n), as a complex128 array."""
    pattern = _pattern(kind, n, r, s)
    return (pattern * _root(_WEIGHT[kind], np.dtype(np.float64))).astype(complex)


def standard_symplectic(n: int) -> np.ndarray:
    """J = [[0, I], [-I, 0]], 2n x 2n, as a complex128 array."""
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, n:] = np.eye(n)
    m[n:, :n] = -np.eye(n)
    return m


@lru_cache(maxsize=None)
def generator_lattice(kind: str, n: int) -> Basis:
    """Every X_rs or Y_rs (r < s), or every D_t, of gl(n), in index order."""
    patterns = _patterns(kind, n)  # raises UsageError for an unknown kind
    return _basis(f"{kind}({n})", [(_WEIGHT[kind], patterns)])


def _block_diag(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = d
    return out


def _block_off(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    n = b.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = b
    out[n:, :n] = c
    return out


def _su_families(n: int):
    """Y_rs, i X_rs and i H_t, with H_t = (D_1 + ... + D_t - t D_{t+1}) / sqrt(t(t+1))
    the traceless diagonals: the pattern of i H_t is i diag(1, ..., 1, -t, 0, ...)."""
    fams = [(_WEIGHT["Y"], _patterns("Y", n)), (_WEIGHT["X"], [1j * x for x in _patterns("X", n)])]
    for t in range(1, n):
        h = np.diag([1] * t + [-t] + [0] * (n - t - 1))
        fams.append((Fraction(1, t * (t + 1)), [1j * h]))
    return fams


# the generator kind each family of _sp_families is built from, the families
# that span the embedded u(n), and those that span m[sp(n)/u(n)]
_SP_FAMILY_KINDS = ("Y", "X", "D", "X", "X", "D", "D")
_U_FAMILIES = (0, 3, 5)
_SP_M_FAMILIES = (1, 2, 4, 6)


def _sp_families(xs: List[np.ndarray], ys: List[np.ndarray], ds: List[np.ndarray]):
    """The seven generator families of sp(n), built from the n x n X, Y and D
    patterns; the common factor 1/sqrt2, which halves c^2, is left to the caller."""
    ixs = [x * 1j for x in xs]
    ids = [d * 1j for d in ds]
    return [
        [_block_diag(y, y) for y in ys],
        [_block_diag(ix, -ix) for ix in ixs],
        [_block_diag(idm, -idm) for idm in ids],
        [_block_off(x, -x) for x in xs],
        [_block_off(ix, ix) for ix in ixs],
        [_block_off(d, -d) for d in ds],
        [_block_off(idm, idm) for idm in ids],
    ]


def _sp_weighted_families(n: int):
    """The families of sp(n) from the patterns, each with its c^2."""
    fams = _sp_families(*(_patterns(k, n) for k in "XYD"))
    return [(_WEIGHT[k] / 2, fam) for k, fam in zip(_SP_FAMILY_KINDS, fams)]


@lru_cache(maxsize=None)
def basis_g(spec: GroupSpec) -> Basis:
    """The orthonormal basis of g; cached, so a Basis is shared and must not be mutated."""
    n = spec.n
    if spec.family == SO:
        return _basis(f"so({n})", [(_WEIGHT["Y"], _patterns("Y", n))])
    if spec.family == SU:
        return _basis(f"su({n})", _su_families(n))
    fams = _sp_weighted_families(n)
    if spec.family == SP:
        return _basis(f"sp({n})", fams)
    # u(n) pushed through z = x + iy -> [[x, y], [-y, x]]; lies in both so(2n) and sp(n)
    return _basis(f"u({n})-embedded", [fams[i] for i in _U_FAMILIES])


# ---------------------------------------------------------------------------
# Cartan decompositions g = k + m
# ---------------------------------------------------------------------------


def _m_families(space: SymmetricSpaceSpec):
    """The name of m and its (c^2, patterns) families, in basis order."""
    n = space.n
    if space.family == SUN_SON:
        return f"m[su({n})/so({n})]", _su_families(n)[1:]
    if space.family == SPN_UN:
        fams = _sp_weighted_families(n)
        return f"m[sp({n})/u({n})]", [fams[i] for i in _SP_M_FAMILIES]
    ys = _patterns("Y", n)
    quarter = _WEIGHT["Y"] / 2
    if space.family == SO2N_UN:
        fams = [(quarter, [_block_diag(y, -y) for y in ys]), (quarter, [_block_off(y, y) for y in ys])]
        return f"m[so({2 * n})/u({n})]", fams
    # blocks [[P, Q], [conj(Q), -conj(P)]] with P in su(n), Q complex skew
    fams = [(w / 2, [_block_diag(p, -np.conj(p)) for p in fam]) for w, fam in _su_families(n)]
    fams += [(quarter, [_block_off(q, np.conj(q)) for q in (y, 1j * y)]) for y in ys]
    return f"m[su({2 * n})/sp({n})]", fams


@lru_cache(maxsize=None)
def cartan_decomposition(space: SymmetricSpaceSpec) -> Tuple[Basis, Basis]:
    """Orthonormal bases of k and of its orthogonal complement m inside g;
    k is `basis_g(space.subgroup_spec())` itself."""
    return basis_g(space.subgroup_spec()), _basis(*_m_families(space))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def pade_exp(a) -> np.ndarray:
    """r(A) = q(-A)^-1 q(A) with q(A) = I + A/2 + A^2/12, the (2,2) Pade
    approximant of exp, for every matrix of a complex (..., n, n) stack,
    complex128 and clongdouble among them.

    r(A) r(-A) = I, so r maps so(n), sp(n) and the embedded u(n) into their
    groups, and su(n) into U(n): |det| = 1, but det != 1 in general.  The
    roots of q are -3 +- i sqrt3, so q(-A) is invertible for A
    skew-Hermitian or Hermitian, and for A Hermitian r(A) is positive
    definite with eigenvalues in [(2 - sqrt3)^2, (2 + sqrt3)^2].

    numpy's linalg has no clongdouble, so one LU solve runs in complex128.  It
    is backward stable and q(-A) well conditioned (|q(i t)| >= 1, q(-l) >= 1/4
    for real t, l), so only a wider dtype adds a step of refinement, with the
    residual formed in that dtype.  Each matrix keeps the bits it has alone.
    """
    a = np.asarray(a)
    odd, even = a / 2, np.eye(a.shape[-1], dtype=a.dtype) + np.matmul(a, a) / 12
    num, den = even + odd, even - odd
    den128 = den.astype(np.complex128, copy=False)
    x = np.linalg.solve(den128, num.astype(np.complex128, copy=False)).astype(a.dtype, copy=False)
    if np.finfo(a.dtype).eps < np.finfo(np.complex128).eps:
        x = x + np.linalg.solve(den128, (num - np.matmul(den, x)).astype(np.complex128))
    return x


def _combination(stack: np.ndarray, coeffs) -> np.ndarray:
    """sum_q c_q Z_q for every row of a (..., B) coefficient array.

    The real coefficients meet the real and the imaginary parts of the stack
    in two real einsums, with the bits of one complex einsum of the
    coefficients cast to complex at a quarter of its cost.  A plain einsum
    gives a row the same bits in a batch of any size; a BLAS contraction
    such as tensordot does not, and replay needs those bits.
    """
    c = np.asarray(coeffs, dtype=float)
    out = np.empty(c.shape[:-1] + stack.shape[1:], dtype=stack.dtype)
    out.real = np.einsum("...q,qij->...ij", c, stack.real)
    out.imag = np.einsum("...q,qij->...ij", c, stack.imag)
    return out


def sample_with_coefficients(
    spec: GroupSpec,
    rng: Optional[CounterStream],
    sigma: float = 0.5,
    shape: Tuple[int, ...] = (),
    coeffs: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """r(sum_i c_i Z_i) over the basis of g, with c_i ~ N(0, sigma^2) and r
    the Pade approximant `pade_exp`; returns the points and their c.

    c has shape `shape` + (dim g,) and comes from one `rng.normal` call, so
    a batch draws the same numbers as that many one-point calls in a row.
    Coefficients drawn elsewhere can be passed as `coeffs` instead.  The
    points form one complex array `shape` + (size, size).
    """
    if sigma <= 0:
        raise UsageError(f"sigma must be positive, got {sigma}")
    stack = basis_g(spec).stack()
    if coeffs is None:
        coeffs = rng.normal(0.0, sigma, size=(*shape, len(stack)))
    return pade_exp(_combination(stack, coeffs)), coeffs


def sample(
    spec: GroupSpec, rng: CounterStream, sigma: float = 0.5, shape: Tuple[int, ...] = ()
) -> np.ndarray:
    return sample_with_coefficients(spec, rng, sigma, shape)[0]


def rebuild_sample(spec: GroupSpec, coeffs) -> np.ndarray:
    """Replay helper: the points of stored coefficients, bit for bit the
    points `sample_with_coefficients` drew with them."""
    return sample_with_coefficients(spec, None, coeffs=coeffs)[0]


def rebuild_dual_sample(space: SymmetricSpaceSpec, a, b) -> np.ndarray:
    """The points r(sum a_i K_i) r(sum b_j iM_j) of the non-compact dual
    group, for r the Pade approximant `pade_exp` and coefficients a over k
    and b over m with the same leading batch axes, from one `pade_exp` call
    on the stack of both exponents; each factor keeps the bits of its own
    one-matrix call, and the m-factor is positive definite."""
    k_basis, m_basis = cartan_decomposition(space)
    k, m = pade_exp(np.stack([_combination(k_basis.stack(), a), 1j * _combination(m_basis.stack(), b)]))
    return k @ m
