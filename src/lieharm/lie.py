"""Catalog of the classical groups in play: orthonormal Lie-algebra bases,
Cartan decompositions of the four symmetric pairs, embeddings, random
sampling and membership diagnostics.

Conventions.  The inner product is g(Z, W) = Re trace(Z W*); every basis
below is orthonormal for it.  Elementary matrices E_rs, the symmetric /
skew-symmetric / diagonal generators

    X_rs = (E_rs + E_sr)/sqrt2,   Y_rs = (E_rs - E_sr)/sqrt2,   D_r = E_rr,

and the complex structure J = [[0, I], [-I, 0]] are floating matrices.
The exact route sees a basis as a `Lattice`: every element is c N with N
a Gaussian-integer matrix (int64 real and imaginary parts) and c in
Q(sqrt 2), built from the same integer patterns as the floating basis.
A unitary z = x + iy embeds into the 2n x 2n real matrices as
[[x, y], [-y, x]]; that single embedding realises U(n) inside both
SO(2n) and Sp(n).

Sample points are exp(sum_q c_q Z_q) with Gaussian c.  One call draws and
exponentiates a whole batch: the coefficients carry leading batch axes,
and `expm` (Taylor scaling and squaring in numpy, the polynomial by
Paterson-Stockmeyer) exponentiates the (..., n, n) stack at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .exact import INV_SQRT2, QSqrt2
from .matrices import CMatrix, ShapeError, standard_symplectic

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


# ---------------------------------------------------------------------------
# elementary generators
# ---------------------------------------------------------------------------

# X_rs, Y_rs and D_r are c N with N an integer pattern; c as a float and exactly
_FLOAT_SCALE = {"X": 1.0 / np.sqrt(2.0), "Y": 1.0 / np.sqrt(2.0), "D": 1.0}
_EXACT_SCALE = {"X": INV_SQRT2, "Y": INV_SQRT2, "D": QSqrt2(1)}


def elementary(n: int, r: int, s: int) -> CMatrix:
    """E_rs with a single 1 at (r, s); indices are 1-based."""
    if not (1 <= r <= n and 1 <= s <= n):
        raise UsageError(f"elementary: indices ({r},{s}) out of range for n={n}")
    m = np.zeros((n, n), dtype=complex)
    m[r - 1, s - 1] = 1.0
    return CMatrix(m)


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


def _float_generator(kind: str, pattern: np.ndarray) -> np.ndarray:
    return (pattern * _FLOAT_SCALE[kind]).astype(complex)


def generator(kind: str, n: int, r: int, s: Optional[int] = None) -> CMatrix:
    """X_rs, Y_rs (1 <= r < s <= n) or D_r (1 <= r <= n)."""
    return CMatrix(_float_generator(kind, _pattern(kind, n, r, s)))


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


# ---------------------------------------------------------------------------
# orthonormal bases
# ---------------------------------------------------------------------------


@dataclass
class AlgebraBasis:
    """Ordered orthonormal basis of a matrix Lie algebra."""

    name: str
    elements: List[CMatrix]
    _stack: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def stack(self) -> np.ndarray:
        """All elements as one (count, size, size) complex array."""
        if self._stack is None:
            self._stack = np.stack([e.to_complex() for e in self.elements])
        return self._stack

    def gram(self) -> np.ndarray:
        s = self.stack()
        return np.real(np.einsum("aij,bij->ab", s, np.conj(s)))


def _traceless_diagonal(n: int, t: int) -> CMatrix:
    """(D_1 + ... + D_t - t D_{t+1}) / sqrt(t(t+1)); unit norm, mutually orthogonal."""
    m = np.zeros((n, n), dtype=complex)
    c = 1.0 / np.sqrt(t * (t + 1))
    for j in range(t):
        m[j, j] = c
    m[t, t] = -t * c
    return CMatrix(m)


def so_basis(n: int) -> AlgebraBasis:
    els = [generator("Y", n, r, s) for r in range(1, n + 1) for s in range(r + 1, n + 1)]
    return AlgebraBasis(f"so({n})", els)


def su_basis(n: int) -> AlgebraBasis:
    """Y_rs, i X_rs and i H_t with H_t the traceless diagonals."""
    els: List[CMatrix] = []
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            els.append(generator("Y", n, r, s))
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            els.append(generator("X", n, r, s).scale(1j))
    for t in range(1, n):
        els.append(_traceless_diagonal(n, t).scale(1j))
    return AlgebraBasis(f"su({n})", els)


# the generator kind each family of _sp_families is built from, and the
# families that span the embedded u(n)
_SP_FAMILY_KINDS = ("Y", "X", "D", "X", "X", "D", "D")
_U_FAMILIES = (0, 3, 5)


def _sp_families(xs: List[np.ndarray], ys: List[np.ndarray], ds: List[np.ndarray]):
    """The seven generator families of sp(n), built from the n x n X, Y and D
    generators; the common factor 1/sqrt2 is left to the caller."""
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


def _sp_float_families(n: int) -> List[List[CMatrix]]:
    half = 1.0 / np.sqrt(2.0)
    gens = ([_float_generator(k, p) for p in _patterns(k, n)] for k in "XYD")
    return [[CMatrix(m * half) for m in fam] for fam in _sp_families(*gens)]


def sp_basis(n: int) -> AlgebraBasis:
    els = [m for fam in _sp_float_families(n) for m in fam]
    return AlgebraBasis(f"sp({n})", els)


def u_embedded_basis(n: int) -> AlgebraBasis:
    """u(n) pushed through z = x + iy -> [[x, y], [-y, x]]; lies in both so(2n) and sp(n)."""
    fams = _sp_float_families(n)
    els = [m for i in _U_FAMILIES for m in fams[i]]
    return AlgebraBasis(f"u({n})-embedded", els)


@lru_cache(maxsize=None)
def basis_g(spec: GroupSpec) -> AlgebraBasis:
    """Bases are cached; AlgebraBasis instances are shared and must not be mutated."""
    if spec.family == SO:
        return so_basis(spec.n)
    if spec.family == SU:
        return su_basis(spec.n)
    if spec.family == SP:
        return sp_basis(spec.n)
    return u_embedded_basis(spec.n)


# ---------------------------------------------------------------------------
# exact bases as lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Lattice:
    """Matrices c_q N_q: each N_q a Gaussian-integer matrix, held as int64 real
    and imaginary parts `re[q]`, `im[q]`, and each scale c_q in Q(sqrt 2).

    Sums of products of two entries of one element, such as sum_q c_q^2
    N_q E_ab N_q^t, are then integer linear algebra weighted by the
    rationals c_q^2.  The arrays of a cached lattice are read-only.
    """

    name: str
    re: np.ndarray
    im: np.ndarray
    scales: Tuple[QSqrt2, ...]

    def weights(self) -> List[Fraction]:
        """c_q^2 for every element; raises ValueError if one is irrational."""
        return [(c * c).as_fraction() for c in self.scales]


def _lattice(name: str, families) -> Lattice:
    """A lattice from (scale, Gaussian-integer complex matrices) families."""
    stack = np.array([m for _, fam in families for m in fam], dtype=complex)
    re, im = stack.real.astype(np.int64), stack.imag.astype(np.int64)
    re.flags.writeable = im.flags.writeable = False
    return Lattice(name, re, im, tuple(c for c, fam in families for _ in fam))


@lru_cache(maxsize=None)
def generator_lattice(kind: str, n: int) -> Lattice:
    """Every X_rs or Y_rs (r < s), or every D_t, of gl(n), in index order."""
    patterns = _patterns(kind, n)  # raises UsageError for an unknown kind
    return _lattice(f"{kind}({n})", [(_EXACT_SCALE[kind], patterns)])


@lru_cache(maxsize=None)
def basis_lattice(spec: GroupSpec) -> Lattice:
    """The basis `basis_g(spec)` as a lattice, element for element.

    su(n) has none: its diagonals i H_t carry 1/sqrt(t(t+1)), which lies
    outside Q(sqrt 2) for t >= 2, and nothing needs su(2) exactly.
    """
    n = spec.n
    if spec.family == SU:
        raise UsageError(f"{spec}: su(n) has no basis over Q(sqrt2) lattices")
    if spec.family == SO:
        return _lattice(f"so({n})", [(INV_SQRT2, _patterns("Y", n))])
    fams = _sp_families(*(_patterns(k, n) for k in "XYD"))
    pairs = [(_EXACT_SCALE[k] * INV_SQRT2, fam) for k, fam in zip(_SP_FAMILY_KINDS, fams)]
    if spec.family == SP:
        return _lattice(f"sp({n})", pairs)
    return _lattice(f"u({n})-embedded", [pairs[i] for i in _U_FAMILIES])


def algebra_dimension(spec: GroupSpec) -> int:
    n = spec.n
    if spec.family == SO:
        return n * (n - 1) // 2
    if spec.family == SU:
        return n * n - 1
    if spec.family == SP:
        return n * (2 * n + 1)
    return n * n  # embedded u(n)


# ---------------------------------------------------------------------------
# Cartan decompositions g = k + m
# ---------------------------------------------------------------------------


def _sun_son_m_basis(n: int) -> AlgebraBasis:
    els = [
        generator("X", n, r, s).scale(1j)
        for r in range(1, n + 1)
        for s in range(r + 1, n + 1)
    ]
    els += [_traceless_diagonal(n, t).scale(1j) for t in range(1, n)]
    return AlgebraBasis(f"m[su({n})/so({n})]", els)


def _spn_un_m_basis(n: int) -> AlgebraBasis:
    fams = _sp_float_families(n)
    els = fams[1] + fams[2] + fams[4] + fams[6]
    return AlgebraBasis(f"m[sp({n})/u({n})]", els)


def _so2n_un_m_basis(n: int) -> AlgebraBasis:
    half = 1.0 / np.sqrt(2.0)
    ys = [_float_generator("Y", p) for p in _patterns("Y", n)]
    els = [CMatrix(_block_diag(y, -y) * half) for y in ys]
    els += [CMatrix(_block_off(y, y) * half) for y in ys]
    return AlgebraBasis(f"m[so({2 * n})/u({n})]", els)


def _su2n_spn_m_basis(n: int) -> AlgebraBasis:
    """Blocks [[P, Q], [conj(Q), -conj(P)]] with P in su(n), Q complex skew."""
    half = 1.0 / np.sqrt(2.0)
    els: List[CMatrix] = []
    for u in su_basis(n).elements:
        p = u.to_complex()
        els.append(CMatrix(_block_diag(p, -np.conj(p)) * half))
    for y in (_float_generator("Y", p) for p in _patterns("Y", n)):
        for q in (y, 1j * y):
            els.append(CMatrix(_block_off(q, np.conj(q)) * half))
    return AlgebraBasis(f"m[su({2 * n})/sp({n})]", els)


@lru_cache(maxsize=None)
def cartan_decomposition(space: SymmetricSpaceSpec) -> Tuple[AlgebraBasis, AlgebraBasis]:
    """Orthonormal bases of k and of its orthogonal complement m inside g."""
    n = space.n
    if space.family == SUN_SON:
        return so_basis(n), _sun_son_m_basis(n)
    if space.family == SPN_UN:
        return u_embedded_basis(n), _spn_un_m_basis(n)
    if space.family == SO2N_UN:
        return u_embedded_basis(n), _so2n_un_m_basis(n)
    return sp_basis(n), _su2n_spn_m_basis(n)


# ---------------------------------------------------------------------------
# embeddings and sampling
# ---------------------------------------------------------------------------


def embed_unitary(z: np.ndarray) -> np.ndarray:
    """x + iy -> [[x, y], [-y, x]], the embedding of U(n) into SO(2n) and Sp(n)."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    x, y = np.real(z), np.imag(z)
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = x
    out[:n, n:] = y
    out[n:, :n] = -y
    out[n:, n:] = x
    return out


# degree of the Taylor polynomial in `expm`
_TAYLOR_DEGREE = 30


@lru_cache(maxsize=None)
def _inverse_factorials(real: np.dtype) -> tuple:
    """1/j! for j <= _TAYLOR_DEGREE, computed in the real dtype `real`."""
    factorials = np.array([math.factorial(j) for j in range(_TAYLOR_DEGREE + 1)], dtype=real)
    return tuple(np.ones((), dtype=real) / factorials)


def expm(a) -> np.ndarray:
    """The exponential of every matrix of an (..., n, n) stack of any inexact
    dtype, complex128 and clongdouble among them.

    Taylor scaling and squaring (Bader, Blanes & Casas 2019, "Computing the
    matrix exponential with an optimized Taylor polynomial approximation"):
    each matrix is halved s times until its 1-norm is at most theta, where
    theta^(m+1)/(m+1)! is the unit roundoff u of its dtype for the degree
    m = 30, so the Taylor remainder stays within about u; the polynomial
    sum_{j<=m} A^j / j! is evaluated by the Paterson-Stockmeyer scheme
    (Higham, *Functions of Matrices*, 2008, section 4.2) and squared s times.

    With q = ceil(sqrt(m)) = 6 and R = ceil(m / q) - 1 = 4, the powers
    A^2..A^q cost q - 1 = 5 products, and

        p = B_0 + A^q (B_1 + A^q (B_2 + ... + A^q B_R)),
        B_r = sum_j A^j / (qr + j)!  over j < q (over j <= m - qR for r = R),

    costs R = 4 more: 9 matrix products in all (Horner's rule takes m = 30),
    plus one per squaring.  The block sums are elementwise, with the
    coefficients 1/j! formed in the real dtype of the input.  Only matmuls
    and elementwise arithmetic are used, so each matrix of a stack gets the
    same bits as on its own.
    """
    a = np.asarray(a)
    m = _TAYLOR_DEGREE
    real = np.finfo(a.dtype).dtype
    u = float(np.finfo(a.dtype).eps) / 2
    theta = (u * math.factorial(m + 1)) ** (1.0 / (m + 1))
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    frac, exp2 = np.frexp(norm / theta)
    s = np.maximum(exp2 - (frac == 0.5), 0)  # the least s >= 0 with norm / 2^s <= theta
    a = a * np.ldexp(np.ones_like(norm), -s)[..., None, None]
    q = math.isqrt(m - 1) + 1  # ceil(sqrt(m))
    top = (m - 1) // q  # R, the index of the last block
    powers = [np.eye(a.shape[-1], dtype=a.dtype), a]
    for _ in range(q - 1):
        powers.append(np.matmul(powers[-1], a))
    coef = _inverse_factorials(real)

    def block(r: int) -> np.ndarray:
        last = q - 1 if r < top else m - q * top
        b = powers[0] * coef[q * r]
        for j in range(1, last + 1):
            b = b + powers[j] * coef[q * r + j]
        return b

    p = block(top)
    for r in range(top - 1, -1, -1):
        p = block(r) + np.matmul(powers[q], p)
    for j in range(int(s.max(initial=0))):
        p = np.where((s > j)[..., None, None], np.matmul(p, p), p)
    return p


def _combination(stack: np.ndarray, coeffs) -> np.ndarray:
    """sum_q c_q Z_q for every row of a (..., B) coefficient array.

    A plain einsum gives a row the same bits in a batch of any size; a BLAS
    contraction such as tensordot does not, and replay needs those bits.
    """
    return np.einsum("...q,qij->...ij", np.asarray(coeffs, dtype=float), stack)


def sample_with_coefficients(
    spec: GroupSpec,
    rng: np.random.Generator,
    sigma: float = 0.5,
    shape: Tuple[int, ...] = (),
    coeffs: Optional[np.ndarray] = None,
) -> Tuple[CMatrix, np.ndarray]:
    """exp(sum_i c_i Z_i) over the basis of g, with c_i ~ N(0, sigma^2); returns
    the points and their c.

    c has shape `shape` + (dim g,) and comes from one `rng.normal` call, so
    a batch draws the same numbers as that many one-point calls in a row.
    Coefficients drawn elsewhere can be passed as `coeffs` instead.  The
    points form one CMatrix with batch axes `shape` (a single point for ()).
    """
    if sigma <= 0:
        raise UsageError(f"sigma must be positive, got {sigma}")
    stack = basis_g(spec).stack()
    if coeffs is None:
        coeffs = rng.normal(0.0, sigma, size=(*shape, len(stack)))
    return CMatrix(expm(_combination(stack, coeffs))), coeffs


def sample(
    spec: GroupSpec, rng: np.random.Generator, sigma: float = 0.5, shape: Tuple[int, ...] = ()
) -> CMatrix:
    return sample_with_coefficients(spec, rng, sigma, shape)[0]


def rebuild_sample(spec: GroupSpec, coeffs) -> CMatrix:
    """Replay helper: the points of stored coefficients, bit for bit the
    points `sample_with_coefficients` drew with them."""
    return CMatrix(expm(_combination(basis_g(spec).stack(), coeffs)))


def sample_dual_with_coefficients(
    space: SymmetricSpaceSpec, rng: np.random.Generator, sigma: float = 0.2
) -> Tuple[CMatrix, np.ndarray, np.ndarray]:
    """A point exp(sum a_i K_i) exp(sum b_j iM_j) of the non-compact dual group."""
    if sigma <= 0:
        raise UsageError(f"sigma must be positive, got {sigma}")
    k_basis, m_basis = cartan_decomposition(space)
    a = rng.normal(0.0, sigma, size=len(k_basis))
    b = rng.normal(0.0, sigma, size=len(m_basis))
    return rebuild_dual_sample(space, a, b), a, b


def sample_dual(space: SymmetricSpaceSpec, rng: np.random.Generator, sigma: float = 0.2) -> CMatrix:
    return sample_dual_with_coefficients(space, rng, sigma)[0]


def rebuild_dual_sample(space: SymmetricSpaceSpec, a, b) -> CMatrix:
    """exp(sum a_i K_i) exp(sum b_j iM_j) from one `expm` call on the stack of
    both exponents; each factor keeps the bits of its own one-matrix call."""
    k_basis, m_basis = cartan_decomposition(space)
    k, m = expm(np.stack([_combination(k_basis.stack(), a), 1j * _combination(m_basis.stack(), b)]))
    return CMatrix(k @ m)


# ---------------------------------------------------------------------------
# membership diagnostics
# ---------------------------------------------------------------------------


@dataclass
class MembershipReport:
    spec: GroupSpec
    unitarity: float
    determinant: float
    symplectic: Optional[float] = None
    realness: Optional[float] = None
    embedding: Optional[float] = None

    @property
    def max_residual(self) -> float:
        vals = [self.unitarity, self.determinant]
        for v in (self.symplectic, self.realness, self.embedding):
            if v is not None:
                vals.append(v)
        return max(vals)

    def ok(self, tol: float = 1e-10) -> bool:
        return self.max_residual <= tol


def membership_check(spec: GroupSpec, x: CMatrix) -> MembershipReport:
    m = x.to_complex()
    size = spec.matrix_size
    if m.shape != (size, size):
        raise ShapeError(f"membership_check: expected {(size, size)}, got {m.shape}")
    eye = np.eye(size)
    unitarity = float(np.max(np.abs(m @ np.conj(m.T) - eye)))
    determinant = float(abs(np.linalg.det(m) - 1.0))
    report = MembershipReport(spec, unitarity, determinant)
    if spec.family == SO:
        report.realness = float(np.max(np.abs(np.imag(m))))
    if spec.family in (SP, U_IN_SPN, U_IN_SO2N):
        j = standard_symplectic(spec.n).to_complex()
        report.symplectic = float(np.max(np.abs(m @ j @ m.T - j)))
    if spec.family in (U_IN_SPN, U_IN_SO2N):
        n = spec.n
        block = max(
            float(np.max(np.abs(m[:n, :n] - m[n:, n:]))),
            float(np.max(np.abs(m[:n, n:] + m[n:, :n]))),
            float(np.max(np.abs(np.imag(m)))),
        )
        report.embedding = block
    return report
