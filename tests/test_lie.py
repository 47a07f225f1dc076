"""Group catalog: generator values, basis dimensions and orthonormality,
algebra membership, Cartan bracket relations, embeddings, sampling."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from lieharm.lie import (
    GROUP_FAMILIES,
    GroupSpec,
    SO,
    SO2N_UN,
    SP,
    SPACE_FAMILIES,
    SPN_UN,
    SU,
    SU2N_SPN,
    SUN_SON,
    SymmetricSpaceSpec,
    U_IN_SO2N,
    U_IN_SPN,
    UsageError,
    basis_g,
    cartan_decomposition,
    generator,
    generator_lattice,
    pade_exp,
    rebuild_dual_sample,
    rebuild_sample,
    sample,
    sample_with_coefficients,
    standard_symplectic,
)
from lieharm.matrices import ShapeError

RNG = np.random.default_rng(2024)


# --- oracles: dimensions, the unitary embedding, group membership -----------------


def algebra_dimension(spec: GroupSpec) -> int:
    n = spec.n
    if spec.family == SO:
        return n * (n - 1) // 2
    if spec.family == SU:
        return n * n - 1
    if spec.family == SP:
        return n * (2 * n + 1)
    return n * n  # embedded u(n)


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


def membership_check(spec: GroupSpec, x: np.ndarray) -> MembershipReport:
    m = np.asarray(x)
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
        j = standard_symplectic(spec.n)
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


# --- specs ------------------------------------------------------------------


def test_group_spec_validation():
    with pytest.raises(UsageError):
        GroupSpec("SO", 1)
    with pytest.raises(UsageError):
        GroupSpec("E8", 2)
    assert GroupSpec(SO, 5).matrix_size == 5
    assert GroupSpec(SP, 3).matrix_size == 6
    assert GroupSpec(U_IN_SO2N, 3).matrix_size == 6


def test_space_spec_groups():
    s = SymmetricSpaceSpec(SU2N_SPN, 2)
    assert s.group_spec() == GroupSpec(SU, 4)
    assert s.subgroup_spec() == GroupSpec(SP, 2)
    assert SymmetricSpaceSpec(SO2N_UN, 3).group_spec() == GroupSpec(SO, 6)


# --- generators --------------------------------------------------------------


def test_y_generator_value():
    y = generator("Y", 2, 1, 2)
    assert type(y) is np.ndarray and y.dtype == np.complex128
    c = 1 / np.sqrt(2)
    assert np.allclose(y, np.array([[0, c], [-c, 0]]))


def test_generator_precondition():
    with pytest.raises(UsageError):
        generator("X", 3, 2, 2)
    with pytest.raises(UsageError):
        generator("Y", 3, 3, 1)
    with pytest.raises(UsageError):
        generator("D", 3, 4)


def test_x_y_orthogonal():
    x = generator("X", 4, 1, 3)
    y = generator("Y", 4, 1, 3)
    assert abs((x @ y.T).trace()) < 1e-15


def test_exact_generators_match_float():
    for kind in ("X", "Y"):
        e = generator_lattice(kind, 3).stack()[0]
        f = generator(kind, 3, 1, 2)
        assert np.max(np.abs(e - f)) < 1e-15
    d2 = generator_lattice("D", 3).stack()[1]
    assert np.array_equal(d2, generator("D", 3, 2))


# --- bases -------------------------------------------------------------------


@pytest.mark.parametrize("family,n,dim", [
    (SO, 3, 3), (SO, 6, 15), (SU, 3, 8), (SU, 5, 24),
    (SP, 2, 10), (SP, 3, 21), (U_IN_SPN, 2, 4), (U_IN_SO2N, 4, 16),
])
def test_basis_dimensions(family, n, dim):
    spec = GroupSpec(family, n)
    assert algebra_dimension(spec) == dim
    assert len(basis_g(spec)) == dim


def _gram(stack):
    return np.einsum("aij,bij->ab", stack, np.conj(stack)).real


@pytest.mark.parametrize("family", [SO, SU, SP, U_IN_SPN, U_IN_SO2N])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_orthonormal(family, n):
    b = basis_g(GroupSpec(family, n))
    assert np.max(np.abs(_gram(b.stack()) - np.eye(len(b)))) < 1e-12


def test_dimension_closed_forms_all_families():
    for n in range(2, 7):
        assert len(basis_g(GroupSpec(SO, n))) == n * (n - 1) // 2
        assert len(basis_g(GroupSpec(SU, n))) == n * n - 1
        assert len(basis_g(GroupSpec(SP, n))) == n * (2 * n + 1)
        assert len(basis_g(GroupSpec(U_IN_SPN, n))) == n * n
        assert len(basis_g(GroupSpec(U_IN_SO2N, n))) == n * n


def _integer_gram(x, y):
    """Re tr(N_i N_j^H) for every pair of patterns, in int64."""
    return np.einsum("pij,qij->pq", x.re, y.re) + np.einsum("pij,qij->pq", x.im, y.im)


@pytest.mark.parametrize("family,n", [
    *((family, n) for family in (SO, SU, SP, U_IN_SPN, U_IN_SO2N) for n in range(2, 7)),
    *((family, n) for family in SPACE_FAMILIES for n in range(2, 7)),
])
def test_exact_basis_gram_is_identity(family, n):
    # c_i^2 Re tr(N_i N_i*) = 1 as a Fraction and Re tr(N_i N_j*) = 0 in integers
    # for i != j; for a space, the bases of k and of m, and k orthogonal to m
    if family in SPACE_FAMILIES:
        k, m = cartan_decomposition(SymmetricSpaceSpec(family, n))
        bases = (k, m)
        assert not _integer_gram(k, m).any()
    else:
        bases = (basis_g(GroupSpec(family, n)),)
    for b in bases:
        gram = _integer_gram(b, b)
        assert all(isinstance(w, Fraction) and w * int(gram[i, i]) == 1 for i, w in enumerate(b.weights))
        assert not (gram - np.diag(np.diag(gram))).any()


@pytest.mark.parametrize("family", [SO, SU, SP, U_IN_SPN, U_IN_SO2N])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_lattice_basis_matches_float_basis(family, n):
    # every entry of the float64 stack is the exact c N to within its roundings
    # (sqrt(num), sqrt(den), their quotient c, and the product N c): compared
    # as squares, (N c)^2 = N^2 c^2, in Fractions
    b = basis_g(GroupSpec(family, n))
    u = Fraction(float(np.finfo(np.float64).eps) / 2)
    for part, pattern in ((b.stack().real, b.re), (b.stack().imag, b.im)):
        assert np.array_equal(part == 0, pattern == 0)
        for value, entry, w in zip(part, pattern, b.weights):
            for v, e in zip(value[entry != 0], entry[entry != 0]):
                exact = int(e) ** 2 * w
                assert abs(Fraction(float(v)) ** 2 - exact) <= 10 * u * exact
    if family != SU:
        assert set(b.weights) <= {Fraction(1, 2), Fraction(1, 4)}


def test_so_basis_skew_symmetric():
    for m in basis_g(GroupSpec(SO, 5)).stack():
        assert np.max(np.abs(m + m.T)) < 1e-15
        assert np.max(np.abs(np.imag(m))) == 0


def test_su_basis_skew_hermitian_traceless():
    for m in basis_g(GroupSpec(SU, 4)).stack():
        assert np.max(np.abs(m + np.conj(m.T))) < 1e-15
        assert abs(np.trace(m)) < 1e-15


def test_sp_basis_conditions():
    # dim sp(2) = 10; every element satisfies Z^t J + J Z = 0 and Z* = -Z
    b = basis_g(GroupSpec(SP, 2))
    assert len(b) == 10
    j = standard_symplectic(2)
    for m in b.stack():
        assert np.max(np.abs(m.T @ j + j @ m)) < 1e-12
        assert np.max(np.abs(np.conj(m.T) + m)) < 1e-12


# --- Cartan decomposition -----------------------------------------------------


@pytest.mark.parametrize("family,n,dims", [
    (SUN_SON, 3, (3, 5)), (SPN_UN, 2, (4, 6)), (SO2N_UN, 3, (9, 6)), (SU2N_SPN, 2, (10, 5)),
])
def test_cartan_dimensions(family, n, dims):
    k, m = cartan_decomposition(SymmetricSpaceSpec(family, n))
    assert (len(k), len(m)) == dims
    assert k is basis_g(SymmetricSpaceSpec(family, n).subgroup_spec())
    g = basis_g(SymmetricSpaceSpec(family, n).group_spec())
    assert len(k) + len(m) == len(g)


def _bracket_components(z, w, stack):
    br = z @ w - w @ z
    return np.einsum("ij,bij->b", br, np.conj(stack)).real


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cartan_bracket_relations(family, n):
    space = SymmetricSpaceSpec(family, n)
    k, m = cartan_decomposition(space)
    ks, ms = k.stack(), m.stack()
    rng = np.random.default_rng(5)

    def pick(stack):
        return stack[rng.integers(0, len(stack))]

    for _ in range(6):
        # [k, k] in k, [k, m] in m, [m, m] in k: vanishing complement components
        assert np.max(np.abs(_bracket_components(pick(ks), pick(ks), ms))) < 1e-12
        assert np.max(np.abs(_bracket_components(pick(ks), pick(ms), ks))) < 1e-12
        assert np.max(np.abs(_bracket_components(pick(ms), pick(ms), ms))) < 1e-12


def test_k_and_m_mutually_orthogonal():
    for family, n in [(SUN_SON, 3), (SPN_UN, 2), (SO2N_UN, 2), (SU2N_SPN, 2)]:
        k, m = cartan_decomposition(SymmetricSpaceSpec(family, n))
        cross = np.einsum("aij,bij->ab", k.stack(), np.conj(m.stack())).real
        assert np.max(np.abs(cross)) < 1e-12


# --- embedding ----------------------------------------------------------------


def test_unitary_embedding_lands_in_so_and_sp():
    rng = np.random.default_rng(8)
    for n in (2, 3):
        z = sample(GroupSpec(U_IN_SPN, n), rng)  # already embedded
        for family in (U_IN_SO2N, U_IN_SPN):
            rep = membership_check(GroupSpec(family, n), z)
            assert rep.max_residual < 1e-12


def test_embed_unitary_block_structure():
    rng = np.random.default_rng(9)
    # build an honest unitary via the SU(2) sampler and a phase
    u = sample(GroupSpec(SU, 2), rng) * np.exp(0.3j)
    m = embed_unitary(u)
    rep = membership_check(GroupSpec(U_IN_SO2N, 2), m)
    assert rep.max_residual < 1e-10
    assert np.allclose(m[:2, :2], np.real(u))
    assert np.allclose(m[:2, 2:], np.imag(u))


# --- sampling -----------------------------------------------------------------


def test_sample_sigma_zero_limit_is_identity():
    x = sample(GroupSpec(SU, 3), np.random.default_rng(0), sigma=1e-12)
    assert np.max(np.abs(x - np.eye(3))) < 1e-10


def test_sample_su3_membership():
    # the sampler maps su(n) into U(n), not SU(n): a point is unitary with
    # |det| = 1, but det != 1 once n >= 3 (for n = 2 the eigenvalues
    # +-i theta of A give det r(A) = 1)
    x = sample(GroupSpec(SU, 3), np.random.default_rng(1), sigma=0.5)
    rep = membership_check(GroupSpec(SU, 3), x)
    det = np.linalg.det(x)
    assert rep.unitarity <= 1e-10 and abs(abs(det) - 1) <= 1e-10
    assert abs(det - 1) > 1e-6


def test_sample_sp2_preserves_j():
    q = sample(GroupSpec(SP, 2), np.random.default_rng(2), sigma=0.5)
    j = standard_symplectic(2)
    assert np.max(np.abs(q @ j @ q.T - j)) <= 1e-10


def test_sample_so6_membership():
    x = sample(GroupSpec(SO, 6), np.random.default_rng(3), sigma=0.5)
    assert membership_check(GroupSpec(SO, 6), x).max_residual <= 1e-10


def test_rebuild_sample_is_bitwise():
    # a batch draws the numbers of as many one-point draws in a row, and every
    # point, rebuilt alone or in a batch from its stored coefficients, keeps its bits
    spec = GroupSpec(SP, 2)
    x, coeffs = sample_with_coefficients(spec, np.random.default_rng(4), 0.5, (7,))
    assert type(x) is np.ndarray and x.dtype == np.complex128
    assert x.shape == (7, 4, 4) and coeffs.shape == (7, 10)
    rng = np.random.default_rng(4)
    for i in range(7):
        xi, ci = sample_with_coefficients(spec, rng, 0.5)
        assert np.array_equal(ci, coeffs[i])
        assert np.array_equal(xi, x[i])
        y = rebuild_sample(spec, [float(c) for c in coeffs[i]])
        assert np.array_equal(x[i], y)
    assert np.array_equal(x, rebuild_sample(spec, coeffs))


def _same_bits(a, b):
    """Equal dtypes, values and signs of zero in both parts."""
    return a.dtype == b.dtype and np.array_equal(a, b) and all(
        np.array_equal(np.signbit(p(a)), np.signbit(p(b))) for p in (np.real, np.imag)
    )


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_combination_is_bitwise_one_complex_einsum(family, dtype):
    # sum_q c_q Z_q as two real einsums over the parts of the stack has the
    # bits of one complex einsum of the coefficients cast to complex, on the
    # bases of g, k and m at every n, and a row of a batch keeps the bits it
    # has alone
    import lieharm.lie as lie

    rng = np.random.default_rng(31)
    for n in range(2, 6):
        space = SymmetricSpaceSpec(family, n)
        for basis in (basis_g(space.group_spec()), *cartan_decomposition(space)):
            stack = basis.stack(dtype)
            coeffs = rng.normal(0.0, 0.5, (6, len(basis)))
            got = lie._combination(stack, coeffs)
            assert _same_bits(got, np.einsum("...q,qij->...ij", coeffs.astype(complex), stack))
            for row, point in zip(coeffs, got):
                assert _same_bits(lie._combination(stack, row), point)


def test_sigma_must_be_positive():
    with pytest.raises(UsageError):
        sample(GroupSpec(SO, 3), np.random.default_rng(0), sigma=0.0)


# --- the sampler: r, the (2,2) Pade approximant of exp ----------------------------


def _gamma(k, dtype):
    """gamma_k = k u / (1 - k u) for the unit roundoff u = eps/2 of `dtype`
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, section 3.1)."""
    u = float(np.finfo(dtype).eps) / 2
    return k * u / (1 - k * u)


def _defect_floor(size, dtype):
    """gamma_(size+4) in `dtype`: the largest entry of X X^H - I, or X J X^t - J,
    that rounding alone may show for X the correctly rounded value of an
    exactly unitary, or unitary and symplectic, size x size matrix U.
    Rounding U costs 2u per entry (|X - U| <= u|U|, and Cauchy-Schwarz on
    the unit rows), the computed inner product of two rows another
    (size - 1 + 2 sqrt 2) u (Higham, lemma 3.5 and section 3.1); X J and the
    subtraction of I or J are exact (a signed permutation, and Sterbenz's
    lemma)."""
    return _gamma(size + 4, dtype)


def _algebra_stack(spec, sigma, count, seed, dtype=np.complex128):
    """`count` elements sum_q c_q Z_q of g with c ~ N(0, sigma^2), in `dtype`."""
    stack = basis_g(spec).stack(dtype)
    coeffs = np.random.default_rng(seed).normal(0.0, sigma, size=(count, len(stack)))
    return np.einsum("...q,qij->...ij", coeffs.astype(np.finfo(dtype).dtype), stack)


_DTYPES = pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble], ids=lambda d: np.dtype(d).name)


@_DTYPES
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", GROUP_FAMILIES)
def test_pade_exp_of_zero_is_identity(family, n, dtype):
    size = GroupSpec(family, n).matrix_size
    x = pade_exp(np.zeros((2, size, size), dtype=dtype))
    assert x.dtype == dtype
    assert np.array_equal(x, np.broadcast_to(np.eye(size), x.shape))


@_DTYPES
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", GROUP_FAMILIES)
def test_pade_exp_batch_points_are_bitwise_single_calls(family, n, dtype):
    # replay rebuilds one point of a batch from its row, so every matrix of a
    # stack, of any batch shape, gets the bits it gets alone
    spec = GroupSpec(family, n)
    a = np.concatenate([_algebra_stack(spec, sigma, 4, 5, dtype) for sigma in (0.1, 0.5, 3.0)])
    x = pade_exp(a)
    assert x.dtype == dtype
    for m, xm in zip(a, x):
        assert np.array_equal(pade_exp(m), xm)
    assert np.array_equal(pade_exp(a.reshape(3, 4, *a.shape[1:])), x.reshape(3, 4, *a.shape[1:]))


@_DTYPES
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", GROUP_FAMILIES)
def test_pade_exp_maps_each_algebra_into_its_group(family, n, dtype):
    # A = sum_q c_q Z_q is exactly skew-Hermitian (the einsum forms A_ij and
    # A_ji from negated terms in one order), so r(A)^H = r(-A) = r(A)^-1:
    # r(A) is unitary, symplectic on sp(n) and the embedded u(n), and real
    # on so(n) and the embedded u(n).  The computed X = r(A) + E, with E a
    # few units u (one backward-stable solve of the well-conditioned q(-A)
    # at complex128, a refinement step on top at clongdouble), so X X^H - I
    # and X J X^t - J may show E U^H + U E^H on top of the floor of forming
    # the product: twice `_defect_floor`.  The imaginary part of X is within
    # the same bound.
    spec = GroupSpec(family, n)
    a = _algebra_stack(spec, 0.5, 20, 41, dtype)
    x = pade_exp(a)
    assert x.dtype == dtype
    bound = 2 * _defect_floor(a.shape[-1], dtype)
    assert np.abs(x @ np.conj(np.swapaxes(x, -1, -2)) - np.eye(a.shape[-1])).max() <= bound
    if family in (SP, U_IN_SPN, U_IN_SO2N):
        j = standard_symplectic(n)
        assert np.abs(x @ j @ np.swapaxes(x, -1, -2) - j).max() <= bound
    if family in (SO, U_IN_SPN, U_IN_SO2N):
        assert np.abs(x.imag).max() <= bound


@_DTYPES
def test_pade_exp_solves_once_at_complex128_and_refines_wider_dtypes(dtype, monkeypatch):
    # one np.linalg.solve per stack at complex128, whose result is r(A) bit for
    # bit; clongdouble adds the solve of its refinement step
    a = _algebra_stack(GroupSpec(SU, 3), 0.5, 6, 7, dtype)
    solve, calls = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args) or solve(*args))
    x = pade_exp(a)
    assert len(calls) == (1 if dtype == np.complex128 else 2)
    if dtype == np.complex128:
        even = np.eye(a.shape[-1]) + a @ a / 12
        assert np.array_equal(x, solve(even - a / 2, even + a / 2))


def test_dual_m_factor_is_positive_definite_inside_the_pade_bound():
    # For H = i A_m Hermitian, r(H) is Hermitian with the eigenvalues
    # q(l)/q(-l) of H's eigenvalues l, and q(l)/q(-l) lies in
    # [(2 - sqrt3)^2, (2 + sqrt3)^2] for every real l (the extremes at
    # l = +-2 sqrt3).  So the m-factor of a dual point is positive definite at
    # any sigma, where the Cayley transform (1 + l/2)/(1 - l/2) turns negative
    # for |l| > 2, as on most rows here.  With a = 0 the K-factor r(0) is
    # exactly I.
    space = SymmetricSpaceSpec(SPN_UN, 5)
    k, m = cartan_decomposition(space)
    b = np.random.default_rng(29).normal(0.0, 1.0, (50, len(m)))
    x = rebuild_dual_sample(space, np.zeros((50, len(k))), b)
    assert np.max(np.abs(x - np.conj(np.swapaxes(x, -1, -2)))) <= 1e-13
    eigenvalues = np.linalg.eigvalsh(x)
    low, high = (2 - np.sqrt(3)) ** 2, (2 + np.sqrt(3)) ** 2
    assert eigenvalues.min() >= low * (1 - 1e-12) and eigenvalues.max() <= high * (1 + 1e-12)
    h = np.linalg.eigvalsh(1j * np.einsum("...q,qij->...ij", b, m.stack()))
    assert np.mean((np.abs(h) > 2).any(axis=-1)) > 0.9


@pytest.mark.parametrize("n", [2, 3])
def test_clongdouble_bases_are_orthonormal(n):
    # An entry of stack(clongdouble) is N c (1 + d) with |d| <= gamma_4: c is
    # sqrt(num) / sqrt(den), three roundings, and N c one more.  A Gram entry
    # Re sum_ij x_p,ij conj(x_q,ij) over s = size^2 terms then errs from the
    # exact delta_pq by at most (gamma_8 + sqrt2 gamma_2 + gamma_(s-1)) times
    # sum |e_p||e_q| <= |e_p| |e_q| = 1 (Cauchy-Schwarz; lemma 3.5 and section
    # 3.1 of Higham for the complex products and the sum), below gamma_(s+12).
    # A basis rounded to float64 first would miss it by a factor of about 2^11.
    spaces = [SymmetricSpaceSpec(family, n) for family in SPACE_FAMILIES]
    bases = [basis_g(GroupSpec(family, n)) for family in GROUP_FAMILIES]
    bases += [b for space in spaces for b in cartan_decomposition(space)]
    for b in bases:
        stack = b.stack(np.clongdouble)
        assert stack.dtype == np.clongdouble and not stack.flags.writeable
        assert b.stack(np.clongdouble) is stack
        bound = _gamma(stack.shape[-1] ** 2 + 12, np.clongdouble)
        assert np.max(np.abs(_gram(stack) - np.eye(len(b)))) <= bound, b.name


# --- dual sampling -------------------------------------------------------------


@pytest.mark.parametrize("family", SPACE_FAMILIES)
def test_dual_sample_is_bitwise_two_pade_calls(family):
    # one pade_exp call on the stack [A_k, i A_m] gives each factor the bits
    # of its own one-matrix call, so the point of stored coefficients never moves
    import lieharm.lie as lie

    space = SymmetricSpaceSpec(family, 2)
    k, m = cartan_decomposition(space)
    rng = np.random.default_rng(13)
    for sigma in (0.2, 2.0):
        a, b = rng.normal(0.0, sigma, len(k)), rng.normal(0.0, sigma, len(m))
        two = pade_exp(lie._combination(k.stack(), a)) @ pade_exp(1j * lie._combination(m.stack(), b))
        x = rebuild_dual_sample(space, a, b)
        assert type(x) is np.ndarray and np.array_equal(x, two)
    # a batch of [k | m] rows gives each point the bits of its one-row call
    rows = rng.normal(0.0, 0.5, (4, len(k) + len(m)))
    batch = rebuild_dual_sample(space, rows[:, : len(k)], rows[:, len(k) :])
    assert batch.shape == (4, *two.shape)
    for row, x in zip(rows, batch):
        assert np.array_equal(x, rebuild_dual_sample(space, row[: len(k)], row[len(k) :]))


def test_dual_sample_special_linear_not_unitary():
    space = SymmetricSpaceSpec(SUN_SON, 2)
    k, m = cartan_decomposition(space)
    rows = np.random.default_rng(11).normal(0.0, 0.5, (5, len(k) + len(m)))
    hits = 0
    for x in rebuild_dual_sample(space, rows[:, : len(k)], rows[:, len(k) :]):
        assert type(x) is np.ndarray
        assert abs(np.linalg.det(x) - 1) <= 1e-10
        if np.max(np.abs(x @ np.conj(x.T) - np.eye(2))) > 1e-3:
            hits += 1
    assert hits >= 4  # generically far from unitary


def test_dual_sample_zero_coefficients_is_identity():
    space = SymmetricSpaceSpec(SUN_SON, 2)
    k, m = cartan_decomposition(space)
    row = np.random.default_rng(12).normal(0.0, 1e-14, len(k) + len(m))
    x = rebuild_dual_sample(space, row[: len(k)], row[len(k) :])
    assert np.max(np.abs(x - np.eye(2))) < 1e-12


def test_dual_pure_m_part_is_positive_definite():
    # i m for SU(n)/SO(n) is real symmetric traceless; exp of it is real SPD
    space = SymmetricSpaceSpec(SUN_SON, 2)
    k, m = cartan_decomposition(space)
    coeffs = np.array([0.4, -0.7])
    x = rebuild_dual_sample(space, np.zeros(len(k)), coeffs)
    assert np.max(np.abs(np.imag(x))) < 1e-12
    xr = np.real(x)
    assert np.max(np.abs(xr - xr.T)) < 1e-12
    assert np.all(np.linalg.eigvalsh(xr) > 0)


# --- membership diagnostics ------------------------------------------------------


def test_membership_identity_clean():
    rep = membership_check(GroupSpec(SU, 2), np.eye(2, dtype=complex))
    assert rep.max_residual == 0.0


def test_membership_detects_scaling():
    x = np.diag([2.0, 0.5]).astype(complex)
    rep = membership_check(GroupSpec(SU, 2), x)
    assert rep.unitarity == pytest.approx(3.0)
    assert rep.determinant == pytest.approx(0.0, abs=1e-15)
