"""Group catalog: generator values, basis dimensions and orthonormality,
algebra membership, Cartan bracket relations, embeddings, sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm  # the independent reference for lie.expm

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
    algebra_dimension,
    basis_g,
    cartan_decomposition,
    embed_unitary,
    expm,
    generator,
    generator_lattice,
    membership_check,
    rebuild_dual_sample,
    rebuild_sample,
    sample,
    sample_dual,
    sample_with_coefficients,
    standard_symplectic,
)

RNG = np.random.default_rng(2024)


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
    x = sample(GroupSpec(SU, 3), np.random.default_rng(1), sigma=0.5)
    rep = membership_check(GroupSpec(SU, 3), x)
    assert rep.unitarity <= 1e-10 and rep.determinant <= 1e-10


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


def test_sigma_must_be_positive():
    with pytest.raises(UsageError):
        sample(GroupSpec(SO, 3), np.random.default_rng(0), sigma=0.0)


# --- the matrix exponential -----------------------------------------------------

_EXPM_CASES = [
    (GroupSpec(SU, 3), 0.5),
    (GroupSpec(SU, 6), 0.5),
    (GroupSpec(SP, 3), 0.5),
    (GroupSpec(SO, 6), 0.5),
    (GroupSpec(U_IN_SPN, 3), 0.5),
    (GroupSpec(SU, 6), 3.0),
]


def _algebra_stack(spec, sigma, count, seed):
    stack = basis_g(spec).stack()
    coeffs = np.random.default_rng(seed).normal(0.0, sigma, size=(count, len(stack)))
    return np.einsum("...q,qij->...ij", coeffs, stack)


def _unitarity_defect(x):
    eye = np.eye(x.shape[-1])
    return float(np.max(np.abs(x @ np.conj(np.swapaxes(x, -1, -2)) - eye)))


def _symplectic_defect(x, n):
    j = standard_symplectic(n)
    return float(np.max(np.abs(x @ j @ np.swapaxes(x, -1, -2) - j)))


def _defect_floor(size):
    """gamma_(size+4) = (size+4) u / (1 - (size+4) u) in float64 (u = eps/2):
    the largest entry of X X^H - I, or X J X^t - J, that rounding alone may
    show for X the correctly rounded value of an exactly unitary, or unitary
    and symplectic, size x size matrix U.  Rounding U costs 2u per entry
    (|X - U| <= u|U|, and Cauchy-Schwarz on the unit rows), the computed
    inner product of two rows another (size - 1 + 2 sqrt 2) u (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, lemma 3.5 and
    section 3.1); X J and the subtraction of I or J are exact (a signed
    permutation, and Sterbenz's lemma).  Below it a defect ratio is decided
    by one rounding."""
    u = float(np.finfo(np.float64).eps) / 2
    return (size + 4) * u / (1 - (size + 4) * u)


@pytest.mark.parametrize("spec,sigma", _EXPM_CASES, ids=lambda v: str(v))
def test_expm_matches_scipy(spec, sigma):
    a = _algebra_stack(spec, sigma, 50, 31)
    if sigma > 1:
        # 1-norms above 8 force squarings at any Taylor radius up to 4
        assert np.min(np.abs(a).sum(axis=-2).max(axis=-1)) > 8
    x = expm(a)
    ref = np.stack([scipy_expm(m) for m in a])
    assert x.shape == a.shape and x.dtype == np.complex128
    assert np.max(np.abs(x - ref)) <= 5e-15
    floor = _defect_floor(a.shape[-1])
    assert _unitarity_defect(x) <= max(2 * _unitarity_defect(ref), floor)
    if spec.family in (SP, U_IN_SPN):
        assert _symplectic_defect(x, spec.n) <= max(2 * _symplectic_defect(ref, spec.n), floor)


def test_expm_of_zero_is_identity():
    for dtype in (np.complex128, np.clongdouble):
        x = expm(np.zeros((2, 4, 4), dtype=dtype))
        assert x.dtype == dtype
        assert np.array_equal(x, np.broadcast_to(np.eye(4), (2, 4, 4)))


def test_expm_batch_slices_are_bitwise_single_calls():
    a = np.concatenate([_algebra_stack(GroupSpec(SU, 6), sigma, 10, 5) for sigma in (0.1, 0.5, 3.0)])
    x = expm(a)
    for m, xm in zip(a, x):
        assert np.array_equal(expm(m), xm)
    assert np.array_equal(expm(a.reshape(3, 10, 6, 6)), x.reshape(3, 10, 6, 6))


def test_expm_clongdouble():
    a = _algebra_stack(GroupSpec(SU, 6), 0.5, 20, 8).astype(np.clongdouble)
    x = expm(a)
    assert x.dtype == np.clongdouble
    assert _unitarity_defect(x) <= 1e-17


def _gamma(k, dtype):
    """gamma_k = k u / (1 - k u) for the unit roundoff u = eps/2 of `dtype`
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, section 3.1)."""
    u = float(np.finfo(dtype).eps) / 2
    return k * u / (1 - k * u)


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


@pytest.mark.parametrize("family", GROUP_FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_clongdouble_expm_is_unitary(family, n):
    # A = sum_q c_q Z_q is exactly skew-Hermitian (the einsum forms A_ij and
    # A_ji from negated terms in one order), so U = exp(A) is unitary, and
    # symplectic on sp(n) and the embedded u(n).  As in test_expm_matches_horner,
    # the computed X has entries within 4 eps 2^s |U|_1 <= 8 u 2^s sqrt(size)
    # of U's, so |E|_2 <= 8 u 2^s size^(3/2) for E = X - U; an entry of
    # X X^H - I = U E^H + E U^H + E E^H is then at most 2 |E|_2 (1 + O(u)),
    # plus the gamma_(size+4) of forming the product (see _defect_floor).
    # X J X^t - J has the same bound: J is a signed permutation.
    spec = GroupSpec(family, n)
    stack = basis_g(spec).stack(np.clongdouble)
    coeffs = np.random.default_rng(41).normal(0.0, 0.5, size=(20, len(stack))).astype(np.longdouble)
    a = np.einsum("...q,qij->...ij", coeffs, stack)
    x = expm(a)
    assert x.dtype == np.clongdouble
    size = a.shape[-1]
    u = float(np.finfo(np.clongdouble).eps) / 2
    bound = _gamma(size + 4, np.clongdouble) + 16 * u * 2.0 ** _horner_expm(a)[1] * size**1.5
    eye = np.eye(size)
    defect = np.abs(x @ np.conj(np.swapaxes(x, -1, -2)) - eye).max(axis=(-2, -1))
    assert np.all(defect <= bound)
    if family in (SP, U_IN_SPN, U_IN_SO2N):
        j = standard_symplectic(n)
        defect = np.abs(x @ j @ np.swapaxes(x, -1, -2) - j).max(axis=(-2, -1))
        assert np.all(defect <= bound)


@pytest.mark.parametrize("dtype,tol", [(np.complex128, 1e-14), (np.clongdouble, 1e-17)])
def test_expm_keeps_every_taylor_term(dtype, tol):
    # the shift matrix N of size m + 1 has N^m != 0 = N^(m+1), so exp(N) is the
    # Taylor polynomial of degree m itself: entry (0, k) is 1/k! for every k <= m
    import lieharm.lie as lie

    m = lie._TAYLOR_DEGREE
    x = expm(np.eye(m + 1, k=1, dtype=dtype))
    for k in range(m + 1):
        exact = 1 / np.asarray(math.factorial(k), dtype=x.real.dtype)
        assert abs(x[0, k] - exact) <= tol * exact, k


def _horner_expm(a):
    """The Horner evaluation of the same scaled degree-m Taylor polynomial,
    with the same scaling and squaring as lie.expm; returns it and s."""
    import lieharm.lie as lie

    a = np.asarray(a)
    m = lie._TAYLOR_DEGREE
    u = float(np.finfo(a.dtype).eps) / 2
    theta = (u * math.factorial(m + 1)) ** (1.0 / (m + 1))
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    frac, exp2 = np.frexp(norm / theta)
    s = np.maximum(exp2 - (frac == 0.5), 0)
    a = a * np.ldexp(np.ones_like(norm), -s)[..., None, None]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    p = eye + a / m
    for k in range(m - 1, 0, -1):
        p = eye + a @ p / k
    for j in range(int(s.max(initial=0))):
        p = np.where((s > j)[..., None, None], p @ p, p)
    return p, s


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
@pytest.mark.parametrize("spec", [GroupSpec(SU, 6), GroupSpec(SP, 3)], ids=str)
@pytest.mark.parametrize("sigma", [0.1, 0.5, 3.0])
def test_expm_matches_horner(spec, sigma, dtype):
    # two evaluations of one polynomial differ by rounding only: about one ulp
    # of |exp A|, which each squaring can double; sigma 3 forces squarings
    a = _algebra_stack(spec, sigma, 50, 17).astype(dtype)
    ref, s = _horner_expm(a)
    if sigma > 1:
        assert s.min() >= 2
    x = expm(a)
    assert x.dtype == dtype
    eps = np.finfo(dtype).eps
    err = np.abs(x - ref).max(axis=(-2, -1))
    assert np.all(err <= 4 * eps * 2.0**s * np.abs(ref).sum(axis=-2).max(axis=-1))


def test_expm_matrix_product_count(monkeypatch):
    # 9 products for the polynomial (A^2..A^6, then 4 Paterson-Stockmeyer
    # steps in A^6) plus one per squaring; Horner's rule would take 30.
    # The float64 radius theta is about 3.8: 1-norm 1 needs no squaring,
    # 10 needs 2 and 100 needs 5.
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    diagonal = np.diag([1j, -1j, 0])
    for a, products in [
        (_algebra_stack(GroupSpec(SU, 6), 0.1, 50, 17), 9),
        (np.zeros((3, 3), dtype=complex), 9),
        (diagonal, 9),
        (10 * diagonal, 11),
        (np.stack([diagonal, 10 * diagonal, 100 * diagonal]), 14),
    ]:
        calls.clear()
        x = expm(a)
        assert len(calls) == products
        assert all(shape == a.shape for shape in calls)
    monkeypatch.undo()
    assert np.allclose(x, np.stack([np.diag(np.exp(c * np.diag(diagonal))) for c in (1, 10, 100)]))


# --- dual sampling -------------------------------------------------------------


@pytest.mark.parametrize("family", SPACE_FAMILIES)
def test_dual_sample_is_bitwise_two_expm_calls(family):
    # one expm call on the stack [A_k, i A_m] gives each factor the bits of
    # its own one-matrix call, so the point of stored coefficients never moves
    import lieharm.lie as lie

    space = SymmetricSpaceSpec(family, 2)
    k, m = cartan_decomposition(space)
    rng = np.random.default_rng(13)
    for sigma in (0.2, 2.0):
        a, b = rng.normal(0.0, sigma, len(k)), rng.normal(0.0, sigma, len(m))
        two = expm(lie._combination(k.stack(), a)) @ expm(1j * lie._combination(m.stack(), b))
        x = rebuild_dual_sample(space, a, b)
        assert type(x) is np.ndarray and np.array_equal(x, two)


def test_dual_sample_special_linear_not_unitary():
    space = SymmetricSpaceSpec(SUN_SON, 2)
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(5):
        x = sample_dual(space, rng, sigma=0.5)
        assert type(x) is np.ndarray
        assert abs(np.linalg.det(x) - 1) <= 1e-10
        if np.max(np.abs(x @ np.conj(x.T) - np.eye(2))) > 1e-3:
            hits += 1
    assert hits >= 4  # generically far from unitary


def test_dual_sample_zero_coefficients_is_identity():
    space = SymmetricSpaceSpec(SUN_SON, 2)
    x = sample_dual(space, np.random.default_rng(12), sigma=1e-14)
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
