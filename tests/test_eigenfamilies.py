"""Eigenfunction families: construction, eigenvalue pairs, eigen-equation and
K-invariance verification, duals and negative controls."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lieharm.diffops import GroupFunction, _sweep, kappa, tau_and_kappa
from lieharm.eigenfamilies import (
    EigenfunctionSpec,
    ValidationError,
    build_eigenfunction,
    build_matrix_A,
    expected_eigenvalues,
    kappa_defect_nonisotropic,
    random_parameters,
    sampled_evaluator,
    skew_normal_form,
    uses_complex_structure,
    verify_eigen,
    verify_sampled,
)
from lieharm.jets import JetScalar, _cauchy
from lieharm.lie import (
    GroupSpec,
    SO2N_UN,
    SPACE_FAMILIES,
    SPN_UN,
    SU,
    SU2N_SPN,
    SUN_SON,
    SymmetricSpaceSpec,
    UsageError,
    basis_g,
    cartan_decomposition,
    generator,
    rebuild_dual_sample,
    sample,
    sample_with_coefficients,
    standard_symplectic,
)
from lieharm.matrices import CMatrix

from dense_jets import times_on_the_right


def e1(n):
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return v


# --- validation ---------------------------------------------------------------


def test_zero_a_rejected():
    with pytest.raises(ValidationError):
        EigenfunctionSpec(SymmetricSpaceSpec(SUN_SON, 3), np.zeros(3))


def test_wrong_length_rejected():
    with pytest.raises(ValidationError):
        EigenfunctionSpec(SymmetricSpaceSpec(SPN_UN, 2), np.ones(2))


def test_empty_a_rejected_by_its_length():
    # the length is checked before the nonzero test, which has nothing to reduce
    with pytest.raises(ValidationError, match="a must have length 3, got shape \\(0,\\)"):
        EigenfunctionSpec(SymmetricSpaceSpec(SUN_SON, 3), [])


def test_isotropy_enforced_only_for_so2n_un():
    a_iso = np.array([1.0, 1.0j, 0.0])
    a_bad = np.array([1.0, 1.0, 0.0])
    spec = EigenfunctionSpec(SymmetricSpaceSpec(SO2N_UN, 2), a_iso, (1, 2, 3))
    assert abs(spec.a[0] ** 2 + spec.a[1] ** 2 + spec.a[2] ** 2) < 1e-12
    with pytest.raises(ValidationError, match="isotropic"):
        EigenfunctionSpec(SymmetricSpaceSpec(SO2N_UN, 2), a_bad, (1, 2, 3))
    EigenfunctionSpec(SymmetricSpaceSpec(SU2N_SPN, 2), a_bad, (1, 2, 3))  # fine here


def test_index_bounds():
    with pytest.raises(ValidationError):
        EigenfunctionSpec(SymmetricSpaceSpec(SU2N_SPN, 2), np.ones(3), (1, 3, 5))
    with pytest.raises(ValidationError):
        EigenfunctionSpec(SymmetricSpaceSpec(SU2N_SPN, 2), np.ones(3), (2, 2, 3))


# --- matrix A ------------------------------------------------------------------


def test_build_matrix_first_basis_vector():
    spec = EigenfunctionSpec(SymmetricSpaceSpec(SUN_SON, 3), e1(3))
    a = build_matrix_A(spec)
    expect = np.zeros((3, 3))
    expect[0, 0] = 1.0
    assert np.array_equal(a, expect)


def test_build_matrix_isotropic_combination():
    spec = EigenfunctionSpec(
        SymmetricSpaceSpec(SO2N_UN, 2), np.array([1.0, 1.0j, 0.0]), (1, 2, 3)
    )
    a = build_matrix_A(spec)
    expect = generator("Y", 4, 1, 2) + 1j * generator("Y", 4, 1, 3)
    assert np.max(np.abs(a - expect)) < 1e-15


def test_matrix_symmetry_classes():
    rng = np.random.default_rng(0)
    sym = build_matrix_A(random_parameters(SymmetricSpaceSpec(SPN_UN, 2), rng))
    assert np.max(np.abs(sym - sym.T)) == 0
    skew = build_matrix_A(random_parameters(SymmetricSpaceSpec(SU2N_SPN, 2), rng))
    assert np.max(np.abs(skew + skew.T)) == 0


# --- phi values ------------------------------------------------------------------


def test_phi_at_identity_sun_son():
    spec = EigenfunctionSpec(SymmetricSpaceSpec(SUN_SON, 3), e1(3))
    f = build_eigenfunction(spec)
    assert complex(f(np.eye(3, dtype=complex))) == 1.0


def test_phi_at_identity_spn_un_is_bilinear_square():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    spec = EigenfunctionSpec(SymmetricSpaceSpec(SPN_UN, 2), a)
    f = build_eigenfunction(spec)
    assert complex(f(np.eye(4, dtype=complex))) == pytest.approx(complex(np.sum(a * a)))


def test_phi_at_identity_so2n_un_low_indices_vanishes():
    spec = EigenfunctionSpec(
        SymmetricSpaceSpec(SO2N_UN, 3), np.array([1.0, 1.0j, 0.0]), (1, 2, 3)
    )
    f = build_eigenfunction(spec)
    assert abs(complex(f(np.eye(6, dtype=complex)))) < 1e-15


def test_phi_rejects_wrong_size():
    spec = EigenfunctionSpec(SymmetricSpaceSpec(SUN_SON, 3), e1(3))
    f = build_eigenfunction(spec)
    with pytest.raises(UsageError, match="3x3"):
        f(np.eye(4, dtype=complex))


def test_scaling_in_a():
    rng = np.random.default_rng(2)
    space = SymmetricSpaceSpec(SUN_SON, 3)
    spec = random_parameters(space, rng)
    double = EigenfunctionSpec(space, 2 * spec.a)
    x = sample(space.group_spec(), rng, 0.5)
    f1, f2 = build_eigenfunction(spec), build_eigenfunction(double)
    assert complex(f2(x)) == pytest.approx(4 * complex(f1(x)))  # A quadratic in a

    space5 = SymmetricSpaceSpec(SU2N_SPN, 2)
    spec5 = random_parameters(space5, rng)
    double5 = EigenfunctionSpec(space5, 2 * spec5.a, spec5.indices)
    x5 = sample(space5.group_spec(), rng, 0.5)
    g1, g2 = build_eigenfunction(spec5), build_eigenfunction(double5)
    assert complex(g2(x5)) == pytest.approx(2 * complex(g1(x5)))  # A linear in a


def _phi_trace_form(spec):
    """phi as trace(g^t A g [J]) with the jet matrix product g^t (A g [J])
    formed in full, a truncated Cauchy product of matmuls: the reference for
    the pairing <g, A g J>.  A plain point is a jet in no variables."""
    a = build_matrix_A(spec)
    j = standard_symplectic(spec.space.n) if uses_complex_structure(spec.space) else None

    def fn(g):
        x = g.jet if g.jet is not None else JetScalar(0, {(): g.data})
        m = _cauchy(x.map(lambda c: np.swapaxes(c, -1, -2)), a @ x, np.matmul)
        if j is not None:
            m = m.map(lambda c: c @ j)
        t = m.map(lambda c: np.trace(c, axis1=-2, axis2=-1))
        return t if g.jet is not None else t.value

    return GroupFunction(fn)


def _swept_points(x, dirs):
    """The jet-valued points at which a sweep from x evaluates its function:
    jets in one variable more than x has."""
    seen = []

    def capture(g):
        seen.append(g.jet)
        return 0.0

    list(_sweep(GroupFunction(capture), x, dirs))
    return seen


def _assert_same_phi(got, want):
    """got within 1e-13 of want, relative to the largest |want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_phi_pairing_matches_trace_form(family, n):
    space = SymmetricSpaceSpec(family, n)
    rng = np.random.default_rng(50 + n)
    spec = random_parameters(space, rng)
    f, ref = build_eigenfunction(spec), _phi_trace_form(spec)
    g_spec = space.group_spec()
    dirs = basis_g(g_spec).stack()
    x = sample(g_spec, rng, 0.5)
    batch = sample(g_spec, rng, 0.5, (7,))
    k1 = _swept_points(x, dirs)
    k2 = _swept_points(_swept_points(batch, dirs)[0], dirs)
    assert np.ndim(f(x)) == 0 and np.shape(f(batch)) == (7,)
    for i, point in enumerate(batch):
        assert f(point) == f(batch)[i]
    assert [p.k for p in k1 + k2] == [1] * len(k1) + [2] * len(k2)
    for point in [x, batch] + k1 + k2:
        got, want = f(point), ref(point)
        if isinstance(want, JetScalar):
            assert isinstance(got, JetScalar) and got.k == want.k
            for key in np.ndindex(*(3,) * want.k):
                _assert_same_phi(got.b[key], want.b[key])
        else:
            _assert_same_phi(got, want)


@pytest.mark.parametrize(
    "family, n", [(SUN_SON, 3), (SUN_SON, 6), (SPN_UN, 3), (SO2N_UN, 3), (SU2N_SPN, 3)]
)
def test_phi_at_a_jet_point_forms_no_jet_matrix_product(family, n, monkeypatch):
    # phi = <P g, J_1 P g J>: P g, and on the J families J_1 (P g), multiply
    # the jet g by a plain matrix; J is a signed column swap, no product; the
    # pairing contracts the two, where g^t (A g J) would add a Cauchy product
    # of matmuls between two jets (6 at one variable)
    space = SymmetricSpaceSpec(family, n)
    rng = np.random.default_rng(60 + n)
    f = build_eigenfunction(random_parameters(space, rng))
    su = GroupSpec(SU, space.matrix_size)
    (point,) = _swept_points(sample(su, rng, 0.5), basis_g(su).stack())
    calls = []
    matmul = np.matmul

    def counted(a, b, *args, **kwargs):
        calls.append(np.shape(a))
        assert np.ndim(a) == 2, "the plain factor is on the left"
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    phi = f(point)
    monkeypatch.undo()
    assert isinstance(phi, JetScalar) and phi.k == 1
    size = space.matrix_size
    # P, then the 2 x 2 J_1 on the J families, once per block of the jet
    # (degrees 0, 1 and 2 of its variable); never the size x size A or J
    assert calls == ([(2, size)] * 3 + [(2, 2)] * 3 if uses_complex_structure(space) else [(1, size)] * 3)


def _j_family_specs(family, n, rng):
    """A random draw and a draw whose block A_RR has zero entries: a = (0, 0, 1)
    on SU(2n)/Sp(n), the isotropic a = (1, i, 0) on SO(2n)/U(n)."""
    space = SymmetricSpaceSpec(family, n)
    zeros = (0, 0, 1) if family == SU2N_SPN else (1, 1j, 0)
    return [random_parameters(space, rng), EigenfunctionSpec(space, np.array(zeros), (1, n, 2 * n))]


@pytest.mark.parametrize("family", [SO2N_UN, SU2N_SPN])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_row_normal_form_reproduces_the_trace_form(family, n):
    # phi reads the 2 rows F g_R, F^t J_1 F = A_RR: F must give A_RR back to
    # rounding, and phi = <F g_R, J_1 F g_R J> must be trace(g^t A g J)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(70 + n)
    space = SymmetricSpaceSpec(family, n)
    j = standard_symplectic(n)
    for spec in _j_family_specs(family, n, rng):
        rows = [i - 1 for i in spec.indices]
        a = build_matrix_A(spec)
        a_rr = a[np.ix_(rows, rows)]
        form = skew_normal_form(a_rr)
        assert form.shape == (2, 3)
        assert np.max(np.abs(form.T @ standard_symplectic(1) @ form - a_rr)) <= 2 * eps * np.max(np.abs(a_rr))
        f = build_eigenfunction(spec)
        assert f.left.shape == (2, space.matrix_size)
        xs = sample(space.group_spec(), rng, 0.5, (20,))
        want = np.trace(np.swapaxes(xs, -1, -2) @ a @ xs @ j, axis1=-2, axis2=-1)
        assert np.max(np.abs(f(xs) - want)) <= 8 * eps * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_nonisotropic_defect_through_the_two_row_form(n):
    # the negative control reads the same normal form: 2(a1^2 + a2^2 + a3^2)
    # for a random a and for a = (0, 0, 1), whose block has zero entries
    rng = np.random.default_rng(80 + n)
    space = SymmetricSpaceSpec(SO2N_UN, n)
    for a in (rng.standard_normal(3) + 1j * rng.standard_normal(3), np.array([0, 0, 1], dtype=complex)):
        measured, predicted = kappa_defect_nonisotropic(space, a, (1, n, 2 * n), rng)
        assert abs(measured - predicted) <= 1e-9 * max(1.0, abs(predicted))


# --- eigenvalue pairs -------------------------------------------------------------


@pytest.mark.parametrize("family,n,lam,mu", [
    (SUN_SON, 3, Fraction(-20, 3), Fraction(-8, 3)),
    (SPN_UN, 2, Fraction(-6), Fraction(-2)),
    (SO2N_UN, 3, Fraction(-4), Fraction(-1)),
    (SU2N_SPN, 2, Fraction(-5), Fraction(-1)),
])
def test_expected_eigenvalues(family, n, lam, mu):
    got_lam, got_mu = expected_eigenvalues(SymmetricSpaceSpec(family, n))
    assert (got_lam, got_mu) == (lam, mu)
    assert type(got_lam) is Fraction and type(got_mu) is Fraction


def test_eigenvalues_never_degenerate():
    for family in SPACE_FAMILIES:
        for n in range(2, 7):
            lam, mu = expected_eigenvalues(SymmetricSpaceSpec(family, n))
            assert mu != 0
            assert lam != mu


# --- verification ------------------------------------------------------------------


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_verify_eigen_passes(family, n):
    rng = np.random.default_rng(100 + n)
    spec = random_parameters(SymmetricSpaceSpec(family, n), rng)
    v = verify_eigen(spec, samples=8, tol=1e-8, rng=rng)
    assert v.passed
    assert v.worst("tau") < 1e-10
    assert v.worst("kappa") < 1e-10
    assert v.worst("kinv") < 1e-10


def _verify_eigen_point_by_point(spec, samples, tol, rng, sigma=0.5):
    """The per-point reference: one draw and one sweep at a time, as
    verify_eigen did before it batched its points, each point a batch of
    one in array arithmetic, swept along the stacks of k, then m; kinv is
    the largest |W phi| over the directions W of k; the witness is the
    point's coefficients over g."""
    space = spec.space
    g_spec = space.group_spec()
    k, m = cartan_decomposition(space)
    dirs = np.concatenate([k.stack(), m.stack()])
    f = build_eigenfunction(spec)
    lam, mu = (np.complex128(complex(v)) for v in expected_eigenvalues(spec))
    out = {"tau": 0.0, "kappa": 0.0, "kinv": 0.0, "passed": True, "witness": None}
    proper = False
    for _ in range(samples):
        x, coeffs = sample_with_coefficients(g_spec, rng, sigma)
        x = x[None]
        phi = f(x)
        scale = max(1.0, abs(phi[0]))
        proper = proper or abs(phi[0]) > 1e-6
        t, kap, first = tau_and_kappa(f, x, dirs)
        r1, r2 = np.abs(t - lam * phi)[0], np.abs(kap - mu * phi * phi)[0]
        r3 = np.abs(first[: len(k), 0]).max()
        if abs(phi[0]) >= 1e-10:
            out["tau"], out["kappa"] = max(out["tau"], r1), max(out["kappa"], r2)
            out["kinv"] = max(out["kinv"], r3)
        ok = all(r <= tol * scale for r in (r1, r2, r3))
        if not ok and out["witness"] is None:
            out["witness"] = [float(c) for c in coeffs]
        out["passed"] = out["passed"] and ok
    out["passed"] = out["passed"] and proper
    return out


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tol", [1e-8, 1e-14, 1e-20])
def test_batched_verify_eigen_matches_point_by_point(family, n, tol):
    # 1e-8 passes every point, 1e-20 fails every point, 1e-14 lies among the residuals
    space = SymmetricSpaceSpec(family, n)
    spec = random_parameters(space, np.random.default_rng(100 + n))
    rng_batch, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
    v = verify_eigen(spec, 6, tol, rng_batch)
    ref = _verify_eigen_point_by_point(spec, 6, tol, rng_ref)
    # the one batched draw consumes the stream exactly as the sequential draws
    assert rng_batch.bit_generator.state == rng_ref.bit_generator.state
    assert v.passed == ref["passed"]
    assert v.passed == (tol == 1e-8) or tol == 1e-14
    assert v.witness_coefficients == ref["witness"]
    assert v.worst("tau") == pytest.approx(ref["tau"], rel=1e-12, abs=0)
    assert v.worst("kappa") == pytest.approx(ref["kappa"], rel=1e-12, abs=0)
    assert v.worst("kinv") == pytest.approx(ref["kinv"], rel=1e-12, abs=0)


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_phi_at_projected_k_points_is_phi_at_x_k(family, n):
    # an oracle of K-invariance that does not use the sweep: phi((P x) k) is
    # phi(P x) to rounding at sampled points x of G and k of K
    space = SymmetricSpaceSpec(family, n)
    rng = np.random.default_rng(500 + n)
    f = build_eigenfunction(random_parameters(space, rng))
    x = sample(space.group_spec(), rng, 0.5, (20,))
    k = sample(space.subgroup_spec(), rng, 0.5, (20, 5))
    px = f.project(x)
    phi, phi_k = replace(f, left=None)(px), replace(f, left=None)(px[:, None] @ k)
    assert np.all(np.abs(phi_k - phi[:, None]) <= 1e-13 * np.maximum(1.0, np.abs(phi[:, None])))


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_k_invariance_fault_fails_through_kinv(monkeypatch, family, n):
    # phi read through a right factor D = diag(1 .. 1.001) keeps the
    # eigen-equations of three families (and tau on all four) but is no longer
    # right-K-invariant: the first derivatives along k must see it
    from lieharm import eigenfamilies

    build = eigenfamilies.build_eigenfunction

    def skewed(spec):
        f = build(spec)
        d = np.diag(np.linspace(1, 1.001, spec.space.matrix_size)).astype(complex)
        return GroupFunction(lambda v: f.fn(times_on_the_right(v, d)), name=f.name, left=f.left)

    monkeypatch.setattr(eigenfamilies, "build_eigenfunction", skewed)
    rng = np.random.default_rng(60 + n)
    spec = random_parameters(SymmetricSpaceSpec(family, n), rng)
    v = verify_eigen(spec, 10, 1e-8, rng)
    assert not v.passed and v.worst("kinv") > 1e-4
    assert v.worst("tau") < 1e-12
    if family != SO2N_UN:
        assert v.worst("kappa") < 1e-12
    # the order-2 checks, crosscheck and dual at their suite defaults, read
    # the same first derivatives along k and fail through kinv too
    for dual, sigma, tol, tau2_tol in ((False, 0.5, 1e-8, 1e-6), (True, 0.2, 1e-7, 1e-5)):
        v = verify_sampled(spec, 2, 3, tol, rng, dual=dual, sigma=sigma, tau2_tol=tau2_tol)
        assert not v.passed and v.worst("kinv") > 1e-4, dual
        assert v.worst("kinv") > tol * max(1.0, np.abs(v.components["phi"]).max())
        if not dual and family != SO2N_UN:
            # Phi_2 o phi of the skewed phi is still biharmonic on G: only kinv sees it
            assert v.worst("tau2_scaled") <= tau2_tol and v.worst("tau") < 1e-12


def test_verify_eigen_zero_samples_vacuous():
    rng = np.random.default_rng(3)
    spec = random_parameters(SymmetricSpaceSpec(SUN_SON, 2), rng)
    state = rng.bit_generator.state
    v = verify_eigen(spec, samples=0, tol=1e-8, rng=rng)
    assert v.passed and not v.components and v.worst("residual") == 0.0
    assert rng.bit_generator.state == state  # nothing was drawn


def test_nonisotropic_defect():
    # forcing a non-isotropic a through the bypass breaks only the kappa
    # equation, by exactly twice the bilinear square of a
    rng = np.random.default_rng(4)
    space = SymmetricSpaceSpec(SO2N_UN, 2)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    measured, predicted = kappa_defect_nonisotropic(space, a, (1, 2, 3), rng)
    assert abs(measured - predicted) < 1e-9
    s2 = complex(np.sum(a * a))
    assert abs(measured - 2 * s2) < 1e-9
    assert abs(measured - 4 * s2) > 0.1  # the doubled constant does not fit


def test_same_nonisotropic_a_passes_on_su2n_spn():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    spec = EigenfunctionSpec(SymmetricSpaceSpec(SU2N_SPN, 2), a, (1, 2, 3))
    v = verify_eigen(spec, samples=5, tol=1e-8, rng=rng)
    assert v.passed


def test_intermediate_kappa_identity_su3():
    # kappa(Phi_ja, Phi_kb) = -2 Phi_jb Phi_ka - 2 Phi_jk Phi_ab + (4/n) Phi_ja Phi_kb
    # for Phi(z) = z z^t on SU(3)
    n = 3
    spec = GroupSpec(SU, n)
    b = basis_g(spec)
    rng = np.random.default_rng(6)

    def phi_fn(j, alpha):
        from lieharm.diffops import GroupFunction

        # Phi_ja = sum_l g_jl g_al = <g, E_aj g>
        e = np.zeros((n, n), dtype=complex)
        e[alpha - 1, j - 1] = 1
        return GroupFunction(lambda g: g.pair(CMatrix(e) @ g))

    for _ in range(10):
        x = sample(spec, rng, 0.5)
        big_phi = x @ x.T
        j, alpha, k, beta = (int(v) for v in rng.integers(1, n + 1, size=4))
        val = kappa(phi_fn(j, alpha), phi_fn(k, beta), x, b)
        expect = (
            -2 * big_phi[j - 1, beta - 1] * big_phi[k - 1, alpha - 1]
            - 2 * big_phi[j - 1, k - 1] * big_phi[alpha - 1, beta - 1]
            + (4 / n) * big_phi[j - 1, alpha - 1] * big_phi[k - 1, beta - 1]
        )
        assert abs(val - expect) < 1e-9


def test_verify_dual_sun_son():
    rng = np.random.default_rng(7)
    spec = random_parameters(SymmetricSpaceSpec(SUN_SON, 2), rng)
    v = verify_sampled(spec, 2, samples=5, tol=1e-7, rng=rng, dual=True, sigma=0.2, tau2_tol=1e-5)
    assert v.passed
    assert len(v.components["phi"]) == 5
    assert v.worst("tau") < 1e-9
    assert v.worst("kappa") < 1e-9
    assert v.worst("tau2_abs") < 1e-9


def test_verify_dual_other_families():
    rng = np.random.default_rng(8)
    for family in (SPN_UN, SU2N_SPN):
        spec = random_parameters(SymmetricSpaceSpec(family, 2), rng)
        v = verify_sampled(spec, 2, samples=3, tol=1e-7, rng=rng, dual=True, sigma=0.2, tau2_tol=1e-5)
        assert v.passed, (family, v)


def _phi2_at_fault(monkeypatch, eps):
    """Build Phi_2 from lambda (1 + eps) while phi keeps its true lambda."""
    from lieharm import eigenfamilies
    from lieharm.formal import build_phi_p

    bump = 1 + eps
    monkeypatch.setattr(eigenfamilies, "build_phi_p", lambda p, lam, mu: build_phi_p(p, lam * bump, mu))


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("suite", ["crosscheck", "dual"])
def test_phi2_check_catches_a_perturbed_lambda(monkeypatch, family, suite):
    from lieharm.harness import RunConfig, substream

    cfg = RunConfig()
    tol, sigma, tau2_tol = (cfg.suite_param(suite, key) for key in ("tol", "sigma", "tau2_tol"))

    def run_check():
        rng = substream(cfg.seed, suite, family, 2)
        spec = random_parameters(SymmetricSpaceSpec(family, 2), rng)
        return verify_sampled(spec, 2, 2, tol, rng, dual=suite == "dual", sigma=sigma, tau2_tol=tau2_tol)

    assert run_check().passed
    # 1e-6 hides under the float64 noise of tau^2 on some spaces, and tau^1
    # matches the formal layer for any Phi_2; the exact formal tau^2 sees it
    _phi2_at_fault(monkeypatch, Fraction(1, 10**6))
    v = run_check()
    assert not v.passed and not v.formal.is_zero()
    # 1e-4 is far enough above the noise that the numeric tau^2 alone fails
    _phi2_at_fault(monkeypatch, Fraction(1, 10**4))
    v = run_check()
    assert v.worst("tau2_scaled") > tau2_tol and v.witness_coefficients is not None


def _nested_point_by_point(spec, samples, rng, *, dual, sigma):
    """The per-point reference of the nested draw: one row drawn, rebuilt and
    tested for the log domain at a time, as the nested check did before it
    batched its draws.  Returns the accepted rows, their points and the
    number of rejected rows."""
    from lieharm import eigenfamilies

    space = spec.space
    k, m = cartan_decomposition(space)
    f = build_eigenfunction(spec)
    rows, points, rejected = [], [], 0
    while len(points) < samples:
        assert len(points) + rejected < 50 * samples
        if dual:
            a, b = rng.normal(0.0, sigma, len(k)), rng.normal(0.0, sigma, len(m))
            x, row = rebuild_dual_sample(space, a, b), np.concatenate([a, b])
        else:
            x, row = sample_with_coefficients(space.group_spec(), rng, sigma)
        if not eigenfamilies.log_domain_ok(complex(f(x))):
            rejected += 1
            continue
        rows.append(row)
        points.append(x)
    return rows, points, rejected


@pytest.mark.parametrize("family", [SUN_SON, SU2N_SPN])
@pytest.mark.parametrize("dual", [False, True])
def test_batched_nested_draw_matches_point_by_point(monkeypatch, family, dual):
    # every other row is rejected, so the check refills in rounds of fewer
    # rows; it must draw, accept and witness exactly as the per-point loop
    from lieharm import eigenfamilies

    real = eigenfamilies.log_domain_ok
    calls = []

    def reject_every_other(phi):
        calls.append(phi)
        return len(calls) % 2 == 0

    space = SymmetricSpaceSpec(family, 2)
    spec = random_parameters(space, np.random.default_rng(30))
    samples, sigma, tol = 4, 0.2 if dual else 0.5, 1e-7
    monkeypatch.setattr(eigenfamilies, "log_domain_ok", reject_every_other)
    rng_ref = np.random.default_rng(35)
    rows, points, rejected = _nested_point_by_point(spec, samples, rng_ref, dual=dual, sigma=sigma)
    assert rejected == samples

    # a tau2_tol from the draw's own residuals, the second largest, which
    # some accepted point meets and another misses under any rounding
    monkeypatch.setattr(eigenfamilies, "log_domain_ok", real)
    evaluate = sampled_evaluator(spec, 2, dual)[2]
    scaled = [evaluate(row[None])[1]["tau2_scaled"][0] for row in rows]
    tau2_tol = sorted(scaled)[-2]
    assert any(v <= tau2_tol for v in scaled) and any(v > tau2_tol for v in scaled)
    witness = next(list(row) for row, v in zip(rows, scaled) if v > tau2_tol)

    swept = []
    sweep = eigenfamilies.tau_and_kappa

    def capture(f, x, dirs):
        swept.append(x)
        return sweep(f, x, dirs)

    calls.clear()
    monkeypatch.setattr(eigenfamilies, "log_domain_ok", reject_every_other)
    monkeypatch.setattr(eigenfamilies, "tau_and_kappa", capture)
    rng = np.random.default_rng(35)
    v = verify_sampled(spec, 2, samples, tol, rng, dual=dual, sigma=sigma, tau2_tol=tau2_tol)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert len(calls) == 2 * samples and v.rejected == rejected
    # one sweep a round over its admissible points: the rounds of 4, 2, 1 and
    # 1 rows keep 2, 1, 0 and 1 of them, and the empty round sweeps nothing
    assert [len(x) for x in swept] == [2, 1, 1]
    assert np.array_equal(np.concatenate(swept), np.stack(points))
    assert v.witness_coefficients == witness and not v.passed


@pytest.mark.parametrize("dual", [False, True])
def test_nested_check_reads_its_directions_in_the_dtype_of_the_point(monkeypatch, dual):
    # the sampled evaluator hands a Basis to its sweep, so a clongdouble point
    # is swept along stack(np.clongdouble), not along directions rounded to float64
    from lieharm import eigenfamilies

    # SU(3)/SO(3): c = 1/sqrt(6) and more, which float64 rounds, in both g and m
    space = SymmetricSpaceSpec(SUN_SON, 3)
    spec = random_parameters(space, np.random.default_rng(40))
    k, m = cartan_decomposition(space)
    rebuild, rebuild_dual = eigenfamilies.rebuild_sample, eigenfamilies.rebuild_dual_sample
    monkeypatch.setattr(eigenfamilies, "rebuild_sample", lambda *a: rebuild(*a).astype(np.clongdouble))
    monkeypatch.setattr(eigenfamilies, "rebuild_dual_sample", lambda *a: rebuild_dual(*a).astype(np.clongdouble))
    # a row over g or over [k | m]: both have dim g entries
    row = np.random.default_rng(41).normal(0.0, 0.2, len(k) + len(m))
    x = (eigenfamilies.rebuild_dual_sample(space, row[: len(k)], row[len(k) :]) if dual
         else eigenfamilies.rebuild_sample(space.group_spec(), row))
    assert x.dtype == np.clongdouble
    got = sampled_evaluator(spec, 2, dual)[2](row[None])[1]["tau"][0]

    f = build_eigenfunction(spec)
    # lambda and phi in long double too, as the check keeps them
    lam = expected_eigenvalues(spec)[0] * (-1 if dual else 1)
    lam = np.clongdouble(np.longdouble(lam.numerator) / np.longdouble(lam.denominator))
    phi = f(x)
    assert phi.dtype == np.clongdouble
    # one sweep of the batch in the basis k + m, and k + 1j m on the dual;
    # on SU(3)/SO(3) k + m is basis_g itself
    unit = 1j if dual else 1

    def tau_residual(dtype):
        dirs = np.concatenate([k.stack(dtype), unit * m.stack(dtype)])
        return np.abs(tau_and_kappa(f, x[None], dirs)[0] - lam * phi)[0]

    assert got == tau_residual(np.clongdouble)
    # the test can tell: directions rounded to complex128 give other bits
    assert got != tau_residual(np.complex128)


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dual", [False, True])
def test_each_admissible_point_of_an_order_two_batch_keeps_its_bits(monkeypatch, family, n, dual):
    # replay hands a witness row to the evaluator as a batch of one, so every
    # admissible point of a batch, also one between rejected rows, must get the
    # bits it gets alone, from the batched sweep (phi, tau, kappa, kinv) and
    # from the per-point nested tau (tau1_rel, tau2_abs, tau2_scaled)
    from lieharm import eigenfamilies

    space = SymmetricSpaceSpec(family, n)
    spec = random_parameters(space, np.random.default_rng(70 + n))
    width, _, evaluate = sampled_evaluator(spec, 2, dual)
    rows = np.random.default_rng(71 + n).normal(0.0, 0.2 if dual else 0.5, (4, width))
    k = len(cartan_decomposition(space)[0])
    x = (rebuild_dual_sample(space, rows[:, :k], rows[:, k:]) if dual
         else eigenfamilies.rebuild_sample(space.group_spec(), rows))
    phi = build_eigenfunction(spec)(x)
    # the rows 1 and 3 are rejected, by their phi, in any batch
    dropped = {complex(v) for v in phi[1::2]}
    real = eigenfamilies.log_domain_ok
    monkeypatch.setattr(eigenfamilies, "log_domain_ok", lambda v: complex(v) not in dropped and real(v))
    kept, batch = evaluate(rows)
    assert kept.tolist() == [True, False, True, False]
    assert set(batch) == {"phi", "tau", "kappa", "kinv", "tau1_rel", "tau2_abs", "tau2_scaled", "residual"}
    for j, i in enumerate((0, 2)):
        alone_kept, alone = evaluate(rows[i : i + 1])
        assert alone_kept.tolist() == [True]
        for key, values in batch.items():
            assert values[j] == alone[key][0], (key, i)
            assert values[j].dtype == alone[key].dtype, (key, i)


def test_order_two_check_without_tau2_tol_raises_before_drawing():
    spec = random_parameters(SymmetricSpaceSpec(SUN_SON, 2), np.random.default_rng(45))
    rng = np.random.default_rng(46)
    state = rng.bit_generator.state
    with pytest.raises(UsageError, match="tau2_tol"):
        verify_sampled(spec, 2, 2, 1e-7, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("family", [SUN_SON, SU2N_SPN])
@pytest.mark.parametrize("p,dual", [(1, False), (2, False), (2, True)])
def test_checks_do_not_see_the_phase_of_an_su_point(monkeypatch, family, p, dual):
    # The sampler maps su(n) into U(n), so a point x of the SU families is
    # y = x det(x)^(-1/n) in SU(n) times a phase (on the dual, a positive
    # scalar).  phi(c y) = c^2 phi(y), c^2 phi is again a (lambda, mu)
    # eigenfunction and Phi_2 o (c^2 phi) is biharmonic, so every residual
    # the evaluators report at x is the one at y, to rounding.
    from lieharm import eigenfamilies

    space = SymmetricSpaceSpec(family, 3)
    g = space.group_spec()
    spec = random_parameters(space, np.random.default_rng(50))
    width, _, evaluate = sampled_evaluator(spec, p, dual)
    rows = np.random.default_rng(51).normal(0.0, 1.0 if dual else 1.5, (3, width))
    kept, at_x = evaluate(rows)

    scales = []

    def unimodular(x):
        c = np.linalg.det(x) ** (-1 / x.shape[-1])
        scales.append(c)
        return x * c[..., None, None]

    rebuild, rebuild_dual = eigenfamilies.rebuild_sample, eigenfamilies.rebuild_dual_sample
    monkeypatch.setattr(eigenfamilies, "rebuild_sample",
                        lambda s, coeffs: unimodular(rebuild(s, coeffs)) if s == g else rebuild(s, coeffs))
    monkeypatch.setattr(eigenfamilies, "rebuild_dual_sample", lambda *a: unimodular(rebuild_dual(*a)))
    kept_y, at_y = evaluate(rows)
    (c,) = scales
    # the phase is far from 1, so x and y are different points
    assert np.max(np.abs(c - 1)) > 1e-2
    assert np.array_equal(kept, kept_y) and kept.all()
    phi = at_x["phi"]
    assert np.max(np.abs(at_y["phi"] - c**2 * phi) / np.abs(phi)) <= 1e-14
    for key in set(at_x) - {"phi"}:
        assert np.all(np.abs(at_y[key] - at_x[key]) <= 1e-10 * np.maximum(1.0, np.abs(phi))), key
