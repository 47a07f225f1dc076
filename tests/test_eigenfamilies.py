"""Eigenfunction families: construction, eigenvalue pairs, eigen-equation and
K-invariance verification, duals and negative controls."""

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
    uses_complex_structure,
    verify_eigen,
    verify_phi2,
)
from lieharm.exact import RationalComplex
from lieharm.jets import JetScalar
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
    generator,
    sample,
    sample_with_coefficients,
    standard_symplectic,
)
from lieharm.matrices import CMatrix


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
    formed in full: the reference for the pairing <g, A g J>."""
    a = CMatrix(build_matrix_A(spec))
    j = CMatrix(standard_symplectic(spec.space.n)) if uses_complex_structure(spec.space) else None

    def fn(g):
        m = g.T @ (a @ g)
        if j is not None:
            m = m @ j
        return m.trace()

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
                _assert_same_phi(got.c[key], want.c[key])
        else:
            _assert_same_phi(got, want)


@pytest.mark.parametrize(
    "family, n", [(SUN_SON, 3), (SUN_SON, 6), (SPN_UN, 3), (SO2N_UN, 3), (SU2N_SPN, 3)]
)
def test_phi_at_a_jet_point_forms_no_jet_matrix_product(family, n, monkeypatch):
    # phi = <g, A g J>: A g and (A g) J multiply the jet g by a plain matrix,
    # and the pairing contracts g with A g J; g^t (A g J) would add a Cauchy
    # product of matmuls between two jets (6 at one variable)
    space = SymmetricSpaceSpec(family, n)
    rng = np.random.default_rng(60 + n)
    f = build_eigenfunction(random_parameters(space, rng))
    su = GroupSpec(SU, space.matrix_size)
    (point,) = _swept_points(sample(su, rng, 0.5), basis_g(su).stack())
    calls = []
    matmul = np.matmul

    def counted(a, b, *args, **kwargs):
        calls.append((np.ndim(a), np.ndim(b)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    phi = f(point)
    monkeypatch.undo()
    assert isinstance(phi, JetScalar) and phi.k == 1
    assert len(calls) == (2 if uses_complex_structure(space) else 1)
    # each product has the plain A or J on one side
    assert all(2 in dims for dims in calls), calls


# --- eigenvalue pairs -------------------------------------------------------------


@pytest.mark.parametrize("family,n,lam,mu", [
    (SUN_SON, 3, Fraction(-20, 3), Fraction(-8, 3)),
    (SPN_UN, 2, Fraction(-6), Fraction(-2)),
    (SO2N_UN, 3, Fraction(-4), Fraction(-1)),
    (SU2N_SPN, 2, Fraction(-5), Fraction(-1)),
])
def test_expected_eigenvalues(family, n, lam, mu):
    got_lam, got_mu = expected_eigenvalues(SymmetricSpaceSpec(family, n))
    assert got_lam == RationalComplex(lam)
    assert got_mu == RationalComplex(mu)


def test_eigenvalues_never_degenerate():
    for family in SPACE_FAMILIES:
        for n in range(2, 7):
            lam, mu = expected_eigenvalues(SymmetricSpaceSpec(family, n))
            assert not mu.is_zero()
            assert lam != mu


# --- verification ------------------------------------------------------------------


@pytest.mark.parametrize("family", SPACE_FAMILIES)
@pytest.mark.parametrize("n", [2, 3])
def test_verify_eigen_passes(family, n):
    rng = np.random.default_rng(100 + n)
    spec = random_parameters(SymmetricSpaceSpec(family, n), rng)
    v = verify_eigen(spec, samples=8, tol=1e-8, rng=rng)
    assert v.passed
    assert v.max_tau_residual < 1e-10
    assert v.max_kappa_residual < 1e-10
    assert v.max_kinv_residual < 1e-10


def _verify_eigen_point_by_point(spec, samples, tol, rng, sigma=0.5, k_samples=5):
    """The per-point reference: one draw, one sweep and k_samples K-points at a
    time, as verify_eigen did before it batched its points; the witness is the
    point's coefficients over g, then those of its K-points."""
    space = spec.space
    g_spec, k_spec = space.group_spec(), space.subgroup_spec()
    b = basis_g(g_spec)
    f = build_eigenfunction(spec)
    lam, mu = (complex(v) for v in expected_eigenvalues(spec))
    out = {"tau": 0.0, "kappa": 0.0, "kinv": 0.0, "passed": True, "witness": None}
    proper = False
    for _ in range(samples):
        x, coeffs = sample_with_coefficients(g_spec, rng, sigma)
        coeffs = list(coeffs)
        phi = complex(f(x))
        scale = max(1.0, abs(phi))
        proper = proper or abs(phi) > 1e-6
        t, kap = tau_and_kappa(f, x, b)
        r1, r2 = abs(t - lam * phi), abs(kap - mu * phi * phi)
        r3 = 0.0
        for _ in range(k_samples):
            k, k_coeffs = sample_with_coefficients(k_spec, rng, sigma)
            coeffs += list(k_coeffs)
            r3 = max(r3, abs(complex(f(x @ k)) - phi))
        if abs(phi) >= 1e-10:
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
    assert v.max_tau_residual == pytest.approx(ref["tau"], rel=1e-12, abs=0)
    assert v.max_kappa_residual == pytest.approx(ref["kappa"], rel=1e-12, abs=0)
    assert v.max_kinv_residual == pytest.approx(ref["kinv"], rel=1e-12, abs=0)


def test_verify_eigen_zero_samples_vacuous():
    rng = np.random.default_rng(3)
    spec = random_parameters(SymmetricSpaceSpec(SUN_SON, 2), rng)
    v = verify_eigen(spec, samples=0, tol=1e-8, rng=rng)
    assert v.passed and v.vacuous


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

        return GroupFunction(lambda g: (g @ g.T)[j - 1, alpha - 1])

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
    v = verify_phi2(spec, samples=5, tol=1e-7, rng=rng, dual=True, sigma=0.2, tau2_tol=1e-5)
    assert v.passed
    assert len(v.points) == 5
    assert v.worst("tau") < 1e-9
    assert v.worst("kappa") < 1e-9
    assert v.worst("tau2_abs") < 1e-9


def test_verify_dual_other_families():
    rng = np.random.default_rng(8)
    for family in (SPN_UN, SU2N_SPN):
        spec = random_parameters(SymmetricSpaceSpec(family, 2), rng)
        v = verify_phi2(spec, samples=3, tol=1e-7, rng=rng, dual=True, sigma=0.2, tau2_tol=1e-5)
        assert v.passed, (family, v)


def _phi2_at_fault(monkeypatch, eps):
    """Build Phi_2 from lambda (1 + eps) while phi keeps its true lambda."""
    from lieharm import eigenfamilies
    from lieharm.formal import build_phi_p

    bump = RationalComplex(1 + eps)
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
        return verify_phi2(spec, 2, tol, rng, dual=suite == "dual", sigma=sigma, tau2_tol=tau2_tol)

    assert run_check().passed
    # 1e-6 hides under the float64 noise of tau^2 on some spaces, and tau^1
    # matches the formal layer for any Phi_2; the exact formal tau^2 sees it
    _phi2_at_fault(monkeypatch, Fraction(1, 10**6))
    v = run_check()
    assert not v.passed and not v.tau2_formal.is_zero()
    # 1e-4 is far enough above the noise that the numeric tau^2 alone fails
    _phi2_at_fault(monkeypatch, Fraction(1, 10**4))
    v = run_check()
    assert v.worst("tau2_scaled") > tau2_tol and v.witness_coefficients is not None
