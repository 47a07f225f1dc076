"""The four eigenfunction families: construction, parameter validation,
exact expected eigenvalues, verification of the eigen-equations on the
compact spaces, and one nested-tau^2 check of Phi_2 o phi that runs on the
compact spaces or (sign-flipped) on their non-compact duals.

Families and their data:

  SU(n)/SO(n):   phi(z) = trace(z^t A z),    A = a a^t,  a in C^n
  Sp(n)/U(n):    phi(q) = trace(q^t A q),    A = a a^t,  a in C^{2n}
  SO(2n)/U(n):   phi(x) = trace(x^t A x J),  A = a1 Y_rs + a2 Y_rq + a3 Y_sq,
                 a in C^3 isotropic (a1^2 + a2^2 + a3^2 = 0), 1 <= r < s < q <= 2n
  SU(2n)/Sp(n):  phi(z) = trace(z^t A z J),  same A, isotropy NOT required

phi is evaluated as the Frobenius pairing <g, A g J> = sum_ij g_ij (A g J)_ij
(`pair` of `matrices.py`, with J = I for the first two families), which is
the same trace but never forms the product g^t (A g J): at a jet point
that product would be a Cauchy product of matmuls between two jets, while
the pairing contracts each pair of coefficients in O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .diffops import GroupFunction, tau, tau_and_kappa, tau_iterated
from .exact import RationalComplex
from .formal import FormalSum, build_phi_p, evaluate_formal, log_domain_ok, tau_formal
from .lie import (
    SO2N_UN,
    SPN_UN,
    SU2N_SPN,
    SUN_SON,
    SymmetricSpaceSpec,
    UsageError,
    basis_g,
    cartan_decomposition,
    generator,
    rebuild_sample,
    sample,
    sample_dual_with_coefficients,
    sample_with_coefficients,
    standard_symplectic,
)
from .matrices import CMatrix


class ValidationError(ValueError):
    """An eigenfunction parameter set violates its family's conditions."""


ISOTROPY_TOL = 1e-12


@dataclass(eq=False)
class EigenfunctionSpec:
    space: SymmetricSpaceSpec
    a: np.ndarray
    indices: Optional[Tuple[int, int, int]] = None
    _skip_validation: bool = field(default=False, repr=False)

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        if self._skip_validation:
            return
        fam, n = self.space.family, self.space.n
        if np.max(np.abs(self.a)) == 0:
            raise ValidationError("parameter vector a must be nonzero")
        expected_len = {SUN_SON: n, SPN_UN: 2 * n, SO2N_UN: 3, SU2N_SPN: 3}[fam]
        if self.a.shape != (expected_len,):
            raise ValidationError(
                f"{self.space}: a must have length {expected_len}, got shape {self.a.shape}"
            )
        if fam in (SO2N_UN, SU2N_SPN):
            if self.indices is None:
                raise ValidationError(f"{self.space}: indices (r, s, q) are required")
            r, s, q = self.indices
            if not (1 <= r < s < q <= 2 * n):
                raise ValidationError(
                    f"{self.space}: need 1 <= r < s < q <= {2 * n}, got {self.indices}"
                )
            if fam == SO2N_UN:
                iso = abs(self.a[0] ** 2 + self.a[1] ** 2 + self.a[2] ** 2)
                if iso > ISOTROPY_TOL:
                    raise ValidationError(
                        f"{self.space}: a must be isotropic (a1^2+a2^2+a3^2 = 0); "
                        f"residual {iso:.3e}"
                    )
        elif self.indices is not None:
            raise ValidationError(f"{self.space}: indices are not part of this family")


def build_matrix_A(spec: EigenfunctionSpec) -> np.ndarray:
    """Symmetric A = a a^t for the trace(g^t A g) families; skew-symmetric
    A = a1 Y_rs + a2 Y_rq + a3 Y_sq for the trace(g^t A g J) families."""
    fam, n = spec.space.family, spec.space.n
    if fam in (SUN_SON, SPN_UN):
        # mirror the upper triangle so A = a a^t is bitwise symmetric
        m = np.outer(spec.a, spec.a)
        return np.triu(m) + np.triu(m, 1).T
    r, s, q = spec.indices
    size = 2 * n
    a1, a2, a3 = spec.a
    return a1 * generator("Y", size, r, s) + a2 * generator("Y", size, r, q) + a3 * generator("Y", size, s, q)


def uses_complex_structure(space: SymmetricSpaceSpec) -> bool:
    return space.family in (SO2N_UN, SU2N_SPN)


def build_eigenfunction(spec: EigenfunctionSpec) -> GroupFunction:
    """phi as a scalar-polymorphic group function: <g, A g J> = trace(g^t A g J)."""
    space = spec.space
    a_cm = CMatrix(build_matrix_A(spec))
    size = space.matrix_size
    j_cm = CMatrix(standard_symplectic(space.n)) if uses_complex_structure(space) else None

    def fn(g: CMatrix):
        if g.shape != (size, size):
            raise UsageError(f"{space}: expected a {size}x{size} group element, got {g.shape}")
        m = a_cm @ g
        if j_cm is not None:
            m = m @ j_cm
        return g.pair(m)

    return GroupFunction(fn, domain=space.group_spec(), name=f"phi[{space}]")


def expected_eigenvalues(spec_or_space) -> Tuple[RationalComplex, RationalComplex]:
    """The exact eigenvalue pair (lambda, mu) of the family."""
    space = spec_or_space.space if isinstance(spec_or_space, EigenfunctionSpec) else spec_or_space
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
    return RationalComplex(lam), RationalComplex(mu)


def random_parameters(space: SymmetricSpaceSpec, rng: np.random.Generator) -> EigenfunctionSpec:
    """A random valid parameter draw; isotropic a comes from the rational
    parametrization (u^2 - v^2, i(u^2 + v^2), 2uv) of the isotropic cone."""
    fam, n = space.family, space.n
    if fam in (SUN_SON, SPN_UN):
        length = n if fam == SUN_SON else 2 * n
        while True:
            a = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            if np.linalg.norm(a) > 1e-6:
                return EigenfunctionSpec(space, a)
    idx = tuple(sorted(rng.choice(np.arange(1, 2 * n + 1), size=3, replace=False).tolist()))
    if fam == SU2N_SPN:
        while True:
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            if np.linalg.norm(a) > 1e-6:
                return EigenfunctionSpec(space, a, idx)
    while True:
        u, v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = np.array([u * u - v * v, 1j * (u * u + v * v), 2 * u * v])
        if np.linalg.norm(a) > 1e-6:
            return EigenfunctionSpec(space, a, idx)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class EigenVerification:
    spec: EigenfunctionSpec
    samples: int
    tol: float
    max_tau_residual: float = 0.0
    max_kappa_residual: float = 0.0
    max_kinv_residual: float = 0.0
    passed: bool = True
    vacuous: bool = False
    witness_coefficients: Optional[list] = None

    @property
    def max_residual(self) -> float:
        return max(self.max_tau_residual, self.max_kappa_residual, self.max_kinv_residual)


class EigenPoints(NamedTuple):
    """phi and the three residuals of `verify_eigen` at every point of a batch."""

    phi: np.ndarray
    tau: np.ndarray  # |tau phi - lambda phi|
    kappa: np.ndarray  # |kappa(phi, phi) - mu phi^2|
    kinv: np.ndarray  # max_j |phi(x k_j) - phi(x)|

    @property
    def residual(self) -> np.ndarray:
        return np.maximum(np.maximum(self.tau, self.kappa), self.kinv)


def eigen_points(spec: EigenfunctionSpec, coeffs) -> EigenPoints:
    """The eigen-equation and K-invariance residuals of phi at the points of a
    (samples, dim g + k_samples * dim k) coefficient array, which replay also
    runs: each row holds a point x of G, then its k_samples points k_j of K.

    One sweep, one phi evaluation and one evaluation of phi at every x k_j
    serve the whole batch.
    """
    space = spec.space
    g_spec, k_spec = space.group_spec(), space.subgroup_spec()
    b = basis_g(g_spec)
    bg, bk = len(b), len(basis_g(k_spec))
    coeffs = np.asarray(coeffs, dtype=float)
    samples = len(coeffs)
    f = build_eigenfunction(spec)
    lam, mu = (complex(v) for v in expected_eigenvalues(spec))
    x = rebuild_sample(g_spec, coeffs[:, :bg])
    k = rebuild_sample(k_spec, coeffs[:, bg:].reshape(samples, -1, bk))
    phi = f(x)
    t, kap = tau_and_kappa(f, x, b)
    # x_i k_ij for every point i and each of its rotations j
    phi_k = f(x[:, None] @ k)
    residuals = np.zeros((3, samples))
    for i in range(samples):
        # Python complex arithmetic: numpy's complex multiply and abs round differently
        p = complex(phi[i])
        residuals[:, i] = (
            abs(complex(t[i]) - lam * p),
            abs(complex(kap[i]) - mu * p * p),
            max([0.0] + [abs(complex(v) - p) for v in phi_k[i]]),
        )
    return EigenPoints(phi, *residuals)


def verify_eigen(
    spec: EigenfunctionSpec,
    samples: int,
    tol: float,
    rng: np.random.Generator,
    sigma: float = 0.5,
    k_samples: int = 5,
) -> EigenVerification:
    """Check tau(phi) = lambda phi, kappa(phi,phi) = mu phi^2 and K-invariance
    at sampled group points; residuals are compared to tol * max(1, |phi|).

    The points are one batch for `eigen_points`: all coefficients come from
    one rng.normal call, in the order of a point-by-point draw (a point of G,
    then its k_samples points of K).  The witness is the whole row of the
    first failing point.
    """
    out = EigenVerification(spec, samples, tol)
    if samples <= 0:
        out.vacuous = True
        return out
    bg = len(basis_g(spec.space.group_spec()))
    bk = len(basis_g(spec.space.subgroup_spec()))
    coeffs = rng.normal(0.0, sigma, size=(samples, bg + k_samples * bk))
    points = eigen_points(spec, coeffs)
    size = np.abs(points.phi)
    ok = points.residual <= tol * np.maximum(1.0, size)
    counted = size >= 1e-10
    if counted.any():
        out.max_tau_residual = float(points.tau[counted].max())
        out.max_kappa_residual = float(points.kappa[counted].max())
        out.max_kinv_residual = float(points.kinv[counted].max())
    if not ok.all():
        out.witness_coefficients = [float(c) for c in coeffs[np.argmin(ok)]]
    out.passed = bool(ok.all()) and bool((size > 1e-6).any())
    return out


class Phi2Point(NamedTuple):
    """The four checks of `verify_phi2` at one admissible point."""

    phi: complex
    tau: float  # |tau phi - lambda' phi|
    kappa: float  # |kappa(phi, phi) - mu' phi^2|
    tau1_rel: float  # |tau(Phi_2 o phi) - formal tau Phi_2| / max(1, |formal|)
    tau2_abs: float  # |tau^2(Phi_2 o phi)|
    tau2_scaled: float  # the same over max(1, |Phi_2 o phi|)

    @property
    def residual(self) -> float:
        return max(self.tau, self.kappa, self.tau1_rel, self.tau2_scaled)


def phi2_point(
    spec: EigenfunctionSpec, dual: bool
) -> Tuple[FormalSum, Callable[[np.ndarray, int], Optional[Phi2Point]]]:
    """The exact formal tau^2 of the Phi_2 that `verify_phi2` checks, and its
    per-point code (which replay runs too): a function of (point, budget),
    None where phi is outside the log domain.  `dual` selects the directions
    (g, or 1j * m) and the signs ((lambda, mu), or (-lambda, -mu)) that
    Phi_2 is built from.  The tau^1 comparison holds for any Phi_2 by the
    chain rule; only tau^2 tells a wrong Phi_2 from the right one."""
    f = build_eigenfunction(spec)
    lam, mu = expected_eigenvalues(spec)
    if dual:
        lam, mu = -lam, -mu
        dirs = 1j * cartan_decomposition(spec.space)[1].stack()
    else:
        dirs = basis_g(spec.space.group_spec()).stack()
    phi2 = build_phi_p(2, lam, mu)
    tau1 = tau_formal(phi2, lam, mu)
    tau2 = tau_formal(tau1, lam, mu)
    h = GroupFunction(lambda g: evaluate_formal(phi2, f(g)), domain=f.domain, name="Phi2.phi")
    lam, mu = complex(lam), complex(mu)

    def check(x: np.ndarray, budget: int) -> Optional[Phi2Point]:
        phi = complex(f(x))
        if not log_domain_ok(phi):
            return None
        t, kap = tau_and_kappa(f, x, dirs)
        t1_sym = complex(evaluate_formal(tau1, phi))
        t1_rel = abs(complex(tau(h, x, dirs)) - t1_sym) / max(1.0, abs(t1_sym))
        t2 = abs(complex(tau_iterated(h, x, dirs, 2, budget=budget)))
        # phi^{1-lambda/mu} can be huge at small |phi|; judge the nullity of
        # tau^2 relative to the size of the function it acts on
        t2_scaled = t2 / max(1.0, abs(complex(h(x))))
        return Phi2Point(phi, abs(t - lam * phi), abs(kap - mu * phi * phi), t1_rel, t2, t2_scaled)

    return tau2, check


@dataclass
class Phi2Verification:
    points: List[Phi2Point] = field(default_factory=list)
    rejected_points: int = 0
    witness_coefficients: Optional[list] = None  # of the first failing point
    tau2_formal: FormalSum = field(default_factory=FormalSum)  # zero for a biharmonic Phi_2

    @property
    def passed(self) -> bool:
        return self.witness_coefficients is None and self.tau2_formal.is_zero()

    def worst(self, component: str) -> float:
        """The largest value of a `Phi2Point` field or of its `residual`."""
        return max((getattr(p, component) for p in self.points), default=0.0)


def verify_phi2(
    spec: EigenfunctionSpec, samples: int, tol: float, rng: np.random.Generator,
    *, dual: bool, sigma: float, tau2_tol: float, budget: int = 10**6,
) -> Phi2Verification:
    """The nested-tau^2 check of Phi_2 o phi on the compact space or its dual.

    The formal tau^2 of Phi_2 must be zero.  At `samples` points with phi in
    the log domain: tau phi and kappa(phi, phi) match lambda' phi and
    mu' phi^2 within tol * max(1, |phi|), tau(Phi_2 o phi) the formal tau Phi_2
    within tol relative, and |tau^2(Phi_2 o phi)| / max(1, |Phi_2 o phi|) is
    at most tau2_tol.  Other draws are redrawn and counted; past 50 * samples
    draws RuntimeError.  `BudgetExceeded` if tau^2 would exceed the budget.
    """
    out = Phi2Verification()
    out.tau2_formal, check = phi2_point(spec, dual)
    while len(out.points) < samples:
        if len(out.points) + out.rejected_points >= 50 * samples:
            raise RuntimeError(f"{spec.space}: could not find enough admissible points")
        if dual:
            x, a, b = sample_dual_with_coefficients(spec.space, rng, sigma)
            coeffs = np.concatenate([a, b])  # over k, then over m
        else:
            x, coeffs = sample_with_coefficients(spec.space.group_spec(), rng, sigma)
        point = check(x, budget)
        if point is None:
            out.rejected_points += 1
            continue
        out.points.append(point)
        ok = max(point.tau, point.kappa) <= tol * max(1.0, abs(point.phi))
        ok = ok and point.tau1_rel <= tol and point.tau2_scaled <= tau2_tol
        if out.witness_coefficients is None and not ok:
            out.witness_coefficients = [float(c) for c in coeffs]
    return out


def kappa_defect_nonisotropic(
    space: SymmetricSpaceSpec,
    a: np.ndarray,
    indices: Tuple[int, int, int],
    rng: np.random.Generator,
    samples: int = 5,
    sigma: float = 0.5,
) -> Tuple[complex, complex]:
    """Negative control for SO(2n)/U(n): with non-isotropic a the kappa
    equation fails by exactly 2(a1^2 + a2^2 + a3^2).

    Returns (measured defect kappa - mu phi^2, predicted 2*sum(a^2)); the
    measurement is taken at one point after verifying it is constant
    across all sampled points.
    """
    if space.family != SO2N_UN:
        raise UsageError("the defect control applies to the SO(2n)/U(n) family")
    spec = EigenfunctionSpec(space, a, indices, _skip_validation=True)
    f = build_eigenfunction(spec)
    g_spec = space.group_spec()
    b = basis_g(g_spec)
    mu = complex(expected_eigenvalues(spec)[1])
    x = sample(g_spec, rng, sigma, (samples,))
    phi = f(x)
    _, kap = tau_and_kappa(f, x, b)
    values = [complex(k) - mu * complex(p) * complex(p) for k, p in zip(kap, phi)]
    spread = max(abs(v - values[0]) for v in values)
    if spread > 1e-8 * max(1.0, abs(values[0])):
        raise RuntimeError(f"defect is not constant across points (spread {spread:.3e})")
    a = np.asarray(a, dtype=complex)
    predicted = 2.0 * complex(a[0] ** 2 + a[1] ** 2 + a[2] ** 2)
    return values[0], predicted
