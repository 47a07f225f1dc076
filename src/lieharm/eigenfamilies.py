"""The four eigenfunction families: construction, parameter validation,
and one routine, `verify_sampled`, that checks them at sampled points: the
eigen-equations and K-invariance (W phi(x) = 0 for W in k, read from the
sweep) at every order, and at p = 2 the nested tau^2 of Phi_2 o phi, on
the compact spaces or (sign-flipped) on their duals.  One evaluator,
`sampled_evaluator`, takes a batch of coefficient rows at either order;
`verify_sampled` draws, checks and refills through it, and replay runs it
on a witness row.  It computes in the dtype of the point: lambda and mu
(the exact pair of `lie.expected_eigenvalues`, re-exported here) enter
through `formal._coefficient`, and phi and the sweep values stay numpy
values.

Families and their data:

  SU(n)/SO(n):   phi(z) = trace(z^t A z),    A = a a^t,  a in C^n
  Sp(n)/U(n):    phi(q) = trace(q^t A q),    A = a a^t,  a in C^{2n}
  SO(2n)/U(n):   phi(x) = trace(x^t A x J),  A = a1 Y_rs + a2 Y_rq + a3 Y_sq,
                 a in C^3 isotropic (a1^2 + a2^2 + a3^2 = 0), 1 <= r < s < q <= 2n
  SU(2n)/Sp(n):  phi(z) = trace(z^t A z J),  same A, isotropy NOT required

phi reads g only through a few rows P g, the fixed left factor of its
`GroupFunction` (`diffops.py`), and is a Frobenius pairing
<x, y> = sum_ij x_ij y_ij (`pair` of `matrices.py`) of them:

  A = a a^t:      P = a^t (1 x N),          phi = <a^t g, a^t g>
  J families:     P = F (rows R of I) (2 x N), R = {r, s, q},
                  phi = <F g_R, J_1 F g_R J>

On the J families A_RR, the 3 x 3 block of A on R, is skew of rank 2, so
it has the normal form A_RR = F^t J_1 F (`skew_normal_form`), F = [u^t; v^t]
and J_1 = [[0, 1], [-1, 0]].  Both are trace(g^t A g [J]) = <g, A g [J]>,
since A is a a^t or vanishes off R x R.  So a sweep moves the 1 or 2 rows
P x along the curve, not the N x N point, and phi never forms the product
g^t (A g J): at a jet point that would be a Cauchy product of matmuls
between two jets, while the pairing contracts each pair of coefficients in
O(rows N).  Its only product is the 2 x 2 J_1 (F g_R); the right factor J
is the exact signed column swap `matrices.swap_j`, no product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .diffops import GroupFunction, tau, tau_and_kappa, tau_iterated
from .formal import FormalSum, _coefficient, build_phi_p, evaluate_formal, log_domain_ok, tau_formal
from .lie import (
    SO2N_UN,
    SPN_UN,
    SU2N_SPN,
    SUN_SON,
    Basis,
    SymmetricSpaceSpec,
    UsageError,
    basis_g,
    cartan_decomposition,
    expected_eigenvalues,
    generator,
    rebuild_dual_sample,
    rebuild_sample,
    sample,
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
        expected_len = {SUN_SON: n, SPN_UN: 2 * n, SO2N_UN: 3, SU2N_SPN: 3}[fam]
        if self.a.shape != (expected_len,):
            raise ValidationError(
                f"{self.space}: a must have length {expected_len}, got shape {self.a.shape}"
            )
        if np.max(np.abs(self.a)) == 0:
            raise ValidationError("parameter vector a must be nonzero")
        if fam in (SO2N_UN, SU2N_SPN):
            if self.indices is None or len(self.indices) != 3:
                raise ValidationError(f"{self.space}: indices (r, s, q) are required, got {self.indices}")
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
    """phi = trace(g^t A g J) as a scalar-polymorphic group function of the
    rows P g that it reads: <a^t g, a^t g> for A = a a^t, and
    <F g_R, J_1 F g_R J>, A_RR = F^t J_1 F, for the J families."""
    space = spec.space
    name = f"phi[{space}]"
    if not uses_complex_structure(space):
        return GroupFunction(lambda v: v.pair(v), name=name, left=spec.a[None, :].copy())
    rows = [i - 1 for i in spec.indices]
    left = np.zeros((2, space.matrix_size), dtype=complex)
    left[:, rows] = skew_normal_form(build_matrix_A(spec)[np.ix_(rows, rows)])
    j1 = CMatrix(standard_symplectic(1))
    return GroupFunction(lambda v: v.pair((j1 @ v).swap_j()), name=name, left=left)


def skew_normal_form(a_rr: np.ndarray) -> np.ndarray:
    """F = [u^t; v^t] (2 x 3) with A_RR = F^t J_1 F = u v^t - v u^t, for the
    nonzero 3 x 3 skew block A_RR, which has rank 2: u = A e_i / A_ij and
    v = A e_j at the largest |A_ij|.  Entry by entry this is the Pluecker
    relation A_kl A_ij = A_ki A_lj - A_kj A_li of a skew matrix of rank 2."""
    i, j = np.unravel_index(np.argmax(np.abs(a_rr)), a_rr.shape)
    return np.stack([a_rr[:, i] / a_rr[i, j], a_rr[:, j]])


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
# verification at sampled points
# ---------------------------------------------------------------------------

# rows -> (which rows are admissible, the components of the admissible rows)
Evaluate = Callable[[np.ndarray], Tuple[np.ndarray, Dict[str, np.ndarray]]]


def sampled_evaluator(
    spec: EigenfunctionSpec, p: int, dual: bool = False, budget: int = 10**6
) -> Tuple[int, FormalSum, Evaluate]:
    """(row width, exact formal residual, evaluator) of the order-p check
    that `verify_sampled` runs and `replay_record` runs on a witness row.
    The formal residual is tau^2 of Phi_2 at p = 2, and zero at p = 1.

    A row holds a point over g, or on the dual (p = 2) the coefficients of
    `rebuild_dual_sample` over k, then m.  Every row is admissible at
    p = 1; at p = 2 a row whose phi fails `log_domain_ok` (called once
    per row, in row order) is not.  `dual` also flips the signs of (lambda,
    mu) that the residuals and Phi_2 are built from.  One sweep over the
    admissible rows, in the basis k + m (k + 1j m on the dual), gives tau,
    kappa and kinv, the largest |W phi| over W in k: tau and kappa do not
    depend on the orthonormal basis, and K being connected, phi is
    right-K-invariant exactly where W phi = 0 for W in k.  These residuals
    are array expressions over the round, never numpy scalars, which round
    otherwise, so a replayed batch of one gives its point's bits.

    At p = 2 each admissible point adds tau(Phi_2 o phi) and the nested
    tau^2(Phi_2 o phi), over g (the `Basis` 1j m on the dual), one point at
    a time.  The tau^1 comparison holds for any Phi_2 by the chain rule;
    only tau^2 tells a wrong Phi_2 from the right one.  Everything is
    computed in the dtype of the point, apart from the complex128
    plain-point path of `evaluate_formal` (tau^1 and |Phi_2 o phi|).
    """
    if p not in (1, 2) or (p == 1 and dual):
        raise UsageError(f"no sampled check of order p={p}{' on the dual' if dual else ''}")
    space = spec.space
    k, m = cartan_decomposition(space)
    f = build_eigenfunction(spec)
    lam, mu = expected_eigenvalues(spec)
    if dual:
        lam, mu = -lam, -mu
        m = nested_dirs = Basis(f"1j {m.name}", -m.im, m.re, m.weights)
        rebuild = lambda rows: rebuild_dual_sample(space, rows[:, : len(k)], rows[:, len(k) :])
    else:
        nested_dirs = basis_g(space.group_spec())
        rebuild = lambda rows: rebuild_sample(space.group_spec(), rows)
    dirs = Basis(f"{k.name} + {m.name}", np.concatenate([k.re, m.re]), np.concatenate([k.im, m.im]),
                 k.weights + m.weights)
    formal = FormalSum()
    if p == 2:
        phi2 = build_phi_p(2, lam, mu)
        tau1 = tau_formal(phi2, lam, mu)
        formal = tau_formal(tau1, lam, mu)
        h = GroupFunction(lambda v: evaluate_formal(phi2, f.fn(v)), name="Phi2.phi", left=f.left)

    def nested(x: np.ndarray, phi: np.complexfloating):
        """tau1_rel, tau2_abs and tau2_scaled at one point."""
        t1_sym = evaluate_formal(tau1, phi)
        t1_rel = abs(tau(h, x, nested_dirs) - t1_sym) / max(1.0, abs(t1_sym))
        t2 = abs(tau_iterated(h, x, nested_dirs, 2, budget=budget))
        # phi^{1-lambda/mu} can be huge at small |phi|; judge the nullity of
        # tau^2 relative to the size of the function it acts on
        return t1_rel, t2, t2 / max(1.0, abs(evaluate_formal(phi2, phi)))

    def evaluate(rows: np.ndarray):
        x = rebuild(rows)
        lam_x, mu_x = (_coefficient(v, x.dtype) for v in (lam, mu))
        phi = f(x)
        admissible = np.array([p == 1 or log_domain_ok(v) for v in phi], dtype=bool)
        if not admissible.all():  # no copy of a round that keeps every row
            x, phi = x[admissible], phi[admissible]
        # the sweep sizes its chunks by a point, so a round with none skips it
        t, kap, first = tau_and_kappa(f, x, dirs) if len(x) else (phi, phi, phi[None])
        r_tau, r_kappa = np.abs(t - lam_x * phi), np.abs(kap - mu_x * phi * phi)
        components = dict(phi=phi, tau=r_tau, kappa=r_kappa, kinv=np.abs(first[: len(k)]).max(axis=0))
        judged = [r_tau, r_kappa, components["kinv"]]
        if p == 2:
            t1_rel, t2, t2_scaled = np.reshape([nested(*point) for point in zip(x, phi)], (-1, 3)).T
            components.update(tau1_rel=t1_rel, tau2_abs=t2, tau2_scaled=t2_scaled)
            judged += [t1_rel, t2_scaled]
        components["residual"] = np.max(judged, axis=0)
        return admissible, components

    return len(dirs), formal, evaluate


@dataclass
class SampledCheck:
    """The outcome of `verify_sampled`.  `components` holds, per component,
    one value per accepted point in draw order: `phi`, the residuals of
    every order (tau, kappa and kinv, the largest |W phi(x)| over W in k read
    from the sweep), at p = 2 also tau1_rel, tau2_abs and tau2_scaled, and
    `residual`, the largest of those that are judged (all but tau2_abs).
    `witness_coefficients` is the first failing row."""

    components: Dict[str, np.ndarray]
    rejected: int
    witness_coefficients: Optional[list]
    formal: FormalSum
    passed: bool

    def worst(self, component: str) -> float:
        """The largest value of a component over the points with
        |phi| >= 1e-10 (at p = 2 every accepted point); 0 if none."""
        if not self.components:
            return 0.0
        counted = np.abs(self.components["phi"]) >= 1e-10
        return float(self.components[component][counted].max(initial=0.0))


def verify_sampled(
    spec: EigenfunctionSpec, p: int, samples: int, tol: float, rng: np.random.Generator,
    *, dual: bool = False, sigma: float = 0.5, tau2_tol: Optional[float] = None, budget: int = 10**6,
) -> SampledCheck:
    """The order-p check of phi at `samples` sampled points, on the compact
    space or (p = 2, `dual`) on its non-compact dual.

    Both orders: tau phi = lambda phi, kappa(phi, phi) = mu phi^2 and
    W phi(x) = 0 for W in k, read from the sweep, each within
    tol * max(1, |phi|), with (lambda, mu) sign-flipped on the dual.  p = 2
    adds: the exact formal tau^2 of Phi_2 is zero, tau(Phi_2 o phi) matches
    the formal tau Phi_2 within tol relative, and
    |tau^2(Phi_2 o phi)| / max(1, |Phi_2 o phi|) is at most tau2_tol, which
    p = 2 requires (UsageError, before any draw, without it).
    Some point must have |phi| > 1e-6, unless samples <= 0.

    Each round draws the rows it still needs in one rng.normal call, in the
    order of a draw row by row, builds their points at once and evaluates
    them; the admissible rows are accepted, the others counted in
    `rejected` and redrawn.  Past 50 * samples rows, RuntimeError.
    `BudgetExceeded` if tau^2 would exceed the budget.
    """
    if sigma <= 0:
        raise UsageError(f"sigma must be positive, got {sigma}")
    if p == 2 and tau2_tol is None:
        raise UsageError("the order-2 check needs tau2_tol")
    width, formal, evaluate = sampled_evaluator(spec, p, dual, budget)
    if samples <= 0:  # vacuous: nothing is drawn
        return SampledCheck({}, 0, None, formal, formal.is_zero())
    rows, parts, drawn, accepted = [], [], 0, 0
    while accepted < samples:
        if drawn >= 50 * samples:
            raise RuntimeError(f"{spec.space}: could not find enough admissible points")
        batch = rng.normal(0.0, sigma, size=(min(samples - accepted, 50 * samples - drawn), width))
        drawn += len(batch)
        admissible, part = evaluate(batch)
        rows.append(batch[admissible])
        parts.append(part)
        accepted += int(admissible.sum())
    components = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    size = np.abs(components["phi"])
    scale = tol * np.maximum(1.0, size)
    limits = {"tau": scale, "kappa": scale, "kinv": scale, "tau1_rel": tol, "tau2_scaled": tau2_tol}
    ok = np.ones(accepted, dtype=bool)
    for key, limit in limits.items():
        if key in components:
            ok &= components[key] <= limit
    witness = None if ok.all() else [float(c) for c in np.concatenate(rows)[np.argmin(ok)]]
    passed = formal.is_zero() and witness is None and bool((size > 1e-6).any())
    return SampledCheck(components, drawn - accepted, witness, formal, passed)


def verify_eigen(
    spec: EigenfunctionSpec, samples: int, tol: float, rng: np.random.Generator, sigma: float = 0.5
) -> SampledCheck:
    """The eigen check, `verify_sampled` at p = 1: all rows come from one
    rng.normal call, in the order of a point-by-point draw."""
    return verify_sampled(spec, 1, samples, tol, rng, sigma=sigma)


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
    x = sample(g_spec, rng, sigma, (samples,))
    mu = _coefficient(expected_eigenvalues(spec)[1], x.dtype)
    phi = f(x)
    _, kap, _ = tau_and_kappa(f, x, b)
    values = kap - mu * phi * phi
    spread = np.abs(values - values[0]).max()
    if spread > 1e-8 * max(1.0, abs(values[0])):
        raise RuntimeError(f"defect is not constant across points (spread {spread:.3e})")
    return values[0], 2.0 * np.sum(spec.a**2)
