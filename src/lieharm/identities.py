"""Stand-alone checks of every auxiliary identity the verification rests on:
coordinate-function formulas for SO(n), SU(n), Sp(n), the generator-sum
identities, the four-case basis-sum decomposition behind the Sp(n) kappa
formula, the skew-matrix index lemma, and two small symplectic facts.

The generator-sum and decomposition checks run in exact arithmetic
end-to-end; their residual is required to be identically zero, not small.
Every basis element is c N with N a Gaussian-integer matrix and c^2
rational (a `lie.Basis`), and (N E_ab N^t)_ij = N_ia N_jb, so the sums
over a basis for all (a, b) at once are one integer einsum weighted by
the c^2, compared in integers with the closed forms.  `dense_exact_crosscheck`
recomputes one (a, b) as a second contraction: per-element integer matrix
products W_q N_q E_ab N_q^t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .diffops import coordinate_sweep
from .exact import rc
from .lie import (
    SO,
    SP,
    SU,
    Basis,
    GroupSpec,
    UsageError,
    basis_g,
    generator_lattice,
    sample,
    standard_symplectic,
)
from .matrices import CMatrix

IDENTITY_NAMES = (
    "generator_sum_X",
    "generator_sum_Y",
    "generator_sum_D",
    "coordinate_tau_SO",
    "coordinate_kappa_SO",
    "coordinate_tau_SU",
    "coordinate_kappa_SU",
    "coordinate_tau_Sp",
    "coordinate_kappa_Sp",
    "kappa_basis_decomposition_exact",
    "kappa_basis_decomposition_numeric",
    "skew_index_lemma",
    "skew_index_lemma_negative_control",
    "symplectic_conjugation_invariance",
    "symmetric_times_skew_traceless",
)

# the checks that do not depend on the n of the spaces in play
SPACE_FREE_IDENTITY_NAMES = tuple(
    name for name in IDENTITY_NAMES if not name.startswith(("generator_sum", "kappa_basis"))
)


@dataclass
class IdentityCheckResult:
    name: str
    params: Dict = field(default_factory=dict)
    max_residual: float = 0.0
    passed: bool = True
    exact: bool = False
    detail: str = ""

    def merge(self, residual: float, ok: bool):
        self.max_residual = max(self.max_residual, residual)
        self.passed = self.passed and ok


# ---------------------------------------------------------------------------
# exact generator sums
# ---------------------------------------------------------------------------

# every partial sum of the integer einsum stays below this magnitude
_INT_BOUND = 2**62


class LatticeSums(NamedTuple):
    """sum_q w_q N_q E_ab N_q^t for every (a, b): `re[a, b]` and `im[a, b]`
    are the integer real and imaginary parts of that matrix times `denom`."""

    re: np.ndarray
    im: np.ndarray
    denom: int

    def at(self, alpha: int, beta: int) -> np.ndarray:
        """The sum for 1-based (alpha, beta) as a complex matrix."""
        return (self.re[alpha - 1, beta - 1] + 1j * self.im[alpha - 1, beta - 1]) / self.denom


def _integer_weights(basis: Basis) -> Tuple[int, List[int]]:
    """The common denominator of the weights c_q^2 and the integers W_q = c_q^2 times it."""
    denom = math.lcm(*(w.denominator for w in basis.weights))
    return denom, [int(x * denom) for x in basis.weights]


def conjugation_sums(basis: Basis) -> LatticeSums:
    """sum_q c_q^2 N_q E_ab N_q^t for all (a, b) at once, exactly.

    (N E_ab N^t)_ij = N_ia N_jb, so with the weights c_q^2 brought to
    integers W_q over their common denominator the sums are int64
    einsums over the real and imaginary parts.  Every partial sum is bounded by
    max|N|^2 * sum|W| <= (max|Re N|^2 + max|Im N|^2) * sum|W|, which is
    checked against 2^62 in Python integers before the einsum, so no int64
    can wrap.
    """
    denom, w = _integer_weights(basis)
    peak = sum(max(-int(a.min()), int(a.max())) ** 2 for a in (basis.re, basis.im))
    if peak * sum(abs(x) for x in w) >= _INT_BOUND:
        raise OverflowError(f"{basis.name}: entries too large for exact int64 sums")
    w = np.array(w, dtype=np.int64)
    re, im = basis.re, basis.im
    pair = lambda a, b: np.einsum("q,qia,qjb->abij", w, a, b, optimize=True)
    return LatticeSums(pair(re, re) - pair(im, im), pair(re, im) + pair(im, re), denom)


def _lattice_residual(sums: LatticeSums, expected: np.ndarray, denom: int, pairs=None):
    """(exact, residual): does every sum equal the real closed form
    expected / denom, and the largest deviation as a float (0.0 if exact)."""
    re, im = sums.re, sums.im
    if pairs is not None:
        idx = tuple(np.array(pairs).T - 1)
        re, im, expected = re[idx], im[idx], expected[idx]
    scaled, rem = np.divmod(expected * sums.denom, denom)
    if not rem.any() and np.array_equal(re, scaled) and not im.any():
        return True, 0.0
    deviation = (re + 1j * im) / sums.denom - expected / denom
    return False, float(np.max(np.abs(deviation)))


def _delta_and_swap(size: int):
    """delta_ab delta_ij and (E_ba)_ij = delta_ib delta_ja, both indexed [a, b, i, j]."""
    eye = np.eye(size, dtype=np.int64)
    return np.einsum("ab,ij->abij", eye, eye), np.einsum("ib,ja->abij", eye, eye)


def check_generator_sums(n: int) -> List[IdentityCheckResult]:
    """The three closed forms, in exact arithmetic for all 1 <= alpha, beta <= n:

      sum_{r<s} X_rs E_ab X_rs^t = (delta_ab I + (-1)^{delta_ab} E_ba)/2
      sum_{r<s} Y_rs E_ab Y_rs^t = (delta_ab I - E_ba)/2
      sum_t    D_t  E_ab D_t^t   = delta_ab E_ba
    """
    if n < 2:
        raise UsageError(f"n must be >= 2, got {n}")
    delta, e_ba = _delta_and_swap(n)
    diag = np.eye(n, dtype=np.int64)[:, :, None, None]
    closed = {
        "X": (delta + (1 - 2 * diag) * e_ba, 2),
        "Y": (delta - e_ba, 2),
        "D": (diag * e_ba, 1),
    }
    results = []
    for kind, (expected, denom) in closed.items():
        ok, r = _lattice_residual(conjugation_sums(generator_lattice(kind, n)), expected, denom)
        results.append(
            IdentityCheckResult(f"generator_sum_{kind}", {"n": n}, r, ok, exact=True)
        )
    return results


# ---------------------------------------------------------------------------
# coordinate-function identities
# ---------------------------------------------------------------------------


def _tau_factor(family: str, size: int) -> float:
    if family == SO:
        return -(size - 1) / 2.0
    if family == SU:
        return -(size * size - 1) / size
    return -(size + 1) / 2.0  # Sp(n) realised on 2n x 2n: -(2n+1)/2 with size = 2n


def _index_tuples(size: int, exhaustive: bool, rng: np.random.Generator):
    if exhaustive:
        return list(product(range(size), repeat=4))
    picks = rng.integers(0, size, size=(50, 4))
    return [tuple(int(v) for v in row) for row in picks]


def check_coordinate_identities(
    spec: GroupSpec,
    samples: int,
    tol: float,
    rng: np.random.Generator,
    sigma: float = 0.5,
) -> List[IdentityCheckResult]:
    """tau and kappa of the matrix coefficients against their closed forms.

    All index tuples are enumerated when the family parameter n <= 3;
    above that a seeded random subset of 50 tuples is used.
    For Sp(n) the kappa form carries the (J)_jk (J)_ab / 2 correction.
    """
    if spec.family not in (SO, SU, SP):
        raise UsageError(f"coordinate identities apply to SO/SU/Sp, got {spec.family}")
    size = spec.matrix_size
    b = basis_g(spec)
    lam = _tau_factor(spec.family, size)
    j_mat = standard_symplectic(spec.n) if spec.family == SP else None
    exhaustive = spec.n <= 3
    tuples = _index_tuples(size, exhaustive, rng)

    tau_res = IdentityCheckResult(
        f"coordinate_tau_{spec.family}", {"n": spec.n, "tuples": len(tuples)}
    )
    kap_res = IdentityCheckResult(
        f"coordinate_kappa_{spec.family}", {"n": spec.n, "tuples": len(tuples)}
    )
    j, a, k, c = np.array(tuples).T
    for x in sample(spec, rng, sigma, (samples,)):
        x0, first, second = coordinate_sweep(x, b)
        t_all = second.sum(axis=0)
        r_tau = float(np.max(np.abs(t_all - lam * x0)))
        tau_res.merge(r_tau, r_tau <= tol)
        kap_all = np.einsum("bja,bkc->jakc", first, first)
        # the closed form at every index tuple at once
        if spec.family == SO:
            expect = -0.5 * (x0[j, c] * x0[k, a] - (j == k) * (a == c))
        elif spec.family == SU:
            expect = -x0[j, c] * x0[k, a] + x0[j, a] * x0[k, c] / size
        else:
            expect = -0.5 * x0[j, c] * x0[k, a] + 0.5 * j_mat[j, k] * j_mat[a, c]
        r = np.abs(kap_all[j, a, k, c] - expect)
        worst = float(r.max())
        if worst > tol:
            i = int(np.argmax(r))
            kap_res.params["worst_tuple"] = [int(v[i]) + 1 for v in (j, a, k, c)]
        kap_res.merge(worst, worst <= tol)
    return [tau_res, kap_res]


# ---------------------------------------------------------------------------
# the four-case decomposition behind the Sp(n) kappa formula
# ---------------------------------------------------------------------------


def block_case(alpha: int, beta: int, n: int) -> int:
    top_a = alpha <= n
    top_b = beta <= n
    if top_a and top_b:
        return 1
    if top_a:
        return 2
    if top_b:
        return 3
    return 4


def check_kappa_basis_decomposition(
    n: int,
    samples: int,
    tol: float,
    rng: np.random.Generator,
    sigma: float = 0.5,
) -> List[IdentityCheckResult]:
    """Exactly: sum_{Q in basis sp(n)} Q E_ab Q^t = -E_ba/2 + (J)_ab J/2 for
    every block case of (alpha, beta); numerically: conjugating that sum by
    sampled q reproduces kappa of the coordinate functions."""
    if n < 2:
        raise UsageError(f"n must be >= 2, got {n}")
    size = 2 * n
    sums = conjugation_sums(basis_g(GroupSpec(SP, n)))
    # -E_ba/2 + (J)_ab J/2, over the denominator 2
    j = standard_symplectic(n).real.astype(np.int64)
    expected = np.einsum("ab,ij->abij", j, j) - _delta_and_swap(size)[1]
    pairs = [(a, b) for a in range(1, size + 1) for b in range(1, size + 1)]
    ok, r = _lattice_residual(sums, expected, 2, pairs)
    exact_res = IdentityCheckResult(
        "kappa_basis_decomposition_exact", {"n": n, "cases": "1-4"}, r, ok, exact=True
    )
    for alpha, beta in pairs:
        exact_res.params[f"case{block_case(alpha, beta, n)}"] = "checked"

    if samples <= 0:
        return [exact_res]
    spec = GroupSpec(SP, n)
    b = basis_g(spec)
    numeric_res = IdentityCheckResult("kappa_basis_decomposition_numeric", {"n": n})
    rep_pairs = [(1, 1), (1, n + 1), (n + 1, 1), (n + 1, n + 1)]
    for qc in sample(spec, rng, sigma, (samples,)):
        _, first, _ = coordinate_sweep(qc, b)
        kap_all = np.einsum("bja,bkc->jakc", first, first)
        for alpha, beta in rep_pairs:
            conj = qc @ sums.at(alpha, beta) @ qc.T
            r = float(np.max(np.abs(kap_all[:, alpha - 1, :, beta - 1] - conj)))
            numeric_res.merge(r, r <= tol)
    return [exact_res, numeric_res]


# ---------------------------------------------------------------------------
# the skew-matrix index lemma
# ---------------------------------------------------------------------------


def _lemma_residual(phi: np.ndarray, j: int, a: int, k: int, b: int) -> float:
    return abs(phi[j, b] * phi[k, a] + phi[j, k] * phi[a, b] - phi[j, a] * phi[k, b])


def check_skew_lemma(samples: int, n: int, rng: np.random.Generator) -> List[IdentityCheckResult]:
    """For complex skew-symmetric Phi and indices with a forced coincidence:
    Phi_jb Phi_ka + Phi_jk Phi_ab = Phi_ja Phi_kb within 1e-12.  A companion
    negative control shows the coincidence hypothesis is necessary: with all
    four indices distinct the residual exceeds 0.1 in at least 90% of draws."""
    if n < 3:
        raise UsageError(f"n must be >= 3 to have room for index tuples, got {n}")
    main = IdentityCheckResult("skew_index_lemma", {"n": n, "samples": samples})
    control = IdentityCheckResult(
        "skew_index_lemma_negative_control", {"n": n, "samples": samples}
    )
    control_hits = 0
    can_distinct = n >= 4
    for _ in range(samples):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        phi = g - g.T
        idx = rng.integers(0, n, size=4)
        # force a coincidence between two of the four slots
        slots = rng.permutation(4)[:2]
        idx[slots[1]] = idx[slots[0]]
        j, a, k, b = (int(v) for v in idx)
        r = _lemma_residual(phi, j, a, k, b)
        main.merge(r, r <= 1e-12)
        if can_distinct:
            picks = rng.permutation(n)[:4]
            j, a, k, b = (int(v) for v in picks)
            if _lemma_residual(phi, j, a, k, b) > 0.1:
                control_hits += 1
    if can_distinct:
        rate = control_hits / samples
        control.params["hit_rate"] = round(rate, 4)
        control.max_residual = 1.0 - rate
        control.passed = rate >= 0.9
    else:
        control.detail = "n < 4: no all-distinct tuples exist"
    return [main, control]


# ---------------------------------------------------------------------------
# small symplectic facts
# ---------------------------------------------------------------------------


def check_symplectic_facts(
    n: int, samples: int, tol: float, rng: np.random.Generator, sigma: float = 0.5
) -> List[IdentityCheckResult]:
    """q J q^t = J at sampled q in Sp(n), and trace(A J) = 0 exactly for
    random rational symmetric A."""
    spec = GroupSpec(SP, n)
    j = standard_symplectic(n)
    inv = IdentityCheckResult("symplectic_conjugation_invariance", {"n": n})
    for q in sample(spec, rng, sigma, (samples,)):
        r = float(np.max(np.abs(q @ j @ q.T - j)))
        inv.merge(r, r <= tol)

    tr = IdentityCheckResult("symmetric_times_skew_traceless", {"n": n}, exact=True)
    size = 2 * n
    j_exact = CMatrix(np.vectorize(lambda v: rc(int(v)), otypes=[object])(j.real))
    for _ in range(samples):
        m = np.empty((size, size), dtype=object)
        for i in range(size):
            for jj in range(i, size):
                v = rc(
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
                )
                m[i, jj] = v
                m[jj, i] = v
        a = CMatrix(m)
        t = (a @ j_exact).trace()
        ok = t.is_zero()
        tr.merge(0.0 if ok else abs(complex(t)), ok)
    return [inv, tr]


def dense_exact_crosscheck(basis: Basis, alpha: int, beta: int) -> bool:
    """Second exact route: sum_q W_q N_q E_ab N_q^t by one integer matrix
    product per basis element agrees, in integers over the same common
    denominator, with the einsum of `conjugation_sums`."""
    size = basis.re.shape[1]
    e = np.zeros((size, size), dtype=np.int64)
    e[alpha - 1, beta - 1] = 1
    denom, weights = _integer_weights(basis)
    re_sum, im_sum = np.zeros_like(e), np.zeros_like(e)
    for re, im, w in zip(basis.re, basis.im, weights):
        # (re + i im) E_ab (re + i im)^t, split into real and imaginary parts
        left_re, left_im = re @ e, im @ e
        re_sum += w * (left_re @ re.T - left_im @ im.T)
        im_sum += w * (left_re @ im.T + left_im @ re.T)
    sums = conjugation_sums(basis)
    at = (alpha - 1, beta - 1)
    return sums.denom == denom and np.array_equal(re_sum, sums.re[at]) and np.array_equal(im_sum, sums.im[at])


def covered_identity_names(results: List[IdentityCheckResult]) -> set:
    return {r.name for r in results}


def assert_full_coverage(results: List[IdentityCheckResult], required=IDENTITY_NAMES):
    missing = set(required) - covered_identity_names(results)
    if missing:
        raise AssertionError(f"identity suite skipped checks: {sorted(missing)}")
