"""Stand-alone checks of every auxiliary identity the verification rests on:
coordinate-function formulas for SO(n), SU(n), Sp(n), the generator-sum
identities, the four-case basis-sum decomposition behind the Sp(n) kappa
formula, the skew-matrix index lemma, and two small symplectic facts.

The generator-sum and decomposition checks run in exact arithmetic
end-to-end; their residual is required to be identically zero, not small.
Every basis element is c N with N a Gaussian-integer matrix and c^2
rational (a `lie.Basis`), and (N E_ab N^t)_ij = N_ia N_jb, so the sums
over a basis for all (a, b) at once are one int64 scatter-add of the
products of each element's pairs of nonzero entries weighted by the c^2,
compared in integers with the closed forms.  `dense_exact_crosscheck`
recomputes one (a, b) by a second route: per-element integer matrix
products W_q N_q E_ab N_q^t.  The coordinate checks read tau and the first
derivatives of every coordinate function at once (g -> g) off the sweep of
the sampled checks (`diffops._sweep`), over batches of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .diffops import GroupFunction, _sweep, coordinate_kappa
from .exact import RationalComplex
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

    def merge(self, residual: float, ok: bool):
        self.max_residual = max(self.max_residual, residual)
        self.passed = self.passed and ok


# ---------------------------------------------------------------------------
# exact generator sums
# ---------------------------------------------------------------------------

# every partial sum of the integer contraction stays below this magnitude
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

    (N E_ab N^t)_ij = N_ia N_jb: with the weights brought to integers W_q
    over their common denominator, each pair of nonzero entries (i, a),
    (j, b) of one element adds W_q N_ia N_jb at [a, b, i, j], in one int64
    scatter-add.  Every partial sum is bounded by (max|Re N|^2 +
    max|Im N|^2) * sum|W|, checked against 2^62 in Python integers first,
    so no int64 can wrap.
    """
    denom, w = _integer_weights(basis)
    peak = sum(max(-int(a.min()), int(a.max())) ** 2 for a in (basis.re, basis.im))
    if peak * sum(abs(x) for x in w) >= _INT_BOUND:
        raise OverflowError(f"{basis.name}: entries too large for exact int64 sums")
    q, i, a = np.nonzero(basis.re | basis.im)
    re, im = basis.re[q, i, a], basis.im[q, i, a]
    u, v = np.nonzero(q[:, None] == q)  # every ordered pair of nonzeros of one element
    wq, at = np.array(w, dtype=np.int64)[q[u]], (a[u], a[v], i[u], i[v])
    out = np.zeros((2,) + (basis.re.shape[1],) * 4, dtype=np.int64)
    np.add.at(out[0], at, wq * (re[u] * re[v] - im[u] * im[v]))
    np.add.at(out[1], at, wq * (re[u] * im[v] + im[u] * re[v]))
    return LatticeSums(out[0], out[1], denom)


def _lattice_residual(sums: LatticeSums, expected: np.ndarray, denom: int):
    """(exact, residual): does every sum equal the real closed form
    expected / denom, and the largest deviation as a float (0.0 if exact)."""
    re, im = sums.re, sums.im
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


# every coordinate function g -> g_ja at once: the values of a plain or jet point
_COORDINATES = GroupFunction(lambda g: g._values(), name="x")


def _coordinate_derivatives(points: np.ndarray, basis: Basis):
    """tau (S, s, s) and the first derivatives (B, S, s, s) of every coordinate
    function at the points (S, s, s), from the chunks of one sweep."""
    chunks = list(_sweep(_COORDINATES, points, basis.stack(points.dtype)))
    return sum(s.value for _, s in chunks), np.concatenate([d.value for d, _ in chunks])


_KAPPA_ENTRIES = 2**12  # kappa values S s^4 of a chunk of S points: bounds the temporaries


def _chunks(points: np.ndarray):
    """The stacked (S, s, s) points in consecutive chunks of _KAPPA_ENTRIES // s^4 (at least 1)."""
    step = max(1, _KAPPA_ENTRIES // points.shape[-1] ** 4)
    return (points[start : start + step] for start in range(0, len(points), step))


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
    tuples = _index_tuples(size, spec.n <= 3, rng)
    tau_res, kap_res = (
        IdentityCheckResult(f"coordinate_{kind}_{spec.family}", {"n": spec.n, "tuples": len(tuples)})
        for kind in ("tau", "kappa")
    )
    j, a, k, c = np.array(tuples).T
    worst = []  # (largest kappa residual, its tuple) per chunk
    for x0 in _chunks(sample(spec, rng, sigma, (samples,))):
        tau, first = _coordinate_derivatives(x0, b)
        r_tau = np.abs(tau - lam * x0)
        tau_res.merge(float(r_tau.max()), bool((r_tau <= tol).all()))
        kap_all = coordinate_kappa(first)[:, j, a, k, c]
        # the closed form at every point and index tuple at once
        xjc, xka = x0[:, j, c], x0[:, k, a]
        if spec.family == SO:
            expect = -0.5 * (xjc * xka - (j == k) * (a == c))
        elif spec.family == SU:
            expect = -xjc * xka + x0[:, j, a] * x0[:, k, c] / size
        else:
            expect = -0.5 * xjc * xka + 0.5 * j_mat[j, k] * j_mat[a, c]
        r = np.abs(kap_all - expect)
        top = float(r.max())
        kap_res.merge(top, bool((r <= tol).all()))
        i = int(np.argmax(r)) % len(tuples)
        worst.append((top, [int(v[i]) + 1 for v in (j, a, k, c)]))
    if worst and max(worst)[0] > tol:
        kap_res.params["worst_tuple"] = max(worst)[1]
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
    size, spec = 2 * n, GroupSpec(SP, n)
    b = basis_g(spec)
    sums = conjugation_sums(b)
    # -E_ba/2 + (J)_ab J/2, over the denominator 2
    j = standard_symplectic(n).real.astype(np.int64)
    expected = np.einsum("ab,ij->abij", j, j) - _delta_and_swap(size)[1]
    pairs = [(a, b) for a in range(1, size + 1) for b in range(1, size + 1)]
    ok, r = _lattice_residual(sums, expected, 2)
    exact_res = IdentityCheckResult(
        "kappa_basis_decomposition_exact", {"n": n, "cases": "1-4"}, r, ok, exact=True
    )
    for alpha, beta in pairs:
        exact_res.params[f"case{block_case(alpha, beta, n)}"] = "checked"

    if samples <= 0:
        return [exact_res]
    numeric_res = IdentityCheckResult("kappa_basis_decomposition_numeric", {"n": n})
    rep_pairs = [(1, 1), (1, n + 1), (n + 1, 1), (n + 1, n + 1)]
    for qc in _chunks(sample(spec, rng, sigma, (samples,))):
        _, first = _coordinate_derivatives(qc, b)
        kap_all = coordinate_kappa(first)
        for alpha, beta in rep_pairs:
            conj = qc @ sums.at(alpha, beta) @ qc.transpose(0, 2, 1)
            r = np.abs(kap_all[:, :, alpha - 1, :, beta - 1] - conj)
            numeric_res.merge(float(r.max()), bool((r <= tol).all()))
    return [exact_res, numeric_res]


# ---------------------------------------------------------------------------
# the skew-matrix index lemma
# ---------------------------------------------------------------------------


_SKEW_CHUNK = 250  # samples drawn and checked together, which bounds the temporaries


def _lemma_residuals(phi: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """|Phi_jb Phi_ka + Phi_jk Phi_ab - Phi_ja Phi_kb| for each stacked Phi
    and its row (j, a, k, b) of idx."""
    j, a, k, b = idx.T
    at = lambda u, v: phi[np.arange(len(phi)), u, v]
    return np.abs(at(j, b) * at(k, a) + at(j, k) * at(a, b) - at(j, a) * at(k, b))


def _force_coincidence(idx: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Copy, in each row, the index in slot slots[:, 0] into slot slots[:, 1]."""
    idx[np.arange(len(idx)), slots[:, 1]] = idx[np.arange(len(idx)), slots[:, 0]]
    return idx


def check_skew_lemma(samples: int, n: int, rng: np.random.Generator) -> List[IdentityCheckResult]:
    """For complex skew-symmetric Phi and indices with a forced coincidence:
    Phi_jb Phi_ka + Phi_jk Phi_ab = Phi_ja Phi_kb within 1e-12.  A companion
    negative control shows the coincidence hypothesis is necessary: with all
    four indices distinct the residual exceeds 0.1 in at least 90% of draws.
    Each chunk of at most _SKEW_CHUNK samples makes one generator call per
    random quantity: the normals, the index rows, the coincident slot pairs
    (a shuffled 0..3) and the control's distinct indices (a shuffled 0..n-1),
    and evaluates all its residuals as arrays."""
    if n < 3:
        raise UsageError(f"n must be >= 3 to have room for index tuples, got {n}")
    main = IdentityCheckResult("skew_index_lemma", {"n": n, "samples": samples})
    control = IdentityCheckResult(
        "skew_index_lemma_negative_control", {"n": n, "samples": samples}
    )
    control_hits = 0
    can_distinct = n >= 4
    for start in range(0, samples, _SKEW_CHUNK):
        m = min(_SKEW_CHUNK, samples - start)
        # the last axis holds the real and imaginary parts of each entry
        g = rng.standard_normal((m, n, n, 2))
        phi = (g - g.transpose(0, 2, 1, 3)).view(np.complex128)[..., 0]
        idx = rng.integers(0, n, size=(m, 4))
        slots = rng.permuted(np.tile(np.arange(4), (m, 1)), axis=1)
        r = _lemma_residuals(phi, _force_coincidence(idx, slots))
        worst = float(r.max())
        main.merge(worst, worst <= 1e-12)
        if can_distinct:
            picks = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)[:, :4]
            control_hits += int(np.count_nonzero(_lemma_residuals(phi, picks) > 0.1))
    if can_distinct:
        rate = control_hits / samples
        control.params["hit_rate"] = round(rate, 4)
        control.max_residual = 1.0 - rate
        control.passed = rate >= 0.9
    else:
        control.params["skipped"] = "n < 4: no all-distinct tuples exist"
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
    q = sample(spec, rng, sigma, (samples,))
    r = float(np.abs(q @ j @ q.swapaxes(1, 2) - j).max(initial=0.0))
    inv.merge(r, r <= tol)

    tr = IdentityCheckResult("symmetric_times_skew_traceless", {"n": n}, exact=True)
    size = 2 * n
    j_exact = CMatrix(np.vectorize(lambda v: RationalComplex(int(v)), otypes=[object])(j.real))
    num, den = _symmetric_rationals(rng, samples, size)
    # num_re/den_re + i num_im/den_im over the denominator den_re den_im
    parts = (x.ravel().tolist() for x in (num[:, 0], num[:, 1], den[:, 0], den[:, 1]))
    entries = [RationalComplex.from_gaussian(a * d, b * c, c * d) for a, b, c, d in zip(*parts)]
    for m in np.array(entries, dtype=object).reshape(samples, size, size):
        t = (CMatrix(m) @ j_exact).trace()
        ok = t.is_zero()
        tr.merge(0.0 if ok else abs(complex(t)), ok)
    return [inv, tr]


def _symmetric_rationals(rng: np.random.Generator, samples: int, size: int):
    """(numerators in [-9, 9], denominators in [1, 9]) of the real and imaginary
    parts of `samples` random symmetric size x size matrices, each a
    (samples, 2, size, size) array from one generator call."""
    rows, cols = np.triu_indices(size, 1)
    draws = [rng.integers(low, high, size=(samples, 2, size, size)) for low, high in ((-9, 10), (1, 10))]
    for m in draws:
        m[..., cols, rows] = m[..., rows, cols]
    return draws


def dense_exact_crosscheck(basis: Basis, alpha: int, beta: int) -> bool:
    """Second exact route: sum_q W_q N_q E_ab N_q^t by one integer matrix
    product per basis element agrees, in integers over the same common
    denominator, with the contraction of `conjugation_sums`."""
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
