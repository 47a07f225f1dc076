"""Identity suite: generator sums, coordinate formulas, the four-case
decomposition, the skew-index lemma and the small symplectic facts."""

import numpy as np
import pytest

from lieharm.diffops import GroupFunction, kappa
from lieharm import identities
from lieharm.eigenfamilies import random_parameters, verify_eigen
from lieharm.jets import JetScalar
from lieharm.identities import (
    IDENTITY_NAMES,
    assert_full_coverage,
    block_case,
    check_coordinate_identities,
    check_generator_sums,
    check_kappa_basis_decomposition,
    check_skew_lemma,
    check_symplectic_facts,
    conjugation_sums,
)
from lieharm.lie import (
    GROUP_FAMILIES,
    SPACE_FAMILIES,
    Basis,
    GroupSpec,
    SO,
    SP,
    SU,
    SymmetricSpaceSpec,
    basis_g,
    cartan_decomposition,
    generator_lattice,
    sample,
    standard_symplectic,
)
from lieharm.matrices import CMatrix

RNG = np.random.default_rng(99)


def coordinate(j: int, alpha: int) -> GroupFunction:
    """The matrix coefficient g -> g_{j,alpha} (1-based) as the pairing <g, E_{j,alpha}>."""
    return GroupFunction(lambda g: g.pair(CMatrix(unit(g.shape[0], j, alpha).astype(complex))))


def unit(n: int, r: int, s: int) -> np.ndarray:
    """The integer E_rs with a single 1 at 1-based (r, s)."""
    m = np.zeros((n, n), dtype=np.int64)
    m[r - 1, s - 1] = 1
    return m


def dense_exact_crosscheck(basis: Basis, alpha: int, beta: int) -> bool:
    """Second exact route: sum_q W_q N_q E_ab N_q^t by one integer matrix
    product per basis element agrees, in integers over the same common
    denominator, with the contraction of `identities.conjugation_sums`
    (looked up on the module, so a test may patch it)."""
    size = basis.re.shape[1]
    e = np.zeros((size, size), dtype=np.int64)
    e[alpha - 1, beta - 1] = 1
    denom, weights = identities._integer_weights(basis)
    re_sum, im_sum = np.zeros_like(e), np.zeros_like(e)
    for re, im, w in zip(basis.re, basis.im, weights):
        # (re + i im) E_ab (re + i im)^t, split into real and imaginary parts
        left_re, left_im = re @ e, im @ e
        re_sum += w * (left_re @ re.T - left_im @ im.T)
        im_sum += w * (left_re @ im.T + left_im @ re.T)
    sums = identities.conjugation_sums(basis)
    at = (alpha - 1, beta - 1)
    return sums.denom == denom and np.array_equal(re_sum, sums.re[at]) and np.array_equal(im_sum, sums.im[at])


def assert_sum_equals(sums, alpha: int, beta: int, expected, denom: int = 1):
    """The lattice sum at 1-based (alpha, beta) is exactly the real matrix
    expected / denom, compared in integers."""
    at = (alpha - 1, beta - 1)
    assert np.array_equal(sums.re[at] * denom, np.asarray(expected) * sums.denom)
    assert not sums.im[at].any()


def perturbed(basis: Basis) -> Basis:
    """The basis with 1 added to the real part of one entry of its first pattern."""
    re = basis.re.copy()
    re[0, 0, 0] += 1
    return Basis(basis.name, re, basis.im, basis.weights)


# --- generator sums ----------------------------------------------------------


def test_y_sum_single_term_hand_expansion():
    # n=2, alpha=beta=1: Y_12 E_11 Y_12^t = E_22 / 2
    sums = conjugation_sums(generator_lattice("Y", 2))
    assert_sum_equals(sums, 1, 1, unit(2, 2, 2), 2)


def test_d_sum_diagonal_case():
    sums = conjugation_sums(generator_lattice("D", 3))
    assert_sum_equals(sums, 2, 2, unit(3, 2, 2))
    assert_sum_equals(sums, 1, 2, np.zeros((3, 3), dtype=np.int64))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generator_sums_exact(n):
    for result in check_generator_sums(n):
        assert result.exact
        assert result.passed
        assert result.max_residual == 0.0


# --- coordinate identities ------------------------------------------------------


def test_so3_kappa_diagonal_case():
    # kappa(x_11, x_11) = -(x_11^2 - 1)/2
    spec = GroupSpec(SO, 3)
    b = basis_g(spec)
    x = sample(spec, RNG, 0.5)
    val = kappa(coordinate(1, 1), coordinate(1, 1), x, b)
    expect = -(complex(x[0, 0]) ** 2 - 1.0) / 2.0
    assert abs(val - expect) < 1e-12


def test_su3_kappa_equal_indices():
    # kappa(z_ja, z_ja) = (1/n - 1) z_ja^2
    spec = GroupSpec(SU, 3)
    b = basis_g(spec)
    x = sample(spec, RNG, 0.5)
    val = kappa(coordinate(2, 3), coordinate(2, 3), x, b)
    expect = (1.0 / 3 - 1.0) * complex(x[1, 2]) ** 2
    assert abs(val - expect) < 1e-12


def test_sp2_kappa_mixed_block_correction():
    # kappa(q_11, q_33) picks up (J)_13 (J)_13 / 2 = 1/2
    spec = GroupSpec(SP, 2)
    b = basis_g(spec)
    j = standard_symplectic(2)
    assert j[0, 2] == 1.0
    x = sample(spec, RNG, 0.5)
    val = kappa(coordinate(1, 1), coordinate(3, 3), x, b)
    base = -0.5 * complex(x[0, 2]) * complex(x[2, 0])
    assert abs(val - base - 0.5) < 1e-12


@pytest.mark.parametrize("family,n", [(SO, 3), (SO, 4), (SU, 2), (SU, 3), (SP, 2), (SP, 3)])
def test_coordinate_identity_suite(family, n):
    rng = np.random.default_rng(17)
    for result in check_coordinate_identities(GroupSpec(family, n), 20, 1e-9, rng):
        assert result.passed, (result.name, result.max_residual)
        assert result.max_residual <= 1e-9


@pytest.mark.parametrize("family,n", [(SO, 3), (SO, 4), (SU, 2), (SU, 3), (SP, 2), (SP, 3)])
def test_coordinate_kappa_matches_tuple_loop(family, n):
    # the closed form is evaluated at all index tuples at once; the reference
    # takes one tuple at a time on the same points, whose products may round
    # differently, so the residuals (all terms below 1.5) agree to 8 eps
    spec = GroupSpec(family, n)
    size = spec.matrix_size
    _, kap = check_coordinate_identities(spec, 4, 0.0, np.random.default_rng(19))
    rng = np.random.default_rng(19)
    tuples = identities._index_tuples(size, n <= 3, rng)
    j_mat = standard_symplectic(n)
    per_point = []  # the reference residuals of every point, keyed by tuple
    for x in sample(spec, rng, 0.5, (4,)):
        # the sweep of the coordinates at one point, its first derivatives (B, n, n)
        _, first = identities._coordinate_derivatives(x, basis_g(spec))
        kap_all = np.einsum("bja,bkc->jakc", first, first)
        residuals = {}
        for (j, a, k, c) in tuples:
            if family == SO:
                expect = -0.5 * (x[j, c] * x[k, a] - (j == k) * (a == c))
            elif family == SU:
                expect = -x[j, c] * x[k, a] + x[j, a] * x[k, c] / size
            else:
                expect = -0.5 * x[j, c] * x[k, a] + 0.5 * j_mat[j, k] * j_mat[a, c]
            residuals[(j + 1, a + 1, k + 1, c + 1)] = abs(kap_all[j, a, k, c] - expect)
        per_point.append(residuals)
    worst = max(max(residuals.values()) for residuals in per_point)
    eps = np.finfo(float).eps
    assert abs(kap.max_residual - worst) <= 8 * eps
    # the reported tuple carries the largest residual over all points
    assert not kap.passed and kap.params["tuples"] == len(tuples)
    reported = max(residuals[tuple(kap.params["worst_tuple"])] for residuals in per_point)
    assert abs(reported - worst) <= 8 * eps


def _einsum_sweep(x, basis):
    """first, second and kappa [j, a, k, c] of the coordinate functions at one point, by einsum."""
    dirs = basis.stack()
    first = np.einsum("ij,bjk->bik", x, dirs)
    second = np.einsum("ij,bjk->bik", x, dirs @ dirs)
    return first, second, np.einsum("bja,bkc->jakc", first, first)


@pytest.mark.parametrize("family,n", [(SO, 3), (SO, 4), (SU, 2), (SU, 3), (SP, 2), (SP, 3)])
def test_batched_coordinate_sweep_matches_each_point_alone(family, n):
    # the sweep of the coordinates over a batch, direction first, against the
    # einsum of one point: the first derivatives and kappa round alike up to
    # the grouping of the sums; tau sums C = sum Z^2/2 before the product, the
    # einsum x Z^2 per direction after it, so they differ by rounding, within
    # 16 ulps of 1 (every entry of a unitary point is at most 1 in modulus)
    spec = GroupSpec(family, n)
    basis = basis_g(spec)
    points = sample(spec, np.random.default_rng(31), 0.5, (7,))
    tau, first = identities._coordinate_derivatives(points, basis)
    kap = identities.coordinate_kappa(first)
    assert tau.shape == points.shape and first.shape == (len(basis),) + points.shape
    for i, x in enumerate(points):
        alone = identities._coordinate_derivatives(x, basis)
        assert alone[0].shape == x.shape and alone[1].shape == (len(basis),) + x.shape
        want_first, want_second, want_kap = _einsum_sweep(x, basis)
        for got, want in zip((first[:, i], kap[i]), (want_first, want_kap)):
            assert np.allclose(got, want, rtol=0, atol=1e-14)
        assert np.abs(tau[i] - want_second.sum(axis=0)).max() <= 16 * np.finfo(float).eps


def test_a_fault_in_the_sweeps_c_fails_coordinate_tau_and_eigen(monkeypatch):
    # the sweep hands a function the blocks P x, (P x) Z and (P x) C of its
    # new variable; with C = sum Z^2/2 off by 1e-3 (its factor 1/2 gone wrong)
    # tau of the coordinates fails on every group and the eigen check on every
    # family, while kappa, read from the first derivatives alone, still passes
    call = GroupFunction.__call__

    def faulty(self, x):
        if isinstance(x, JetScalar):
            x = JetScalar(x.k, {d: c * (1 + 1e-3) if d[0] == 2 else c for d, c in x.b.items()})
        return call(self, x)

    monkeypatch.setattr(GroupFunction, "__call__", faulty)
    for family, n in [(SO, 3), (SO, 4), (SU, 2), (SU, 3), (SP, 2), (SP, 3)]:
        tau_res, kap_res = check_coordinate_identities(GroupSpec(family, n), 20, 1e-9, np.random.default_rng(17))
        assert not tau_res.passed and tau_res.max_residual > 1e-4, (family, n)
        assert kap_res.passed, (family, n)
    for family in SPACE_FAMILIES:
        rng = np.random.default_rng(103)
        check = verify_eigen(random_parameters(SymmetricSpaceSpec(family, 3), rng), samples=8, tol=1e-8, rng=rng)
        assert not check.passed and check.worst("tau") > 1e-4, family


@pytest.mark.parametrize("family,n", [(SO, 3), (SU, 3), (SP, 2), (SP, 3)])
def test_batched_coordinate_check_matches_per_sample_recomputation(monkeypatch, family, n):
    # the residuals of the check, over three chunks of points, against the
    # worst residual of each point recomputed alone
    spec = GroupSpec(family, n)
    size, samples = spec.matrix_size, 5
    monkeypatch.setattr(identities, "_KAPPA_ENTRIES", 2 * size**4)
    tau_res, kap_res = check_coordinate_identities(spec, samples, 1e-9, np.random.default_rng(32))
    rng = np.random.default_rng(32)
    tuples = identities._index_tuples(size, n <= 3, rng)
    j_mat = standard_symplectic(n)
    lam = identities._tau_factor(family, size)
    worst_tau = worst_kap = 0.0
    for x in sample(spec, rng, 0.5, (samples,)):
        _, second, kap = _einsum_sweep(x, basis_g(spec))
        worst_tau = max(worst_tau, float(np.abs(second.sum(axis=0) - lam * x).max()))
        for (j, a, k, c) in tuples:
            if family == SO:
                expect = -0.5 * (x[j, c] * x[k, a] - (j == k) * (a == c))
            elif family == SU:
                expect = -x[j, c] * x[k, a] + x[j, a] * x[k, c] / size
            else:
                expect = -0.5 * x[j, c] * x[k, a] + 0.5 * j_mat[j, k] * j_mat[a, c]
            worst_kap = max(worst_kap, abs(kap[j, a, k, c] - expect))
    eps = np.finfo(float).eps
    assert tau_res.passed and kap_res.passed and "worst_tuple" not in kap_res.params
    assert abs(tau_res.max_residual - worst_tau) <= 16 * eps
    assert abs(kap_res.max_residual - worst_kap) <= 8 * eps


def test_sample_chunks_bound_the_kappa_entries():
    # a chunk of S points of size s holds S s^4 kappa values, at most
    # _KAPPA_ENTRIES unless one point alone holds more
    chunks = lambda count, s: [len(c) for c in identities._chunks(np.zeros((count, s, s)))]
    entries = identities._KAPPA_ENTRIES
    assert chunks(20, 3) == [20]
    step = entries // 6**4
    assert chunks(20, 6) == [step] * (20 // step) + [20 % step] and step * 6**4 <= entries < (step + 1) * 6**4
    assert chunks(3, 12) == [1, 1, 1] and chunks(0, 6) == []


def test_worst_tuple_comes_from_the_largest_failure(monkeypatch):
    # kappa is quadratic in x: with row r of a point of SO(3) scaled by s the
    # closed form misses by (s^2 - 1)/2 at exactly the tuples j = k = r, a = c.
    # The larger failure (row 1 by 1.5) comes first, the smaller (row 3 by
    # 1.1) later and in another chunk; the tuple must be the larger's
    drawn = identities.sample

    def scaled(spec, rng, sigma, shape):
        points = drawn(spec, rng, sigma, shape).copy()
        points[0, 0] *= 1.5
        points[2, 2] *= 1.1
        return points

    monkeypatch.setattr(identities, "sample", scaled)
    monkeypatch.setattr(identities, "_KAPPA_ENTRIES", 2 * 3**4)
    _, kap = check_coordinate_identities(GroupSpec(SO, 3), 4, 1e-9, np.random.default_rng(33))
    assert not kap.passed
    assert abs(kap.max_residual - (1.5**2 - 1) / 2) <= 1e-12
    j, a, k, c = kap.params["worst_tuple"]
    assert j == k == 1 and a == c


def test_decomposition_numeric_matches_per_sample_recomputation(monkeypatch):
    n, samples = 2, 5
    monkeypatch.setattr(identities, "_KAPPA_ENTRIES", 2 * 4**4)
    (_, numeric) = check_kappa_basis_decomposition(n, samples, 1e-9, np.random.default_rng(34))
    sums = conjugation_sums(basis_g(GroupSpec(SP, n)))
    worst = 0.0
    for q in sample(GroupSpec(SP, n), np.random.default_rng(34), 0.5, (samples,)):
        _, _, kap = _einsum_sweep(q, basis_g(GroupSpec(SP, n)))
        for alpha, beta in [(1, 1), (1, n + 1), (n + 1, 1), (n + 1, n + 1)]:
            conj = q @ sums.at(alpha, beta) @ q.T
            worst = max(worst, float(np.abs(kap[:, alpha - 1, :, beta - 1] - conj).max()))
    assert numeric.passed and abs(numeric.max_residual - worst) <= 8 * np.finfo(float).eps


def test_tuple_enumeration_policy():
    rng = np.random.default_rng(18)
    small = check_coordinate_identities(GroupSpec(SO, 3), 2, 1e-9, rng)
    assert small[0].params["tuples"] == 3**4
    big = check_coordinate_identities(GroupSpec(SO, 4), 2, 1e-9, rng)
    assert big[0].params["tuples"] == 50


# --- four-case decomposition ------------------------------------------------------


def test_block_cases():
    assert block_case(1, 1, 2) == 1
    assert block_case(1, 3, 2) == 2
    assert block_case(3, 1, 2) == 3
    assert block_case(3, 3, 2) == 4


def test_decomposition_case1_value():
    # case (1): sum = -E_ba/2
    n = 2
    sums = conjugation_sums(basis_g(GroupSpec(SP, n)))
    assert_sum_equals(sums, 1, 2, -unit(2 * n, 2, 1), 2)


def test_decomposition_case2_with_j_correction():
    # case (2) with alpha = beta - n: sum = -E_ba/2 + J/2
    n = 2
    sums = conjugation_sums(basis_g(GroupSpec(SP, n)))
    j = standard_symplectic(n).real.astype(np.int64)
    assert_sum_equals(sums, 1, 1 + n, j - unit(2 * n, 1 + n, 1), 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_decomposition_exact_all_pairs(n):
    rng = np.random.default_rng(19)
    results = check_kappa_basis_decomposition(n, samples=0, tol=1e-9, rng=rng)
    assert len(results) == 1
    assert results[0].exact and results[0].passed and results[0].max_residual == 0.0


def test_decomposition_numeric_agreement():
    rng = np.random.default_rng(20)
    results = check_kappa_basis_decomposition(2, samples=10, tol=1e-9, rng=rng)
    numeric = [r for r in results if r.name.endswith("numeric")][0]
    assert numeric.passed and numeric.max_residual <= 1e-9


def test_sparse_matches_dense_reference():
    # the integer einsum against one integer matrix product per basis element
    sp2 = basis_g(GroupSpec(SP, 2))
    assert dense_exact_crosscheck(sp2, 1, 3)
    assert dense_exact_crosscheck(sp2, 2, 2)
    assert dense_exact_crosscheck(generator_lattice("X", 3), 1, 2)
    # su(n) too: the weights of its diagonals i H_t are 1/(t(t+1))
    assert dense_exact_crosscheck(basis_g(GroupSpec(SU, 3)), 1, 1)
    # both routes see a perturbed lattice alike
    assert dense_exact_crosscheck(perturbed(sp2), 1, 1)


@pytest.mark.parametrize("space", [GroupSpec(SP, 2), GroupSpec(SU, 3)], ids=str)
@pytest.mark.parametrize("part", ["re", "im"])
def test_dense_crosscheck_catches_a_changed_einsum_entry(monkeypatch, space, part):
    # the second route must fail when the einsum is off by one integer in one entry
    basis, alpha, beta = basis_g(space), 1, 2
    assert dense_exact_crosscheck(basis, alpha, beta)

    def faulty(b):
        out = conjugation_sums(b)
        changed = getattr(out, part).copy()
        changed[alpha - 1, beta - 1, 0, 1] += 1
        return out._replace(**{part: changed})

    monkeypatch.setattr(identities, "conjugation_sums", faulty)
    assert not dense_exact_crosscheck(basis, alpha, beta)
    # an entry of another (a, b) is not looked at
    assert dense_exact_crosscheck(basis, beta, alpha)


def test_perturbed_lattice_fails_generator_sums(monkeypatch):
    lattice = identities.generator_lattice
    monkeypatch.setattr(identities, "generator_lattice", lambda kind, n: perturbed(lattice(kind, n)))
    for result in check_generator_sums(3):
        assert not result.passed and result.max_residual > 0, result.name


def test_perturbed_lattice_fails_decomposition(monkeypatch):
    basis = identities.basis_g
    monkeypatch.setattr(identities, "basis_g", lambda spec: perturbed(basis(spec)))
    (result,) = check_kappa_basis_decomposition(2, samples=0, tol=1e-9, rng=RNG)
    assert not result.passed and result.max_residual > 0


def test_conjugation_sums_equal_the_einsum_contraction():
    lattices = [generator_lattice(kind, n) for kind in "XYD" for n in range(2, 7)]
    lattices += [basis_g(GroupSpec(SP, n)) for n in range(2, 7)]
    for basis in lattices:
        denom, w = identities._integer_weights(basis)
        w = np.array(w, dtype=np.int64)
        pair = lambda a, b: np.einsum("q,qia,qjb->abij", w, a, b)
        sums = conjugation_sums(basis)
        assert sums.re.dtype == sums.im.dtype == np.int64 and sums.denom == denom
        assert np.array_equal(sums.re, pair(basis.re, basis.re) - pair(basis.im, basis.im))
        assert np.array_equal(sums.im, pair(basis.re, basis.im) + pair(basis.im, basis.re))


def _every_basis(n):
    """su(n), both embedded u(n) and the k and m of every space at n."""
    bases = [basis_g(GroupSpec(family, n)) for family in GROUP_FAMILIES]
    bases += [b for family in SPACE_FAMILIES for b in cartan_decomposition(SymmetricSpaceSpec(family, n))]
    return bases


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conjugation_sums_equal_the_einsum_oracle_on_every_basis(n):
    # su(n)'s diagonal patterns i H_t hold up to n nonzeros, and the m of
    # SU(2n)/Sp(n) carries complex patterns
    for basis in _every_basis(n):
        denom, w = identities._integer_weights(basis)
        w = np.array(w, dtype=np.int64)
        pair = lambda a, b: np.einsum("q,qia,qjb->abij", w, a, b)
        sums = conjugation_sums(basis)
        assert sums.re.dtype == sums.im.dtype == np.int64 and sums.denom == denom, basis.name
        assert np.array_equal(sums.re, pair(basis.re, basis.re) - pair(basis.im, basis.im)), basis.name
        assert np.array_equal(sums.im, pair(basis.re, basis.im) + pair(basis.im, basis.re)), basis.name


def test_magnitude_bound_guards_int64_sums():
    # X(2) is one element with weight 1/2: the sums scale with the square of
    # the entries, and max|N|^2 * sum|W| must stay below 2^62
    base = generator_lattice("X", 2)
    scaled = lambda k: Basis("big", base.re * k, base.im, base.weights)
    sums = conjugation_sums(scaled(2**30))
    assert np.array_equal(sums.re, conjugation_sums(base).re * 2**60)
    with pytest.raises(OverflowError, match="too large"):
        conjugation_sums(scaled(2**31))


# --- skew lemma ---------------------------------------------------------------------


def test_skew_lemma_equal_first_pair_is_trivial():
    rng = np.random.default_rng(21)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    phi = g - g.T
    j = a = 2
    k, b = 0, 4
    lhs = phi[j, b] * phi[k, a] + phi[j, k] * phi[a, b]
    assert abs(lhs - phi[j, a] * phi[k, b]) < 1e-12


def test_skew_lemma_suite():
    rng = np.random.default_rng(22)
    main, control = check_skew_lemma(1000, 6, rng)
    assert main.passed and main.max_residual <= 1e-12
    assert control.passed and control.params["hit_rate"] >= 0.9


def test_skew_lemma_control_records_why_it_is_skipped_below_n_4():
    main, control = check_skew_lemma(50, 3, np.random.default_rng(27))
    assert main.passed and "hit_rate" not in control.params
    assert control.params["skipped"] == "n < 4: no all-distinct tuples exist"


def test_skew_lemma_explicit_counterexample():
    rng = np.random.default_rng(23)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    phi = g - g.T
    j, a, k, b = 0, 1, 2, 3
    resid = abs(phi[j, b] * phi[k, a] + phi[j, k] * phi[a, b] - phi[j, a] * phi[k, b])
    assert resid > 0.1


def _skew_draw(m: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return g - g.transpose(0, 2, 1), rng


def test_batched_skew_residuals_match_each_row_recomputed_alone():
    # numpy's array complex multiply may round differently from its scalar one
    # (fused multiply-adds), so the two agree to about one ulp of the largest
    # of the three products, not bitwise
    phi, rng = _skew_draw(300, 6, 26)
    idx = rng.integers(0, 6, size=(300, 4))
    slots = rng.permuted(np.tile(np.arange(4), (300, 1)), axis=1)
    for chosen in (identities._force_coincidence(idx.copy(), slots), idx):
        batched = identities._lemma_residuals(phi, chosen)
        for row, (j, a, k, b), r in zip(phi, chosen, batched):
            terms = (row[j, b] * row[k, a], row[j, k] * row[a, b], row[j, a] * row[k, b])
            alone = abs(terms[0] + terms[1] - terms[2])
            assert abs(r - alone) <= 1e-15 * max(abs(t) for t in terms)


def test_skew_lemma_without_forced_coincidence_fails(monkeypatch):
    # about 28% of random rows of 4 indices in 0..5 are all distinct
    monkeypatch.setattr(identities, "_force_coincidence", lambda idx, slots: idx)
    main, control = check_skew_lemma(1000, 6, np.random.default_rng(22))
    assert not main.passed and main.max_residual > 0.1
    assert control.passed


def test_skew_lemma_chunks_cover_every_sample(monkeypatch):
    seen = []
    residuals = identities._lemma_residuals

    def counted(phi, idx):
        seen.append(len(idx))
        return residuals(phi, idx)

    monkeypatch.setattr(identities, "_lemma_residuals", counted)
    chunk = identities._SKEW_CHUNK
    main, control = check_skew_lemma(2 * chunk + 7, 6, np.random.default_rng(28))
    # the main check and the control of each chunk
    assert seen == [chunk, chunk, chunk, chunk, 7, 7]
    assert main.passed and control.passed


# --- symplectic facts ------------------------------------------------------------------


def test_symplectic_facts():
    rng = np.random.default_rng(24)
    inv, traceless = check_symplectic_facts(2, 5, 1e-10, rng)
    assert inv.passed and inv.max_residual <= 1e-10
    assert traceless.passed and traceless.exact and traceless.max_residual == 0.0


def test_symplectic_draws_are_symmetric_small_rationals():
    num, den = identities._symmetric_rationals(np.random.default_rng(35), 20, 4)
    assert num.shape == den.shape == (20, 2, 4, 4)
    for m in (num, den):
        assert np.array_equal(m, m.swapaxes(-1, -2))
    assert num.min() >= -9 and num.max() <= 9 and den.min() >= 1 and den.max() <= 9
    # every value of the ranges turns up
    assert set(np.unique(num)) == set(range(-9, 10)) and set(np.unique(den)) == set(range(1, 10))


def test_symplectic_trace_check_fails_on_a_non_symmetric_matrix(monkeypatch):
    draw = identities._symmetric_rationals

    def skewed(rng, samples, size):
        num, den = draw(rng, samples, size)
        num[1, 0, size // 2, 0] = num[1, 0, 0, size // 2] + 1  # (A J)_00 and (A J)_nn differ
        return num, den

    monkeypatch.setattr(identities, "_symmetric_rationals", skewed)
    _, traceless = check_symplectic_facts(2, 3, 1e-10, np.random.default_rng(36))
    assert not traceless.passed and traceless.max_residual > 0


def test_symplectic_check_makes_one_draw_per_random_quantity(monkeypatch):
    calls = []
    integers = np.random.Generator.integers

    class Counted(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append(kwargs.get("size"))
            return integers(self, *args, **kwargs)

    rng = Counted(np.random.PCG64(37))
    inv, traceless = check_symplectic_facts(2, 20, 1e-10, rng)
    assert inv.passed and traceless.passed and traceless.max_residual == 0.0
    assert len(calls) == 2


# --- coverage ------------------------------------------------------------------------


def test_coverage_enumeration():
    rng = np.random.default_rng(25)
    results = []
    for n in range(2, 3):
        results += check_generator_sums(n)
    for family, n in ((SO, 3), (SU, 2), (SP, 2)):
        results += check_coordinate_identities(GroupSpec(family, n), 2, 1e-9, rng)
    results += check_kappa_basis_decomposition(2, 2, 1e-9, rng)
    results += check_skew_lemma(50, 6, rng)
    results += check_symplectic_facts(2, 2, 1e-10, rng)
    assert_full_coverage(results)
    with pytest.raises(AssertionError, match="skipped"):
        assert_full_coverage(results[:-1])
    assert set(IDENTITY_NAMES) == {r.name for r in results}
