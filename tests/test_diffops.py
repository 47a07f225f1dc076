"""Differential operators: directional derivatives, tau, kappa, iteration, duals."""

import numpy as np
import pytest

from lieharm.diffops import (
    BudgetExceeded,
    GroupFunction,
    _sweep,
    kappa,
    tau,
    tau_and_kappa,
    tau_iterated,
)
from lieharm.eigenfamilies import (
    build_eigenfunction,
    expected_eigenvalues,
    random_parameters,
)
from lieharm.lie import (
    GroupSpec,
    SO,
    SO2N_UN,
    SP,
    SPN_UN,
    SPACE_FAMILIES,
    SU,
    SU2N_SPN,
    SUN_SON,
    SymmetricSpaceSpec,
    basis_g,
    cartan_decomposition,
    generator,
    pade_exp,
    rebuild_dual_sample,
    sample,
)
from lieharm.matrices import CMatrix

from dense_jets import from_coefficients

RNG = np.random.default_rng(77)


def coordinate(j, alpha):
    """The matrix coefficient g -> g_{j,alpha} (1-based) as the pairing <g, E_{j,alpha}>."""

    def fn(g):
        e = np.zeros(g.shape, dtype=complex)
        e[j - 1, alpha - 1] = 1
        return g.pair(CMatrix(e))

    return GroupFunction(fn, name=f"coord[{j},{alpha}]")


def directional(f, x, z):
    """(f, Z f, Z^2 f) at a plain point x along the one-parameter subgroup of z."""
    first, second = next(_sweep(f, x, np.asarray(z)[None]))
    return f(x), first.value[0], second.value


def test_directional_trace_derivative():
    f = GroupFunction(lambda g: g.pair(CMatrix(np.eye(g.shape[0], dtype=complex))), name="trace")
    x = np.eye(3, dtype=complex)
    for z in basis_g(GroupSpec(SU, 3)).stack():
        value, first, _ = directional(f, x, z)
        assert abs(value - 3.0) < 1e-14
        assert abs(first - np.trace(z)) < 1e-14
        assert abs(first) < 1e-14  # su(n) is traceless


def test_directional_coordinate_on_so2():
    # x_11 along Y_12 at the identity: value 1, first 0, second -1/2
    f = coordinate(1, 1)
    value, first, second = directional(f, np.eye(2, dtype=complex), generator("Y", 2, 1, 2))
    assert abs(value - 1.0) < 1e-15
    assert abs(first) < 1e-15
    assert abs(second + 0.5) < 1e-15


def test_directional_constant():
    f = GroupFunction(lambda g: 4.2 + 0j)
    _, first, second = directional(f, np.eye(2, dtype=complex), generator("Y", 2, 1, 2))
    assert first == 0 and second == 0


@pytest.mark.parametrize("family,n,lam", [
    (SO, 4, -(4 - 1) / 2),
    (SU, 3, -(9 - 1) / 3),
    (SP, 2, -(2 * 2 + 1) / 2),
])
def test_tau_coordinate_eigenvalues(family, n, lam):
    spec = GroupSpec(family, n)
    b = basis_g(spec)
    for _ in range(3):
        x = sample(spec, RNG, 0.5)
        j, alpha = int(RNG.integers(1, spec.matrix_size + 1)), int(RNG.integers(1, spec.matrix_size + 1))
        f = coordinate(j, alpha)
        t = tau(f, x, b)
        assert abs(t - lam * x[j - 1, alpha - 1]) < 1e-12


def test_kappa_coordinate_so():
    spec = GroupSpec(SO, 3)
    b = basis_g(spec)
    x = sample(spec, RNG, 0.5)
    xc = x
    for (j, a, k, c) in [(1, 1, 1, 1), (1, 2, 3, 1), (2, 3, 2, 3)]:
        val = kappa(coordinate(j, a), coordinate(k, c), x, b)
        expect = -0.5 * (xc[j - 1, c - 1] * xc[k - 1, a - 1] - (j == k) * (a == c))
        assert abs(val - expect) < 1e-12


def test_kappa_constant_is_zero():
    f = GroupFunction(lambda g: 1.0 + 0j)
    assert kappa(f, f, np.eye(3, dtype=complex), basis_g(GroupSpec(SO, 3))) == 0


def test_first_derivatives_of_a_constant_have_one_zero_per_direction(monkeypatch):
    # 36 entries hold the blocks of 2 directions at a 3 x 3 point, so the 3
    # directions of so(3) split 2 + 1; a constant's blocks have size 1 along
    # its chunk, and each chunk still gives one derivative per direction
    import lieharm.diffops as diffops

    monkeypatch.setattr(diffops, "_CHUNK_ENTRIES", 36)
    f = GroupFunction(lambda g: 1.0 + 0j)
    t, kap, first = tau_and_kappa(f, np.eye(3, dtype=complex), basis_g(GroupSpec(SO, 3)))
    assert t == kap == 0 and np.array_equal(first, np.zeros(3))


def test_basis_independence():
    # tau and kappa are frame-independent: remix the basis orthogonally
    spec = GroupSpec(SU, 3)
    b = basis_g(spec)
    stack = b.stack()
    rng = np.random.default_rng(5)
    m = rng.standard_normal((len(stack), len(stack)))
    q, _ = np.linalg.qr(m)
    remixed = np.einsum("ab,bij->aij", q, stack)
    space = SymmetricSpaceSpec(SUN_SON, 3)
    f = build_eigenfunction(random_parameters(space, rng))
    for _ in range(20):
        x = sample(spec, rng, 0.5)
        assert abs(tau(f, x, stack) - tau(f, x, remixed)) < 1e-10
        k1 = kappa(f, f, x, stack)
        k2 = kappa(f, f, x, remixed)
        assert abs(k1 - k2) < 1e-10


def test_second_derivative_matches_finite_differences():
    spec = GroupSpec(SU, 3)
    rng = np.random.default_rng(6)
    x = sample(spec, rng, 0.5)
    z = basis_g(spec).stack()[4]
    f = build_eigenfunction(random_parameters(SymmetricSpaceSpec(SUN_SON, 3), rng))
    _, _, second = directional(f, x, z)
    h = 1e-4

    def at(t):
        from scipy.linalg import expm

        return complex(f(x @ expm(t * z)))

    fd = (at(h) - 2 * at(0.0) + at(-h)) / (h * h)
    assert abs(second - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("family", SPACE_FAMILIES)
def test_k_invariance_descent(family):
    # k-directions kill K-invariant functions, so tau over g equals tau over m
    space = SymmetricSpaceSpec(family, 2)
    rng = np.random.default_rng(7)
    f = build_eigenfunction(random_parameters(space, rng))
    g_spec = space.group_spec()
    k_basis, m_basis = cartan_decomposition(space)
    for _ in range(3):
        x = sample(g_spec, rng, 0.5)
        for z in k_basis.stack():
            _, first, second = directional(f, x, z)
            assert abs(first) < 1e-10 and abs(second) < 1e-10
        t_full = tau(f, x, basis_g(g_spec))
        t_m = tau(f, x, m_basis)
        assert abs(t_full - t_m) < 1e-10


def test_product_rule():
    spec = GroupSpec(SU, 3)
    rng = np.random.default_rng(8)
    f = coordinate(1, 2)
    g = coordinate(2, 3)
    fg = GroupFunction(lambda m: f.fn(m) * g.fn(m))
    b = basis_g(spec)
    for _ in range(5):
        x = sample(spec, rng, 0.5)
        lhs = tau(fg, x, b)
        rhs = tau(f, x, b) * g(x) + 2 * kappa(f, g, x, b) + f(x) * tau(g, x, b)
        assert abs(lhs - rhs) < 1e-9


def test_tau_iterated_p1_equals_tau():
    space = SymmetricSpaceSpec(SUN_SON, 3)
    rng = np.random.default_rng(9)
    f = build_eigenfunction(random_parameters(space, rng))
    b = basis_g(space.group_spec())
    x = sample(space.group_spec(), rng, 0.5)
    assert tau_iterated(f, x, b, 1) == tau(f, x, b)


def test_tau_squared_on_eigenfunction():
    space = SymmetricSpaceSpec(SUN_SON, 3)
    rng = np.random.default_rng(10)
    spec = random_parameters(space, rng)
    f = build_eigenfunction(spec)
    lam = complex(expected_eigenvalues(spec)[0])
    b = basis_g(space.group_spec())
    for _ in range(3):
        x = sample(space.group_spec(), rng, 0.5)
        phi = complex(f(x))
        t2 = tau_iterated(f, x, b, 2)
        assert abs(t2 - lam * lam * phi) <= 1e-8 * max(1.0, abs(lam * lam * phi))


def test_budget_guard():
    space = SymmetricSpaceSpec(SUN_SON, 3)
    f = build_eigenfunction(random_parameters(space, np.random.default_rng(11)))
    b = basis_g(space.group_spec())
    x = np.eye(3, dtype=complex)
    with pytest.raises(BudgetExceeded):
        tau_iterated(f, x, b, 3, budget=10)


def test_tau_subspace_compact_equals_full_for_invariant_f():
    space = SymmetricSpaceSpec(SUN_SON, 3)
    rng = np.random.default_rng(12)
    f = build_eigenfunction(random_parameters(space, rng))
    _, m_basis = cartan_decomposition(space)
    x = sample(space.group_spec(), rng, 0.5)
    # minus the sum along i m equals the sum over real m for holomorphic f
    t_m = -tau(f, x, 1j * m_basis.stack())
    t_full = tau(f, x, basis_g(space.group_spec()))
    assert abs(t_m - t_full) < 1e-10


def test_tau_subspace_dual_sign_flip():
    # On dual points of SU(2)/SO(2): tau_m phi = +4 phi (compact value -4, flipped)
    space = SymmetricSpaceSpec(SUN_SON, 2)
    rng = np.random.default_rng(13)
    spec = random_parameters(space, rng)
    f = build_eigenfunction(spec)
    k_basis, m_basis = cartan_decomposition(space)
    rows = rng.normal(0.0, 0.2, (3, len(k_basis) + len(m_basis)))
    for x in rebuild_dual_sample(space, rows[:, : len(k_basis)], rows[:, len(k_basis) :]):
        phi = complex(f(x))
        t = tau(f, x, 1j * m_basis.stack())
        assert abs(t - 4.0 * phi) <= 1e-9 * max(1.0, abs(phi))


def test_tau_subspace_constant_is_zero():
    space = SymmetricSpaceSpec(SUN_SON, 2)
    _, m_basis = cartan_decomposition(space)
    f = GroupFunction(lambda g: 2.5 + 0j)
    assert tau(f, np.eye(2, dtype=complex), 1j * m_basis.stack()) == 0


def test_batched_and_sequential_sweeps_agree():
    # the direction-batched fast path must reproduce the per-direction loop
    spec = GroupSpec(SU, 3)
    b = basis_g(spec)
    rng = np.random.default_rng(15)
    f = build_eigenfunction(random_parameters(SymmetricSpaceSpec(SUN_SON, 3), rng))
    x = sample(spec, rng, 0.5)
    total = 0.0 + 0.0j
    for z in b.stack():
        total += directional(f, x, z)[2]
    assert abs(tau(f, x, b) - total) < 1e-12


def test_tau_and_kappa_single_sweep_consistency():
    space = SymmetricSpaceSpec(SUN_SON, 3)
    rng = np.random.default_rng(14)
    f = build_eigenfunction(random_parameters(space, rng))
    b = basis_g(space.group_spec())
    x = sample(space.group_spec(), rng, 0.5)
    t, kap, first = tau_and_kappa(f, x, b)
    assert abs(t - tau(f, x, b)) < 1e-13
    assert abs(kap - kappa(f, f, x, b)) < 1e-13
    # the third value is Z f along each direction, in basis order
    assert first.shape == (len(b),)
    for z, got in zip(b.stack(), first):
        assert got == directional(f, x, z)[1]


def _tau2_reference(f, x, dirs):
    """tau^2 f(x) from one bivariate jet per direction pair (a, b) along
    x exp(s Z_a) exp(t Z_b): the sum over pairs of 4 times the s^2 t^2 coefficient."""
    x0 = x
    powers = [np.broadcast_to(np.eye(x0.shape[0]), dirs.shape), dirs, np.matmul(dirs, dirs) / 2.0]
    coeffs = np.stack(
        [np.stack([np.einsum("ij,ajk,bkl->abil", x0, powers[i], powers[j]) for j in range(3)]) for i in range(3)]
    )
    w = f(from_coefficients(2, coeffs))
    return complex(4.0 * np.sum(w.b[2, 2]))


@pytest.mark.parametrize("family", [SUN_SON, SPN_UN])
@pytest.mark.parametrize("subspace", ["g", "i m"])
def test_tau_iterated_matches_bivariate_reference(family, subspace):
    space = SymmetricSpaceSpec(family, 2)
    rng = np.random.default_rng(16)
    phi = build_eigenfunction(random_parameters(space, rng))
    f = GroupFunction(lambda v: phi.fn(v) * phi.fn(v) * phi.fn(v), name="phi^3", left=phi.left)
    if subspace == "g":
        dirs = basis_g(space.group_spec()).stack()
    else:
        dirs = 1j * cartan_decomposition(space)[1].stack()
    for _ in range(2):
        x = sample(space.group_spec(), rng, 0.5)
        ref = _tau2_reference(f, x, dirs)
        assert abs(complex(tau_iterated(f, x, dirs, 2)) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_chunked_sweep_matches_single_chunk(monkeypatch):
    import lieharm.diffops as diffops

    one_chunk = diffops._CHUNK_ENTRIES
    space = SymmetricSpaceSpec(SUN_SON, 3)
    rng = np.random.default_rng(17)
    f = build_eigenfunction(random_parameters(space, rng))
    g = build_eigenfunction(random_parameters(space, rng))
    b = basis_g(space.group_spec()).stack()
    x = sample(space.group_spec(), rng, 0.5)

    def values():
        return [tau(f, x, b), kappa(f, g, x, b), kappa(f, f, x, b), complex(tau_iterated(f, x, b, 2))]

    single = values()
    # phi sweeps the row a^t x of 3 entries: 15 entries hold its blocks P x,
    # (P x) C and (P x) Z for 3 directions Z, so the 8 directions split 3 + 3 + 2
    monkeypatch.setattr(diffops, "_CHUNK_ENTRIES", 15)
    assert len(b) == 8 and len(list(diffops._sweep(f, x, b))) == 3
    for chunked, whole in zip(values(), single):
        assert abs(chunked - whole) <= 1e-12 * max(1.0, abs(whole))

    # a batch of 7 plain points gives one value per point; 105 entries hold
    # the blocks of 3 directions of the 7 rows, so the 8 directions again
    # split 3 + 3 + 2
    def values_at(y):
        return [tau(f, y, b), kappa(f, g, y, b), kappa(f, f, y, b), tau_iterated(f, y, b, 2)]

    xs = sample(space.group_spec(), rng, 0.5, (7,))
    monkeypatch.setattr(diffops, "_CHUNK_ENTRIES", one_chunk)
    batch_single = values_at(xs)
    monkeypatch.setattr(diffops, "_CHUNK_ENTRIES", 105)
    batch_chunked = values_at(xs)
    for i, point in enumerate(xs):
        for chunked, whole, alone in zip(batch_chunked, batch_single, values_at(point)):
            assert np.shape(chunked) == np.shape(whole) == (7,)
            assert abs(chunked[i] - whole[i]) <= 1e-12 * max(1.0, abs(whole[i]))
            assert abs(alone - whole[i]) <= 1e-12 * max(1.0, abs(whole[i]))


def test_batched_sweep_gives_each_point_its_own_bits():
    # replay rebuilds one point of a batch and must reproduce its residual, so a
    # point of a batch gets exactly the tau and kappa it gets alone, on every
    # family's phi, which sweeps its 1 or 3 rows P x
    for family in SPACE_FAMILIES:
        space = SymmetricSpaceSpec(family, 3)
        rng = np.random.default_rng(23)
        f = build_eigenfunction(random_parameters(space, rng))
        assert f.left.shape == (3 if family in (SO2N_UN, SU2N_SPN) else 1, space.matrix_size)
        b = basis_g(space.group_spec())
        xs = sample(space.group_spec(), rng, 0.5, (6,))
        t, k, first = tau_and_kappa(f, xs, b)
        assert first.shape == (len(b), 6)
        for i, point in enumerate(xs):
            t_i, k_i, first_i = tau_and_kappa(f, point, b)
            assert (t_i, k_i) == (t[i], k[i])
            assert np.array_equal(first_i, first[:, i])


def test_tau_and_kappa_keep_clongdouble():
    space = SymmetricSpaceSpec(SUN_SON, 3)
    rng = np.random.default_rng(18)
    f = build_eigenfunction(random_parameters(space, rng))
    b = basis_g(space.group_spec())
    coeffs = rng.normal(0.0, 0.5, len(b))
    x_ld = pade_exp(np.einsum("q,qij->ij", coeffs.astype(np.longdouble), b.stack().astype(np.clongdouble)))
    x = pade_exp(np.einsum("q,qij->ij", coeffs, b.stack()))
    assert x_ld.dtype == np.clongdouble
    (*got, got_first), (*want, want_first) = tau_and_kappa(f, x_ld, b), tau_and_kappa(f, x, b)
    for got, want in zip(got, want):
        assert np.asarray(got).dtype == np.clongdouble
        assert abs(complex(got) - want) <= 1e-12 * abs(want)
    # the first derivatives along so(3) vanish at any point, so they are
    # compared on the scale of the largest
    assert got_first.dtype == np.clongdouble
    assert np.max(np.abs(got_first.astype(complex) - want_first)) <= 1e-12 * np.max(np.abs(want_first))


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_operators_at_a_plain_point_return_a_numpy_scalar_of_its_dtype(dtype):
    # one return type at one plain point, whatever the precision: not a
    # Python complex at complex128 and a numpy scalar at clongdouble
    space = SymmetricSpaceSpec(SO2N_UN, 2)
    rng = np.random.default_rng(19)
    f = build_eigenfunction(random_parameters(space, rng))
    b = basis_g(space.group_spec())
    x = pade_exp(np.einsum("q,qij->ij", rng.normal(0.0, 0.5, len(b)), b.stack(dtype)))
    assert x.dtype == dtype
    t, kap, first = tau_and_kappa(f, x, b)
    for v in (tau(f, x, b), kappa(f, f, x, b), t, kap, tau_iterated(f, x, b, 2)):
        assert type(v) is dtype
    # the first derivatives: one value per direction, an array of the dtype
    assert type(first) is np.ndarray and first.dtype == dtype and first.shape == (len(b),)


def test_a_basis_is_read_in_the_dtype_of_the_point():
    # a clongdouble point gets the clongdouble stack of a Basis, with c formed
    # in longdouble, not the complex128 stack cast up; a complex128 point keeps
    # the complex128 stack
    space = SymmetricSpaceSpec(SU2N_SPN, 3)
    rng = np.random.default_rng(24)
    f = build_eigenfunction(random_parameters(space, rng))
    b = basis_g(space.group_spec())
    coeffs = rng.normal(0.0, 0.5, len(b))
    x = pade_exp(np.einsum("q,qij->ij", coeffs, b.stack()))
    x_ld = pade_exp(np.einsum("q,qij->ij", coeffs.astype(np.longdouble), b.stack(np.clongdouble)))
    for point, dtype in ((x_ld, np.clongdouble), (x, np.complex128)):
        got, want = tau_and_kappa(f, point, b), tau_and_kappa(f, point, b.stack(dtype))
        assert all(np.asarray(v).dtype == dtype for v in got)
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("kind", ["matrix", "batch", "jet"])
def test_group_function_wraps_every_kind_of_point(kind):
    # GroupFunction.__call__ is where a point becomes the CMatrix fn sees: a
    # plain matrix, a batch and a jet give fn the CMatrix of P g, g times the
    # left factor, and so bitwise the same values
    from lieharm.jets import JetScalar

    space = SymmetricSpaceSpec(SU2N_SPN, 2)
    rng = np.random.default_rng(19)
    phi = build_eigenfunction(random_parameters(space, rng))
    seen = []
    f = GroupFunction(lambda v: seen.append(v) or phi.fn(v), name="phi", left=phi.left)
    xs = sample(space.group_spec(), rng, 0.5, (3,))
    assert type(xs) is np.ndarray
    z = basis_g(space.group_spec()).stack()[2]
    jet = from_coefficients(1, np.stack([xs, xs @ z, xs @ z @ z / 2]))
    point = {"matrix": xs[1], "batch": xs, "jet": jet}[kind]
    got = f(point)
    assert isinstance(seen[-1], CMatrix) and seen[-1].shape == phi.left.shape == (3, 4)
    if kind == "jet":
        want = phi.fn(CMatrix.from_jet(jet.map(lambda c: phi.left @ c)))
        assert isinstance(got, JetScalar) and all(np.array_equal(got.b[d], want.b[d]) for d in want.b)
        assert np.array_equal(got.value, phi(xs))
    else:
        want = phi.fn(CMatrix(phi.left @ point))
        assert np.array_equal(got, want)
        assert np.array_equal(np.ravel(got), np.ravel(phi(xs))[[1] if kind == "matrix" else slice(None)])
