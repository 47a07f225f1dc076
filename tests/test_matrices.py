"""Matrix layer: products and pairings over exact, floating and jet scalars,
shape errors."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from lieharm.exact import RationalComplex, rc
from lieharm.jets import JetScalar
from lieharm.lie import generator, standard_symplectic
from lieharm.matrices import CMatrix, ShapeError, swap_j

from dense_jets import coefficients, from_coefficients


def random_exact(rng, rows, cols):
    m = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            m[i, j] = rc(
                Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7))),
                Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7))),
            )
    return CMatrix(m)


def exact_of(ints) -> CMatrix:
    """The exact matrix of an integer array."""
    return CMatrix(np.vectorize(lambda v: rc(int(v)), otypes=[object])(np.asarray(ints)))


def complex_of(m: CMatrix) -> np.ndarray:
    """The complex array of an exact matrix."""
    return m.data.astype(complex)


def conj_transpose(m: CMatrix) -> CMatrix:
    """The conjugate transpose of an exact matrix, entry by entry."""
    return CMatrix(np.vectorize(lambda v: v.conjugate(), otypes=[object])(m.data).T)


def exact_equal(a: CMatrix, b: CMatrix) -> bool:
    return a.shape == b.shape and bool(np.all(a.data == b.data))


def test_trace_identity():
    assert CMatrix(np.eye(3, dtype=complex)).trace() == 3
    assert exact_of(np.eye(3)).trace() == RationalComplex(3)


def test_trace_elementary_product():
    e12, e21 = np.zeros((2, 3, 3), dtype=complex)
    e12[0, 1] = e21[1, 0] = 1
    assert (CMatrix(e12) @ CMatrix(e21)).trace() == 1


def test_y_generator_self_pairing():
    # Re trace(Y_12 Y_12*) = 1: the orthonormality convention
    y = generator("Y", 2, 1, 2)
    assert np.real(CMatrix(y).pair(CMatrix(np.conj(y)))) == pytest.approx(1.0)


def test_exact_conj_transpose_antihomomorphism():
    rng = np.random.default_rng(0)
    a = random_exact(rng, 3, 4)
    b = random_exact(rng, 4, 2)
    lhs = conj_transpose(a @ b)
    rhs = conj_transpose(b) @ conj_transpose(a)
    assert exact_equal(lhs, rhs)


def test_exact_associativity():
    rng = np.random.default_rng(1)
    a, b, c = random_exact(rng, 2, 3), random_exact(rng, 3, 3), random_exact(rng, 3, 2)
    assert exact_equal((a @ b) @ c, a @ (b @ c))


def test_conjugate_transpose_involution():
    rng = np.random.default_rng(2)
    a = random_exact(rng, 3, 3)
    assert exact_equal(conj_transpose(conj_transpose(a)), a)
    assert not exact_equal(conj_transpose(a), a)


def test_shape_errors_name_both_shapes():
    a, b = CMatrix(np.zeros((2, 3))), CMatrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        a @ b
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        a.trace()
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
        a.pair(CMatrix(np.zeros((3, 3))))


def test_standard_symplectic_square():
    j = standard_symplectic(3)
    assert j.dtype == np.complex128
    assert np.array_equal(j @ j, -np.eye(6))
    j_exact = exact_of(j.real)
    assert exact_equal(j_exact @ j_exact, exact_of(-np.eye(6)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values with equal signs, zeros included (clongdouble pads its
    bytes, so tobytes cannot compare it)."""
    return a.dtype == b.dtype and np.array_equal(a, b) and all(
        np.array_equal(np.signbit(p(a)), np.signbit(p(b))) for p in (np.real, np.imag)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_swap_j_is_the_product_with_j(n, dtype):
    # M J as a signed column swap: bitwise the matmul, on a plain matrix, a
    # stack of rows and the coefficients of a jet, and through CMatrix
    rng = np.random.default_rng(90 + n)
    j = standard_symplectic(n).astype(dtype)

    def draw(*shape):
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)

    plain, rows, jet = draw(2 * n, 2 * n), draw(3, 2 * n), draw(3, 3, 5, 4, 3, 2 * n)
    for m in (plain, rows, jet):
        assert same_bits(swap_j(m), m @ j)
    assert same_bits(CMatrix(rows).swap_j().data, rows @ j)
    swapped = CMatrix.from_jet(from_coefficients(2, jet)).swap_j().jet
    assert swapped.k == 2 and same_bits(coefficients(swapped), jet @ j)


# --- jet matrix products against an entrywise loop of scalar jet products ----


def complex_array(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_jet_matrix(rng, rows, cols, k, batch=()):
    """A jet matrix with random zero coefficients, one constant and one zero
    entry; its base values are shared along the batch, as at a swept point."""
    c = complex_array(rng, (3,) * k + batch + (rows, cols))
    c[(0,) * k] = complex_array(rng, (rows, cols))
    c = np.where(rng.random((3,) * k + (1,) * len(batch) + (rows, cols)) < 0.2, 0, c)
    c[..., 0, -1] = 0
    c[(0,) * k][..., 0, -1] = complex(rng.standard_normal(), rng.standard_normal())
    c[..., -1, 0] = 0
    return CMatrix.from_jet(from_coefficients(k, c))


def entries(m: CMatrix, k):
    """The entries of a jet or complex matrix as scalar jets."""
    if m.jet is not None:
        return [[m.jet.map(lambda c: c[..., i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]
    return [[JetScalar.constant(v, k) for v in row] for row in m.data]


def entrywise_matmul(a, b):
    return [[sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def assert_jet_matrices_close(got: CMatrix, ref, k, batch):
    """got against a grid of scalar jets, coefficient by coefficient."""
    want = np.stack(
        [np.stack([np.broadcast_to(coefficients(v), (3,) * k + batch) for v in row], axis=-1) for row in ref],
        axis=-2,
    )
    assert got.shape == want.shape[-2:]
    have = np.broadcast_to(coefficients(got.jet), want.shape)
    for key in itertools.product(range(3), repeat=k):
        assert np.max(np.abs(have[key] - want[key])) <= 1e-13 * np.max(np.abs(want[key])), key


JET_CASES = [(1, (5,)), (2, ())]  # k = 1 batched over 5 directions; k = 2 nested, scalar


@pytest.mark.parametrize("k, batch", JET_CASES)
@pytest.mark.parametrize("kinds", ["complex@jet", "jet@complex"])
def test_packed_jet_matmul_matches_entrywise_product(k, batch, kinds):
    rng = np.random.default_rng(len(kinds) + 10 * k)
    left_kind, right_kind = kinds.split("@")
    make = {
        "jet": lambda r, c: random_jet_matrix(rng, r, c, k, batch),
        "complex": lambda r, c: CMatrix(complex_array(rng, (r, c))),
    }
    a, b = make[left_kind](2, 3), make[right_kind](3, 4)
    out = a @ b
    assert out.jet is not None and out.is_object()
    assert_jet_matrices_close(out, entrywise_matmul(entries(a, k), entries(b, k)), k, batch)


@pytest.mark.parametrize("k, batch", JET_CASES)
def test_packed_chain(k, batch):
    # A g J, the products phi forms at a jet point
    rng = np.random.default_rng(20 + k)
    g = random_jet_matrix(rng, 3, 3, k, batch)
    a = CMatrix(complex_array(rng, (3, 3)))
    j = CMatrix(complex_array(rng, (3, 2)))
    out = a @ g @ j
    ref = entrywise_matmul(entrywise_matmul(entries(a, k), entries(g, k)), entries(j, k))
    assert_jet_matrices_close(out, ref, k, batch)


def test_packed_jet_shape_errors():
    rng = np.random.default_rng(30)
    g = random_jet_matrix(rng, 2, 3, 1, (4,))
    out = CMatrix(complex_array(rng, (3, 2))) @ g
    assert out.shape == (3, 3)
    with pytest.raises(ShapeError, match=r"\(3, 3\).*\(2, 3\)"):
        out @ g
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        g @ g
    # trace takes one numeric or exact matrix, not a jet or a stack
    for m in (out, CMatrix(complex_array(rng, (4, 3, 3)))):
        with pytest.raises(ShapeError, match="one square matrix"):
            m.trace()


# --- the Frobenius pairing against trace(x^t y) -------------------------------


def trace_form(a, b):
    """trace(a^t b) over the matrix axes of two arrays."""
    return np.trace(np.swapaxes(a, -1, -2) @ b, axis1=-2, axis2=-1)


def jet_trace_form(a, b, k):
    """The coefficients of trace(x^t y) for jets x, y (coefficient arrays a,
    b): one trace_form per pair of degrees, summed into the degree of the
    product."""
    out = {}
    for da in itertools.product(range(3), repeat=k):
        for db in itertools.product(range(3), repeat=k):
            d = tuple(i + j for i, j in zip(da, db))
            if max(d) <= 2:
                out[d] = out.get(d, 0) + trace_form(a[da], b[db])
    return out


def assert_rel_close(got, want, dtype):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == dtype
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


PAIR_DTYPES = [np.complex128, np.clongdouble]


@pytest.mark.parametrize("dtype", PAIR_DTYPES)
def test_pair_of_plain_matrices_and_stacks(dtype):
    rng = np.random.default_rng(40)
    for shape in [(3, 4), (4, 5, 3, 3), (7, 6, 6)]:
        x, y = (complex_array(rng, shape).astype(dtype) for _ in range(2))
        got = CMatrix(x).pair(CMatrix(y))
        assert_rel_close(got, trace_form(x, y), dtype)
        assert np.shape(got) == shape[:-2]


def test_pair_of_exact_matrices_is_exact():
    rng = np.random.default_rng(41)
    x, y = random_exact(rng, 3, 2), random_exact(rng, 3, 2)
    assert x.pair(y) == (CMatrix(x.data.T) @ y).trace()
    assert abs(complex(x.pair(y)) - trace_form(complex_of(x), complex_of(y))) < 1e-13


@pytest.mark.parametrize("dtype", PAIR_DTYPES)
@pytest.mark.parametrize("k, batch", JET_CASES)
@pytest.mark.parametrize("kinds", ["jet,jet", "jet,complex", "complex,jet"])
def test_pair_of_jet_matrices(dtype, k, batch, kinds):
    rng = np.random.default_rng(42 + k)
    make = {
        "jet": lambda: CMatrix.from_jet(random_jet_matrix(rng, 3, 4, k, batch).jet.map(lambda c: c.astype(dtype))),
        "complex": lambda: CMatrix(complex_array(rng, (3, 4)).astype(dtype)),
    }
    x, y = (make[kind]() for kind in kinds.split(","))
    got = x.pair(y)
    assert isinstance(got, JetScalar) and got.k == k
    dense = lambda m: coefficients(m.jet if m.jet is not None else JetScalar.constant(m.data, k))
    want, have = jet_trace_form(dense(x), dense(y), k), coefficients(got)
    for d in itertools.product(range(3), repeat=k):
        assert_rel_close(have[d], np.broadcast_to(want[d], batch), dtype)


def test_pair_shape_errors():
    rng = np.random.default_rng(43)
    g = random_jet_matrix(rng, 2, 3, 1, (4,))
    with pytest.raises(ShapeError, match=r"pair: shapes \(2, 3\) and \(3, 2\)"):
        CMatrix(np.zeros((2, 3))).pair(CMatrix(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
        g.pair(CMatrix(np.zeros((3, 3))))
    with pytest.raises(ShapeError, match=r"\(3, 2\).*\(2, 3\)"):
        random_jet_matrix(rng, 3, 2, 1, (4,)).pair(g)
    with pytest.raises(TypeError):
        g.pair(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="variable counts differ"):
        g.pair(random_jet_matrix(rng, 2, 3, 2))
