"""Matrix layer: algebra over exact and floating scalars, shape errors."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from lieharm.exact import RationalComplex, rc
from lieharm.jets import JetScalar
from lieharm.lie import elementary, generator
from lieharm.matrices import CMatrix, ShapeError, standard_symplectic


def random_exact(rng, rows, cols):
    m = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            m[i, j] = rc(
                Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7))),
                Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7))),
            )
    return CMatrix(m)


def test_trace_identity():
    assert CMatrix.identity(3).trace() == 3
    assert CMatrix.identity(3, exact=True).trace() == RationalComplex(3)


def test_trace_elementary_product():
    e12, e21 = elementary(3, 1, 2), elementary(3, 2, 1)
    assert (e12 @ e21).trace() == 1


def test_y_generator_self_pairing():
    # Re trace(Y_12 Y_12*) = 1: the orthonormality convention
    y = generator("Y", 2, 1, 2)
    assert np.real((y @ y.conj_transpose()).trace()) == pytest.approx(1.0)


def test_exact_conj_transpose_antihomomorphism():
    rng = np.random.default_rng(0)
    a = random_exact(rng, 3, 4)
    b = random_exact(rng, 4, 2)
    lhs = (a @ b).conj_transpose()
    rhs = b.conj_transpose() @ a.conj_transpose()
    assert lhs.exact_equals(rhs)


def test_exact_associativity():
    rng = np.random.default_rng(1)
    a, b, c = random_exact(rng, 2, 3), random_exact(rng, 3, 3), random_exact(rng, 3, 2)
    assert ((a @ b) @ c).exact_equals(a @ (b @ c))


def test_conjugate_transpose_involution():
    rng = np.random.default_rng(2)
    a = random_exact(rng, 3, 3)
    assert a.conj_transpose().conj_transpose().exact_equals(a)


def test_shape_errors_name_both_shapes():
    a, b = CMatrix.zeros(2, 3), CMatrix.zeros(2, 3)
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        a @ b
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        CMatrix.zeros(2, 3).trace()
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
        a + CMatrix.zeros(3, 3)


def test_mixed_dtype_matmul():
    a = CMatrix(np.eye(2) * 2.0)
    b = random_exact(np.random.default_rng(3), 2, 2)
    out = a @ b
    assert np.allclose(out.to_complex(), 2.0 * b.to_complex())


def test_standard_symplectic_square():
    j = standard_symplectic(3)
    assert np.allclose((j @ j).to_complex(), -np.eye(6))
    j_exact = standard_symplectic(3, exact=True)
    assert (j_exact @ j_exact).exact_equals(CMatrix.identity(6, exact=True).scale(rc(-1)))


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
    return CMatrix.from_jet(JetScalar(k, c))


def entries(m: CMatrix, k):
    """The entries of a jet or complex matrix as scalar jets."""
    if m.jet is not None:
        return [[JetScalar(k, m.jet.c[..., i, j]) for j in range(m.cols)] for i in range(m.rows)]
    return [[JetScalar.constant(v, k) for v in row] for row in m.to_complex()]


def transposed(rows):
    return [list(col) for col in zip(*rows)]


def entrywise_matmul(a, b):
    return [[sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def assert_jet_matrices_close(got: CMatrix, ref, k, batch):
    """got against a grid of scalar jets, coefficient by coefficient."""
    want = np.stack(
        [np.stack([np.broadcast_to(v.c, (3,) * k + batch) for v in row], axis=-1) for row in ref], axis=-2
    )
    assert got.shape == want.shape[-2:]
    have = np.broadcast_to(got.jet.c, want.shape)
    for key in itertools.product(range(3), repeat=k):
        assert np.max(np.abs(have[key] - want[key])) <= 1e-13 * np.max(np.abs(want[key])), key


JET_CASES = [(1, (5,)), (2, ())]  # k = 1 batched over 5 directions; k = 2 nested, scalar


@pytest.mark.parametrize("k, batch", JET_CASES)
@pytest.mark.parametrize("kinds", ["complex@jet", "jet@complex", "jet@jet"])
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
def test_packed_chain_and_transpose(k, batch):
    rng = np.random.default_rng(20 + k)
    g = random_jet_matrix(rng, 3, 3, k, batch)
    a = CMatrix(complex_array(rng, (3, 3)))
    j = CMatrix(complex_array(rng, (3, 2)))
    packed = a @ g
    assert_jet_matrices_close(packed.T, transposed(entries(packed, k)), k, batch)
    out = g.T @ packed @ j
    g_entries = entries(g, k)
    ref = entrywise_matmul(
        entrywise_matmul(transposed(g_entries), entrywise_matmul(entries(a, k), g_entries)), entries(j, k)
    )
    assert_jet_matrices_close(out, ref, k, batch)
    square = g.T @ packed
    s = entries(square, k)
    ref_trace = s[0][0] + s[1][1] + s[2][2]
    as_matrix = lambda v: CMatrix.from_jet(JetScalar(k, v.c[..., None, None]))
    assert_jet_matrices_close(as_matrix(square.trace()), [[ref_trace]], k, batch)


def test_packed_jet_entries_and_shape_errors():
    rng = np.random.default_rng(30)
    g = random_jet_matrix(rng, 2, 3, 1, (4,))
    out = CMatrix(complex_array(rng, (3, 2))) @ g
    assert out.shape == (3, 3)
    assert isinstance(out[1, 2], JetScalar)
    assert isinstance(out.T[2, 1], JetScalar)
    with pytest.raises(ShapeError, match=r"\(3, 3\).*\(2, 3\)"):
        out @ g
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        g @ g


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
    assert x.pair(y) == (x.T @ y).trace()
    assert abs(x.pair(CMatrix(y.to_complex())) - trace_form(x.to_complex(), y.to_complex())) < 1e-13


@pytest.mark.parametrize("dtype", PAIR_DTYPES)
@pytest.mark.parametrize("k, batch", JET_CASES)
@pytest.mark.parametrize("kinds", ["jet,jet", "jet,complex", "complex,jet"])
def test_pair_of_jet_matrices(dtype, k, batch, kinds):
    rng = np.random.default_rng(42 + k)
    make = {
        "jet": lambda: CMatrix.from_jet(JetScalar(k, random_jet_matrix(rng, 3, 4, k, batch).jet.c.astype(dtype))),
        "complex": lambda: CMatrix(complex_array(rng, (3, 4)).astype(dtype)),
    }
    x, y = (make[kind]() for kind in kinds.split(","))
    got = x.pair(y)
    assert isinstance(got, JetScalar) and got.k == k
    coefficients = lambda m: m.jet.c if m.jet is not None else JetScalar.constant(m.data, k).c
    want = jet_trace_form(coefficients(x), coefficients(y), k)
    for d in itertools.product(range(3), repeat=k):
        assert_rel_close(got.c[d], np.broadcast_to(want[d], batch), dtype)


def test_pair_shape_errors():
    rng = np.random.default_rng(43)
    g = random_jet_matrix(rng, 2, 3, 1, (4,))
    with pytest.raises(ShapeError, match=r"pair: shapes \(2, 3\) and \(3, 2\)"):
        CMatrix.zeros(2, 3).pair(CMatrix.zeros(3, 2))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
        g.pair(CMatrix.zeros(3, 3))
    with pytest.raises(ShapeError, match=r"\(3, 2\).*\(2, 3\)"):
        g.T.pair(g)
    with pytest.raises(TypeError):
        g.pair(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="variable counts differ"):
        g.pair(random_jet_matrix(rng, 2, 3, 2))
