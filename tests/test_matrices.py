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


# --- packed jet products against the entrywise object-dtype reference ----


def complex_array(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_jet_matrix(rng, rows, cols, k, batch=()):
    """Jet entries with random missing keys, one constant and one empty entry."""
    keys = list(itertools.product(range(3), repeat=k))
    m = np.empty((rows, cols), dtype=object)
    for i, j in np.ndindex(rows, cols):
        coeffs = {}
        for key in keys:
            if rng.random() < 0.8:
                shape = () if key == (0,) * k else batch
                coeffs[key] = complex_array(rng, shape)[()]
        m[i, j] = JetScalar(k, coeffs)
    m[0, -1] = complex(rng.standard_normal(), rng.standard_normal())
    m[-1, 0] = JetScalar(k, {})
    return CMatrix(m)


def coefficient_stack(m: np.ndarray, key, batch):
    def coeff(v):
        if isinstance(v, JetScalar):
            return v.coeff(key)
        return v if not any(key) else 0.0

    return np.stack([np.broadcast_to(np.asarray(coeff(v), dtype=complex), batch) for v in m.flat])


def assert_jet_matrices_close(got: CMatrix, ref: np.ndarray, k, batch):
    assert got.shape == ref.shape
    for key in itertools.product(range(3), repeat=k):
        g, r = coefficient_stack(got.data, key, batch), coefficient_stack(ref, key, batch)
        assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r)), key


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
    assert_jet_matrices_close(out, np.dot(a.data, b.data), k, batch)


@pytest.mark.parametrize("k, batch", JET_CASES)
def test_packed_chain_and_transpose(k, batch):
    rng = np.random.default_rng(20 + k)
    g = random_jet_matrix(rng, 3, 3, k, batch)
    a = CMatrix(complex_array(rng, (3, 3)))
    j = CMatrix(complex_array(rng, (3, 2)))
    packed = a @ g
    assert_jet_matrices_close(packed.T, packed.data.T, k, batch)
    out = g.T @ packed @ j
    ref = np.dot(np.dot(g.data.T, np.dot(a.data, g.data)), j.data)
    assert_jet_matrices_close(out, ref, k, batch)
    square = g.T @ packed
    ref_trace = square.data[0, 0] + square.data[1, 1] + square.data[2, 2]
    as_matrix = lambda v: np.array([[v]], dtype=object)
    assert_jet_matrices_close(CMatrix(as_matrix(square.trace())), as_matrix(ref_trace), k, batch)


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
