"""Jet scalars: truncated-Taylor examples with hand-computed oracles, ring
properties, and agreement with finite differences through matrix expressions.
The log and power oracles go through `formal.evaluate_formal`, which composes
a function of a jet as one univariate Taylor series."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieharm.formal import FormalSum, evaluate_formal
from lieharm.jets import JetScalar
from lieharm.matrices import CMatrix

from dense_jets import coefficients, from_coefficients


def jet_log(x):
    return evaluate_formal(FormalSum.term(1, 0, 1), x)


def jet_pow(x, a):
    return evaluate_formal(FormalSum.term(1, Fraction(a), 0), x)


def jet1(c0, c1, c2):
    return from_coefficients(1, np.array([c0, c1, c2], dtype=complex))


def variable(index, k):
    """t_index (0-based) as a jet in k variables."""
    c = np.zeros((3,) * k, dtype=complex)
    c[tuple(1 if i == index else 0 for i in range(k))] = 1
    return from_coefficients(k, c)


def jets_close(x, y, atol=1e-12):
    """Coefficient-wise closeness of two jets in the same variables."""
    return x.k == y.k and bool(np.max(np.abs(coefficients(x) - coefficients(y))) <= atol)


small_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False
)
unit_complex = st.complex_numbers(
    min_magnitude=0.2, max_magnitude=3, allow_nan=False, allow_infinity=False
)


def jets(base=unit_complex):
    return st.builds(jet1, base, small_complex, small_complex)


# --- log, as evaluate_formal of log phi ------------------------------------


def test_log_of_one_plus_t():
    out = jet_log(jet1(1, 1, 0))
    assert jets_close(out, jet1(0, 1, -0.5))


def test_log_of_constant():
    out = jet_log(JetScalar.constant(complex(np.e), 1))
    assert jets_close(out, jet1(1, 0, 0))


def test_log_of_quadratic_jet():
    # log(2 + 3t + t^2) = log 2 + (3/2) t + (1/2 - 9/8) t^2, composed by hand
    out = jet_log(jet1(2, 3, 1))
    assert jets_close(out, jet1(np.log(2), 1.5, -0.625))


def test_log_zero_base_raises():
    with pytest.raises(ValueError):
        jet_log(jet1(0, 1, 0))


# --- pow, as evaluate_formal of phi^a --------------------------------------


def test_pow_integer_square():
    out = jet_pow(jet1(1, 1, 0), 2)
    assert jets_close(out, jet1(1, 2, 1))


def test_pow_constant_sqrt():
    out = jet_pow(JetScalar.constant(4.0 + 0j, 1), 0.5)
    assert jets_close(out, jet1(2, 0, 0))


def test_pow_binomial_half():
    out = jet_pow(jet1(1, 1, 0), 0.5)
    assert jets_close(out, jet1(1, 0.5, -0.125))


def test_pow_zero_base_raises():
    with pytest.raises(ValueError):
        jet_pow(jet1(0, 1, 0), 0.5)


@given(jets())
@settings(max_examples=60)
def test_pow_inverse_pair(x):
    a = 1.5
    prod = jet_pow(x, a) * jet_pow(x, -a)
    assert jets_close(prod, jet1(1, 0, 0), atol=1e-10)


@given(jets())
@settings(max_examples=60)
def test_log_of_pow_matches_scaled_log(x):
    # base values may differ by 2 pi i k across branches; derivatives agree
    a = 0.75
    lhs = jet_log(jet_pow(x, a))
    rhs = a * jet_log(x)
    base_diff = (lhs.value - rhs.value) / (2j * np.pi)
    assert abs(base_diff - round(base_diff.real)) < 1e-9
    for key in ((1,), (2,)):
        assert abs(coefficients(lhs)[key] - coefficients(rhs)[key]) < 1e-12


# --- ring structure --------------------------------------------------------


@given(jets(small_complex), jets(small_complex))
@settings(max_examples=60)
def test_mul_commutative(x, y):
    assert jets_close(x * y, y * x, atol=1e-12)


@given(jets(small_complex), jets(small_complex), jets(small_complex))
@settings(max_examples=60)
def test_mul_associative(x, y, z):
    assert jets_close((x * y) * z, x * (y * z), atol=1e-10)


def test_truncation_never_materializes_degree_three():
    x = jet1(0, 1, 0)
    out = x * x * x * x  # t^4 == 0
    assert sorted(out.b) == [(0,), (1,), (2,)]
    assert np.all(coefficients(out) == 0)
    xy = variable(0, 2) * variable(1, 2)  # s t
    assert sorted((xy * xy * xy).b) == list(np.ndindex(3, 3))
    assert np.all(coefficients(xy * xy * xy) == 0)


def _reference_product(x, y):
    """The truncated product as a naive loop over pairs of monomials, a-major
    then b, accumulating each product monomial in that order."""
    out = {}
    cx, cy = coefficients(x), coefficients(y)
    keys = list(np.ndindex(*(3,) * x.k))
    for ka in keys:
        for kb in keys:
            key = tuple(a + b for a, b in zip(ka, kb))
            if any(d > 2 for d in key):
                continue
            prod = cx[ka] * cy[kb]
            out[key] = out[key] + prod if key in out else prod
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mul_matches_reference_loop_bitwise(k):
    rng = np.random.default_rng(k)

    def random_jet(value_shape):
        shape = (3,) * k + value_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c[rng.random((3,) * k) < 0.3] = 0  # random zero coefficients
        return from_coefficients(k, c)

    for i in range(5):
        # the values broadcast against each other in every other case
        x, y = random_jet((2, 3)), random_jet((2, 3) if i % 2 else (3,))
        got, want = coefficients(x * y), _reference_product(x, y)
        assert got.shape == (3,) * k + (2, 3) and len(want) == 3**k
        for key in want:
            assert np.array_equal(got[key], want[key]), key


def _dense_family(rng, k, dirs, value):
    """Random dense jets in k variables, one per tuple of directions: the
    coefficients (3,)*k + dirs + value, where direction axis v (of size
    dirs[v]) follows the degree axes; a coefficient of degree 0 in v is the
    same along v's directions, as P x is along a sweep."""
    shape = (3,) * k + tuple(dirs) + tuple(value)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for d in np.ndindex(*(3,) * k):
        for v in range(k):
            if d[v] == 0:
                c[d] = np.take(c[d], [0], axis=v)
    return c


def _collapse(c, k):
    """The collapsed jet of a dense family: degree 1 in v keeps v's
    directions, degree 2 is summed over them, degree 0 is read at one."""
    blocks = {}
    for d in np.ndindex(*(3,) * k):
        block = c[d]
        for v in range(k):
            if d[v] == 0:
                block = block[(slice(None),) * v + (slice(0, 1),)]
            elif d[v] == 2:
                block = block.sum(axis=v, keepdims=True)
        blocks[d] = block
    return JetScalar(k, blocks)


def _dense_product(a, b, k):
    """The truncated Cauchy product of two dense families, direction by direction."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for da in np.ndindex(*(3,) * k):
        for db in np.ndindex(*(3,) * k):
            d = tuple(i + j for i, j in zip(da, db))
            if max(d) <= 2:
                out[d] += a[da] * b[db]
    return out


@given(
    k=st.sampled_from([1, 2]),
    dirs=st.lists(st.integers(2, 4), min_size=2, max_size=2),
    value=st.lists(st.integers(1, 3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_collapsed_product_is_the_direction_summed_dense_product(k, dirs, value, seed):
    # the collapsed product of two collapsed jets is the collapse of the dense
    # Cauchy product of the jets per direction: a degree-2 block summed over
    # a variable's directions, a degree-1 block kept along them
    rng = np.random.default_rng(seed)
    a, b = (_dense_family(rng, k, dirs[:k], value) for _ in range(2))
    got, want = _collapse(a, k) * _collapse(b, k), _collapse(_dense_product(a, b, k), k)
    for d in want.b:
        assert got.b[d].shape == want.b[d].shape, d
        assert np.allclose(got.b[d], want.b[d], rtol=1e-12, atol=1e-12 * np.max(np.abs(want.b[d]))), d


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("left_shape", [(2, 3), (4, 2, 3)])
def test_plain_array_times_a_jet_takes_one_product_per_block(k, left_shape, monkeypatch):
    # a @ jet moves each block's direction axes into its columns: the same
    # values as a product per direction, from one matmul per block
    rng = np.random.default_rng(k)
    c = _dense_family(rng, k, (3, 4)[:k], (4, 3, 5))
    jet = _collapse(c, k)
    a = rng.standard_normal(left_shape) + 1j * rng.standard_normal(left_shape)
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda x, y: calls.append(np.shape(y)) or matmul(x, y))
    got = a @ jet
    monkeypatch.undo()
    assert len(calls) == 3**k
    for d, block in jet.b.items():
        want = matmul(a, block)
        assert got.b[d].shape == want.shape, d
        assert np.allclose(got.b[d], want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want))), d


def test_mixed_variable_counts_rejected():
    with pytest.raises(ValueError):
        JetScalar.constant(1.0, 1) + JetScalar.constant(1.0, 2)


def test_two_variable_truncation():
    s = variable(0, 2) + variable(1, 2)
    out = coefficients((1 + s) * (1 + s))
    assert abs(out[1, 1] - 2.0) < 1e-15
    assert out[2, 2] == 0 or abs(out[2, 2]) < 1e-15


# --- composition through matrix expressions vs finite differences ----------


def test_jet_composition_matches_central_differences():
    rng = np.random.default_rng(123)
    n = 3
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def f(t: complex) -> complex:
        g = x @ (np.eye(n) + t * z + t * t * (z @ z) / 2)
        return np.trace(g.T @ a @ g)

    # trace(g^t A g) as the Frobenius pairing <g, A g>, the form phi takes
    xz, xz2 = x @ z, x @ (z @ z) / 2
    g = CMatrix.from_jet(from_coefficients(1, np.stack([x, xz, xz2])))
    w = coefficients(g.pair(CMatrix(a) @ g))

    h = 1e-4
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h) - 2 * f(0) + f(-h)) / (h * h)
    assert abs(w[0] - f(0)) < 1e-12
    assert abs(w[1] - d1) <= 1e-6 * max(1.0, abs(d1))
    assert abs(2 * w[2] - d2) <= 1e-6 * max(1.0, abs(d2))


# --- dtype: jets keep the precision of their coefficients --------------------


@pytest.mark.parametrize("k", [1, 2])
def test_log_and_pow_keep_clongdouble(k):
    rng = np.random.default_rng(40 + k)
    c = rng.standard_normal((3,) * k + (4,)) + 1j * rng.standard_normal((3,) * k + (4,))
    c[(0,) * k] += 3.0
    x = from_coefficients(k, c.astype(np.clongdouble))
    x64 = from_coefficients(k, c)
    for op in (jet_log, lambda v: jet_pow(v, Fraction(1, 3)), lambda v: jet_pow(v, -1.5)):
        out, out64 = op(x), op(x64)
        assert coefficients(out).dtype == np.clongdouble
        assert coefficients(out64).dtype == np.complex128
        assert jets_close(out, out64, atol=1e-13)
    # and their precision: a cube root cubed, and the log's base value, agree
    # far below float64 rounding
    y = jet_pow(x, Fraction(1, 3))
    assert jets_close(y * y * y, x, atol=1e-16)
    assert np.max(np.abs(jet_log(x).value - np.log(x.value))) <= 1e-17
