"""Jet scalars: truncated-Taylor examples with hand-computed oracles, ring
properties, and agreement with finite differences through matrix expressions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieharm.diffops import GroupFunction, directional_jet
from lieharm.jets import JetDomainError, JetScalar, jet_allclose, jet_log, jet_pow
from lieharm.matrices import CMatrix


def jet1(c0, c1, c2):
    return JetScalar(1, np.array([c0, c1, c2], dtype=complex))


small_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False
)
unit_complex = st.complex_numbers(
    min_magnitude=0.2, max_magnitude=3, allow_nan=False, allow_infinity=False
)


def jets(base=unit_complex):
    return st.builds(jet1, base, small_complex, small_complex)


# --- log ------------------------------------------------------------------


def test_log_of_one_plus_t():
    out = jet_log(JetScalar.variable(0, 1, base=1.0))
    assert jet_allclose(out, jet1(0, 1, -0.5))


def test_log_of_constant():
    out = jet_log(JetScalar.constant(complex(np.e), 1))
    assert jet_allclose(out, jet1(1, 0, 0))


def test_log_of_quadratic_jet():
    # log(2 + 3t + t^2) = log 2 + (3/2) t + (1/2 - 9/8) t^2, composed by hand
    out = jet_log(jet1(2, 3, 1))
    assert jet_allclose(out, jet1(np.log(2), 1.5, -0.625))


def test_log_zero_base_raises():
    with pytest.raises(JetDomainError):
        jet_log(jet1(0, 1, 0))


# --- pow ------------------------------------------------------------------


def test_pow_integer_square():
    out = jet_pow(JetScalar.variable(0, 1, base=1.0), 2)
    assert jet_allclose(out, jet1(1, 2, 1))


def test_pow_constant_sqrt():
    out = jet_pow(JetScalar.constant(4.0 + 0j, 1), 0.5)
    assert jet_allclose(out, jet1(2, 0, 0))


def test_pow_binomial_half():
    out = jet_pow(JetScalar.variable(0, 1, base=1.0), 0.5)
    assert jet_allclose(out, jet1(1, 0.5, -0.125))


def test_pow_zero_base_raises():
    with pytest.raises(JetDomainError):
        jet_pow(jet1(0, 1, 0), 0.5)


@given(jets())
@settings(max_examples=60)
def test_pow_inverse_pair(x):
    a = 1.5
    prod = jet_pow(x, a) * jet_pow(x, -a)
    assert jet_allclose(prod, jet1(1, 0, 0), atol=1e-10)


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
        assert abs(lhs.coeff(key) - rhs.coeff(key)) < 1e-12


def test_integer_pow_matches_repeated_multiplication():
    x = jet1(1.3 - 0.4j, 0.7, -0.2)
    assert jet_allclose(x**3, x * x * x)


# --- ring structure --------------------------------------------------------


@given(jets(small_complex), jets(small_complex))
@settings(max_examples=60)
def test_mul_commutative(x, y):
    assert jet_allclose(x * y, y * x, atol=1e-12)


@given(jets(small_complex), jets(small_complex), jets(small_complex))
@settings(max_examples=60)
def test_mul_associative(x, y, z):
    assert jet_allclose((x * y) * z, x * (y * z), atol=1e-10)


def test_truncation_never_materializes_degree_three():
    x = jet1(0, 1, 0)
    out = x * x * x * x  # t^4 == 0
    assert out.c.shape == (3,)
    assert np.all(out.c == 0)
    xy = JetScalar.variable(0, 2) * JetScalar.variable(1, 2)  # s t
    assert (xy * xy * xy).c.shape == (3, 3)
    assert np.all((xy * xy * xy).c == 0)


def test_division_roundtrip():
    x = jet1(2.0 + 1.0j, -0.5, 0.25)
    assert jet_allclose(x / x, jet1(1, 0, 0), atol=1e-14)
    assert jet_allclose(x * (1.0 / x), jet1(1, 0, 0), atol=1e-14)


def test_division_by_zero_base_raises():
    with pytest.raises(JetDomainError):
        jet1(1, 0, 0) / jet1(0, 1, 0)


def _reference_product(x, y):
    """The truncated product as a naive loop over pairs of monomials, a-major
    then b, accumulating each product monomial in that order."""
    out = {}
    keys = list(np.ndindex(*(3,) * x.k))
    for ka in keys:
        for kb in keys:
            key = tuple(a + b for a, b in zip(ka, kb))
            if any(d > 2 for d in key):
                continue
            prod = x.c[ka] * y.c[kb]
            out[key] = out[key] + prod if key in out else prod
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mul_matches_reference_loop_bitwise(k):
    rng = np.random.default_rng(k)

    def random_jet(value_shape):
        shape = (3,) * k + value_shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c[rng.random((3,) * k) < 0.3] = 0  # random zero coefficients
        return JetScalar(k, c)

    for i in range(5):
        # the values broadcast against each other in every other case
        x, y = random_jet((2, 3)), random_jet((2, 3) if i % 2 else (3,))
        got, want = (x * y).c, _reference_product(x, y)
        assert got.shape == (3,) * k + (2, 3) and len(want) == 3**k
        for key in want:
            assert np.array_equal(got[key], want[key]), key


def test_mixed_variable_counts_rejected():
    with pytest.raises(ValueError):
        JetScalar.constant(1.0, 1) + JetScalar.constant(1.0, 2)


def test_two_variable_truncation():
    s = JetScalar.variable(0, 2) + JetScalar.variable(1, 2)
    out = (1 + s) * (1 + s)
    assert abs(out.coeff((1, 1)) - 2.0) < 1e-15
    assert out.coeff((2, 2)) == 0 or abs(out.coeff((2, 2))) < 1e-15


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

    xz, xz2 = x @ z, x @ (z @ z) / 2
    g = CMatrix.from_jet(JetScalar(1, np.stack([x, xz, xz2])))
    w = (g.T @ CMatrix(a) @ g).trace()

    h = 1e-4
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h) - 2 * f(0) + f(-h)) / (h * h)
    assert abs(w.coeff((0,)) - f(0)) < 1e-12
    assert abs(w.coeff((1,)) - d1) <= 1e-6 * max(1.0, abs(d1))
    assert abs(2 * w.coeff((2,)) - d2) <= 1e-6 * max(1.0, abs(d2))


def test_jet_matrix_arithmetic_matches_central_differences():
    # +, -, unary -, scale and entry access on a jet matrix, against the same
    # function evaluated on plain matrices along the curve
    rng = np.random.default_rng(124)
    n = 3
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def fn(g: CMatrix):
        s = (g + g.T).scale(0.5) - (-g)
        return (s @ g).trace() - 2 * (g - g.T)[0, 1] * g[1, 2]

    def curve(t: complex) -> complex:
        g = x @ (np.eye(n) + t * z + t * t * (z @ z) / 2)
        s = 0.5 * (g + g.T) + g
        return np.trace(s @ g) - 2 * (g[0, 1] - g[1, 0]) * g[1, 2]

    value, d1_jet, d2_jet = directional_jet(GroupFunction(fn), x, z)
    h = 1e-4
    d1 = (curve(h) - curve(-h)) / (2 * h)
    d2 = (curve(h) - 2 * curve(0) + curve(-h)) / (h * h)
    assert abs(value - curve(0)) < 1e-12
    assert abs(d1_jet - d1) <= 1e-6 * max(1.0, abs(d1))
    assert abs(d2_jet - d2) <= 1e-6 * max(1.0, abs(d2))


# --- dtype: jets keep the precision of their coefficients --------------------


@pytest.mark.parametrize("k", [1, 2])
def test_log_and_pow_keep_clongdouble(k):
    rng = np.random.default_rng(40 + k)
    c = rng.standard_normal((3,) * k + (4,)) + 1j * rng.standard_normal((3,) * k + (4,))
    c[(0,) * k] += 3.0
    x = JetScalar(k, c.astype(np.clongdouble))
    x64 = JetScalar(k, c)
    for op in (jet_log, lambda v: jet_pow(v, Fraction(1, 3)), lambda v: jet_pow(v, -1.5), lambda v: 1 / v):
        out, out64 = op(x), op(x64)
        assert out.c.dtype == np.clongdouble
        assert out64.c.dtype == np.complex128
        assert jet_allclose(out, out64, atol=1e-13)
    # and their precision: a cube root cubed, and the log's base value, agree
    # far below float64 rounding
    assert jet_allclose(jet_pow(x, Fraction(1, 3)) ** 3, x, atol=1e-16)
    assert np.max(np.abs(jet_log(x).value - np.log(x.value))) <= 1e-17
