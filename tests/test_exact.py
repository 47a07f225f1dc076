"""Exact scalar arithmetic: field axioms hold with no rounding at all."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lieharm.exact import INV_SQRT2, QSqrt2, RC_I, RC_ONE, RationalComplex, SQRT2, rc

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def q2s():
    return st.builds(QSqrt2, rationals, rationals)


def rcs():
    return st.builds(RationalComplex, rationals, rationals)


@given(q2s(), q2s())
def test_q2_add_sub_exact(x, y):
    assert (x + y) - y == x


@given(q2s(), q2s(), q2s())
def test_q2_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(q2s())
def test_q2_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == QSqrt2(1)


def test_q2_normalized_denominators():
    x = QSqrt2(Fraction(2, -4), Fraction(6, 4))
    assert x.a == Fraction(-1, 2) and x.a.denominator == 2
    assert x.b == Fraction(3, 2)


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == QSqrt2(2)
    assert INV_SQRT2 * SQRT2 == QSqrt2(1)
    assert float(INV_SQRT2) == pytest.approx(2**-0.5)


@given(rcs(), rcs())
def test_rc_add_sub_exact(x, y):
    assert (x + y) - y == x


@given(rcs(), rcs(), rcs())
def test_rc_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(rcs())
def test_rc_division_roundtrip(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == RC_ONE
        assert (RC_ONE / x) * x == RC_ONE


@given(rcs())
def test_rc_conjugate_involution(x):
    assert x.conjugate().conjugate() == x


def test_rc_i_squares_to_minus_one():
    assert RC_I * RC_I == RationalComplex(-1)


def test_rc_complex_conversion():
    z = rc(Fraction(3, 2), Fraction(-1, 4))
    assert complex(z) == complex(1.5, -0.25)


def test_rc_parts_are_plain_fractions():
    z = RationalComplex(QSqrt2(Fraction(3, 4)), 2)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z == rc(Fraction(3, 4), 2)
    with pytest.raises(ValueError):
        RationalComplex(1, INV_SQRT2)


def test_as_fraction_rejects_irrational_and_imaginary():
    with pytest.raises(ValueError):
        RationalComplex(SQRT2).as_fraction()
    with pytest.raises(ValueError):
        RC_I.as_fraction()
    assert rc(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
