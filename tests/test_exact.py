"""Exact scalar arithmetic: field axioms hold with no rounding at all."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lieharm.exact import INV_SQRT2, QSqrt2, RationalComplex, SQRT2, rc

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
    assert (x + y) + rc(-1) * y == x


@given(rcs(), rcs(), rcs())
def test_rc_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


def test_rc_i_squares_to_minus_one():
    assert rc(0, 1) * rc(0, 1) == RationalComplex(-1)


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
    # a sqrt(2) part is rejected as the real or as the imaginary part
    with pytest.raises(ValueError):
        SQRT2.as_fraction()
    for parts in ((SQRT2, 0), (0, INV_SQRT2)):
        with pytest.raises(ValueError):
            RationalComplex(*parts)
    assert QSqrt2(Fraction(7, 3)).as_fraction() == Fraction(7, 3)


# --- RationalComplex against a pair-of-Fractions oracle ------------------------------

wide = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**25)


def oracle(z):
    return z.re, z.im


def canonical(z):
    """den > 0, gcd(nre, nim, den) = 1, and zero is (0, 0, 1)."""
    from math import gcd

    ok = z.den > 0 and gcd(z.nre, z.nim, z.den) == 1
    return ok and (bool(z.nre or z.nim) or (z.nre, z.nim, z.den) == (0, 0, 1))


@given(rationals, rationals, rationals, rationals)
def test_rc_arithmetic_matches_fraction_pairs(a, b, c, d):
    x, y = rc(a, b), rc(c, d)
    results = {
        "+": (x + y, (a + c, b + d)),
        "*": (x * y, (a * c - b * d, a * d + b * c)),
        "int +": (2 + x, (a + 2, b)),
        "Fraction *": (Fraction(1, 3) * x, (a / 3, b / 3)),
    }
    for op, (z, expected) in results.items():
        assert oracle(z) == expected, op
        assert canonical(z), op
        assert z == rc(*expected) and hash(z) == hash(rc(*expected)), op
    assert (x == y) == ((a, b) == (c, d))


@given(rcs(), rcs(), rcs())
def test_equal_values_by_different_routes_hash_alike(x, y, z):
    left, right = (x + y) * z, x * z + y * z
    assert left == right and hash(left) == hash(right)
    assert (left.nre, left.nim, left.den) == (right.nre, right.nim, right.den)


@given(rationals, rationals)
def test_rc_triple_is_canonical(a, b):
    z = rc(a, b)
    assert canonical(z)
    assert (z.re, z.im) == (a, b)
    assert canonical(RationalComplex.from_gaussian(z.nre * -6, z.nim * -6, z.den * -6))


def test_zero_is_one_triple():
    zeros = [rc(0), rc(1) + rc(-1), RationalComplex.from_gaussian(0, 0, -7), rc(Fraction(2, 3)) * 0]
    assert all((z.nre, z.nim, z.den) == (0, 0, 1) for z in zeros)
    assert len({hash(z) for z in zeros}) == 1


@given(wide, wide)
def test_complex_is_bitwise_the_float_of_each_part(a, b):
    z = rc(a, b)
    got, want = complex(z), complex(float(z.re), float(z.im))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
