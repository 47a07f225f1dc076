"""Exact scalar arithmetic: ring axioms hold with no rounding at all, and
only ints and Fractions enter."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lieharm.exact import QSqrt2, RationalComplex

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def q2s():
    return st.builds(QSqrt2, rationals, rationals)


def rcs():
    return st.builds(RationalComplex, rationals, rationals)


def parts(x: QSqrt2):
    """QSqrt2 has no ==: its values compare on their rational parts."""
    return x.a, x.b


@given(q2s(), q2s())
def test_q2_add_sub_exact(x, y):
    assert parts((x + y) + (-1) * y) == parts(x)


@given(q2s(), q2s(), q2s())
def test_q2_mul_distributes(x, y, z):
    assert parts(x * (y + z)) == parts(x * y + x * z)


@given(rationals, rationals, rationals, rationals, st.integers(min_value=-50, max_value=50))
def test_q2_arithmetic_matches_fraction_pairs(a, b, c, d, k):
    # the four dunders the benchmark tracer counts, with ints on either side
    x, y = QSqrt2(a, b), QSqrt2(c, d)
    results = {
        "+": (x + y, (a + c, b + d)),
        "*": (x * y, (a * c + 2 * b * d, a * d + b * c)),
        "int +": (k + x, (a + k, b)),
        "+ int": (x + k, (a + k, b)),
        "int *": (k * x, (a * k, b * k)),
        "* int": (x * k, (a * k, b * k)),
    }
    for op, (z, expected) in results.items():
        assert type(z) is QSqrt2 and parts(z) == expected, op
        assert type(z.a) is Fraction and type(z.b) is Fraction, op


def test_q2_normalized_denominators():
    x = QSqrt2(Fraction(2, -4), Fraction(6, 4))
    assert x.a == Fraction(-1, 2) and x.a.denominator == 2
    assert x.b == Fraction(3, 2)


def test_sqrt2_squares_to_two():
    sqrt2, inv_sqrt2 = QSqrt2(0, 1), QSqrt2(0, Fraction(1, 2))
    assert parts(sqrt2 * sqrt2) == (2, 0)
    assert parts(inv_sqrt2 * sqrt2) == (1, 0)


@given(rcs(), rcs())
def test_rc_add_sub_exact(x, y):
    assert (x + y) + RationalComplex(-1) * y == x


@given(rcs(), rcs(), rcs())
def test_rc_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


def test_rc_i_squares_to_minus_one():
    assert RationalComplex(0, 1) * RationalComplex(0, 1) == RationalComplex(-1)


def test_rc_complex_conversion():
    z = RationalComplex(Fraction(3, 2), Fraction(-1, 4))
    assert complex(z) == complex(1.5, -0.25)


def test_rc_parts_are_plain_fractions():
    # a numpy integer enters as a plain int, so the triple is plain ints
    z = RationalComplex(Fraction(3, 4), np.int64(2))
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert all(type(v) is int for v in (z.nre, z.nim, z.den))
    assert z == RationalComplex(Fraction(3, 4), 2)


def test_as_fraction_rejects_irrational_and_imaginary():
    # a QSqrt2 is never a part: one with a sqrt(2) part is rejected as the
    # real or as the imaginary part, and so is a rational one
    for q in (QSqrt2(0, 1), QSqrt2(0, Fraction(1, 2)), QSqrt2(Fraction(7, 3))):
        for re, im in ((q, 0), (0, q)):
            with pytest.raises(TypeError, match="expected an int or a Fraction"):
                RationalComplex(re, im)


def test_rational_complex_takes_ints_and_fractions_only():
    # a float would enter as its binary fraction: 0.1 as
    # 3602879701896397/36028797018963968, 1e300 as a 301-digit integer
    for bad in (0.1, np.float64(0.5), 1e300, "3", QSqrt2(3), 1j):
        for re, im in ((bad, 0), (0, bad)):
            with pytest.raises(TypeError, match="expected an int or a Fraction") as info:
                RationalComplex(re, im)
            assert repr(bad) in str(info.value)
    same = [
        RationalComplex(6, Fraction(-4, 6)),
        RationalComplex(np.int64(6), Fraction(-2, 3)),
        RationalComplex(Fraction(12, 2), Fraction(-6, 9)),
    ]
    for z in same:
        assert (z.nre, z.nim, z.den) == (18, -2, 3)
        assert all(type(v) is int for v in (z.nre, z.nim, z.den))


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
    x, y = RationalComplex(a, b), RationalComplex(c, d)
    results = {
        "+": (x + y, (a + c, b + d)),
        "*": (x * y, (a * c - b * d, a * d + b * c)),
        "int +": (2 + x, (a + 2, b)),
        "Fraction *": (Fraction(1, 3) * x, (a / 3, b / 3)),
    }
    for op, (z, expected) in results.items():
        assert oracle(z) == expected, op
        assert canonical(z), op
        want = RationalComplex(*expected)
        assert z == want and hash(z) == hash(want), op
    assert (x == y) == ((a, b) == (c, d))


@given(rcs(), rcs(), rcs())
def test_equal_values_by_different_routes_hash_alike(x, y, z):
    left, right = (x + y) * z, x * z + y * z
    assert left == right and hash(left) == hash(right)
    assert (left.nre, left.nim, left.den) == (right.nre, right.nim, right.den)


@given(rationals, rationals)
def test_rc_triple_is_canonical(a, b):
    z = RationalComplex(a, b)
    assert canonical(z)
    assert (z.re, z.im) == (a, b)
    assert canonical(RationalComplex.from_gaussian(z.nre * -6, z.nim * -6, z.den * -6))


def test_zero_is_one_triple():
    zeros = [
        RationalComplex(0),
        RationalComplex(1) + RationalComplex(-1),
        RationalComplex.from_gaussian(0, 0, -7),
        RationalComplex(Fraction(2, 3)) * 0,
    ]
    assert all((z.nre, z.nim, z.den) == (0, 0, 1) for z in zeros)
    assert len({hash(z) for z in zeros}) == 1


@given(wide, wide)
def test_complex_is_bitwise_the_float_of_each_part(a, b):
    z = RationalComplex(a, b)
    got, want = complex(z), complex(float(z.re), float(z.im))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
