"""Exact scalars outside the formal route: rationals extended by sqrt(2),
and rational complex numbers.

The formal phi^a (log phi)^b algebra and the eigenvalues are over Q and use
`fractions.Fraction` (`formal.py`); nothing here backs them.  The one exact
matrix product left is the trace(A J) = 0 check of
`identities.check_symplectic_facts`, a matrix of RationalComplex entries
times the exact J, so RationalComplex keeps only what that product, the
exact path of `matrices.CMatrix` and the benchmark tracer use: +, * and
their reflected forms, ==, hash, is_zero, complex() and repr.  No module of
the package uses QSqrt2: a basis element c N carries its exact weight c^2 as
a Fraction (`lie.Basis`).  QSqrt2, RationalComplex and that exact product
stay only while the benchmark tracer counts their arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

_RatLike = Union[int, Fraction]


class QSqrt2:
    """A number a + b*sqrt(2) with exact rational a, b.

    Closed under +, -, *, / (the field Q(sqrt 2)); Fraction keeps all
    denominators gcd-reduced and positive.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: _RatLike = 0, b: _RatLike = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _coerce(x) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt2(x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.b == 0 and o.b == 0:
            return QSqrt2(self.a * o.a)
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def inverse(self) -> "QSqrt2":
        # 1/(a + b s2) = (a - b s2) / (a^2 - 2 b^2); the norm is nonzero
        # for nonzero arguments because sqrt(2) is irrational.
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return QSqrt2(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; raises if a sqrt(2) part is present."""
        if self.b != 0:
            raise ValueError(f"{self} has an irrational sqrt(2) part")
        return self.a

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 1.4142135623730951

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"{self.a}+{self.b}*sqrt2"


SQRT2 = QSqrt2(0, 1)
INV_SQRT2 = QSqrt2(0, Fraction(1, 2))  # 1/sqrt(2) == sqrt(2)/2


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, QSqrt2):
        return x.as_fraction()
    return Fraction(x)


class RationalComplex:
    """Exact complex scalar (nre + nim*i) / den: a Gaussian integer over a
    denominator den > 0 with gcd(nre, nim, den) = 1, so zero is (0, 0, 1).

    Each result costs integer products and one gcd; the reduced triple is
    canonical, so == and hash read it directly.  `re` and `im` are the parts
    as Fractions, made on demand.  A QSqrt2 part is accepted only when it is
    rational: building one from a value with a sqrt(2) part raises ValueError.
    `__mul__`, `__rmul__`, `__add__` and `__radd__` stay separate entries of
    the class dict, because the benchmark tracer counts the calls of each.
    """

    __slots__ = ("nre", "nim", "den")

    def __init__(self, re=0, im=0):
        re, im = _rational(re), _rational(im)
        # over the lcm of two reduced denominators the triple is already reduced
        self.den = lcm(re.denominator, im.denominator)
        self.nre = re.numerator * (self.den // re.denominator)
        self.nim = im.numerator * (self.den // im.denominator)

    @staticmethod
    def from_gaussian(nre: int, nim: int, den: int) -> "RationalComplex":
        """(nre + nim*i) / den for integers with den != 0, reduced."""
        g = gcd(nre, nim, den) if den > 0 else -gcd(nre, nim, den)
        z = object.__new__(RationalComplex)
        z.nre, z.nim, z.den = nre // g, nim // g, den // g
        return z

    @staticmethod
    def _coerce(x) -> "RationalComplex":
        if isinstance(x, RationalComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalComplex(x)
        return NotImplemented

    re = property(lambda self: Fraction(self.nre, self.den))
    im = property(lambda self: Fraction(self.nim, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, e = self.den, o.den
        return _gauss(self.nre * e + o.nre * d, self.nim * e + o.nim * d, d * e)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        (a, b), (c, d) = (self.nre, self.nim), (o.nre, o.nim)
        return _gauss(a * c - b * d, a * d + b * c, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.nre == o.nre and self.nim == o.nim and self.den == o.den

    def __hash__(self):
        return hash((self.nre, self.nim, self.den))

    def is_zero(self) -> bool:
        return not self.nre and not self.nim

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.nre / self.den, self.nim / self.den)

    def __repr__(self):
        if not self.nim:
            return str(self.re)
        if not self.nre:
            return f"({self.im})i"
        return f"({self.re}+({self.im})i)"


_gauss = RationalComplex.from_gaussian


def rc(re=0, im=0) -> RationalComplex:
    """Shorthand constructor accepting ints, Fractions or rational QSqrt2 parts."""
    return RationalComplex(re, im)
