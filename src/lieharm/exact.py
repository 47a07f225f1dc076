"""Exact scalars outside the formal route: rational complex numbers, and a
stub of the rationals extended by sqrt(2).

The formal phi^a (log phi)^b algebra and the eigenvalues are over Q and use
`fractions.Fraction` (`formal.py`); nothing here backs them.  The one exact
matrix product left is the trace(A J) = 0 check of
`identities.check_symplectic_facts`, a matrix of RationalComplex entries
times the exact J, so RationalComplex keeps only what that product, the
exact path of `matrices.CMatrix` and the benchmark tracer use: +, * and
their reflected forms, ==, hash, is_zero, complex() and repr.  Its parts
are ints or Fractions (`formal._rational`), never floats.  No module of the
package makes a QSqrt2: it keeps only the four dunders the benchmark tracer
counts.  Both classes stay only while the tracer binds them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .formal import _rational


class QSqrt2:
    """A number a + b*sqrt(2) with exact rational a, b, closed under + and *.

    `__add__`, `__radd__`, `__mul__` and `__rmul__` stay separate entries of
    the class dict, because the benchmark tracer counts the calls of each.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = _rational(a)
        self.b = _rational(b)

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__


class RationalComplex:
    """Exact complex scalar (nre + nim*i) / den: a Gaussian integer over a
    denominator den > 0 with gcd(nre, nim, den) = 1, so zero is (0, 0, 1).

    Built from two ints or Fractions; any other part (a float, a complex
    number, a string) raises TypeError naming it.  Each result costs integer
    products and one gcd; the reduced triple is canonical, so == and hash
    read it directly.  `re` and `im` are the parts as Fractions, made on
    demand.  `__mul__`, `__rmul__`, `__add__` and `__radd__` stay separate
    entries of the class dict, because the benchmark tracer counts the calls
    of each.
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
