"""Exact scalar arithmetic: rationals extended by sqrt(2), and rational complex numbers.

QSqrt2 is the type of the scale c of a lattice basis element c N (see
`lie.Lattice`); `(c * c).as_fraction()` is the element's exact weight in
the generator sums and raises if c^2 is irrational.  RationalComplex has
plain rational real and imaginary parts; it backs the eigenvalue
constants, the formal phi^a (log phi)^b algebra and every identity check
that must have residual *identically* zero rather than merely small.
"""

from __future__ import annotations

from fractions import Fraction
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
    """Exact complex scalar re + im*i with rational re, im.

    (a + b) - b == a holds for all values; there is no rounding anywhere.
    A QSqrt2 part is accepted only when it is rational: building one from
    a value with a sqrt(2) part raises ValueError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _rational(re)
        self.im = _rational(im)

    @staticmethod
    def _coerce(x) -> "RationalComplex":
        if isinstance(x, RationalComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalComplex(x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.im and not o.im:
            return RationalComplex(self.re * o.re)
        return RationalComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def inverse(self) -> "RationalComplex":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero RationalComplex")
        return RationalComplex(self.re / n, -self.im / n)

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
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; raises if an imaginary part exists."""
        if self.im:
            raise ValueError(f"{self} is not real")
        return self.re

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"({self.im})i"
        return f"({self.re}+({self.im})i)"


RC_ZERO = RationalComplex(0)
RC_ONE = RationalComplex(1)
RC_I = RationalComplex(0, 1)


def rc(re=0, im=0) -> RationalComplex:
    """Shorthand constructor accepting ints, Fractions or rational QSqrt2 parts."""
    return RationalComplex(re, im)
