"""Order-2 truncated Taylor scalars in nilpotent variables (forward-mode jets).

A JetScalar carries the coefficients of a polynomial in k variables
t_1..t_k subject to t_i^3 == 0, i.e. every monomial has degree <= 2 in
each variable separately.  Plugging such jets through an evaluation gives
the exact first and second directional derivatives of the composition:
pushing one-parameter subgroups through matrix expressions needs nothing
beyond ring operations, log and rational powers, all of which truncate
exactly (there is no series-truncation error anywhere on this path).

Coefficient values are complex numbers or numpy arrays of complex numbers;
array coefficients broadcast elementwise, which is how whole batches of
derivative directions are carried through a single evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple, Union

import numpy as np

Key = Tuple[int, ...]
Coeff = Union[complex, np.ndarray]

_NUMERIC = (int, float, complex, np.integer, np.floating, np.complexfloating)


class JetDomainError(ValueError):
    """log/pow/div of a jet whose base value is zero."""


@lru_cache(maxsize=1024)
def _product_plan(keys_a: Tuple[Key, ...], keys_b: Tuple[Key, ...]) -> Tuple[Tuple[int, int, Key], ...]:
    """(index into keys_a, index into keys_b, summed key) for every pair of keys
    whose sum survives truncation (no degree above 2), a-major then b, so a
    product accumulates its terms in the same order on every call."""
    plan = []
    for ia, ka in enumerate(keys_a):
        for ib, kb in enumerate(keys_b):
            key = tuple(a + b for a, b in zip(ka, kb))
            if all(d <= 2 for d in key):
                plan.append((ia, ib, key))
    return tuple(plan)


class JetScalar:
    """Truncated Taylor scalar: dict from per-variable degree tuples to coefficients."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: Dict[Key, Coeff]):
        self.k = k
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: Coeff, k: int = 1) -> "JetScalar":
        return JetScalar(k, {(0,) * k: value})

    @staticmethod
    def variable(index: int, k: int, base: Coeff = 0.0) -> "JetScalar":
        """base + t_index (index is 0-based)."""
        key = tuple(1 if i == index else 0 for i in range(k))
        return JetScalar(k, {(0,) * k: base, key: 1.0 + 0.0j})

    # -- structure ---------------------------------------------------------

    @property
    def value(self) -> Coeff:
        return self.coeffs.get((0,) * self.k, 0.0 + 0.0j)

    def coeff(self, key: Key) -> Coeff:
        return self.coeffs.get(tuple(key), 0.0 + 0.0j)

    def drop_last(self, degree: int) -> "JetScalar":
        """Project onto the given degree of the last variable, removing it."""
        out = {}
        for key, v in self.coeffs.items():
            if key[-1] == degree:
                out[key[:-1]] = v
        return JetScalar(self.k - 1, out)

    def _nilpotent(self) -> "JetScalar":
        base = (0,) * self.k
        return JetScalar(self.k, {key: v for key, v in self.coeffs.items() if key != base})

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, JetScalar):
            if other.k != self.k:
                raise ValueError(f"jet variable counts differ: {self.k} vs {other.k}")
            return other
        if isinstance(other, _NUMERIC):
            return JetScalar.constant(complex(other), self.k)
        if isinstance(other, np.ndarray):
            return JetScalar.constant(other, self.k)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for key, v in o.coeffs.items():
            if key in out:
                out[key] = out[key] + v
            else:
                out[key] = v
        return JetScalar(self.k, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return JetScalar(self.k, {key: -v for key, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, _NUMERIC) or isinstance(other, np.ndarray):
            if isinstance(other, _NUMERIC) and other == 0:
                return JetScalar(self.k, {})
            return JetScalar(self.k, {key: v * other for key, v in self.coeffs.items()})
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        va, vb = list(self.coeffs.values()), list(o.coeffs.values())
        out: Dict[Key, Coeff] = {}
        for ia, ib, key in _product_plan(tuple(self.coeffs), tuple(o.coeffs)):
            x, y = va[ia], vb[ib]
            if (isinstance(x, complex) and x == 0) or (isinstance(y, complex) and y == 0):
                continue
            prod = x * y
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod
        return JetScalar(self.k, out)

    __rmul__ = __mul__

    def _check_base(self, op: str) -> Coeff:
        base = self.value
        bad = np.any(base == 0) if isinstance(base, np.ndarray) else base == 0
        if bad:
            raise JetDomainError(f"{op} of a jet with zero base value (base={base!r})")
        return base

    def reciprocal(self) -> "JetScalar":
        base = self._check_base("reciprocal")
        u = self._nilpotent() * (1.0 / base)
        # 1/(1+u) = sum (-u)^j, exact once u is nilpotent
        out = JetScalar.constant(1.0 + 0.0j, self.k)
        term = JetScalar.constant(1.0 + 0.0j, self.k)
        for _ in range(2 * self.k):
            term = term * u * (-1.0)
            if not term.coeffs:
                break
            out = out + term
        return out * (1.0 / base)

    def __truediv__(self, other):
        if isinstance(other, _NUMERIC):
            return self * (1.0 / complex(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, a):
        if isinstance(a, (int, np.integer)) and a >= 0:
            out = JetScalar.constant(1.0 + 0.0j, self.k)
            for _ in range(int(a)):
                out = out * self
            return out
        return jet_pow(self, a)

    def __repr__(self):
        inner = ", ".join(f"{key}: {v}" for key, v in sorted(self.coeffs.items()))
        return f"JetScalar(k={self.k}, {{{inner}}})"


def _principal_log(base: Coeff) -> Coeff:
    if isinstance(base, np.ndarray):
        return np.log(base.astype(complex))
    return complex(np.log(complex(base)))


def jet_log(x: JetScalar) -> JetScalar:
    """Principal-branch log of a jet; requires a nonzero base value.

    log(c(1+u)) = log c + sum_{j>=1} (-1)^{j+1} u^j / j with u nilpotent,
    so the series terminates exactly.
    """
    base = x._check_base("log")
    u = x._nilpotent() * (1.0 / base)
    out = JetScalar.constant(_principal_log(base), x.k)
    term = JetScalar.constant(1.0 + 0.0j, x.k)
    for j in range(1, 2 * x.k + 1):
        term = term * u
        if not term.coeffs:
            break
        out = out + term * ((-1.0) ** (j + 1) / j)
    return out


def jet_pow(x: JetScalar, a) -> JetScalar:
    """Principal-branch power x**a for rational or real a; nonzero base required.

    x^a = c^a (1+u)^a with the binomial series in the nilpotent u; for
    integer a this coincides with repeated multiplication.
    """
    base = x._check_base("pow")
    af = float(Fraction(a)) if isinstance(a, (int, Fraction)) else float(a)
    if isinstance(base, np.ndarray):
        head = np.exp(af * np.log(base.astype(complex)))
    else:
        head = complex(np.exp(af * np.log(complex(base))))
    u = x._nilpotent() * (1.0 / base)
    out = JetScalar.constant(1.0 + 0.0j, x.k)
    term = JetScalar.constant(1.0 + 0.0j, x.k)
    coef = 1.0
    for j in range(1, 2 * x.k + 1):
        coef *= (af - (j - 1)) / j  # binomial(a, j) built up incrementally
        term = term * u
        if not term.coeffs:
            break
        out = out + term * coef
    return out * head


def jet_allclose(x: JetScalar, y: JetScalar, atol: float = 1e-12) -> bool:
    """Coefficient-wise closeness; missing keys count as zero."""
    if x.k != y.k:
        return False
    for key in set(x.coeffs) | set(y.coeffs):
        d = np.max(np.abs(np.asarray(x.coeff(key)) - np.asarray(y.coeff(key))))
        if d > atol:
            return False
    return True
