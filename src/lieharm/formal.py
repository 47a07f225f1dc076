"""Exact symbolic layer: the algebra spanned by phi^a (log phi)^b.

Once phi satisfies tau(phi) = lambda phi and kappa(phi, phi) = mu phi^2,
the chain rule closes the span of phi^a (log phi)^b under tau:

    tau(phi^a L^b) = [lambda a + mu a(a-1)] phi^a L^b
                   + [lambda b + mu b(2a-1)] phi^a L^{b-1}
                   + mu b(b-1) phi^a L^{b-2},        L = log phi.

Everything here is exact, so "tau^p(S) is the empty sum" is a genuine
nullity certificate, not a small residual.

`tau_formal` applies this map on integers.  With a = p/q and den the lcm of
the denominators of lambda and mu, D = den q^2 makes D tau on the phi^a
block three Gaussian integers, built once per (a, lambda, mu):

    D tau(phi^a L^b) = keep phi^a L^b + b down1 phi^a L^{b-1}
                       + b(b-1) down2 phi^a L^{b-2},
    keep  = den lambda qp + den mu p(p-q),
    down1 = den lambda q^2 + den mu q(2p-q),
    down2 = den mu q^2.

The coefficients of a sum are brought to one denominator d0; the map acts on
their Gaussian-integer numerators, read directly off each RationalComplex
(nre, nim, den), and each result is a RationalComplex over d0 D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, Tuple, Union

import numpy as np

from .exact import RC_ZERO, RationalComplex
from .jets import JetScalar, jet_log, jet_pow

TermKey = Tuple[Fraction, int]  # (exponent of phi, exponent of log phi)
GaussInt = Tuple[int, int]  # (re, im)


def _as_rc(x) -> RationalComplex:
    if isinstance(x, RationalComplex):
        return x
    return RationalComplex(Fraction(x))


class FormalSum:
    """Canonical linear combination of phi^a (log phi)^b terms.

    Zero coefficients are pruned immediately, so equality of sums is exact
    key-wise comparison and `is_zero` is a sound nullity test.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[TermKey, RationalComplex] = None):
        self.terms: Dict[TermKey, RationalComplex] = {}
        if terms:
            for (a, b), c in terms.items():
                self._accumulate(Fraction(a), int(b), _as_rc(c))

    def _accumulate(self, a: Fraction, b: int, coeff: RationalComplex):
        if b < 0:
            raise ValueError(f"log exponent must be >= 0, got {b}")
        key = (a, b)
        new = self.terms.get(key, RC_ZERO) + coeff
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @staticmethod
    def term(coeff, a=0, b: int = 0) -> "FormalSum":
        return FormalSum({(Fraction(a), b): _as_rc(coeff)})

    @staticmethod
    def zero() -> "FormalSum":
        return FormalSum()

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(self.terms)
        for (a, b), c in other.terms.items():
            out._accumulate(a, b, c)
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(RationalComplex(-1))

    def scale(self, c) -> "FormalSum":
        c = _as_rc(c)
        if c.is_zero():
            return FormalSum()
        return FormalSum({key: coeff * c for key, coeff in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def a_support(self):
        return {a for (a, _) in self.terms}

    def max_b(self) -> int:
        return max((b for (_, b) in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]), reverse=True)

    def serialize(self) -> str:
        """Stable text form: "c * phi^(a) * log^b" joined by " + "."""
        if self.is_zero():
            return "0"
        parts = []
        for (a, b), c in self.sorted_terms():
            parts.append(f"{c!r} * phi^({a}) * log^{b}")
        return " + ".join(parts)

    def __repr__(self):
        return f"FormalSum({self.serialize()})"


def _numerators(x: RationalComplex, d: int) -> GaussInt:
    """The Gaussian integer d x, for a multiple d of x.den."""
    return x.nre * (d // x.den), x.nim * (d // x.den)


@lru_cache(maxsize=256)
def _scaled_eigenvalues(lam: RationalComplex, mu: RationalComplex) -> Tuple[int, GaussInt, GaussInt]:
    """(den, den lam, den mu) with den the lcm of the denominators of lam and mu."""
    den = lcm(lam.den, mu.den)
    return den, _numerators(lam, den), _numerators(mu, den)


@lru_cache(maxsize=4096)
def _tau_map(p: int, q: int, eig: Tuple[int, GaussInt, GaussInt]) -> Tuple[int, GaussInt, GaussInt, GaussInt]:
    """(D, keep, down1, down2) of the integer map D tau on the block of a = p/q
    (module docstring), for eig = _scaled_eigenvalues(lam, mu)."""
    den, (lr, li), (mr, mi) = eig
    lin = lambda x, y: (x * lr + y * mr, x * li + y * mi)  # den (x lam + y mu)
    return den * q * q, lin(q * p, p * (p - q)), lin(q * q, q * (2 * p - q)), lin(0, q * q)


def tau_formal(s: FormalSum, lam: RationalComplex, mu: RationalComplex) -> FormalSum:
    """The action of tau on the formal algebra, extended linearly.

    Runs on Gaussian-integer numerators: the coefficients of s over one
    denominator d0, times the cached integer map D tau of each phi^a block.
    Keys are inserted and pruned in the order FormalSum._accumulate would
    give them, so a sum evaluates term by term as it always has.
    """
    eig = _scaled_eigenvalues(_as_rc(lam), _as_rc(mu))
    d0 = lcm(*(c.den for c in s.terms.values()))
    # (p, q, b) -> [a, b, denominator, re, im]: int keys hash far faster than Fractions
    acc: Dict[Tuple[int, int, int], list] = {}

    def add(a: Fraction, b: int, den: int, re: int, im: int):
        if not (re or im):
            return
        key = (a.numerator, a.denominator, b)
        old = acc.get(key)
        if old is None:
            acc[key] = [a, b, den, re, im]
        elif old[3] + re or old[4] + im:
            old[3] += re
            old[4] += im
        else:
            del acc[key]

    for (a, b), c in s.terms.items():
        scale, (kr, ki), (d1r, d1i), (d2r, d2i) = _tau_map(a.numerator, a.denominator, eig)
        cr, ci = _numerators(c, d0)
        den = d0 * scale
        add(a, b, den, cr * kr - ci * ki, cr * ki + ci * kr)
        if b >= 1:
            add(a, b - 1, den, b * (cr * d1r - ci * d1i), b * (cr * d1i + ci * d1r))
        if b >= 2:
            m = b * (b - 1)
            add(a, b - 2, den, m * (cr * d2r - ci * d2i), m * (cr * d2i + ci * d2r))
    out = FormalSum()
    out.terms = {(a, b): RationalComplex.from_gaussian(re, im, den) for a, b, den, re, im in acc.values()}
    return out


@lru_cache(maxsize=256)
def exponent_for(lam: RationalComplex, mu: RationalComplex) -> Fraction:
    """The rational exponent 1 - lambda/mu, cached; rejects irrational or complex ratios."""
    ratio = _as_rc(lam) / _as_rc(mu)
    try:
        return Fraction(1) - ratio.as_fraction()
    except ValueError as exc:
        raise ValueError(f"eigenvalue ratio {ratio!r} is not a real rational") from exc


def build_phi_p(
    p: int,
    lam,
    mu,
    c1=1,
    c2=1,
) -> FormalSum:
    """The proper p-harmonic sum for an eigenfunction with eigenvalues (lam, mu):

      mu = 0, lam != 0:   c1 L^{p-1}
      mu != 0, lam = mu:  c1 L^{2p-1} + c2 L^{2p-2}
      mu != 0, lam != mu: c1 phi^{1-lam/mu} L^{p-1} + c2 L^{p-1}
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    lam, mu = _as_rc(lam), _as_rc(mu)
    c1, c2 = _as_rc(c1), _as_rc(c2)
    if lam.is_zero() and mu.is_zero():
        raise ValueError("(lambda, mu) = (0, 0) does not define an eigenfunction")
    if mu.is_zero():
        return FormalSum.term(c1, 0, p - 1)
    if lam == mu:
        return FormalSum.term(c1, 0, 2 * p - 1) + FormalSum.term(c2, 0, 2 * p - 2)
    e = exponent_for(lam, mu)
    return FormalSum.term(c1, e, p - 1) + FormalSum.term(c2, 0, p - 1)


@dataclass
class PHarmonicCertificate:
    null_at_p: bool
    nonzero_at_p_minus_1: bool
    witness: FormalSum
    numeric_witness: float

    @property
    def proper(self) -> bool:
        return self.null_at_p and self.nonzero_at_p_minus_1


def verify_p_harmonic(s: FormalSum, lam, mu, p: int) -> PHarmonicCertificate:
    """Apply tau_formal p times exactly; certify tau^p S = 0 and tau^{p-1} S != 0.

    Along the way the structural closure facts are asserted: iterating tau
    never enlarges the phi-exponent support and never raises the log degree.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    lam, mu = _as_rc(lam), _as_rc(mu)
    a0, b0 = s.a_support(), s.max_b()
    current = s
    iterates = [s]
    for _ in range(p):
        current = tau_formal(current, lam, mu)
        if not current.a_support() <= a0:
            raise AssertionError("tau iterate escaped the phi-exponent footprint")
        if current.max_b() > b0:
            raise AssertionError("tau iterate raised the log degree")
        iterates.append(current)
    witness = iterates[p - 1]
    numeric = 0.0
    for w in (2.0, 3.0, np.e):
        if not witness.is_zero():
            numeric = max(numeric, abs(evaluate_formal(witness, complex(w))))
    return PHarmonicCertificate(
        null_at_p=iterates[p].is_zero(),
        nonzero_at_p_minus_1=not witness.is_zero(),
        witness=witness,
        numeric_witness=numeric,
    )


def log_domain_ok(phi: complex) -> bool:
    """Whether phi is admissible for the principal log: not near zero and not
    on the branch cut (the non-positive reals).  The cut test is relative to
    |Re phi|, since rounding in Im phi grows with the size of phi."""
    if abs(phi) < 1e-10:
        return False
    return not (phi.real <= 0 and abs(phi.imag) <= 1e-12 * max(1.0, abs(phi.real)))


def _principal_pow(w: complex, a: Fraction) -> complex:
    if a == 0:
        return 1.0 + 0.0j
    return complex(np.exp(float(a) * np.log(complex(w))))


def _coefficient(c: RationalComplex, dtype: np.dtype) -> np.complexfloating:
    """c in the precision of `dtype`: each part is numerator over denominator
    in its real dtype, so a clongdouble jet gets a clongdouble coefficient."""
    real = np.finfo(dtype).dtype.type
    part = lambda x: real(x.numerator) / real(x.denominator)
    return part(c.re) + 1j * part(c.im)


def evaluate_formal(s: FormalSum, w: Union[complex, JetScalar]):
    """Numeric value of the sum at phi = w (complex scalar or jet)."""
    if isinstance(w, JetScalar):
        bad = np.any(np.asarray(w.value) == 0)
    else:
        w = complex(w)
        bad = w == 0
    if bad:
        raise ValueError("evaluate_formal: phi = 0 is outside the domain")
    if s.is_zero():
        return JetScalar(w.k, np.zeros_like(w.c)) if isinstance(w, JetScalar) else 0.0 + 0.0j
    if isinstance(w, JetScalar):
        log_w = jet_log(w)
        total = JetScalar(w.k, np.zeros_like(w.c))
        for (a, b), c in s.terms.items():
            term = jet_pow(w, a) if a != 0 else w**0
            for _ in range(b):
                term = term * log_w
            total = total + term * _coefficient(c, w.c.dtype)
        return total
    log_w = complex(np.log(w))
    total = 0.0 + 0.0j
    for (a, b), c in s.terms.items():
        total += complex(c) * _principal_pow(w, a) * log_w**b
    return total
