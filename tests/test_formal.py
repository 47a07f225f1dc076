"""Formal phi^a (log phi)^b algebra: exact tau action, the three-case
construction, p-harmonicity certificates, evaluation and serialization."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieharm.diffops import GroupFunction, tau
from lieharm.eigenfamilies import build_eigenfunction, expected_eigenvalues, random_parameters
from lieharm.exact import RationalComplex, rc
from lieharm.formal import (
    FormalSum,
    build_phi_p,
    evaluate_formal,
    exponent_for,
    log_domain_ok,
    tau_formal,
    verify_p_harmonic,
)
from lieharm.jets import JetScalar
from lieharm.lie import SPACE_FAMILIES, SU2N_SPN, SUN_SON, SymmetricSpaceSpec, basis_g, sample

LAM = rc(Fraction(-20, 3))
MU = rc(Fraction(-8, 3))


# --- tau action -----------------------------------------------------------------


def test_tau_of_log_phi():
    # chain rule oracle: tau(log phi) = tau(phi)/phi - kappa(phi,phi)/phi^2 = lam - mu
    out = tau_formal(FormalSum.term(1, 0, 1), LAM, MU)
    assert out == FormalSum.term(LAM - MU, 0, 0)


def test_tau_of_phi_reproduces_eigenvalue():
    out = tau_formal(FormalSum.term(1, 1, 0), LAM, MU)
    assert out == FormalSum.term(LAM, 1, 0)


def test_tau_kills_special_power():
    e = exponent_for(LAM, MU)
    assert e == Fraction(-3, 2)
    out = tau_formal(FormalSum.term(1, e, 0), LAM, MU)
    assert out.is_zero()


def test_exponent_rejects_complex_ratio():
    with pytest.raises(ValueError):
        exponent_for(rc(0, 1), rc(2))


def test_exponent_is_divided_once_per_eigenvalue_pair():
    lam, mu = rc(Fraction(-7, 3)), rc(Fraction(-5, 6))
    misses = exponent_for.cache_info().misses
    sums = [build_phi_p(p, lam, mu) for p in range(1, 9)]
    assert exponent_for.cache_info().misses == misses + 1
    assert {a for s in sums for a in s.a_support()} == {Fraction(0), Fraction(-9, 5)}
    # equal values built another way share the cached exponent
    assert exponent_for(rc(Fraction(-14, 6)), rc(Fraction(-10, 12))) == Fraction(-9, 5)
    assert exponent_for.cache_info().misses == misses + 1


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
@settings(max_examples=80)
def test_tau_formal_linear(lam, mu, b, a):
    lam_rc, mu_rc = rc(lam), rc(mu)
    s = FormalSum.term(2, a, b) + FormalSum.term(rc(Fraction(1, 3)), 0, b)
    t = FormalSum.term(rc(0, 1), a, 0)
    alpha, beta = rc(Fraction(5, 7)), rc(-3)
    lhs = tau_formal(s.scale(alpha) + t.scale(beta), lam_rc, mu_rc)
    rhs = tau_formal(s, lam_rc, mu_rc).scale(alpha) + tau_formal(t, lam_rc, mu_rc).scale(beta)
    assert lhs == rhs


def tau_oracle(s, lam, mu):
    """The three-term chain rule in RationalComplex arithmetic, term by term:
    tau(phi^a L^b) = [lam a + mu a(a-1)] phi^a L^b + [lam b + mu b(2a-1)] phi^a L^(b-1)
                     + mu b(b-1) phi^a L^(b-2)."""
    out = FormalSum()
    for (a, b), c in s.terms.items():
        a_rc = RationalComplex(a)
        out._accumulate(a, b, c * (lam * a_rc + mu * a_rc * (a_rc - 1)))
        if b >= 1:
            out._accumulate(a, b - 1, c * (lam * b + mu * b * (2 * a_rc - 1)))
        if b >= 2:
            out._accumulate(a, b - 2, c * mu * (b * (b - 1)))
    return out


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=15)
complex_rationals = st.builds(rc, rationals, st.one_of(st.just(0), rationals))
exponents = st.fractions(min_value=-7, max_value=7, max_denominator=6)
formal_sums = st.dictionaries(
    st.tuples(exponents, st.integers(min_value=0, max_value=6)), complex_rationals, max_size=8
).map(FormalSum)


@st.composite
def eigenvalue_pairs(draw):
    lam = draw(complex_rationals)
    kind = draw(st.sampled_from(("generic", "mu-zero", "lambda-equals-mu")))
    mu = {"generic": draw(complex_rationals), "mu-zero": rc(0), "lambda-equals-mu": lam}[kind]
    return lam, mu


def _same_terms(got, want):
    # equal as dicts, with the keys in the same order
    assert got == want
    assert list(got.terms) == list(want.terms)


@given(formal_sums, eigenvalue_pairs())
@settings(max_examples=120, deadline=None)
def test_tau_formal_matches_the_rational_oracle(s, pair):
    lam, mu = pair
    for _ in range(3):
        got = tau_formal(s, lam, mu)
        _same_terms(got, tau_oracle(s, lam, mu))
        s = got


def test_tau_formal_prunes_and_reinserts_keys_as_the_oracle():
    # tau(phi L^b) feeds phi L^0 from b = 0, 1 and 2: the first two cancel,
    # so phi L^0 is pruned and comes back last, after phi L^1 and phi L^2
    c0, c1 = -(LAM + MU), LAM  # c0 lam + c1 (lam + mu) = 0
    s = FormalSum({(1, 0): c0, (1, 1): c1, (1, 2): rc(1)})
    got = tau_formal(s, LAM, MU)
    _same_terms(got, tau_oracle(s, LAM, MU))
    assert list(got.terms) == [(1, 1), (1, 2), (1, 0)]
    assert got.terms[(1, 0)] == MU * 2


def test_tau_formal_matches_the_oracle_on_phi_p():
    pairs = [expected_eigenvalues(SymmetricSpaceSpec(f, n)) for f in SPACE_FAMILIES for n in range(2, 7)]
    pairs += [(rc(1), rc(0)), (rc(1), rc(1)), (rc(Fraction(2, 3), Fraction(-1, 5)), rc(Fraction(7, 4), 3))]
    for lam, mu in pairs[:-1]:
        for p in range(1, 9):
            s = build_phi_p(p, lam, mu)
            for _ in range(p):
                got = tau_formal(s, lam, mu)
                _same_terms(got, tau_oracle(s, lam, mu))
                s = got
            assert s.is_zero(), (lam, mu, p)
    # complex eigenvalues: exponent_for rejects the ratio, so build the sum by hand
    lam, mu = pairs[-1]
    s = FormalSum.term(rc(1, 2), Fraction(-5, 3), 4) + FormalSum.term(rc(Fraction(1, 7)), 0, 3)
    for _ in range(5):
        got = tau_formal(s, lam, mu)
        _same_terms(got, tau_oracle(s, lam, mu))
        s = got


def test_phi_p_certificate_makes_no_rational_complex_arithmetic(monkeypatch):
    # tau_formal runs on Gaussian-integer numerators: the p = 8 certificate
    # of SU(12)/Sp(6) makes no RationalComplex product or sum
    lam, mu = expected_eigenvalues(SymmetricSpaceSpec(SU2N_SPN, 6))
    s = build_phi_p(8, lam, mu)
    calls = {"mul": 0, "add": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for dunder, name in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"), ("__radd__", "add")):
        monkeypatch.setattr(RationalComplex, dunder, counted(name, getattr(RationalComplex, dunder)))
    iterates = [s]
    for _ in range(8):
        iterates.append(tau_formal(iterates[-1], lam, mu))
    monkeypatch.undo()
    assert calls == {"mul": 0, "add": 0}
    assert iterates[8].is_zero() and not iterates[7].is_zero()
    # the counter sees the oracle's arithmetic
    monkeypatch.setattr(RationalComplex, "__mul__", counted("mul", RationalComplex.__mul__))
    tau_oracle(s, lam, mu)
    monkeypatch.undo()
    assert calls["mul"] > 0


# --- construction ----------------------------------------------------------------


def test_phi_p_case3_at_p1():
    out = build_phi_p(1, LAM, MU)
    assert out == FormalSum.term(1, Fraction(-3, 2), 0) + FormalSum.term(1, 0, 0)


def test_phi_p_case1_log():
    out = build_phi_p(2, rc(1), rc(0))
    assert out == FormalSum.term(1, 0, 1)


def test_phi_p_case2_cubed_log():
    out = build_phi_p(2, rc(1), rc(1), c1=1, c2=0)
    assert out == FormalSum.term(1, 0, 3)


def test_phi_p_rejects_double_zero():
    with pytest.raises(ValueError):
        build_phi_p(2, rc(0), rc(0))


# --- certificates -----------------------------------------------------------------


def test_all_catalog_families_properly_p_harmonic():
    for family in SPACE_FAMILIES:
        for n in range(2, 6):
            lam, mu = expected_eigenvalues(SymmetricSpaceSpec(family, n))
            for p in range(1, 7):
                cert = verify_p_harmonic(build_phi_p(p, lam, mu), lam, mu, p)
                assert cert.null_at_p and cert.nonzero_at_p_minus_1, (family, n, p)


def test_synthetic_degenerate_cases():
    for lam, mu in ((rc(1), rc(0)), (rc(2), rc(2))):
        for p in range(1, 7):
            cert = verify_p_harmonic(build_phi_p(p, lam, mu), lam, mu, p)
            assert cert.proper, (lam, mu, p)


def test_phi_itself_never_p_harmonic():
    s = FormalSum.term(1, 1, 0)
    for p in (1, 2, 3):
        cert = verify_p_harmonic(s, LAM, MU, p)
        assert not cert.null_at_p


def test_constant_is_one_harmonic():
    cert = verify_p_harmonic(FormalSum.term(5, 0, 0), LAM, MU, 1)
    assert cert.null_at_p and cert.nonzero_at_p_minus_1


# --- evaluation --------------------------------------------------------------------


def test_evaluate_simple():
    s = FormalSum.term(1, 1, 0) + FormalSum.term(1, 0, 0)
    assert evaluate_formal(s, 2.0 + 0j) == pytest.approx(3.0)
    assert evaluate_formal(FormalSum.term(1, 0, 1), complex(np.e)) == pytest.approx(1.0)


def test_evaluate_rejects_zero():
    with pytest.raises(ValueError):
        evaluate_formal(FormalSum.term(1, 1, 0), 0j)


def test_log_domain_cut_is_relative_to_re_phi():
    # |Re phi| >> 1: an Im phi of 1e-8 is rounding noise of a value near the
    # cut, which an absolute 1e-12 test would have admitted
    assert not log_domain_ok(complex(-1e6, 1e-8))
    assert log_domain_ok(complex(-1e6, 1e-5))
    assert not log_domain_ok(complex(-0.5, 1e-13))
    assert log_domain_ok(complex(-0.5, 1e-11))
    assert log_domain_ok(complex(1e6, 0.0))
    assert not log_domain_ok(complex(1e-11, 0.0))


def test_evaluate_jet_matches_scalar_on_base():
    s = build_phi_p(2, LAM, MU)
    w = JetScalar(1, np.array([1.7 - 0.4j, 0.3 + 0.1j, -0.05 + 0j]))
    jet_val = evaluate_formal(s, w)
    assert abs(jet_val.value - evaluate_formal(s, 1.7 - 0.4j)) < 1e-12


def test_evaluate_jet_keeps_clongdouble_coefficients():
    # a rational coefficient is formed in the jet's real dtype: rounded
    # through complex128, 1/3 would be off by 512 longdouble eps
    w = JetScalar(1, np.array([1.7 - 0.4j, 0.3 + 0.1j, -0.05 + 0j], dtype=np.clongdouble))
    term = FormalSum.term(1, Fraction(1, 2), 1)
    third = FormalSum.term(Fraction(1, 3), Fraction(1, 2), 1)
    got, ref = evaluate_formal(third, w).c, np.longdouble(1) / 3 * evaluate_formal(term, w).c
    assert got.dtype == np.clongdouble
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4 * np.finfo(np.longdouble).eps


def test_numeric_consistency_with_diffops():
    # phi^r is again an eigenfunction, with rational eigenvalues
    # lam_r = r lam + r(r-1) mu and mu_r = r^2 mu: this exercises tau_formal
    # against the jet machinery across many rational eigenvalue pairs
    rng = np.random.default_rng(42)
    space = SymmetricSpaceSpec(SUN_SON, 3)
    spec = random_parameters(space, rng)
    f = build_eigenfunction(spec)
    lam, mu = expected_eigenvalues(spec)
    b = basis_g(space.group_spec())
    for r in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1)):
        lam_r = rc(r) * lam + rc(r * (r - 1)) * mu
        mu_r = rc(r * r) * mu
        s = FormalSum.term(rc(Fraction(2, 3)), Fraction(1, 2), 1) + FormalSum.term(
            rc(0, 1), Fraction(-1), 0
        )
        t_s = tau_formal(s, lam_r, mu_r)

        def composed(v):
            from lieharm.jets import jet_pow

            w = f.fn(v)
            wr = jet_pow(w, r) if isinstance(w, JetScalar) else complex(w) ** float(r)
            return evaluate_formal(s, wr)

        h = GroupFunction(composed, left=f.left)
        done = 0
        while done < 10:
            x = sample(space.group_spec(), rng, 0.5)
            phi = complex(f(x))
            if abs(phi) < 0.2 or (phi.real <= 0 and abs(phi.imag) < 1e-12):
                continue
            done += 1
            wr = phi ** float(r)
            numeric = complex(tau(h, x, b))
            symbolic = complex(evaluate_formal(t_s, wr))
            assert abs(numeric - symbolic) <= 1e-7 * max(1.0, abs(symbolic))


# --- serialization -------------------------------------------------------------------


def test_serialize_stable_form():
    s = build_phi_p(2, LAM, MU)
    assert s.serialize() == "1 * phi^(0) * log^1 + 1 * phi^(-3/2) * log^1"
    assert FormalSum.zero().serialize() == "0"


def test_canonical_pruning():
    s = FormalSum.term(1, 1, 0) + FormalSum.term(-1, 1, 0)
    assert s.is_zero()
    assert s == FormalSum.zero()


def test_footprint_assertions_hold_under_iteration():
    s = build_phi_p(3, LAM, MU)
    cert = verify_p_harmonic(s, LAM, MU, 3)
    assert cert.proper
    assert cert.witness.a_support() <= {Fraction(0), Fraction(-3, 2)}
    assert cert.witness.max_b() <= 2 * 3 - 1
