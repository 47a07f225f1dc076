"""Formal phi^a (log phi)^b algebra: exact tau action, the three-case
construction, p-harmonicity certificates, evaluation and serialization."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lieharm.diffops import GroupFunction, tau
from lieharm.eigenfamilies import build_eigenfunction, expected_eigenvalues, random_parameters
from lieharm import formal
from lieharm.exact import RationalComplex
from lieharm.formal import (
    FormalSum,
    _principal_pow,
    build_phi_p,
    evaluate_formal,
    exponent_for,
    log_domain_ok,
    tau_formal,
    verify_p_harmonic,
)
from lieharm.jets import JetScalar
from lieharm.lie import SPACE_FAMILIES, SU2N_SPN, SUN_SON, SymmetricSpaceSpec, basis_g, sample

from dense_jets import coefficients, from_coefficients

LAM = Fraction(-20, 3)
MU = Fraction(-8, 3)


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
    for lam in (1j, 2 + 0j, RationalComplex(0, 1), RationalComplex(2)):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            exponent_for(lam, 2)


def test_exponent_is_one_minus_the_ratio_in_lowest_terms():
    lam, mu = Fraction(-7, 3), Fraction(-5, 6)
    sums = [build_phi_p(p, lam, mu) for p in range(1, 9)]
    assert {a for s in sums for a in s.a_support()} == {(0, 1), (-9, 5)}
    # equal values given another way, ints and numpy integers among them
    assert exponent_for(Fraction(-14, 6), Fraction(-10, 12)) == Fraction(-9, 5)
    assert exponent_for(np.int64(-4), -2) == -1 and exponent_for(6, 4) == Fraction(-1, 2)


@pytest.mark.parametrize(
    "bad", [0.1, np.float64(0.5), 1.0, 1j, np.complex128(1), RationalComplex(1), RationalComplex(0, 1)]
)
def test_the_exact_api_rejects_inexact_and_complex_values(bad):
    # a float would enter as its binary fraction: build_phi_p(2, 0.1, 0.3)
    # had an exponent over 10808639105689190 and was certified proper
    calls = [
        lambda: build_phi_p(2, bad, Fraction(3, 10)),
        lambda: build_phi_p(2, Fraction(1, 10), bad),
        lambda: build_phi_p(2, LAM, MU, c1=bad),
        lambda: build_phi_p(2, LAM, MU, c2=bad),
        lambda: verify_p_harmonic(build_phi_p(2, LAM, MU), bad, MU, 2),
        lambda: verify_p_harmonic(build_phi_p(2, LAM, MU), LAM, bad, 2),
        lambda: tau_formal(FormalSum.term(1, 0, 1), bad, MU),
        lambda: tau_formal(FormalSum.term(1, 0, 1), LAM, bad),
        lambda: exponent_for(LAM, bad),
        lambda: FormalSum.term(bad),
        lambda: FormalSum.term(1, bad),
        lambda: FormalSum({(0, 1, 0): bad}),
        lambda: FormalSum.term(1).scale(bad),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=r"expected an int or a Fraction, got .+") as info:
            call()
        assert repr(bad) in str(info.value)


def test_a_fraction_of_numpy_integers_is_rebuilt_from_python_ints():
    # Fraction(np.int64(...), 3) keeps np.int64 parts, whose products wrap at
    # 64 bits: scale(4) wrapped to the empty sum and RationalComplex mixed
    # up the denominators
    big = Fraction(np.int64(2**62), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = FormalSum.term(big).scale(4)
        assert scaled == FormalSum.term(Fraction(2**64, 3))
        assert RationalComplex(big, Fraction(1, 5)).re == Fraction(2**62, 3)
    (coeff,) = scaled.terms.values()
    assert type(coeff.numerator) is int and type(coeff.denominator) is int
    (key,) = FormalSum.term(1, Fraction(np.int64(-9), np.int64(5))).terms
    assert key == (-9, 5, 0) and all(type(k) is int for k in key)


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
@settings(max_examples=80)
def test_tau_formal_linear(lam, mu, b, a):
    s = FormalSum.term(2, a, b) + FormalSum.term(Fraction(1, 3), 0, b)
    t = FormalSum.term(Fraction(-9, 4), a, 0)
    alpha, beta = Fraction(5, 7), -3
    lhs = tau_formal(s.scale(alpha) + t.scale(beta), lam, mu)
    rhs = tau_formal(s, lam, mu).scale(alpha) + tau_formal(t, lam, mu).scale(beta)
    assert lhs == rhs


def tau_oracle(s, lam, mu):
    """The three-term chain rule in Fraction arithmetic, term by term:
    tau(phi^a L^b) = [lam a + mu a(a-1)] phi^a L^b + [lam b + mu b(2a-1)] phi^a L^(b-1)
                     + mu b(b-1) phi^a L^(b-2)."""
    out = {}

    def accumulate(key, coeff):
        new = out.get(key, Fraction(0)) + coeff
        if not new:
            out.pop(key, None)
        else:
            out[key] = new

    for (p, q, b), c in s.terms.items():
        a = Fraction(p, q)
        accumulate((p, q, b), c * (lam * a + mu * a * (a - 1)))
        if b >= 1:
            accumulate((p, q, b - 1), c * (lam * b + mu * b * (2 * a - 1)))
        if b >= 2:
            accumulate((p, q, b - 2), c * mu * (b * (b - 1)))
    return FormalSum(out)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=15)
exponents = st.fractions(min_value=-7, max_value=7, max_denominator=6)
formal_sums = st.dictionaries(
    st.tuples(exponents, st.integers(min_value=0, max_value=6)), rationals, max_size=8
).map(lambda terms: FormalSum({(a.numerator, a.denominator, b): c for (a, b), c in terms.items()}))


@st.composite
def eigenvalue_pairs(draw):
    lam = draw(rationals)
    kind = draw(st.sampled_from(("generic", "mu-zero", "lambda-equals-mu")))
    mu = {"generic": draw(rationals), "mu-zero": Fraction(0), "lambda-equals-mu": lam}[kind]
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
    s = FormalSum({(1, 1, 0): c0, (1, 1, 1): c1, (1, 1, 2): 1})
    got = tau_formal(s, LAM, MU)
    _same_terms(got, tau_oracle(s, LAM, MU))
    assert list(got.terms) == [(1, 1, 1), (1, 1, 2), (1, 1, 0)]
    assert got.terms[(1, 1, 0)] == MU * 2


def test_tau_formal_matches_the_oracle_on_phi_p():
    pairs = [expected_eigenvalues(SymmetricSpaceSpec(f, n)) for f in SPACE_FAMILIES for n in range(2, 7)]
    pairs += [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    for lam, mu in pairs:
        for p in range(1, 9):
            s = build_phi_p(p, lam, mu)
            for _ in range(p):
                got = tau_formal(s, lam, mu)
                _same_terms(got, tau_oracle(s, lam, mu))
                s = got
            assert s.is_zero(), (lam, mu, p)
    # a sum off the Phi_p family, with log degree 4 and two phi exponents
    lam, mu = Fraction(2, 3), Fraction(7, 4)
    s = FormalSum.term(Fraction(1, 2), Fraction(-5, 3), 4) + FormalSum.term(Fraction(1, 7), 0, 3)
    for _ in range(5):
        got = tau_formal(s, lam, mu)
        _same_terms(got, tau_oracle(s, lam, mu))
        s = got


@pytest.mark.parametrize("doubled", [0, 1, 2], ids=["keep", "down1", "down2"])
def test_each_coefficient_of_the_integer_map_is_pinned(monkeypatch, doubled):
    # Phi_3 of SU(3)/SO(3) has log degree 2, so down1 and down2 reach it;
    # keep vanishes on both of its blocks (that is what makes Phi_p
    # p-harmonic), so phi L^2 joins it.  Doubling any one coefficient of
    # the cached integer map moves tau_formal off the Fraction oracle.
    lam, mu = expected_eigenvalues(SymmetricSpaceSpec(SUN_SON, 3))
    phi3 = build_phi_p(3, lam, mu)
    eig = formal._scaled_eigenvalues(lam, mu)
    assert phi3.max_b() == 2 and [formal._tau_map(p, q, eig)[0] for p, q in phi3.a_support()] == [0, 0]
    s = phi3 + FormalSum.term(1, 1, 2)
    _same_terms(tau_formal(s, lam, mu), tau_oracle(s, lam, mu))
    tau_map = formal._tau_map

    def faulty(*args):
        out = list(tau_map(*args))
        out[doubled] *= 2
        return tuple(out)

    monkeypatch.setattr(formal, "_tau_map", faulty)
    assert tau_formal(s, lam, mu) != tau_oracle(s, lam, mu)


def test_phi_p_certificate_makes_no_fraction_arithmetic(monkeypatch):
    # tau_formal runs on integer numerators: the p = 8 certificate of
    # SU(12)/Sp(6) makes no Fraction product or sum
    lam, mu = expected_eigenvalues(SymmetricSpaceSpec(SU2N_SPN, 6))
    s = build_phi_p(8, lam, mu)
    calls = {"mul": 0, "add": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for dunder, name in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"), ("__radd__", "add")):
        monkeypatch.setattr(Fraction, dunder, counted(name, getattr(Fraction, dunder)))
    iterates = [s]
    for _ in range(8):
        iterates.append(tau_formal(iterates[-1], lam, mu))
    monkeypatch.undo()
    assert calls == {"mul": 0, "add": 0}
    assert iterates[8].is_zero() and not iterates[7].is_zero()
    # the counter sees the oracle's arithmetic
    monkeypatch.setattr(Fraction, "__mul__", counted("mul", Fraction.__mul__))
    tau_oracle(s, lam, mu)
    monkeypatch.undo()
    assert calls["mul"] > 0


def test_phi_p_certificate_hashes_no_fraction(monkeypatch):
    # keys are integer triples (p, q, b): building Phi_8 of SU(12)/Sp(6) and
    # certifying it hash no Fraction, neither as a key nor in a footprint set
    lam, mu = expected_eigenvalues(SymmetricSpaceSpec(SU2N_SPN, 6))
    calls = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    cert = verify_p_harmonic(build_phi_p(8, lam, mu), lam, mu, 8)
    assert cert.proper and cert.numeric_witness > 1e-10
    assert calls == []
    hash(Fraction(1, 3))  # the counter sees a hash
    assert len(calls) == 1


def test_formal_sum_keys_are_reduced_integer_triples():
    s = FormalSum.term(2, Fraction(6, -4), 3) + FormalSum.term(1, 2, 0)
    assert list(s.terms) == [(-3, 2, 3), (2, 1, 0)]
    assert FormalSum({(-3, 2, 3): 2, (0, 1, 1): 0}) == FormalSum.term(2, Fraction(-3, 2), 3)
    for bad in ((1, 0, 0), (3, -2, 0), (2, 4, 0), (0, 2, 0), (1, 1, -1)):
        with pytest.raises(ValueError, match="term key"):
            FormalSum({bad: 1})


def test_principal_power_is_bitwise_the_fraction_route():
    for p, q in ((1, 2), (-3, 2), (-9, 5), (7, 3), (-1, 1)):
        for w in (2.0 + 0j, 0.3 - 1.7j, -5.5 + 1e-3j):
            want = complex(np.exp(float(Fraction(p, q)) * np.log(w)))
            assert _principal_pow(w, p, q) == want


# --- construction ----------------------------------------------------------------


def test_phi_p_case3_at_p1():
    out = build_phi_p(1, LAM, MU)
    assert out == FormalSum.term(1, Fraction(-3, 2), 0) + FormalSum.term(1, 0, 0)


def test_phi_p_case1_log():
    out = build_phi_p(2, 1, 0)
    assert out == FormalSum.term(1, 0, 1)


def test_phi_p_case2_cubed_log():
    out = build_phi_p(2, 1, 1, c1=1, c2=0)
    assert out == FormalSum.term(1, 0, 3)


def test_phi_p_rejects_double_zero():
    with pytest.raises(ValueError):
        build_phi_p(2, 0, 0)


# --- certificates -----------------------------------------------------------------


def test_all_catalog_families_properly_p_harmonic():
    for family in SPACE_FAMILIES:
        for n in range(2, 6):
            lam, mu = expected_eigenvalues(SymmetricSpaceSpec(family, n))
            for p in range(1, 7):
                cert = verify_p_harmonic(build_phi_p(p, lam, mu), lam, mu, p)
                assert cert.null_at_p and cert.nonzero_at_p_minus_1, (family, n, p)


def test_synthetic_degenerate_cases():
    for lam, mu in ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(2))):
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
    # a jet whose base value is 0 at one point of its batch
    c = np.ones((3, 3, 2), dtype=complex)
    c[0, 0, 1] = 0
    for s in (FormalSum.term(1, 1, 0), FormalSum.term(1, 0, 1), FormalSum.term(1, Fraction(1, 2), 0)):
        with pytest.raises(ValueError):
            evaluate_formal(s, from_coefficients(2, c))


def _product_jet(c):
    """w = c (1 + s)(1 + t): a jet in 2 variables with c at [0, 0], [1, 0],
    [0, 1] and [1, 1], whose u = s + t + s t reaches total degree 4 in u^4."""
    out = np.zeros((3, 3), dtype=np.result_type(c, np.complex128))
    out[0, 0] = out[1, 0] = out[0, 1] = out[1, 1] = c
    return from_coefficients(2, out)


def _binomial(a, j):
    out = Fraction(1)
    for i in range(j):
        out *= (a - i) / Fraction(i + 1)
    return out


@pytest.mark.parametrize("c", [2.0 + 0j, 1.7 - 0.4j, -0.3 + 2.1j])
def test_two_variable_log_and_pow_reach_degree_four(c):
    # log w = log c + log(1 + s) + log(1 + t) and w^a = c^a (1 + s)^a (1 + t)^a
    # exactly; the s^2 t^2 coefficient of either cancels only with the u^4
    # term of the series, so a series cut at degree 2k - 1 = 3 fails here.
    # A coefficient of u^m enters each coefficient of w's series at most 6
    # times (u^4 -> s^2 t^2: 4! / (2! 2!)), which bounds the rounding.
    eps = np.finfo(float).eps
    w = _product_jet(c)
    log_w = evaluate_formal(FormalSum.term(1, 0, 1), w)
    want = np.zeros((3, 3), dtype=complex)
    want[0, 0] = np.log(c)
    want[1, 0] = want[0, 1] = 1
    want[2, 0] = want[0, 2] = -0.5
    scale = abs(np.log(c)) + 6 * sum(1 / m for m in range(1, 5))
    assert np.max(np.abs(coefficients(log_w) - want)) <= 8 * eps * scale
    for a in (Fraction(1, 3), Fraction(-3, 2), Fraction(2)):
        got = evaluate_formal(FormalSum.term(1, a, 0), w)
        c_a = np.exp(float(a) * np.log(c))
        want = np.array([[c_a * float(_binomial(a, i) * _binomial(a, j)) for j in range(3)] for i in range(3)])
        scale = 6 * abs(c_a) * sum(abs(_binomial(a, m)) for m in range(5))
        assert np.max(np.abs(coefficients(got) - want)) <= 8 * eps * float(scale), a


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
    w = from_coefficients(1, np.array([1.7 - 0.4j, 0.3 + 0.1j, -0.05 + 0j]))
    jet_val = evaluate_formal(s, w)
    assert abs(jet_val.value - evaluate_formal(s, 1.7 - 0.4j)) < 1e-12


def test_evaluate_jet_keeps_clongdouble_coefficients():
    # a rational coefficient is formed in the jet's real dtype: rounded
    # through complex128, 1/3 would be off by 512 longdouble eps
    w = from_coefficients(1, np.array([1.7 - 0.4j, 0.3 + 0.1j, -0.05 + 0j], dtype=np.clongdouble))
    term = FormalSum.term(1, Fraction(1, 2), 1)
    third = FormalSum.term(Fraction(1, 3), Fraction(1, 2), 1)
    got = coefficients(evaluate_formal(third, w))
    ref = np.longdouble(1) / 3 * coefficients(evaluate_formal(term, w))
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
        lam_r = r * lam + r * (r - 1) * mu
        mu_r = r * r * mu
        s = FormalSum.term(Fraction(2, 3), Fraction(1, 2), 1) + FormalSum.term(Fraction(-5, 4), Fraction(-1), 0)
        t_s = tau_formal(s, lam_r, mu_r)

        def composed(v):
            w = f.fn(v)
            wr = evaluate_formal(FormalSum.term(1, r), w) if isinstance(w, JetScalar) else complex(w) ** float(r)
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


def test_serialize_prints_each_coefficient_as_before():
    # the text of the tau2_formal param: str of each Fraction, never its repr
    # Fraction(-3, 2); both strings are the output of the RationalComplex form
    s = FormalSum({(-3, 2, 3): Fraction(-3, 2), (0, 1, 1): 2, (1, 1, 0): Fraction(5, 7), (2, 1, 2): -4,
                   (1, 3, 0): Fraction(22, 6)})
    text = ("-4 * phi^(2) * log^2 + 5/7 * phi^(1) * log^0 + 11/3 * phi^(1/3) * log^0"
            " + 2 * phi^(0) * log^1 + -3/2 * phi^(-3/2) * log^3")
    assert s.serialize() == text and repr(s) == f"FormalSum({text})"
    tau_phi3 = tau_formal(build_phi_p(3, LAM, MU), LAM, MU)
    assert tau_phi3.serialize() == (
        "-8 * phi^(0) * log^1 + -16/3 * phi^(0) * log^0 + 8 * phi^(-3/2) * log^1 + -16/3 * phi^(-3/2) * log^0"
    )


def test_canonical_pruning():
    s = FormalSum.term(1, 1, 0) + FormalSum.term(-1, 1, 0)
    assert s.is_zero()
    assert s == FormalSum.zero()


def test_footprint_assertions_hold_under_iteration():
    s = build_phi_p(3, LAM, MU)
    cert = verify_p_harmonic(s, LAM, MU, 3)
    assert cert.proper
    assert cert.witness.a_support() <= {(0, 1), (-3, 2)}
    assert cert.witness.max_b() <= 2 * 3 - 1
