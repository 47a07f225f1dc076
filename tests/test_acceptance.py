"""Acceptance suite: every verification claim at its stated tolerance.

Each criterion prints one pass/fail line (visible with -s, and echoed on
failure).  Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from lieharm.diffops import GroupFunction, tau, tau_iterated
from lieharm.eigenfamilies import (
    EigenfunctionSpec,
    build_eigenfunction,
    expected_eigenvalues,
    kappa_defect_nonisotropic,
    random_parameters,
    verify_eigen,
    verify_sampled,
)
from lieharm.formal import build_phi_p, evaluate_formal, tau_formal, verify_p_harmonic
from lieharm.harness import RunConfig, run, strip_timing, substream
from lieharm.identities import (
    check_coordinate_identities,
    check_generator_sums,
    check_kappa_basis_decomposition,
    check_skew_lemma,
)
from lieharm.lie import (
    GroupSpec,
    SO,
    SO2N_UN,
    SP,
    SPACE_FAMILIES,
    SPN_UN,
    SU,
    SU2N_SPN,
    SUN_SON,
    SymmetricSpaceSpec,
    basis_g,
    sample_with_coefficients,
)

SEED = 42


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def eigen_results():
    """Shared workload for criteria 1 and 2: every family, n = 2, 3, 4,
    3 parameter draws, 50 seeded sample points each."""
    t0 = time.perf_counter()
    results = {}
    for family in SPACE_FAMILIES:
        for n in (2, 3, 4):
            space = SymmetricSpaceSpec(family, n)
            for draw in range(3):
                rng = substream(SEED, "acceptance-eigen", family, n, draw)
                spec = random_parameters(space, rng)
                results[(family, n, draw)] = verify_eigen(spec, samples=50, tol=1e-8, rng=rng, sigma=0.5)
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_01_eigen_equations(eigen_results):
    results, elapsed = eigen_results
    named = {
        (SUN_SON, 3): (Fraction(-20, 3), Fraction(-8, 3)),
        (SPN_UN, 2): (Fraction(-6), Fraction(-2)),
        (SO2N_UN, 3): (Fraction(-4), Fraction(-1)),
        (SU2N_SPN, 2): (Fraction(-5), Fraction(-1)),
    }
    for (family, n), (lam, mu) in named.items():
        got = expected_eigenvalues(SymmetricSpaceSpec(family, n))
        assert got == (lam, mu) and all(type(v) is Fraction for v in got)
    worst_tau = max(v.worst("tau") for v in results.values())
    worst_kappa = max(v.worst("kappa") for v in results.values())
    ok = (
        all(v.passed for v in results.values())
        and worst_tau <= 1e-8
        and worst_kappa <= 1e-8
        and elapsed <= 120.0
    )
    _report(
        1,
        ok,
        f"tau residual {worst_tau:.2e}, kappa residual {worst_kappa:.2e} "
        f"(tol 1e-8) over {len(results)} runs in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_02_k_invariance(eigen_results):
    results, _ = eigen_results
    worst = max(v.worst("kinv") for v in results.values())
    _report(2, worst <= 1e-10, f"|phi(xk) - phi(x)| max {worst:.2e} (tol 1e-10)")


def test_criterion_03_exact_p_harmonicity():
    t0 = time.perf_counter()
    count = 0
    for family in SPACE_FAMILIES:
        for n in range(2, 6):
            lam, mu = expected_eigenvalues(SymmetricSpaceSpec(family, n))
            for p in range(1, 7):
                cert = verify_p_harmonic(build_phi_p(p, lam, mu), lam, mu, p)
                assert cert.null_at_p and cert.nonzero_at_p_minus_1, (family, n, p)
                count += 1
    assert count == 96
    synth = 0
    for lam, mu in ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))):
        for p in range(1, 7):
            cert = verify_p_harmonic(build_phi_p(p, lam, mu), lam, mu, p)
            assert cert.proper, (lam, mu, p)
            synth += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 10.0
    _report(3, ok, f"{count} exact certificates + {synth} synthetic in {elapsed:.2f}s (limit 10s)")


def test_criterion_04_symbolic_numeric_crosscheck():
    t0 = time.perf_counter()
    worst_abs = worst_rel = 0.0
    for family, n in ((SUN_SON, 3), (SPN_UN, 2)):
        space = SymmetricSpaceSpec(family, n)
        rng = substream(SEED, "acceptance-crosscheck", family, n)
        spec = random_parameters(space, rng)
        f = build_eigenfunction(spec)
        lam, mu = expected_eigenvalues(spec)
        phi2 = build_phi_p(2, lam, mu)
        tau1_formal = tau_formal(phi2, lam, mu)
        g_spec = space.group_spec()
        b = basis_g(g_spec)
        h = GroupFunction(lambda v, f=f, phi2=phi2: evaluate_formal(phi2, f.fn(v)), left=f.left)
        done = 0
        while done < 10:
            x, _ = sample_with_coefficients(g_spec, rng, 0.5)
            phi = complex(f(x))
            if abs(phi) < 1e-10 or (phi.real <= 0 and abs(phi.imag) <= 1e-12):
                continue
            done += 1
            worst_abs = max(worst_abs, abs(complex(tau_iterated(h, x, b, 2))))
            t1_num = complex(tau(h, x, b))
            t1_sym = complex(evaluate_formal(tau1_formal, phi))
            worst_rel = max(worst_rel, abs(t1_num - t1_sym) / max(1.0, abs(t1_sym)))
    elapsed = time.perf_counter() - t0
    ok = worst_abs <= 1e-6 and worst_rel <= 1e-7 and elapsed <= 60.0
    _report(
        4,
        ok,
        f"nested tau^2 {worst_abs:.2e} (tol 1e-6), formal-vs-jet tau {worst_rel:.2e} "
        f"(rel tol 1e-7) in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_05_coordinate_identities():
    worst = 0.0
    for family, n in ((SO, 3), (SO, 4), (SU, 2), (SU, 3), (SP, 2), (SP, 3)):
        rng = substream(SEED, "acceptance-coordinates", family, n)
        results = check_coordinate_identities(
            GroupSpec(family, n), samples=20, tol=1e-9, rng=rng
        )
        expected_tuples = GroupSpec(family, n).matrix_size ** 4 if n <= 3 else 50
        for r in results:
            assert r.params["tuples"] == expected_tuples
            assert r.passed, (r.name, r.max_residual)
            worst = max(worst, r.max_residual)
    _report(5, worst <= 1e-9, f"coordinate tau/kappa residual {worst:.2e} (tol 1e-9)")


def test_criterion_06_exact_generator_sums_and_decomposition():
    t0 = time.perf_counter()
    rng = substream(SEED, "acceptance-exact")
    for n in range(2, 7):
        for r in check_generator_sums(n):
            assert r.exact and r.passed and r.max_residual == 0.0, (r.name, n)
        for r in check_kappa_basis_decomposition(n, samples=0, tol=1e-9, rng=rng):
            assert r.exact and r.passed and r.max_residual == 0.0, (r.name, n)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 5.0
    _report(6, ok, f"exact residual identically zero, n=2..6, in {elapsed:.2f}s (limit 5s)")


def test_criterion_07_skew_lemma():
    rng = substream(SEED, "acceptance-skew")
    main, control = check_skew_lemma(1000, 6, rng)
    ok = main.passed and main.max_residual <= 1e-12 and control.params["hit_rate"] >= 0.9
    _report(
        7,
        ok,
        f"1000 coincident-index draws at 1e-12; negative-control hit rate "
        f"{control.params['hit_rate']:.3f} (need >= 0.9)",
    )


def test_criterion_08_negative_controls():
    rng = substream(SEED, "acceptance-defect")
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    s2 = complex(np.sum(a * a))
    measured, predicted = kappa_defect_nonisotropic(
        SymmetricSpaceSpec(SO2N_UN, 2), a, (1, 2, 3), rng
    )
    defect_matches = abs(measured - 2 * s2) <= 1e-9
    doubled_rejected = abs(measured - 4 * s2) > 0.1
    spec = EigenfunctionSpec(SymmetricSpaceSpec(SU2N_SPN, 2), a, (1, 2, 3))
    passes_without_isotropy = verify_eigen(spec, samples=10, tol=1e-8, rng=rng).passed
    ok = defect_matches and doubled_rejected and passes_without_isotropy
    _report(
        8,
        ok,
        f"kappa defect {measured:.6f} = 2(a1^2+a2^2+a3^2) to 1e-9 "
        f"(4x constant rejected); same a passes on SU(2n)/Sp(n)",
    )


def test_criterion_09_duality():
    t0 = time.perf_counter()
    worst_tau = worst_kappa = worst_tau2 = 0.0
    for n in (2, 3):
        space = SymmetricSpaceSpec(SUN_SON, n)
        rng = substream(SEED, "acceptance-dual", n)
        spec = random_parameters(space, rng)
        v = verify_sampled(spec, 2, samples=20, tol=1e-7, rng=rng, dual=True, sigma=0.2, tau2_tol=1e-5)
        assert v.passed, (n, v)
        worst_tau = max(worst_tau, v.worst("tau"))
        worst_kappa = max(worst_kappa, v.worst("kappa"))
        worst_tau2 = max(worst_tau2, v.worst("tau2_abs"))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_tau <= 1e-7 and worst_kappa <= 1e-7 and worst_tau2 <= 1e-5
        and elapsed <= 60.0
    )
    _report(
        9,
        ok,
        f"dual tau {worst_tau:.2e}, kappa {worst_kappa:.2e} (tol 1e-7, signs flipped); "
        f"dual Phi2 tau^2 {worst_tau2:.2e} (tol 1e-5) in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_10_determinism():
    cfg = dict(
        suites=("pharmonic", "identities", "crosscheck"),
        spaces=((SUN_SON, 2), (SPN_UN, 2)),
        p_max=3,
        seed=42,
        suite_overrides={"identities": {"samples": 5}, "crosscheck": {"samples": 3}},
    )
    r1 = run(RunConfig(**cfg)).to_dict()
    r2 = run(RunConfig(**cfg)).to_dict()
    same = strip_timing(r1) == strip_timing(r2)
    timestamps_present = "timestamp" in r1 and "timestamp" in r2
    _report(
        10,
        same and timestamps_present,
        "two seed-42 runs identical except timestamp and wall times",
    )
