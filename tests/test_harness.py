"""Harness and CLI: configuration, seeding, reports, exit codes, replay."""

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lieharm
from lieharm import harness
from lieharm.cli import build_config, main, make_parser
from lieharm.harness import (
    SAMPLED_ORDERS,
    CheckRecord,
    ConfigError,
    RunConfig,
    SUITES,
    VerificationReport,
    identities_suite,
    replay_record,
    report_fingerprint,
    report_write,
    run,
    strip_timing,
    substream,
)
from lieharm.diffops import GroupFunction, tau_and_kappa
from lieharm.eigenfamilies import build_eigenfunction, expected_eigenvalues, random_parameters, sampled_evaluator
from lieharm.identities import SPACE_FREE_IDENTITY_NAMES
from lieharm.lie import (
    SO2N_UN,
    SPN_UN,
    SU2N_SPN,
    SUN_SON,
    SymmetricSpaceSpec,
    basis_g,
    cartan_decomposition,
    pade_exp,
    rebuild_sample,
    sample_with_coefficients,
)

from dense_jets import times_on_the_right


# --- seeding -----------------------------------------------------------------


def test_substream_deterministic_and_keyed():
    a1 = substream(42, "eigen", "sun_son", 3, 0).standard_normal(4)
    a2 = substream(42, "eigen", "sun_son", 3, 0).standard_normal(4)
    b = substream(42, "eigen", "sun_son", 3, 1).standard_normal(4)
    c = substream(43, "eigen", "sun_son", 3, 0).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


# a digest of every method's draws, 20,000 normals among them (about 300 on an edge)
_STREAM_PROBE = """
import hashlib
import numpy as np
from lieharm.harness import substream
rng = substream(7, "probe")
parts = [rng.standard_normal(20000), rng.normal(0.5, 2.0, (30, 7)), rng.integers(-9, 10, 500),
         rng.permuted(np.tile(np.arange(6), (40, 1)), axis=1), rng.choice(50, 10, replace=False)]
print(hashlib.sha256(b"".join(np.asarray(part, dtype="<f8").tobytes() for part in parts)).hexdigest())
"""
_STREAM_DIGEST = "26403df5deec8c6041e6e0660b37e81dfe834111ca6c959be60a77847623ef1b"


def test_substream_golden_draws():
    # the first draws of each method and the ziggurat's tables, pinned: a
    # change to the stream, or a libm that builds other tables, fails here
    assert substream(7, "golden").standard_normal(3).tolist() == [
        -0.15140119182850162, -0.7503147609817189, -0.7811997354231034]
    assert substream(7, "golden").normal(1.0, 2.0, size=2).tolist() == [0.6971976163429967, -0.5006295219634378]
    assert substream(7, "golden").integers(0, 10, size=8).tolist() == [1, 3, 4, 2, 8, 5, 7, 4]
    assert substream(7, "golden").permuted(np.arange(6)).tolist() == [0, 3, 1, 2, 5, 4]
    assert substream(7, "golden").choice(np.arange(1, 9), size=3, replace=False).tolist() == [1, 4, 2]
    tables = np.array(harness._ZIG_X + harness._ZIG_Y, dtype="<f8").tobytes()
    assert hashlib.sha256(tables).hexdigest() == "770b991f71acbe29d5363685386184dd50a074dfa64b3132a3d75b91e77c9e8c"
    assert _python(["-c", _STREAM_PROBE]).strip() == _STREAM_DIGEST


def _sha256_key(seed, *keys) -> int:
    """The substream key by `hashlib`: 64 bits of SHA-256 over 8 bytes per
    part, an integer's low 64 bits or 8 bytes of SHA-256 of the text."""
    parts = [seed.to_bytes(8, "big")]
    for k in keys:
        if isinstance(k, (int, np.integer)):
            parts.append((int(k) % 2**64).to_bytes(8, "big"))
        else:
            parts.append(hashlib.sha256(str(k).encode("utf-8")).digest()[:8])
    return int.from_bytes(hashlib.sha256(b"".join(parts)).digest()[:8], "big")


def test_substream_keys_are_sha256_of_their_parts():
    cases = [(42, ("eigen", "sun_son", 3, 0)), (0, ()), (2**64 - 1, (-1, "\u00fc", 2**70)), (7, (np.int64(5), "probe"))]
    for seed, keys in cases:
        assert substream(seed, *keys)._key == _sha256_key(seed, *keys), (seed, keys)
    # taken with `hashlib` before the harness hashed with CPython's built-in module
    assert substream(42, "eigen", "sun_son", 3, 0)._key == 0xCBBCA0E612248493
    assert substream(2**64 - 1, -1, "\u00fc", 2**70)._key == 0xE3303220739DE749


# a report whose fingerprint hashes one record, a seed and `explicit`, without
# the timestamp, the record's ms and the run-only keys
_FIXED_REPORT = {
    "schema_version": 1,
    "timestamp": "2026-01-01T00:00:00",
    "config": {"seed": 7, "out": "a.json", "jobs": 1, "explicit": ["seed", "out"]},
    "records": [{"name": "eigen/sun_son", "params": {"n": 2}, "residual": 1.5e-12, "pass": True, "ms": 3.25}],
}
_FIXED_CANONICAL = {
    "schema_version": 1,
    "config": {"seed": 7, "explicit": ["seed"]},
    "records": [{"name": "eigen/sun_son", "params": {"n": 2}, "residual": 1.5e-12, "pass": True}],
}
# taken with `hashlib` before the harness hashed with CPython's built-in module
_FIXED_FINGERPRINT = "45a515534a4f614525fc766480b7339db132c44d8399b75783aa0d37240955dd"


def test_report_fingerprint_is_sha256_of_the_canonical_json():
    canonical = json.dumps(_FIXED_CANONICAL, sort_keys=True).encode("utf-8")
    assert report_fingerprint(_FIXED_REPORT) == hashlib.sha256(canonical).hexdigest() == _FIXED_FINGERPRINT


def test_without_a_built_in_sha256_the_hashlib_fallback_gives_the_same_bits():
    # a build without `_sha2` and `_sha256` takes `hashlib.sha256`, OpenSSL's
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from lieharm import harness\n"
        "assert harness.sha256 is hashlib.sha256\n"
        f"print(harness.report_fingerprint({_FIXED_REPORT!r}))\n"
        + _STREAM_PROBE
    )
    assert _python(["-c", code]).split() == [_FIXED_FINGERPRINT, _STREAM_DIGEST]


def _dispatched_cpu_features() -> str:
    """The SIMD targets numpy dispatches to on this host."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 2, or 1.x
    return " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))


@pytest.mark.parametrize("variable", ["NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"])
def test_stream_draws_do_not_depend_on_simd_dispatch_or_blas(variable):
    # np.log and np.exp round otherwise without the host's SIMD loops; the
    # stream's integer arithmetic and `math` calls do not
    value = _dispatched_cpu_features() if variable == "NPY_DISABLE_CPU_FEATURES" else "Sandybridge"
    assert _python(["-c", _STREAM_PROBE], **{variable: value}).strip() == _STREAM_DIGEST


def test_stream_distributions_meet_bounds_fixed_in_advance():
    rng = substream(11, "distribution")
    z = rng.standard_normal(10**6)
    n = len(z)
    # each within 5 standard errors under N(0, 1): var z = 1, var z^2 = 2, var z^4 = 96
    assert abs(z.mean()) < 5 * math.sqrt(1 / n)
    assert abs(z.var() - 1) < 5 * math.sqrt(2 / n)
    assert abs(np.mean(z**4) - 3) < 5 * math.sqrt(96 / n)
    # the share beyond 3, and beyond R, where the ziggurat's tail starts
    for cut in (3.0, harness._ZIG_R):
        share = math.erfc(cut / math.sqrt(2))
        assert abs(np.mean(np.abs(z) > cut) - share) < 5 * math.sqrt(share * (1 - share) / n), cut

    values = rng.integers(-3, 7, size=10**5)
    assert values.min() >= -3 and values.max() < 7
    counts = np.bincount(values + 3)
    assert ((counts - 10**4) ** 2 / 10**4).sum() < 44.81  # the 1 - 1e-6 quantile of chi-square(9)

    rows = rng.permuted(np.tile(np.arange(6), (1000, 1)), axis=1)
    assert (np.sort(rows, axis=1) == np.arange(6)).all()
    for _ in range(200):
        picks = rng.choice(np.arange(1, 9), size=3, replace=False)
        assert len(set(picks.tolist())) == 3 and set(picks.tolist()) <= set(range(1, 9))
    with pytest.raises(NotImplementedError):
        rng.choice(8, size=3)
    with pytest.raises(ValueError):
        rng.choice(8, size=9, replace=False)


def test_a_batch_of_normals_is_that_many_one_row_draws_in_a_row():
    # `verify_sampled` draws a round's rows in one call; an edge try is
    # retried from lanes at its own position, so no split moves a value
    batch = substream(5, "rows").normal(0.0, 0.5, size=(400, 7))
    rng = substream(5, "rows")
    assert np.array_equal(batch, np.array([rng.normal(0.0, 0.5, size=7) for _ in range(400)]))


# --- config validation ----------------------------------------------------------


def test_config_defaults_valid():
    cfg = RunConfig().validate()
    assert cfg.samples == 50 and cfg.tol == 1e-8 and cfg.sigma == 0.5
    assert cfg.p_max == 4 and cfg.seed == 42 and cfg.budget == 10**6


@pytest.mark.parametrize("kwargs", [
    {"suites": ("bogus",)},
    {"spaces": (("nope", 3),)},
    {"spaces": (("sun_son", 1),)},
    {"p_max": 0},
    {"samples": -1},
    {"tol": 0.0},
    {"sigma": -0.5},
    # NaN and infinity pass `value <= 0`: a NaN tol fails every point, an infinite one none
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"sigma": float("nan")},
    {"sigma": float("inf")},
    {"suite_overrides": {"dual": {"tau2_tol": float("nan")}}},
    {"suite_overrides": {"crosscheck": {"tol": float("inf")}}},
    {"budget": 0},
    {"jobs": 0},
    {"jobs": 2},
    {"seed": -1},
    # a float seed ran as its integer part but was echoed, and fingerprinted, as given
    {"seed": 1.9},
    {"seed": True},
    {"budget": 2.5},
    {"p_max": 2.0},
    {"samples": 2.5},
    {"suite_overrides": {"eigen": {"draws": 1.5}}},
    {"suite_overrides": {"dual": {"samples": False}}},
])
def test_config_rejections(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs).validate()


def test_suite_param_precedence():
    cfg = RunConfig(suite_overrides={"identities": {"samples": 7}})
    assert cfg.suite_param("identities", "samples") == 7
    assert cfg.suite_param("crosscheck", "samples") == 10  # suite default
    assert cfg.suite_param("eigen", "samples") == 50  # global
    explicit = RunConfig(samples=33, explicit=("samples",),
                         suite_overrides={"identities": {"samples": 7}})
    assert explicit.suite_param("identities", "samples") == 33
    assert explicit.suite_param("crosscheck", "samples") == 33


# --- run and report ----------------------------------------------------------------


def test_empty_suites_vacuous_pass():
    report = run(RunConfig(suites=()))
    assert report.passed
    assert report.records == []
    assert any("empty suite list" in w for w in report.warnings)


def test_pharmonic_suite_run_and_record_schema():
    cfg = RunConfig(suites=("pharmonic",), spaces=((SUN_SON, 2),), p_max=3)
    report = run(cfg)
    assert report.passed
    d = report.to_dict()
    assert d["schema"] == 1
    for rec in d["records"]:
        assert set(rec) == {"name", "params", "residual", "pass", "ms"}
    names = [r["name"] for r in d["records"]]
    assert names == sorted(names)
    assert any(n == "pharmonic/synthetic-mu-zero" for n in names)
    assert any(n == "pharmonic/synthetic-lambda-equals-mu" for n in names)


def test_records_of_one_name_are_ordered_by_n():
    # not by a result among the params: the exact decomposition's batch_records
    # (1 at the largest n) and the dual's kinv both sort before "n"
    cfg = RunConfig(suites=("identities", "dual"), spaces=((SUN_SON, 3), (SUN_SON, 2)),
                    suite_overrides={"identities": {"samples": 2}, "dual": {"samples": 1}})
    records = run(cfg).records
    keys = [(r.name, r.params.get("n", 0)) for r in records]
    assert keys == sorted(keys)
    assert all("kinv" in r.params for r in records if r.name.startswith("dual/"))


def test_determinism_same_seed():
    cfg1 = RunConfig(suites=("pharmonic", "identities"), spaces=((SUN_SON, 2),), p_max=2)
    cfg2 = RunConfig(suites=("pharmonic", "identities"), spaces=((SUN_SON, 2),), p_max=2)
    r1, r2 = run(cfg1).to_dict(), run(cfg2).to_dict()
    assert strip_timing(r1) == strip_timing(r2)
    assert report_fingerprint(r1) == report_fingerprint(r2)


def test_fingerprint_ignores_run_only_config(tmp_path):
    base = dict(suites=("pharmonic",), spaces=((SUN_SON, 2),), p_max=2)
    out = str(tmp_path / "report.json")
    r1 = run(RunConfig(**base, explicit=("seed",))).to_dict()
    r2 = run(RunConfig(**base, out=out, explicit=("out", "seed"))).to_dict()
    r3 = run(RunConfig(**base, seed=7, explicit=("seed",))).to_dict()
    # the report keeps the run-only keys; only the fingerprint ignores them
    assert r2["config"]["out"] == out and r2["config"]["jobs"] == 1
    assert r2["config"]["explicit"] == ["out", "seed"]
    assert report_fingerprint(r1) == report_fingerprint(r2)
    assert report_fingerprint(r1) != report_fingerprint(r3)


def test_identity_batches_report_their_wall_time_once_per_record():
    cfg = RunConfig(suites=("identities",), suite_overrides={"identities": {"samples": 2}})
    records = [r for r in identities_suite(cfg) if r.name != "identities/coverage"]
    # records of one batch share the batch's measured time; no time is divided out
    sharing = Counter(r.ms for r in records)
    assert max(sharing.values()) > 1
    for r in records:
        assert r.params["batch_records"] == sharing[r.ms]


def test_identities_follow_the_n_of_the_spaces():
    # the generator sums and the decomposition run once per distinct n of the
    # spaces, the numeric decomposition at the smallest; the rest once per run
    cfg = RunConfig(suites=("identities",), spaces=((SPN_UN, 5), (SUN_SON, 3), (SO2N_UN, 5)),
                    suite_overrides={"identities": {"samples": 2}})
    records = identities_suite(cfg)
    assert all(r.passed for r in records)
    by_name = Counter(r.name for r in records)
    n_of = lambda name: sorted(r.params["n"] for r in records if r.name == f"identities/{name}")
    for kind in "XYD":
        assert n_of(f"generator_sum_{kind}") == [3, 5]
    assert n_of("kappa_basis_decomposition_exact") == [3, 5]
    assert n_of("kappa_basis_decomposition_numeric") == [3]
    # 3 generator sums and 1 exact decomposition per n, 1 numeric decomposition,
    # 12 coordinate, 2 skew-lemma and 2 symplectic records
    assert len(records) == 2 * (3 + 1) + 1 + 12 + 2 + 2 and "identities/coverage" not in by_name


def test_identities_without_spaces_check_only_the_space_free_identities():
    report = run(RunConfig(suites=("identities",), spaces=(), suite_overrides={"identities": {"samples": 2}}))
    names = {r.name for r in report.records}
    assert report.passed and "identities/coverage" not in names
    assert names == {f"identities/{name}" for name in SPACE_FREE_IDENTITY_NAMES}
    assert not any(name.startswith("identities/generator_sum") for name in names)


def test_suites_run_as_one_job(tmp_path, monkeypatch):
    # suites run one after another: there is no --jobs flag, LIEHARM_JOBS or
    # [run] jobs, and RunConfig accepts jobs=1, the value the benchmark passes
    with pytest.raises(SystemExit) as exc:
        main(["all", "--jobs", "2"])
    assert exc.value.code == 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[run]\njobs = 1\n")
    with pytest.raises(ConfigError, match="jobs"):
        build_config(_args(["all", "--config", str(cfg_file)]))
    monkeypatch.setenv("LIEHARM_JOBS", "2")
    assert build_config(_args(["all"])).jobs == 1
    report = run(RunConfig(suites=("pharmonic",), spaces=((SPN_UN, 2),), p_max=2, jobs=1))
    assert report.passed and report.records


def test_strip_timing_removes_only_timing():
    rec = CheckRecord("x", {"n": 2}, 0.0, True, 12.5)
    rep = VerificationReport({}, [rec], True, "v", "now")
    stripped = strip_timing(rep.to_dict())
    assert "timestamp" not in stripped
    assert "ms" not in stripped["records"][0]
    assert stripped["records"][0]["name"] == "x"


def test_report_write_and_read(tmp_path):
    cfg = RunConfig(suites=("pharmonic",), spaces=((SUN_SON, 2),), p_max=2,
                    out=str(tmp_path / "report.json"))
    report = run(cfg)
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report.to_dict()


def test_eigen_failure_records_witness_and_replays():
    # an unattainable tolerance forces a failure whose witness coefficients
    # must replay to the identical residual
    cfg = RunConfig(suites=("eigen",), spaces=((SUN_SON, 2),), tol=1e-20,
                    suite_overrides={"eigen": {"samples": 3, "draws": 1}})
    report = run(cfg)
    assert not report.passed
    rec = [r for r in report.records if not r.passed][0]
    assert "witness_coefficients" in rec.params
    replayed = replay_record(rec, cfg)
    assert replayed <= rec.residual + 1e-14
    assert replayed > 0


def test_batched_eigen_witness_replays_its_point():
    # the 50 points of a record are one batch; the witness row (the point over
    # g), rebuilt alone, is the batch's point bit for bit, and its replay
    # gives that point's residual exactly
    for family in (SUN_SON, SPN_UN, SO2N_UN, SU2N_SPN):
        space = SymmetricSpaceSpec(family, 3)
        cfg = RunConfig(suites=("eigen",), spaces=((family, 3),), tol=1e-20,
                        suite_overrides={"eigen": {"samples": 50, "draws": 1}})
        (rec,) = run(cfg).records
        assert not rec.passed

        # the record's own batch, redrawn from its substream: every point fails
        # at this tolerance, so the witness is the first one
        rng = substream(cfg.seed, "eigen", family, 3, 0)
        spec = random_parameters(space, rng)
        g_spec = space.group_spec()
        coeffs = rng.normal(0.0, cfg.sigma, size=(50, len(basis_g(g_spec))))
        x, _ = sample_with_coefficients(g_spec, rng, cfg.sigma, coeffs=coeffs)
        assert rec.params["witness_coefficients"] == [float(c) for c in coeffs[0]]
        point = rebuild_sample(g_spec, rec.params["witness_coefficients"])
        assert np.array_equal(point, x[0])

        # the batch's residuals in array arithmetic, as the evaluator forms them,
        # from one sweep along k, then m; kinv is the largest |W phi| over k
        f = build_eigenfunction(spec)
        lam, mu = (np.complex128(complex(v)) for v in expected_eigenvalues(spec))
        k, m = cartan_decomposition(space)
        phi = f(x)
        t, kap, first = tau_and_kappa(f, x, np.concatenate([k.stack(), m.stack()]))
        kinv = np.abs(first[: len(k), 0]).max()
        residual = max(np.abs(t - lam * phi)[0], np.abs(kap - mu * phi * phi)[0], kinv)
        assert residual > 0
        assert replay_record(rec, cfg) == residual <= rec.residual


@pytest.mark.parametrize("suite,extra", [("eigen", -3), ("eigen", 3), ("crosscheck", 5)])
def test_replay_rejects_a_witness_of_the_wrong_width(suite, extra):
    # a witness that is not one evaluator row is refused, naming both lengths,
    # not replayed on a guessed point or left to a numpy broadcast error
    overrides = {"eigen": {"tol": 1e-20, "samples": 1, "draws": 1}, "crosscheck": {"tau2_tol": 1e-30, "samples": 1}}
    cfg = RunConfig(suites=(suite,), spaces=((SUN_SON, 3),), suite_overrides={suite: overrides[suite]})
    (rec,) = run(cfg).records
    witness = rec.params["witness_coefficients"]
    width = len(basis_g(SymmetricSpaceSpec(SUN_SON, 3).group_spec()))
    assert not rec.passed and len(witness) == width == 8
    rec.params["witness_coefficients"] = (witness + [0.1] * extra) if extra > 0 else witness[:extra]
    with pytest.raises(ConfigError, match=f"witness has {width + extra} coefficients.* have {width}$"):
        replay_record(rec, cfg)


def _failed_eigen_record(family):
    """The one failing eigen record of (family, 3), with its config."""
    cfg = RunConfig(suites=("eigen",), spaces=((family, 3),),
                    suite_overrides={"eigen": {"tol": 1e-20, "samples": 1, "draws": 1}})
    (rec,) = run(cfg).records
    assert not rec.passed
    return rec, cfg


@pytest.mark.parametrize("family", [SO2N_UN, SUN_SON])
def test_replay_rejects_a_parameter_vector_of_the_wrong_length(family):
    # a witness_a one entry short is refused with the spec's own message, not
    # left to fail inside phi (an unpack or a matrix shape error)
    rec, cfg = _failed_eigen_record(family)
    rec.params["witness_a"] = rec.params["witness_a"][:-1]
    with pytest.raises(ConfigError, match="a must have length 3"):
        replay_record(rec, cfg)


@pytest.mark.parametrize("indices,message", [([3, 2, 1], "need 1 <= r < s < q <= 6"),
                                             ([1, 2], r"indices \(r, s, q\) are required, got \(1, 2\)")])
def test_replay_rejects_bad_witness_indices(indices, message):
    rec, cfg = _failed_eigen_record(SU2N_SPN)
    rec.params["witness_indices"] = indices
    with pytest.raises(ConfigError, match=message):
        replay_record(rec, cfg)


def test_eigen_replay_reproduces_a_k_invariance_failure(monkeypatch):
    # phi o R_g0 keeps the eigen-equations (tau and kappa are bi-invariant) but
    # is not right-K-invariant, so only the first derivatives along k see the
    # failure, in the record and in its replay; with one sample the witness is
    # the record
    from lieharm import eigenfamilies

    g0 = pade_exp(0.7 * basis_g(SymmetricSpaceSpec(SUN_SON, 3).group_spec()).stack()[-1])
    build = eigenfamilies.build_eigenfunction

    def translated(spec):
        f = build(spec)
        # P (g g0) = (P g) g0
        return GroupFunction(lambda v: f.fn(times_on_the_right(v, g0)), name=f.name, left=f.left)

    monkeypatch.setattr(eigenfamilies, "build_eigenfunction", translated)
    cfg = RunConfig(suites=("eigen",), spaces=((SUN_SON, 3),),
                    suite_overrides={"eigen": {"samples": 1, "draws": 1}})
    (rec,) = run(cfg).records
    assert not rec.passed and rec.residual > 1e-3
    assert replay_record(rec, cfg) == rec.residual


@pytest.mark.parametrize("suite", ["dual", "crosscheck"])
def test_nested_failure_records_witness_and_replays(suite):
    # tau^2 is rounding noise, never below 1e-30 relative: every point fails,
    # so the witness is the first point, and with one sample it is the record
    cfg = RunConfig(suites=(suite,), spaces=((SU2N_SPN, 2),),
                    suite_overrides={suite: {"samples": 1, "tau2_tol": 1e-30}})
    (rec,) = run(cfg).records
    assert not rec.passed
    assert {"witness_coefficients", "witness_a", "witness_indices"} <= rec.params.keys()
    assert rec.params["tau2_scaled"] > 1e-30
    assert replay_record(rec, cfg) == rec.residual

    # a batch of 4: the witness is the first row of the record's one round,
    # and its replay, a batch of one, gives the bits of that point in the batch
    cfg = RunConfig(suites=(suite,), spaces=((SU2N_SPN, 2),),
                    suite_overrides={suite: {"samples": 4, "tau2_tol": 1e-30}})
    (rec,) = run(cfg).records
    assert not rec.passed and rec.params["rejected"] == 0
    rng = substream(cfg.seed, suite, SU2N_SPN, 2)
    spec = random_parameters(SymmetricSpaceSpec(SU2N_SPN, 2), rng)
    p, dual = SAMPLED_ORDERS[suite]
    width, _, evaluate = sampled_evaluator(spec, p, dual)
    rows = rng.normal(0.0, cfg.suite_param(suite, "sigma"), (4, width))
    assert rec.params["witness_coefficients"] == [float(c) for c in rows[0]]
    residual = evaluate(rows)[1]["residual"]
    assert rec.residual == residual.max() and rec.params["kinv"] > 0
    assert replay_record(rec, cfg) == residual[0]


def test_nested_record_reports_a_nonzero_formal_tau2(monkeypatch):
    # a Phi_2 built from a wrong lambda is not biharmonic in the formal
    # algebra, however small the error; the sampled checks cannot see 1e-12
    from fractions import Fraction

    from lieharm import eigenfamilies
    from lieharm.formal import build_phi_p

    bump = 1 + Fraction(1, 10**12)
    monkeypatch.setattr(eigenfamilies, "build_phi_p", lambda p, lam, mu: build_phi_p(p, lam * bump, mu))
    cfg = RunConfig(suites=("dual",), spaces=((SUN_SON, 2),), suite_overrides={"dual": {"samples": 1}})
    (rec,) = run(cfg).records
    assert not rec.passed and rec.params["tau2_formal"] != "0"
    assert "witness_coefficients" not in rec.params


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing it would cost ~0.3 s per run
    code = "import sys, lieharm, lieharm.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# prints, as JSON, the lieharm submodules loaded after `import lieharm` and,
# per config, those loaded after `validate()` and those that `run` adds
_MODULE_PROBE = """
import json, sys
import lieharm
loaded = lambda: sorted(m for m in sys.modules if m.startswith("lieharm."))
out = {"import": loaded()}
for name, suites in json.loads(sys.argv[1]).items():
    cfg = lieharm.RunConfig(suites=tuple(suites), spaces=(("sun_son", 2),), samples=2, p_max=2)
    before = loaded()
    cfg.validate()
    validated = loaded()
    lieharm.harness.run(cfg)
    out[name] = {"validate": sorted(set(validated) - set(before)), "run": sorted(set(loaded()) - set(validated)),
                 "numpy.random": "numpy.random" in sys.modules, "_hashlib": "_hashlib" in sys.modules}
print(json.dumps(out))
"""


@pytest.mark.parametrize(
    "suites, loaded, unloaded",
    [
        (["eigen"], {"eigenfamilies", "formal", "diffops"}, {"identities", "exact"}),
        (["identities", "pharmonic"], {"identities", "exact", "formal"}, {"eigenfamilies"}),
        (list(SUITES), {"eigenfamilies", "identities", "exact", "formal"}, set()),
    ],
    ids=["eigen", "identities-pharmonic", "all"],
)
def test_a_config_loads_the_modules_of_its_suites_at_validation(suites, loaded, unloaded):
    # one fresh interpreter per config, so no other config's modules are loaded
    out = json.loads(_python(["-c", _MODULE_PROBE, json.dumps({"cfg": suites})]))
    assert out["import"] == []
    validated = {m.removeprefix("lieharm.") for m in out["cfg"]["validate"]}
    assert loaded <= validated and not unloaded & validated
    # no module is compiled inside the timed run, numpy's generator neither
    assert out["cfg"]["run"] == []
    assert out["cfg"]["numpy.random"] is False
    # nor OpenSSL: the harness hashes with CPython's built-in SHA-256
    assert out["cfg"]["_hashlib"] is False


def test_replaying_a_failing_eigen_record_does_not_load_numpy_random():
    code = (
        "import sys, lieharm\n"
        "cfg = lieharm.RunConfig(suites=('eigen',), spaces=(('sun_son', 2),), samples=2, tol=1e-20)\n"
        "rec = next(r for r in lieharm.harness.run(cfg).records if not r.passed)\n"
        "assert lieharm.harness.replay_record(rec, cfg) > 0\n"
        "print('numpy.random' in sys.modules, '_hashlib' in sys.modules)\n"
    )
    assert _python(["-c", code]).split() == ["False", "False"]


# the CLI on a small all-suites run, then, as JSON on the last line, its exit
# code, whether `_hashlib` is loaded and the libcrypto paths mapped (None
# where there is no /proc/self/maps)
_OPENSSL_PROBE = """
import json, os, sys
from lieharm.cli import main
code = main(["all", "--space", "sun_son:2", "--space", "so2n_un:2", "--samples", "2", "--seed", "5"])
crypto = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        crypto = sorted({line.split()[-1] for line in fh if "libcrypto" in line})
print(json.dumps({"code": code, "_hashlib": "_hashlib" in sys.modules, "libcrypto": crypto}))
"""


@pytest.fixture(scope="module")
def openssl_probe():
    lines = _python(["-c", _OPENSSL_PROBE]).splitlines()
    return lines, json.loads(lines[-1])


def test_a_cli_run_prints_its_fingerprint_without_loading_openssl(openssl_probe):
    lines, out = openssl_probe
    assert out["code"] == 0
    assert sum(line.startswith("fingerprint: ") for line in lines) == 1
    assert out["_hashlib"] is False


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps to read mappings")
def test_an_all_suites_run_maps_no_libcrypto(openssl_probe):
    _, out = openssl_probe
    assert out["libcrypto"] == []


def test_an_unknown_suite_is_rejected_before_any_module_loads():
    code = (
        "import sys, lieharm\n"
        "try:\n"
        "    lieharm.RunConfig(suites=('eigen', 'nope')).validate()\n"
        "except lieharm.harness.ConfigError:\n"
        "    print(sorted(m for m in sys.modules if m.startswith('lieharm.')))\n"
    )
    assert _python(["-c", code]).strip() == "['lieharm.harness', 'lieharm.lie']"


_LAZY_API_PROBE = """
import importlib, json, sys
import lieharm
out = {}
# before any name is looked up, and so cached in the package namespace
out["not_in_dir"] = sorted(set(lieharm.__all__) - set(dir(lieharm)))
# the path benchmarks/child.py takes: a submodule as an attribute, with no prior import
out["harness"] = lieharm.harness is sys.modules["lieharm.harness"]
out["not_home"] = [
    name for name, home in lieharm._HOMES.items()
    if getattr(lieharm, name) is not getattr(importlib.import_module("lieharm." + home), name)
]
namespace = {}
exec("from lieharm import *", namespace)
out["not_starred"] = [name for name in lieharm.__all__ if namespace.get(name) is not getattr(lieharm, name)]
out["eigenfamilies_pair"] = lieharm.expected_eigenvalues is sys.modules["lieharm.eigenfamilies"].expected_eigenvalues
try:
    lieharm.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


def test_lazy_package_names_are_the_objects_of_their_home_modules():
    out = json.loads(_python(["-c", _LAZY_API_PROBE]))
    assert out["harness"] and out["eigenfamilies_pair"]
    assert out["not_home"] == [] and out["not_starred"] == [] and out["not_in_dir"] == []
    assert out["unknown"] == "module 'lieharm' has no attribute 'no_such_name'"
    assert set(lieharm.__all__) == set(lieharm._HOMES) | {"__version__"}
    assert lieharm.RunConfig is lieharm.harness.RunConfig
    assert lieharm.expected_eigenvalues is lieharm.lie.expected_eigenvalues


# prints the process's task count, its OPENBLAS_NUM_THREADS and whether an OpenBLAS is mapped
_THREAD_PROBE = (
    "import json, os; "
    "blas = any('openblas' in line.lower() for line in open('/proc/self/maps')); "
    "print(json.dumps([len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'), blas]))"
)
needs_proc_tasks = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task to count threads")


def _python(args, **env_vars):
    """Run the interpreter with `args` in an environment without BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in lieharm._BLAS_THREAD_VARIABLES}
    env.update(PYTHONPATH=os.pathsep.join(sys.path), **env_vars)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@needs_proc_tasks
def test_import_loads_blas_with_one_thread_and_unsets_the_variable():
    tasks, value, _ = json.loads(_python(["-c", "import lieharm; " + _THREAD_PROBE]))
    assert tasks == 1
    assert value is None


@needs_proc_tasks
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_blas_thread_count_set_by_the_caller_wins(variable):
    code = f"import lieharm, os; assert os.environ[{variable!r}] == '2'; " + _THREAD_PROBE
    tasks, value, blas = json.loads(_python(["-c", code], **{variable: "2"}))
    assert value == ("2" if variable == "OPENBLAS_NUM_THREADS" else None)
    if blas and len(os.sched_getaffinity(0)) >= 2:
        assert tasks == 2


@needs_proc_tasks
def test_import_after_numpy_changes_nothing():
    code = (
        "import json, os, numpy; "
        "before = [len(os.listdir('/proc/self/task')), dict(os.environ)]; "
        "import lieharm; "
        "print(json.dumps(before == [len(os.listdir('/proc/self/task')), dict(os.environ)]))"
    )
    assert json.loads(_python(["-c", code])) is True


def test_fingerprint_is_the_same_for_any_blas_thread_count():
    args = ["-m", "lieharm", "all", "--space", "sun_son:2", "--space", "so2n_un:2", "--samples", "2", "--seed", "5"]
    prints = [
        [line for line in _python(args, OPENBLAS_NUM_THREADS=threads).splitlines() if line.startswith("fingerprint:")]
        for threads in ("1", "2")
    ]
    assert len(prints[0]) == 1
    assert prints[0] == prints[1]


def test_budget_skip_is_reported_not_failed():
    for suite in ("crosscheck", "dual"):
        cfg = RunConfig(suites=(suite,), spaces=((SUN_SON, 3),), budget=4)
        report = run(cfg)
        assert report.passed
        assert any("skipped (budget)" in w for w in report.warnings)
        rec = report.records[0]
        assert rec.params.get("skipped") == "budget"


def test_crosscheck_and_dual_share_the_log_domain_predicate(monkeypatch):
    from lieharm import eigenfamilies, harness

    seen = []

    def reject(phi):
        seen.append(phi)
        return False

    monkeypatch.setattr(eigenfamilies, "log_domain_ok", reject)
    cfg = RunConfig(suites=("crosscheck",), spaces=((SUN_SON, 2),),
                    suite_overrides={"crosscheck": {"samples": 1}})
    with pytest.raises(RuntimeError, match="admissible"):
        harness.crosscheck_suite(cfg)
    assert len(seen) == 50
    cfg = RunConfig(suites=("dual",), spaces=((SUN_SON, 2),),
                    suite_overrides={"dual": {"samples": 2}})
    with pytest.raises(RuntimeError, match="admissible"):
        harness.dual_suite(cfg)
    assert len(seen) == 150


def test_rejected_draws_are_redrawn_and_counted(monkeypatch):
    # a draw outside the log domain is not a sample: the record still checks
    # `samples` points, and counts the draws it rejected
    from lieharm import eigenfamilies

    calls = []

    def reject_every_other(phi):
        calls.append(phi)
        return len(calls) % 2 == 0

    monkeypatch.setattr(eigenfamilies, "log_domain_ok", reject_every_other)
    for suite in ("crosscheck", "dual"):
        calls.clear()
        cfg = RunConfig(suites=(suite,), spaces=((SUN_SON, 2),),
                        suite_overrides={suite: {"samples": 2}})
        (rec,) = run(cfg).records
        assert rec.passed and rec.params["rejected"] == 2, rec
        assert len(calls) == 4


# --- CLI ---------------------------------------------------------------------------


def _args(argv):
    return make_parser().parse_args(argv)


def test_cli_space_n_cross_product():
    cfg = build_config(_args(["eigen", "--space", "sun_son", "--space", "spn_un",
                              "--n", "2", "--n", "3", "--samples", "1"]))
    assert cfg.suites == ("eigen",)
    assert set(cfg.spaces) == {("sun_son", 2), ("sun_son", 3), ("spn_un", 2), ("spn_un", 3)}


def test_cli_explicit_space_token():
    cfg = build_config(_args(["identities", "--space", "so2n_un:4"]))
    assert cfg.spaces == (("so2n_un", 4),)


def test_cli_n_only_crosses_default_families():
    cfg = build_config(_args(["pharmonic", "--n", "4"]))
    assert set(cfg.spaces) == {(f, 4) for f in ("so2n_un", "spn_un", "su2n_spn", "sun_son")}


def test_cli_explicit_samples_reaches_every_suite():
    cfg = build_config(_args(["all", "--samples", "6"]))
    assert cfg.suite_param("identities", "samples") == 6
    assert cfg.suite_param("crosscheck", "samples") == 6


def test_cli_rejects_unknown_space():
    with pytest.raises(ConfigError):
        build_config(_args(["eigen", "--space", "e8_f4"]))


def test_cli_exit_codes(tmp_path):
    assert main(["pharmonic", "--space", "sun_son:2", "--p-max", "2"]) == 0
    # floating arithmetic cannot reach 1e-20: verification failure
    assert main(["eigen", "--space", "sun_son:2", "--samples", "2", "--tol", "1e-20"]) == 1
    assert main(["eigen", "--space", "not_a_space"]) == 2
    # a non-finite tolerance is a usage error, not a verification failure
    assert main(["eigen", "--space", "sun_son:2", "--samples", "3", "--tol", "nan"]) == 2
    bad_path = str(tmp_path / "missing_dir" / "report.json")
    assert main(["pharmonic", "--space", "sun_son:2", "--p-max", "1", "--out", bad_path]) == 3


def _into_a_closed_pipe(args):
    """Run the interpreter with `args`, its stdout a pipe whose reader has
    already closed it, as `| head` does once it has read enough; returns the
    exit code and stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, *args], stdout=write, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=300)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("args,code", [(["pharmonic", "--space", "sun_son:2"], 0),
                                       (["eigen", "--space", "sun_son:2", "--samples", "2", "--tol", "1e-20"], 1)])
def test_cli_exits_quietly_with_its_verdict_when_the_reader_closes_the_pipe(args, code):
    # `lieharm pharmonic | head -2`: no BrokenPipeError traceback, and not the
    # exit code 1 of a verification failure on a run that passed
    assert _into_a_closed_pipe(["-m", "lieharm", *args]) == (code, "")


def test_cli_config_file_and_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[run]\n"
        "suites = pharmonic\n"
        "spaces = sun_son:2, spn_un:2\n"
        "samples = 9\n"
        "seed = 7\n"
        "[eigen]\n"
        "samples = 4\n"
    )
    cfg = build_config(_args(["all", "--config", str(cfg_file)]))
    assert cfg.suites == ("pharmonic",)
    assert cfg.samples == 9 and cfg.seed == 7
    assert cfg.spaces == (("sun_son", 2), ("spn_un", 2))
    assert cfg.suite_param("eigen", "samples") == 4
    # explicit CLI flag beats the file
    cfg = build_config(_args(["all", "--config", str(cfg_file), "--samples", "3"]))
    assert cfg.samples == 3


def test_cli_unknown_config_section(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[mystery]\nsamples = 2\n")
    with pytest.raises(ConfigError, match="mystery"):
        build_config(_args(["all", "--config", str(cfg_file)]))


def test_cli_suite_section_values_are_typed(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[eigen]\n"
        "draws = 2\n"
        "samples = 1e1\n"
        "[dual]\n"
        "tau2_tol = 1e-3\n"
        "sigma = 0.25\n"
        "[identities]\n"
        "samples = 0\n"
    )
    cfg = build_config(_args(["all", "--config", str(cfg_file)]))
    assert cfg.suite_overrides == {
        "eigen": {"draws": 2, "samples": 10},
        "dual": {"tau2_tol": 1e-3, "sigma": 0.25},
        "identities": {"samples": 0},
    }
    assert main(["eigen", "--space", "sun_son:2", "--config", str(cfg_file)]) == 0
    # the same range checks hold for overrides given through the API
    for bad in ({"eigen": {"draws": 0}}, {"crosscheck": {"tau2_tol": -1e-6}}, {"dual": {"abs_tol": 1e-5}}):
        with pytest.raises(ConfigError):
            RunConfig(suite_overrides=bad).validate()


@pytest.mark.parametrize("section", [
    # keys no suite section takes, or not this one
    "[crosscheck]\nabs_tol = 1e-5\n", "[crosscheck]\nrel_tol = 1e-7\n",
    "[eigen]\ntau2_tol = 1e-3\n", "[dual]\ndraws = 2\n", "[eigen]\nseed = 3\n",
    # values out of the range of the global field of that name
    "[eigen]\ndraws = -1\n", "[eigen]\nsamples = -1\n", "[dual]\nsigma = 0\n",
    "[crosscheck]\ntol = 0\n", "[dual]\ntau2_tol = -1e-5\n",
    # an integer key given a non-integral value in scientific notation
    "[eigen]\nsamples = 1e-1\n", "[identities]\nsamples = 2.5e0\n",
])
def test_cli_unknown_suite_key(tmp_path, section):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(section)
    key = section.split("\n")[1].split(" ")[0]
    with pytest.raises(ConfigError, match=key):
        build_config(_args(["all", "--config", str(cfg_file)]))
    assert main(["all", "--config", str(cfg_file)]) == 2


def test_env_override(monkeypatch):
    monkeypatch.setenv("LIEHARM_SEED", "123")
    cfg = build_config(_args(["pharmonic"]))
    assert cfg.seed == 123
    # CLI still wins over the environment
    cfg = build_config(_args(["pharmonic", "--seed", "5"]))
    assert cfg.seed == 5


def test_env_values_beat_suite_defaults(monkeypatch):
    # an environment variable sets its key for every suite, as a flag does,
    # over the built-in per-suite defaults; a flag still beats it
    monkeypatch.setenv("LIEHARM_SAMPLES", "2")
    monkeypatch.setenv("LIEHARM_TOL", "1e-6")
    cfg = build_config(_args(["all"]))
    assert cfg.explicit == ("samples", "tol")
    for suite in ("crosscheck", "identities", "eigen"):
        assert cfg.suite_param(suite, "samples") == 2
    for suite in ("dual", "identities", "eigen"):
        assert cfg.suite_param(suite, "tol") == 1e-6
    cfg = build_config(_args(["all", "--samples", "3"]))
    assert cfg.suite_param("crosscheck", "samples") == 3


def test_example_config_is_valid():
    path = Path(__file__).resolve().parents[1] / "lieharm.example.cfg"
    cfg = build_config(_args(["all", "--config", str(path)])).validate()
    assert cfg.suites == ("eigen", "pharmonic", "identities") and cfg.seed == 42
    # a [run] value replaces only the global default: built-in per-suite
    # defaults and suite sections beat it
    assert cfg.suite_param("crosscheck", "samples") == 10
    assert cfg.suite_param("identities", "tol") == 1e-9


def test_all_suites_listed():
    assert SUITES == ("eigen", "dual", "pharmonic", "identities", "crosscheck")
