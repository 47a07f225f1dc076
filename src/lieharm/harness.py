"""Batch harness: composes the verification suites into reproducible,
seeded runs with structured reports.

Reproducibility contract: the master seed is split into independent
substreams keyed by (seed, suite, space, index) through SHA-256 into the
64-bit key of a `CounterStream`, so results do not depend on execution
order; records are sorted by (name, n, params) before report assembly.  Two
runs with the same config and seed produce reports that are identical after
stripping the timestamp and the per-record wall times.  A draw depends only
on its key and its position: the stream's integer arithmetic is exact, and
its normals use `math`, never a vectorized transcendental, so no SIMD
dispatch or BLAS build changes them.

The sampled suites (eigen, dual, crosscheck) run `verify_sampled` at the
order p and on the space of `SAMPLED_ORDERS`; `replay_record` hands a
failed record's witness row to the evaluator of that same order.

Each suite runs the code of one module (`SUITE_MODULES`), and
`RunConfig.validate` imports the modules of the configured suites.  So a
process compiles only what its suites execute, and does it before `run`
starts, outside the run's wall time.  The suite functions and
`replay_record` import what they call from those modules when they are
called, so they call whatever the module holds under that name then.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .lie import SO, SP, SPACE_FAMILIES, SU, GroupSpec, SymmetricSpaceSpec, expected_eigenvalues

if TYPE_CHECKING:
    from .eigenfamilies import EigenfunctionSpec
    from .identities import IdentityCheckResult

SUITES = ("eigen", "dual", "pharmonic", "identities", "crosscheck")

# the module whose code each suite runs, loaded by `RunConfig.validate`
SUITE_MODULES = {
    "eigen": "eigenfamilies",
    "dual": "eigenfamilies",
    "pharmonic": "formal",
    "identities": "identities",
    "crosscheck": "eigenfamilies",
}

# the sampled suites: their order p and whether they sample the dual
SAMPLED_ORDERS = {"eigen": (1, False), "crosscheck": (2, False), "dual": (2, True)}

SCHEMA_VERSION = 1

DEFAULT_SPACES: Tuple[Tuple[str, int], ...] = tuple(
    (family, n) for family in SPACE_FAMILIES for n in (2, 3)
)

# Per-suite default overrides, applied beneath config-file sections and CLI flags.
SUITE_DEFAULTS: Dict[str, Dict] = {
    "identities": {"samples": 20, "tol": 1e-9},
    "crosscheck": {"samples": 10, "tau2_tol": 1e-6},
    "dual": {"sigma": 0.2, "tau2_tol": 1e-5, "tol": 1e-7},
    "eigen": {"draws": 3},
}


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


def _is_count(value) -> bool:
    """A Python or numpy integer, not a bool: a float seed or sample count
    would be truncated where it is used but echoed as given."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class RunConfig:
    suites: Tuple[str, ...] = SUITES
    spaces: Tuple[Tuple[str, int], ...] = DEFAULT_SPACES
    p_max: int = 4
    samples: int = 50
    tol: float = 1e-8
    sigma: float = 0.5
    seed: int = 42
    budget: int = 10**6
    out: Optional[str] = None
    # suites run one after another; 1 is the only valid value
    jobs: int = 1
    suite_overrides: Dict[str, Dict] = field(default_factory=dict)
    # keys set by a CLI flag or a LIEHARM_* variable; they beat per-suite defaults
    explicit: Tuple[str, ...] = ()

    def validate(self):
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}; choose from {SUITES}")
        for family, n in self.spaces:
            if family not in SPACE_FAMILIES:
                raise ConfigError(f"unknown space family {family!r}")
            if not isinstance(n, int) or n < 2:
                raise ConfigError(f"space parameter n must be an integer >= 2, got {n!r}")
        for key in ("seed", "budget", "p_max"):
            if not _is_count(getattr(self, key)):
                raise ConfigError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.p_max < 1:
            raise ConfigError(f"p_max must be >= 1, got {self.p_max}")
        globals_ = {"samples": self.samples, "tol": self.tol, "sigma": self.sigma}
        for section, values in [("run", globals_), *self.suite_overrides.items()]:
            known = tuple(globals_) + tuple(SUITE_DEFAULTS.get(section, {}))
            for key, value in values.items():
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r} in [{section}]")
                # samples >= 0 and draws >= 1; tol, sigma and tau2_tol positive and finite
                least = {"samples": 0, "draws": 1}.get(key)
                if least is not None and not _is_count(value):
                    raise ConfigError(f"{key} in [{section}] must be an integer, got {value!r}")
                if (value < least) if least is not None else not 0 < value < math.inf:
                    bound = "positive and finite" if least is None else f">= {least}"
                    raise ConfigError(f"{key} in [{section}] must be {bound}, got {value!r}")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.jobs != 1:
            raise ConfigError(f"jobs must be 1, got {self.jobs}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        for suite in self.suites:
            # not importlib.import_module, so that `python -X importtime` lists it
            __import__(f"{__package__}.{SUITE_MODULES[suite]}")
        return self

    def suite_param(self, suite: str, key: str, default=None):
        """Effective value of a key for a suite.

        Precedence: CLI flag or environment variable (`explicit`) >
        config-file suite section > built-in suite default > global field
        (a [run] value or the RunConfig default) > `default`.
        """
        if key in self.explicit and hasattr(self, key):
            return getattr(self, key)
        override = self.suite_overrides.get(suite, {})
        if key in override:
            return override[key]
        if key in SUITE_DEFAULTS.get(suite, {}):
            return SUITE_DEFAULTS[suite][key]
        if hasattr(self, key):
            return getattr(self, key)
        return default

    def echo(self) -> Dict:
        d = asdict(self)
        d["spaces"] = [list(s) for s in self.spaces]
        d["suites"] = list(self.suites)
        return d


def substream(seed: int, *keys) -> CounterStream:
    """Deterministic child stream, keyed by 64 bits of SHA-256 over 8 bytes
    per part of [seed, key...]: an integer key gives its low 64 bits, any
    other key the first 8 bytes of SHA-256 of its text."""
    parts = [operator.index(seed).to_bytes(8, "big")]
    for k in keys:
        if isinstance(k, (int, np.integer)):
            parts.append((int(k) & _MASK64).to_bytes(8, "big"))
        else:
            parts.append(hashlib.sha256(str(k).encode("utf-8")).digest()[:8])
    return CounterStream(int.from_bytes(hashlib.sha256(b"".join(parts)).digest()[:8], "big"))


_MASK64 = 2**64 - 1
# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): Weyl increment, finalizer multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
# a stream draws far fewer than 2^32 values, so its ziggurat's retry lanes,
# lane L at the draws 2^32 L positions ahead, share no draw
_LANE = 2**32


def _draws(key: int, positions: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of key + k gamma mod 2^64 at each position k,
    in uint64 arithmetic, exact on every host (on a 1-d array, which wraps
    silently where numpy scalars warn)."""
    z = np.uint64(key) + positions.reshape(-1) * _GAMMA
    z = (z ^ (z >> 30)) * _M1
    z = (z ^ (z >> 27)) * _M2
    return (z ^ (z >> 31)).reshape(positions.shape)


def _mantissas(bits: np.ndarray) -> np.ndarray:
    return (bits >> 11).astype(np.float64)


# The 256-layer ziggurat of exp(-x^2/2) (Marsaglia & Tsang, J. Stat. Softw.
# 5(8), 2000), built with `math`.  Layer i >= 1 is the box [0, x_i) x
# [y_i, y_(i+1)), y = exp(-x^2/2), from x_1 = R down to x_256 = 0; layer 0
# is [0, R) x [0, y_1) plus the tail beyond R, of area V as is each box,
# and x_0 = V / y_1.
_ZIG_R, _ZIG_V = 3.6541528853610088, 4.92867323399e-3
_ZIG_X = [_ZIG_V / math.exp(-0.5 * _ZIG_R**2), _ZIG_R]
while len(_ZIG_X) < 256:
    _ZIG_X.append(math.sqrt(-2.0 * math.log(math.exp(-0.5 * _ZIG_X[-1] ** 2) + _ZIG_V / _ZIG_X[-1])))
_ZIG_X.append(0.0)
_ZIG_Y = [math.exp(-0.5 * x * x) for x in _ZIG_X]
# u x_i = m (x_i 2^-53) exactly, for u = m 2^-53
_ZIG_SCALED, _ZIG_CORE = np.array(_ZIG_X) * 2.0**-53, np.array(_ZIG_X[1:])


def _ziggurat(bits: np.ndarray):
    """One try per draw, from disjoint bits: the low 8 pick the layer i, bit
    8 is the sign and the top 53 give u.  Returns |x| = u x_i, i, the sign,
    and whether x lies on the layer's edge, at or beyond x_(i+1)."""
    layer = (bits & 0xFF).astype(np.intp)
    x = _mantissas(bits) * _ZIG_SCALED[layer]
    return x, layer, (bits & 0x100) != 0, x >= _ZIG_CORE[layer]


def _edges(key: int, positions: np.ndarray, xs: List[float], layers: List[int]) -> List[float]:
    """Settles the tries on an edge.  Round t reads a draw at each pending
    position from lanes 2t - 1 and 2t, with uniforms u and v.  A wedge try
    (layer i >= 1) keeps x if y_i + u (y_(i+1) - y_i) < exp(-x^2/2), and
    else takes the second draw as a fresh try; a tail try (layer 0) is
    R + a, a = -log(1 - u) / R, if -2 log(1 - v) > a^2, and else stays."""
    todo, lanes = list(range(len(xs))), np.array([[_LANE], [2 * _LANE]], np.uint64)
    while todo:
        both = _draws(key, positions[todo] + lanes)
        u, v = (_mantissas(both) * 2.0**-53).tolist()
        left = []
        retries = (values.tolist() for values in _ziggurat(both[1]))
        for j, u_j, v_j, retry_x, retry_layer, _, retry_edge in zip(todo, u, v, *retries):
            i, x_j = layers[j], xs[j]
            if i == 0:
                a = -math.log(1.0 - u_j) / _ZIG_R
                if -2.0 * math.log(1.0 - v_j) > a * a:
                    xs[j] = _ZIG_R + a
                    continue
            elif _ZIG_Y[i] + u_j * (_ZIG_Y[i + 1] - _ZIG_Y[i]) < math.exp(-0.5 * x_j * x_j):
                continue
            else:
                xs[j], layers[j] = retry_x, retry_layer
                if not retry_edge:
                    continue
            left.append(j)
        todo, lanes = left, lanes + np.uint64(2 * _LANE)
    return xs


def _shape(size) -> Tuple[int, ...]:
    return () if size is None else tuple(np.atleast_1d(size).tolist())


class CounterStream:
    """A counter-based stream with the names and signatures of the numpy
    `Generator` methods lieharm calls, so a caller may pass either.  Each
    call reads the stream's next positions, one per value, so a batch draws
    what that many one-value calls in a row draw."""

    def __init__(self, key: int):
        self._key, self._next = key & _MASK64, 0

    def _positions(self, size) -> np.ndarray:
        shape = _shape(size)
        start, self._next = self._next, self._next + math.prod(shape)
        return np.arange(start, self._next, dtype=np.uint64).reshape(shape)

    def standard_normal(self, size=None):
        positions = self._positions(size)
        x, layer, negative, edge = _ziggurat(_draws(self._key, positions))
        if edge.any():
            x[edge] = _edges(self._key, positions[edge], x[edge].tolist(), layer[edge].tolist())
        return np.where(negative, -x, x)[()]

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.standard_normal(size)

    def integers(self, low, high=None, size=None):
        """floor(u span) + low for a 53-bit uniform u: each value of [low,
        high), or of [0, low) without high, has probability 1/span within
        2^-52, a relative bias below span 2^-52."""
        low, high = (0, low) if high is None else (low, high)
        span = int(high) - int(low)
        if not 0 < span <= 2**53:
            raise ValueError("integers needs 0 < high - low <= 2^53")
        u = _mantissas(_draws(self._key, self._positions(size))) * 2.0**-53
        return (np.floor(u * span).astype(np.int64) + int(low))[()]

    def permuted(self, x, *, axis=None):
        """Each slice of x along axis (x flattened, without one) in the order
        of a stable argsort of one draw per entry."""
        x = np.asarray(x)
        order = np.argsort(_draws(self._key, self._positions(x.shape)), axis=axis, kind="stable")
        return np.take_along_axis(x, order, axis).reshape(x.shape)

    def choice(self, a, size=None, replace=True):
        """The first entries of a (of range(a)) permuted; only draws without
        replacement exist."""
        if replace:
            raise NotImplementedError("CounterStream.choice draws without replacement only")
        shape = _shape(size)
        return self.permuted(np.arange(a) if np.ndim(a) == 0 else a)[: math.prod(shape)].reshape(shape)[()]


@dataclass
class CheckRecord:
    name: str
    params: Dict
    residual: float
    passed: bool
    ms: float

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "params": _jsonable(self.params),
            "residual": float(self.residual),
            "pass": bool(self.passed),
            "ms": float(self.ms),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(np.real(value)), float(np.imag(value))]
    return value


@dataclass
class VerificationReport:
    config: Dict
    records: List[CheckRecord]
    passed: bool
    version: str
    timestamp: str
    warnings: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "schema": SCHEMA_VERSION,
            "version": self.version,
            "timestamp": self.timestamp,
            "config": _jsonable(self.config),
            "records": [r.to_dict() for r in self.records],
            "pass": bool(self.passed),
            "warnings": list(self.warnings),
        }


def strip_timing(report_dict: Dict) -> Dict:
    """The determinism-relevant content: everything except timestamp and ms."""
    out = json.loads(json.dumps(report_dict))
    out.pop("timestamp", None)
    for rec in out.get("records", []):
        rec.pop("ms", None)
    return out


# config keys that shape a run but not its results
_RUN_ONLY_KEYS = ("out", "jobs")


def result_config(report_dict: Dict) -> Dict:
    """The config of a report without its run-only keys: the part that
    determines the results."""
    config = {k: v for k, v in report_dict.get("config", {}).items() if k not in _RUN_ONLY_KEYS}
    if "explicit" in config:
        config["explicit"] = [k for k in config["explicit"] if k not in _RUN_ONLY_KEYS]
    return config


def report_fingerprint(report_dict: Dict) -> str:
    """Hash of the results and the config that determines them."""
    out = strip_timing(report_dict)
    if "config" in out:
        out["config"] = result_config(out)
    canonical = json.dumps(out, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_write(report: VerificationReport, path: str):
    """Write the JSON report; I/O failures propagate (CLI exit code 3)."""
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")


def summary_table(report: VerificationReport) -> str:
    lines = [f"{'check':48} {'residual':>12} {'pass':>5} {'ms':>9}"]
    lines.append("-" * 78)
    for r in report.records:
        params = json.dumps(_jsonable(r.params), sort_keys=True)
        label = f"{r.name} {params}"
        if len(label) > 48:
            label = label[:45] + "..."
        lines.append(f"{label:48} {r.residual:12.3e} {str(r.passed):>5} {r.ms:9.1f}")
    lines.append("-" * 78)
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'} ({len(report.records)} records)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _timed(fn: Callable[[], Tuple[float, bool, Dict]], name: str) -> CheckRecord:
    start = time.perf_counter()
    residual, passed, params = fn()
    ms = (time.perf_counter() - start) * 1e3
    return CheckRecord(name, params, residual, passed, ms)


def eigen_suite(cfg: RunConfig) -> List[CheckRecord]:
    from .eigenfamilies import random_parameters, verify_eigen

    records = []
    samples = cfg.suite_param("eigen", "samples")
    tol = cfg.suite_param("eigen", "tol")
    sigma = cfg.suite_param("eigen", "sigma")
    draws = cfg.suite_param("eigen", "draws")
    for family, n in cfg.spaces:
        space = SymmetricSpaceSpec(family, n)
        for draw in range(draws):
            def task(space=space, draw=draw):
                rng = substream(cfg.seed, "eigen", space.family, space.n, draw)
                spec = random_parameters(space, rng)
                v = verify_eigen(spec, samples, tol, rng, sigma=sigma)
                params = {"n": space.n, "draw": draw}
                params.update(_sample_params(spec, samples, v.witness_coefficients))
                return v.worst("residual"), v.passed, params

            records.append(_timed(task, f"eigen/{family}"))
    return records


def _sample_params(spec: EigenfunctionSpec, samples: int, witness: Optional[list]) -> Dict:
    """A sampled record's warning if it checked no point, or what
    `replay_record` needs to rebuild its first failing point and phi there."""
    if samples <= 0:
        return {"warning": "no samples requested; vacuous pass"}
    if witness is None:
        return {}
    params = {
        "witness_coefficients": witness,
        "witness_a": [[float(z.real), float(z.imag)] for z in np.asarray(spec.a)],
    }
    if spec.indices is not None:
        params["witness_indices"] = list(spec.indices)
    return params


def _phi2_suite(cfg: RunConfig, suite: str) -> List[CheckRecord]:
    """`verify_sampled` at p = 2 per space: on the dual for "dual", the
    compact space for "crosscheck"."""
    from .diffops import BudgetExceeded
    from .eigenfamilies import random_parameters, verify_sampled

    records = []
    samples, tol, sigma, tau2_tol = (cfg.suite_param(suite, k) for k in ("samples", "tol", "sigma", "tau2_tol"))
    p, dual = SAMPLED_ORDERS[suite]
    for family, n in cfg.spaces:
        space = SymmetricSpaceSpec(family, n)

        def task(space=space):
            rng = substream(cfg.seed, suite, space.family, space.n)
            spec = random_parameters(space, rng)
            try:
                v = verify_sampled(spec, p, samples, tol, rng, dual=dual, sigma=sigma,
                                   tau2_tol=tau2_tol, budget=cfg.budget)
            except BudgetExceeded:
                return 0.0, True, {"n": space.n, "skipped": "budget"}
            params = {"n": space.n, "rejected": v.rejected}
            params.update((key, v.worst(key)) for key in ("tau2_abs", "tau2_scaled", "tau1_rel", "kinv"))
            if not v.formal.is_zero():
                params["tau2_formal"] = v.formal.serialize()
            params.update(_sample_params(spec, samples, v.witness_coefficients))
            return v.worst("residual"), v.passed, params

        records.append(_timed(task, f"{suite}/{family}"))
    return records


dual_suite = functools.partial(_phi2_suite, suite="dual")
crosscheck_suite = functools.partial(_phi2_suite, suite="crosscheck")


def pharmonic_suite(cfg: RunConfig) -> List[CheckRecord]:
    from .formal import build_phi_p, verify_p_harmonic

    pairs = []  # (record name, lam, mu, params)
    for family, n in cfg.spaces:
        lam, mu = expected_eigenvalues(SymmetricSpaceSpec(family, n))
        pairs.append((f"pharmonic/{family}", lam, mu, {"n": n}))
    pairs.append(("pharmonic/synthetic-mu-zero", Fraction(1), Fraction(0), {}))
    pairs.append(("pharmonic/synthetic-lambda-equals-mu", Fraction(1), Fraction(1), {}))
    records = []
    for name, lam, mu, params in pairs:
        for p in range(1, cfg.p_max + 1):
            def task(lam=lam, mu=mu, p=p, params=params):
                cert = verify_p_harmonic(build_phi_p(p, lam, mu), lam, mu, p)
                ok = cert.proper and cert.numeric_witness > 1e-10
                return 0.0 if ok else 1.0, ok, dict(params, p=p, exact=True)

            records.append(_timed(task, name))
    return records


def identities_suite(cfg: RunConfig) -> List[CheckRecord]:
    from .identities import (
        IDENTITY_NAMES,
        SPACE_FREE_IDENTITY_NAMES,
        assert_full_coverage,
        check_coordinate_identities,
        check_generator_sums,
        check_kappa_basis_decomposition,
        check_skew_lemma,
        check_symplectic_facts,
    )

    samples = cfg.suite_param("identities", "samples")
    tol = cfg.suite_param("identities", "tol")
    sigma = cfg.suite_param("identities", "sigma")
    results: List[IdentityCheckResult] = []
    records: List[CheckRecord] = []

    def collect(fn: Callable[[], List[IdentityCheckResult]]):
        start = time.perf_counter()
        batch = fn()
        ms = (time.perf_counter() - start) * 1e3
        # each check of a batch runs inside one call, so only the batch is timed
        for r in batch:
            results.append(r)
            params = dict(r.params, batch_records=len(batch))
            name = f"identities/{r.name}"
            records.append(CheckRecord(name, params, r.max_residual, r.passed, ms))

    # the generator sums and the decomposition run for the n of the spaces in play
    ns = sorted({n for _, n in cfg.spaces})
    for n in ns:
        collect(lambda n=n: check_generator_sums(n))
    for family, n in ((SO, 3), (SO, 4), (SU, 2), (SU, 3), (SP, 2), (SP, 3)):
        rng = substream(cfg.seed, "identities", "coordinate", family, n)
        collect(
            lambda family=family, n=n, rng=rng: check_coordinate_identities(
                GroupSpec(family, n), samples, tol, rng, sigma=sigma
            )
        )
    for n in ns:
        rng = substream(cfg.seed, "identities", "decomposition", n)
        numeric_samples = min(samples, 10) if n == ns[0] else 0
        collect(
            lambda n=n, rng=rng, numeric_samples=numeric_samples: check_kappa_basis_decomposition(
                n, numeric_samples, tol, rng, sigma=sigma
            )
        )
    rng = substream(cfg.seed, "identities", "skew-lemma")
    collect(lambda rng=rng: check_skew_lemma(1000, 6, rng))
    rng = substream(cfg.seed, "identities", "symplectic")
    collect(lambda rng=rng: check_symplectic_facts(2, samples, max(tol, 1e-10), rng, sigma=sigma))

    try:
        assert_full_coverage(results, IDENTITY_NAMES if ns else SPACE_FREE_IDENTITY_NAMES)
    except AssertionError as exc:
        records.append(CheckRecord("identities/coverage", {"error": str(exc)}, 1.0, False, 0.0))
    return records


SUITE_RUNNERS = {
    "eigen": eigen_suite,
    "dual": dual_suite,
    "pharmonic": pharmonic_suite,
    "identities": identities_suite,
    "crosscheck": crosscheck_suite,
}


def run(config: RunConfig) -> VerificationReport:
    """Execute the selected suites; deterministic given (config, seed)."""
    config.validate()
    warnings: List[str] = []
    if not config.suites:
        warnings.append("empty suite list: nothing was verified")
    records: List[CheckRecord] = []
    for suite in config.suites:
        records.extend(SUITE_RUNNERS[suite](config))
    for rec in records:
        if isinstance(rec.params, dict) and rec.params.get("skipped") == "budget":
            warnings.append(f"{rec.name}: skipped (budget)")
    # n first, so that no result among the params (such as kinv) orders records of one name
    records.sort(key=lambda r: (r.name, r.params.get("n", 0), json.dumps(_jsonable(r.params), sort_keys=True)))
    report = VerificationReport(
        config=config.echo(),
        records=records,
        passed=all(r.passed for r in records),
        version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        warnings=warnings,
    )
    if config.out:
        report_write(report, config.out)
    return report


def replay_record(record: CheckRecord, config: RunConfig) -> float:
    """Recompute the residual of a failed sampled record at its stored witness.

    The witness is the record's first failing row of algebra coefficients,
    so the result is at most the record's (worst) residual.  Replay hands
    it, as a batch of one row, to the evaluator that the suite's
    `verify_sampled` ran (`sampled_evaluator` at the record's order p,
    compact or dual), which rebuilds the point bit for bit and returns its
    residual.  A witness of another length than a row, or parameters that
    `EigenfunctionSpec` rejects, is a `ConfigError`.
    """
    from .eigenfamilies import EigenfunctionSpec, ValidationError, sampled_evaluator

    params = record.params
    if "witness_coefficients" not in params:
        raise ConfigError("record carries no witness to replay")
    suite, family = record.name.split("/", 1)
    space = SymmetricSpaceSpec(family, int(params["n"]))
    a = np.array([complex(re, im) for re, im in params["witness_a"]])
    indices = tuple(params["witness_indices"]) if "witness_indices" in params else None
    try:
        spec = EigenfunctionSpec(space, a, indices)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    p, dual = SAMPLED_ORDERS[suite]
    width, _, evaluate = sampled_evaluator(spec, p, dual, config.budget)
    witness = params["witness_coefficients"]
    if len(witness) != width:
        raise ConfigError(f"witness has {len(witness)} coefficients, but the {suite} rows of {space} have {width}")
    return float(evaluate(np.array([witness], dtype=float))[1]["residual"][0])
