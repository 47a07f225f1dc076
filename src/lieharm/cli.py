"""Command-line interface.

    lieharm eigen|dual|pharmonic|identities|crosscheck|all [flags]

Flags mirror the RunConfig keys; precedence is CLI flag > LIEHARM_* env
var > config-file value > built-in default.  A flag or variable sets the
key for every suite; a [run] value only replaces the global default, so a
suite section or a built-in per-suite default beats it.  Exit codes: 0
pass, 1 verification failure, 2 usage error, 3 I/O error; a reader that
closes the pipe early does not change them.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from typing import Dict, List, Optional, Sequence

from .harness import (
    ConfigError,
    DEFAULT_SPACES,
    RunConfig,
    SUITE_DEFAULTS,
    SUITES,
    report_fingerprint,
    run,
    summary_table,
)
from .lie import SPACE_FAMILIES

ENV_PREFIX = "LIEHARM_"

_SCALAR_KEYS = {
    "samples": int,
    "tol": float,
    "sigma": float,
    "seed": int,
    "p_max": int,
    "budget": int,
    "out": str,
}


def _parse_spaces(tokens: Sequence[str], ns: Sequence[int]) -> tuple:
    """--space may be 'family' or 'family:n'; bare families cross with --n."""
    spaces = []
    for tok in tokens:
        tok = tok.strip().lower()
        if ":" in tok:
            fam, _, num = tok.partition(":")
            if fam not in SPACE_FAMILIES:
                raise ConfigError(f"unknown space family {fam!r}")
            try:
                spaces.append((fam, int(num)))
            except ValueError as exc:
                raise ConfigError(f"bad space token {tok!r}") from exc
        else:
            if tok not in SPACE_FAMILIES:
                raise ConfigError(f"unknown space family {tok!r}")
            for n in ns if ns else (2, 3):
                spaces.append((tok, int(n)))
    return tuple(spaces)


def load_config_file(path: str) -> Dict:
    """Flat key-value file with a [run] section for globals and one optional
    section per suite; see README for the documented schema."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    out: Dict = {"run": {}, "suites": {}}
    for section in parser.sections():
        items = dict(parser.items(section))
        if section == "run":
            out["run"] = items
        elif section in SUITES:
            out["suites"][section] = items
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return out


def _convert(key: str, raw: str, suite: Optional[str] = None):
    """Parse a value as the type of its suite's built-in default or RunConfig
    field; an unknown key stays a string, for `RunConfig.validate` to reject."""
    defaults = SUITE_DEFAULTS.get(suite, {})
    caster = type(defaults[key]) if key in defaults else _SCALAR_KEYS.get(key, str)
    try:
        if caster is int and "e" in raw.lower():
            value = float(raw)
            if not value.is_integer():
                raise ValueError("not an integer")
            return int(value)
        return caster(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for {key}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = load_config_file(args.config) if args.config else {"run": {}, "suites": {}}
    values: Dict = {}

    for key, raw in file_cfg["run"].items():
        if key == "suites":
            values["suites"] = tuple(s.strip() for s in raw.split(",") if s.strip())
        elif key == "spaces":
            values["spaces"] = _parse_spaces([t for t in raw.split(",") if t.strip()], ())
        elif key in _SCALAR_KEYS:
            values[key] = _convert(key, raw)
        else:
            raise ConfigError(f"unknown config key {key!r} in [run]")

    explicit = set()
    for key in _SCALAR_KEYS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = _convert(key, env)
            explicit.add(key)

    if args.suite != "all":
        values["suites"] = (args.suite,)
    elif "suites" not in values:
        values["suites"] = SUITES

    if args.space:
        values["spaces"] = _parse_spaces(args.space, args.n or ())
    elif args.n:
        families = {f for f, _ in values.get("spaces", DEFAULT_SPACES)}
        values["spaces"] = tuple((f, int(n)) for f in sorted(families) for n in args.n)

    for key in _SCALAR_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
            explicit.add(key)
    values["explicit"] = tuple(key for key in _SCALAR_KEYS if key in explicit)

    overrides = {
        suite: {k: _convert(k, v, suite) for k, v in section.items()}
        for suite, section in file_cfg["suites"].items()
    }
    values["suite_overrides"] = overrides
    values.setdefault("spaces", DEFAULT_SPACES)
    try:
        return RunConfig(**values).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def print_until_closed(text: str) -> None:
    """Print text and flush; if the reader has closed the pipe (`| head`),
    stop quietly: stdout then points at the null device, so neither this
    write nor the flush at exit raises BrokenPipeError."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieharm",
        description="Verify eigenfunction, p-harmonic and Lie-algebra identities "
        "on the classical symmetric spaces.",
    )
    parser.add_argument(
        "suite",
        choices=list(SUITES) + ["all"],
        help="which verification suite to run",
    )
    parser.add_argument("--space", action="append", metavar="FAMILY[:N]",
                        help="symmetric space (sun_son, spn_un, so2n_un, su2n_spn); repeatable")
    parser.add_argument("--n", action="append", type=int,
                        help="space parameter n; repeatable, crossed with bare --space families")
    parser.add_argument("--samples", type=int, default=None, help="sample points per check")
    parser.add_argument("--tol", type=float, default=None, help="residual tolerance")
    parser.add_argument("--sigma", type=float, default=None, help="sampling spread")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--p-max", dest="p_max", type=int, default=None,
                        help="largest p for the p-harmonic certificates")
    parser.add_argument("--budget", type=int, default=None, help="budget of direction tuples for tau^p")
    parser.add_argument("--config", default=None, help="config file (see README for schema)")
    parser.add_argument("--out", default=None, help="path for the JSON report")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    lines = [summary_table(report), *(f"warning: {w}" for w in report.warnings),
             f"fingerprint: {report_fingerprint(report.to_dict())}"]
    if config.out:
        lines.append(f"report written to {config.out}")
    # a reader that stops early does not change the verdict
    print_until_closed("\n".join(lines))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
