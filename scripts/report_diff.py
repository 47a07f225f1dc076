"""Residual-level diff of two lieharm reports.

    python3 scripts/report_diff.py A.json B.json

Keys every record of the old report A and the new report B on
(name, n, draw, p); a key that occurs twice in one report is an error.
Prints the records only one report has, every verdict flip, whether the two
fingerprints match (and, if not, the first 8 hex digits of each, old -> new,
and the config keys that enter the fingerprint and differ, so a changed
config can be told from changed records), and per
suite the number of records both reports have, how many of their residuals
are bitwise equal, the range of the new/old ratio of the others, how many
of their `params` are equal (a record keeps its other residual components,
such as `tau2_scaled`, and its witness there), the worst residual of B, and
the summed record time (`ms`) of those records in A and in B; then each
record both have with its `ms` in A and in B and their ratio.  Exits 1 if a
verdict flipped or the record sets differ, 0 otherwise, also when the
reader closes the pipe early.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lieharm.cli import print_until_closed  # noqa: E402
from lieharm.harness import report_fingerprint, result_config  # noqa: E402

KEY_PARAMS = ("n", "draw", "p")


def keyed_records(report: Dict, label: str) -> Dict[Tuple, Dict]:
    """The records of a report by (name, n, draw, p); ValueError on a duplicate key."""
    out: Dict[Tuple, Dict] = {}
    for rec in report["records"]:
        key = (rec["name"], *(rec["params"].get(k) for k in KEY_PARAMS))
        if key in out:
            raise ValueError(f"{label}: duplicate record key {format_key(key)}")
        out[key] = rec
    return out


def format_key(key: Tuple) -> str:
    params = " ".join(f"{k}={v}" for k, v in zip(KEY_PARAMS, key[1:]) if v is not None)
    return f"{key[0]} {params}".rstrip()


def ratio(old: float, new: float) -> float:
    return new / old if old else math.inf


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the report to compare against")
    parser.add_argument("new", help="the report to compare")
    args = parser.parse_args(argv)

    reports = []
    for label in (args.old, args.new):
        with open(label, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    old, new = (keyed_records(report, label) for report, label in zip(reports, (args.old, args.new)))
    out: List[str] = []

    missing = [key for key in old if key not in new]
    added = [key for key in new if key not in old]
    common = [key for key in old if key in new]
    flips = [key for key in common if old[key]["pass"] != new[key]["pass"]]
    for title, keys in (("missing in new", missing), ("added in new", added)):
        for key in keys:
            out.append(f"{title}: {format_key(key)}")
    for key in flips:
        out.append(f"verdict flip: {format_key(key)} pass {old[key]['pass']} -> {new[key]['pass']}, "
                   f"residual {old[key]['residual']:.3e} -> {new[key]['residual']:.3e}")
    prints = [report_fingerprint(report) for report in reports]
    same = prints[0] == prints[1]
    out.append("fingerprints match" if same else f"fingerprints differ: {prints[0][:8]} -> {prints[1][:8]}")
    if not same:
        a, b = (result_config(report) for report in reports)
        keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        out.append(f"config keys that differ: {', '.join(keys) if keys else 'none'}")

    out.append(f"{'suite':12} {'records':>7} {'bitwise':>7} {'new/old ratio':>19} {'params':>7} {'worst new':>10} "
               f"{'ms old -> new':>21}")
    for suite in sorted({key[0].split("/", 1)[0] for key in common}):
        keys = [key for key in common if key[0].split("/", 1)[0] == suite]
        pairs = [(old[key]["residual"], new[key]["residual"]) for key in keys]
        ratios = [ratio(a, b) for a, b in pairs if a != b]
        span = f"x{min(ratios):.2f} - x{max(ratios):.2f}" if ratios else "-"
        equal = sum(a == b for a, b in pairs)
        same_params = sum(old[key]["params"] == new[key]["params"] for key in keys)
        worst = max(b for _, b in pairs)
        ms = [sum(report[key]["ms"] for key in keys) for report in (old, new)]
        out.append(f"{suite:12} {len(keys):7} {equal:7} {span:>19} {same_params:7} {worst:10.3e} "
                   f"{ms[0]:10.1f} -> {ms[1]:7.1f}")
    out.append(f"{'record':44} {'ms old -> new':>21} {'ratio':>8}")
    for key in common:
        a, b = old[key]["ms"], new[key]["ms"]
        out.append(f"{format_key(key):44} {a:10.1f} -> {b:7.1f} {'x' + format(ratio(a, b), '.2f'):>8}")
    out.append(f"{len(flips)} verdict flips, {len(missing)} missing and {len(added)} added records")
    print_until_closed("\n".join(out))
    return 1 if flips or missing or added else 0


if __name__ == "__main__":
    sys.exit(main())
