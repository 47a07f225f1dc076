"""Seed scan of the nested-tau^2 suites.

    python3 scripts/seed_scan.py --seeds A B [--n N ...]

Runs the dual suite at 2 samples and the crosscheck suite at 1 sample on
the spaces of every family at each given n (default: the n of the default
spaces, 2 and 3), in this process, for every seed from A to B inclusive.
Prints each failing record with the `lieharm` command that reruns it and
the residual of its witness point replayed by `replay_record` (or the
nonzero formal tau^2 of a record that has no witness), then the worst
value of each residual component and the number of rejected draws per
suite, and the distribution of the records' scaled tau^2 per suite (max,
99th percentile and median).  Exits 1 if any record failed, 0 otherwise,
also when the reader closes the pipe early.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# lieharm first: it loads OpenBLAS with one thread only if it imports numpy first
from lieharm.cli import print_until_closed  # noqa: E402
from lieharm.harness import DEFAULT_SPACES, RunConfig, replay_record, run  # noqa: E402

import numpy as np  # noqa: E402

# the reduced sample counts of the scan, per suite
SAMPLES = {"dual": 2, "crosscheck": 1}
COMPONENTS = ("residual", "tau2_abs", "tau2_scaled", "tau1_rel", "kinv")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs=2, type=int, required=True, metavar=("A", "B"),
                        help="first and last seed, inclusive")
    default_n = sorted({n for _, n in DEFAULT_SPACES})
    parser.add_argument("--n", nargs="+", type=int, default=default_n, metavar="N",
                        help=f"the n of the spaces of every family (default: {' '.join(map(str, default_n))})")
    args = parser.parse_args(argv)
    if min(args.n) < 2:
        parser.error(f"--n takes n >= 2, got {min(args.n)}")
    families = tuple(dict.fromkeys(family for family, _ in DEFAULT_SPACES))
    spaces = tuple((family, n) for family in families for n in args.n)

    start = time.perf_counter()
    worst: Dict[str, Dict[str, float]] = {suite: dict.fromkeys(COMPONENTS, 0.0) for suite in SAMPLES}
    rejected = dict.fromkeys(SAMPLES, 0)
    scaled: Dict[str, List[float]] = {suite: [] for suite in SAMPLES}
    records = failures = 0
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cfg = RunConfig(suites=tuple(SAMPLES), spaces=spaces, seed=seed,
                        suite_overrides={suite: {"samples": k} for suite, k in SAMPLES.items()})
        for rec in run(cfg).records:
            records += 1
            suite, family = rec.name.split("/", 1)
            values = dict(rec.params, residual=rec.residual)
            for key in COMPONENTS:
                worst[suite][key] = max(worst[suite][key], values.get(key, 0.0))
            rejected[suite] += rec.params.get("rejected", 0)
            scaled[suite].append(values.get("tau2_scaled", 0.0))
            if rec.passed:
                continue
            failures += 1
            n = rec.params["n"]
            if "witness_coefficients" in rec.params:
                why = f"witness replays to {replay_record(rec, cfg):.4e}"
            else:
                why = f"formal tau^2 {rec.params['tau2_formal']}"
            print_until_closed(f"FAIL {rec.name} n={n} seed={seed} residual {rec.residual:.4e}, {why}: "
                               f"lieharm {suite} --space {family}:{n} --samples {SAMPLES[suite]} --seed {seed}")
    for suite, values in worst.items():
        print_until_closed(f"worst {suite}: " + ", ".join(f"{k} {v:.3e}" for k, v in values.items())
                           + f"; {rejected[suite]} rejected draws")
    for suite, values in scaled.items():
        q = np.percentile(values, [100, 99, 50]) if values else [0.0] * 3
        print_until_closed(f"tau2_scaled {suite}: max {q[0]:.3e}, 99th percentile {q[1]:.3e}, "
                           f"median {q[2]:.3e} over {len(values)} records")
    print_until_closed(f"{failures} of {records} records failed in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
