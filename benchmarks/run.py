"""The lieharm benchmark: time to a correct verdict, end to end and per layer.

    python3 benchmarks/run.py --workload eigen-sweep --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 55

`--workload all` runs every workload in turn, each ending in its own
result line.  Each repetition runs one workload through
`lieharm.harness.run` in a fresh interpreter (`child.py`), one child at a
time, until `--seconds` have passed and at least three repetitions are
done.  The lieharm seed of every repetition is `--seed`, so all
repetitions of one invocation must produce the same records.

With `--trace 0` the end-to-end metrics are medians over the repetitions:
  wall_s        wall time of `harness.run(cfg)`, the time to verdict
  setup_s       spawn of the interpreter until the validated RunConfig exists
  cpu_s         user + system CPU of the child during wall_s
  peak_rss_mb   peak resident memory of the child
  verified_share  verified records / records expected (1 - failed_share)

With `--trace 1` repetitions alternate untraced and traced children; the
traced ones wrap lieharm's layers (`layertrace.py`) and give the per-layer
metrics, times as medians over the traced repetitions.  The tracing
overhead is the traced minus the untraced median wall time.

The verdict is correct only if, in every repetition, every pinned record
(`records/<workload>.json`) is present, passes and was not skipped, no
other record appears, and the records with `ms` stripped hash to one digest.
A run that raises counts all of its records as not verified.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
from layertrace import SPAN_GROUPS, unit  # noqa: E402
from workloads import WORKLOADS, Workload, record_key  # noqa: E402

MIN_ROUNDS = 3
DEADLINE_S = 170.0  # no child may run past this point of the invocation


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(job: dict, elapsed: float) -> dict:
    """Run one child; its set-up time is measured from just before the spawn."""
    timeout = DEADLINE_S - elapsed
    if timeout <= 0:
        raise BenchmarkError("no time left for another repetition")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(job)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"repetition did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"repetition exited with code {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is system-wide, so the child's timestamp compares with ours
    result["setup_s"] = result["ready"] - spawned
    return result


def check_records(result: dict, pinned: Counter):
    """(records not verified, problems) of one repetition against the pinned list."""
    if result["error"]:
        return sum(pinned.values()), [f"run raised: {result['error']}"]
    records = result["records"]
    seen = Counter(record_key(r) for r in records)
    problems = []
    missing, extra = pinned - seen, seen - pinned
    if missing:
        problems.append(f"missing records: {sorted(missing)}")
    if extra:
        problems.append(f"unexpected records: {sorted(extra)}")
    not_verified = sum(missing.values())
    for r in records:
        if record_key(r) not in pinned:
            continue
        if not r["pass"]:
            problems.append(f"failed: {record_key(r)} residual {r['residual']:.3e}")
        elif "skipped" in r["params"]:
            problems.append(f"skipped ({r['params']['skipped']}): {record_key(r)}")
        else:
            continue
        not_verified += 1
    return not_verified, problems


def records_digest(result: dict) -> str:
    stripped = [{k: v for k, v in r.items() if k != "ms"} for r in result["records"]]
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def repeat(workload: Workload, seed: int, seconds: float, trace: bool):
    """Untraced (and, with trace, traced) repetitions until `seconds` have passed."""
    config = workload.run_config(seed)
    start = time.monotonic()
    plain, traced = [], []
    while len(plain) < MIN_ROUNDS or time.monotonic() - start < seconds:
        plain.append(spawn({"config": config, "trace": False}, time.monotonic() - start))
        if trace:
            traced.append(spawn({"config": config, "trace": True}, time.monotonic() - start))
    return plain, traced


END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def end_to_end(plain, attempted, failed):
    metrics = {}
    for name, unit_name in END_TO_END:
        values = [r[name] for r in plain]
        metrics[name] = {"value": statistics.median(values), "unit": unit_name}
        print(
            f"{name:16} {metrics[name]['value']:12.4f} {unit_name:5} median of {len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})"
        )
    failed_share = failed / attempted
    print(
        f"{'failed_share':16} {failed_share:12.4f} {'ratio':5} {failed} of {attempted} records "
        f"not verified (base: pinned records x {len(plain)} runs)"
    )
    metrics["verified_share"] = {"value": 1.0 - failed_share, "unit": "ratio"}
    return metrics


def per_layer(workload: Workload, plain, traced, problems):
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if unit(name) == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{name} differs across traced runs of one seed: {values}")
        metrics[name] = {"value": value, "unit": unit(name)}

    untraced = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced, "unit": "s"}

    value = lambda name: metrics[name]["value"]
    print(f"{'layer':28} {'calls':>9} {'span s':>10} {'self s':>10}")
    for group in SPAN_GROUPS:
        if group == "harness.run":
            print(f"{'harness.run (report)':28} {'':>9} {'':>10} {value('harness.report_s'):10.4f}")
            continue
        print(
            f"{group:28} {value(group + '_calls'):9d} {value(group + '_s'):10.4f} "
            f"{value(group + '_self_s'):10.4f}"
        )
    for name, m in metrics.items():
        if m["unit"] != "s" and name.removesuffix("_calls") not in SPAN_GROUPS:
            print(f"{name:40} {m['value']:>12} {m['unit']}")
    print(
        f"tracing overhead: {value('trace.overhead_s'):.4f} s "
        f"(medians: traced {traced_wall:.4f} s of {len(traced)}, untraced {untraced:.4f} s of {len(plain)})"
    )

    self_times = {g: value(g + "_self_s") for g in SPAN_GROUPS if g != "harness.run"}
    self_times["harness.run"] = value("harness.report_s")
    top = max(self_times, key=self_times.get)
    share = self_times[top] / traced_wall
    verdict = "as expected" if top in workload.dominant else f"MISMATCH, expected one of {sorted(workload.dominant)}"
    print(f"dominant self time: {top} {self_times[top]:.4f} s ({share:.0%} of traced wall), {verdict}")

    for name in sorted(workload.exercised):
        calls = value(name + "_calls") if name in SPAN_GROUPS else value(name)
        if calls == 0:
            problems.append(f"self-test: {name} recorded no calls on {workload.name}")
    return metrics


def bench(workload: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload and print its report; the result dict, or None on error."""
    pinned = Counter(workload.pinned_records())
    print(f"workload {workload.name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {workload.why}")
    try:
        plain, traced = repeat(workload, seed, seconds, trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return None

    print("machine: " + json.dumps(plain[0]["machine"]) + "; generator: 1 process, 1 child at a time")
    problems, failed = [], 0
    runs = plain + traced
    for result in runs:
        not_verified, found = check_records(result, pinned)
        failed += not_verified
        problems.extend(found)
    attempted = sum(pinned.values()) * len(runs)
    digests = {records_digest(r) for r in runs if not r["error"]}
    if len(digests) > 1:
        problems.append(f"records differ across runs of one seed: {len(digests)} digests")
    print(f"records: {sum(pinned.values())} pinned per run, {len(runs)} runs, digest {', '.join(sorted(digests))}")

    if trace:
        metrics = per_layer(workload, plain, traced, problems)
    else:
        metrics = end_to_end(plain, attempted, failed)
    for problem in dict.fromkeys(problems):
        print(f"INCORRECT: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
