"""One benchmark repetition in a fresh interpreter.

    python3 benchmarks/child.py '<job json>'

The job holds the RunConfig keyword arguments and a trace flag.  The child
imports lieharm from the checkout's `src/`, builds and validates the config
(the set-up time ends there), optionally installs the layer tracer, times
`lieharm.harness.run`, and prints one JSON object on stdout.

An exception escaping `run` (not enough admissible points, JetDomainError,
BudgetExceeded, ...) is reported in the result, not raised: the parent
counts every record of that run as not verified.  Any other failure, such
as lieharm missing from the checkout, exits non-zero.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# (thread count, config) entry points of the OpenBLAS builds numpy and scipy ship
_OPENBLAS_SYMBOLS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def _blas_libraries():
    """Each OpenBLAS mapped into this process, with its config and thread count."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for threads_name, config_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                threads, config = getattr(lib, threads_name), getattr(lib, config_name)
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                info["threads"] = threads()
                info["config"] = config().decode().strip()
                break
        out.append(info)
    return out


def machine_facts():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    if not (SRC / "lieharm" / "__init__.py").is_file():
        print(f"lieharm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lieharm

    if Path(lieharm.__file__).resolve().parent != SRC / "lieharm":
        print(f"imported lieharm from {lieharm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    kwargs = dict(job["config"])
    kwargs["suites"] = tuple(kwargs["suites"])
    kwargs["spaces"] = tuple((family, n) for family, n in kwargs["spaces"])
    cfg = lieharm.RunConfig(**kwargs).validate()
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        from layertrace import Tracer  # the script's own directory is on sys.path

        tracer = Tracer().install()

    error = None
    records = []
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        report = lieharm.harness.run(cfg)
    except Exception as exc:  # a crash is a verification failure, not a benchmark failure
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    else:
        records = [r.to_dict() for r in report.records]
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "error": error,
        "records": records,
        "machine": machine_facts(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
