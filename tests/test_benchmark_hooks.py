"""The benchmark's layer tracer binds lieharm names from outside the package;
every name it wraps must still resolve, or the traced benchmark crashes, and
every layer a workload must exercise must still be called, or the traced
benchmark reports `correct: false`."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"

# RunConfig fields that shrink each workload to a run of a few seconds
REDUCED = {
    "eigen-sweep": {"samples": 2},
    "exact-algebra": {"spaces": [[f, 2] for f in ("sun_son", "spn_un", "so2n_un", "su2n_spn")], "p_max": 2},
}


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def load_layertrace():
    return load_benchmark_module("layertrace")


def lieharm_module(name):
    return importlib.import_module(f"lieharm.{name}")


def test_span_group_functions_resolve():
    trace = load_layertrace()
    for group, (mod_name, names) in trace.SPAN_GROUPS.items():
        module = lieharm_module(mod_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{group}: lieharm.{mod_name}.{name}"


def test_counted_dunders_are_defined_on_their_classes():
    trace = load_layertrace()
    for counter, (mod_name, classes, names) in trace.COUNTERS.items():
        module = lieharm_module(mod_name)
        for cls_name in classes:
            cls = getattr(module, cls_name)
            for name in names:
                assert name in cls.__dict__, f"{counter}: {cls_name}.{name}"
    cmatrix = lieharm_module("matrices").CMatrix
    assert "__matmul__" in cmatrix.__dict__ and callable(cmatrix.is_object)
    lie = lieharm_module("lie")
    for name in trace.LRU_CACHED:
        assert hasattr(getattr(lie, name), "cache_info"), f"lie.{name} is not lru-cached"


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_traced_child_exercises_every_layer(name):
    workload = load_benchmark_module("workloads").WORKLOADS[name]
    job = {"config": dict(workload.run_config(1), **REDUCED[name]), "trace": True}
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "child.py"), json.dumps(job)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["error"] is None
    assert result["records"] and all(r["pass"] for r in result["records"])
    layers, spans = result["layers"], load_layertrace().SPAN_GROUPS
    for layer in sorted(workload.exercised):
        calls = layers[layer + "_calls"] if layer in spans else layers[layer]
        assert calls > 0, f"{name}: {layer} recorded no calls"
