"""The benchmark's layer tracer binds lieharm names from outside the package;
every name it wraps must still resolve, or the traced benchmark crashes."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
