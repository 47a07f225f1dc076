"""Layer tracing of lieharm, installed from outside the package.

`Tracer.install` replaces the layer-boundary functions of each lieharm
module with wrappers that record a span (group, start, end, parent) per
call, and wraps the scalar and matrix dunders with wrappers that only count
calls: timing every jet or exact-scalar operation would dwarf the work.

A function imported by value (`from .diffops import tau_and_kappa`) is bound
in the importing module as well, so a wrapper placed only on its home
module would see no calls.  The tracer therefore swaps the original for its
wrapper under every name of every loaded lieharm module, including the
values of module-level dicts such as `harness.SUITE_RUNNERS`.

Spans stay in memory; `Tracer.metrics` reduces them to per-group calls,
span time and self time once the traced run has ended.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List

# span group -> (module, function names); one group may hold several functions
SPAN_GROUPS = {
    "harness.run": ("harness", ("run",)),
    "harness.eigen": ("harness", ("eigen_suite",)),
    "harness.identities": ("harness", ("identities_suite",)),
    "harness.pharmonic": ("harness", ("pharmonic_suite",)),
    "eigenfamilies.verify_eigen": ("eigenfamilies", ("verify_eigen",)),
    "lie.sample": ("lie", ("sample_with_coefficients", "sample")),
    "lie.basis": ("lie", ("basis_g", "cartan_decomposition")),
    "diffops.sweep": ("diffops", ("tau", "kappa", "tau_and_kappa")),
    "formal.tau_formal": ("formal", ("tau_formal",)),
    "formal.certify": ("formal", ("verify_p_harmonic",)),
    "formal.evaluate": ("formal", ("evaluate_formal",)),
    "identities.generator_sums": ("identities", ("check_generator_sums",)),
    "identities.coordinate": ("identities", ("check_coordinate_identities",)),
    "identities.decomposition": ("identities", ("check_kappa_basis_decomposition",)),
    "identities.skew_lemma": ("identities", ("check_skew_lemma",)),
    "identities.symplectic": ("identities", ("check_symplectic_facts",)),
}

# counter -> (module, class names, method names)
COUNTERS = {
    "diffops.fn_evals": ("diffops", ("GroupFunction",), ("__call__",)),
    "jets.mul_calls": ("jets", ("JetScalar",), ("__mul__", "__rmul__")),
    "jets.add_calls": ("jets", ("JetScalar",), ("__add__", "__radd__")),
    "exact.mul_calls": ("exact", ("QSqrt2", "RationalComplex"), ("__mul__", "__rmul__")),
    "exact.add_calls": ("exact", ("QSqrt2", "RationalComplex"), ("__add__", "__radd__")),
}

# CMatrix.__matmul__ is counted by the dtype of its product
MATMUL_COUNTERS = ("matrices.object_matmul_calls", "matrices.complex_matmul_calls")

LRU_CACHED = ("basis_g", "cartan_decomposition")


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [group, start, end, parent index or -1]
        self._stack: List[int] = []
        self._cells: Dict[str, list] = {name: [0] for name in (*COUNTERS, *MATMUL_COUNTERS)}
        self._lru = []
        self._lru_misses0 = 0

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, group: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [group, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    @staticmethod
    def _counted(cell: list, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _matmul(self, fn: Callable) -> Callable:
        obj, cpx = (self._cells[name] for name in MATMUL_COUNTERS)

        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            (obj if out.is_object() else cpx)[0] += 1
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every traced name; lieharm must already be imported."""
        module = lambda name: importlib.import_module(f"lieharm.{name}")
        replaced = {}  # id(original) -> wrapper
        for group, (mod_name, names) in SPAN_GROUPS.items():
            mod = module(mod_name)
            for name in names:
                original = getattr(mod, name)
                replaced[id(original)] = self._spanned(group, original)
        for counter, (mod_name, classes, names) in COUNTERS.items():
            mod = module(mod_name)
            cell = self._cells[counter]
            for cls_name in classes:
                cls = getattr(mod, cls_name)
                for name in names:
                    setattr(cls, name, self._counted(cell, cls.__dict__[name]))
        cmatrix = module("matrices").CMatrix
        cmatrix.__matmul__ = self._matmul(cmatrix.__dict__["__matmul__"])

        lie = module("lie")
        self._lru = [getattr(lie, name) for name in LRU_CACHED]
        self._lru_misses0 = self._lru_misses()

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lieharm" or mod_name.startswith("lieharm.")):
                continue
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if name.startswith("__"):
                    continue
                if id(value) in replaced:
                    namespace[name] = replaced[id(value)]
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]
        return self

    def _lru_misses(self) -> int:
        return sum(fn.cache_info().misses for fn in self._lru)

    # -- reduction -------------------------------------------------------------

    def groups(self) -> Dict[str, Dict[str, float]]:
        """Per span group: outermost calls, their summed span time, and self time.

        A call nested inside another call of the same group (`sample` calling
        `sample_with_coefficients`) counts once; self time is span time minus
        the time covered by child spans, so self times add up to the total.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for group, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {g: {"calls": 0, "time": 0.0, "self": 0.0} for g in SPAN_GROUPS}
        for i, (group, start, end, parent) in enumerate(spans):
            g = out[group]
            g["self"] += (end - start) - covered[i]
            if not self._has_ancestor(i, group):
                g["calls"] += 1
                g["time"] += end - start
        return out

    def _has_ancestor(self, i: int, group: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == group:
                return True
            parent = self.spans[parent][3]
        return False

    def counts(self) -> Dict[str, int]:
        out = {name: cell[0] for name, cell in self._cells.items()}
        out["lie.basis_misses"] = self._lru_misses() - self._lru_misses0
        return out

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics of one traced run."""
        groups = self.groups()
        out: Dict[str, float] = {"harness.report_s": groups["harness.run"]["self"]}
        for group, g in groups.items():
            if group != "harness.run":
                out[f"{group}_s"] = g["time"]
                out[f"{group}_self_s"] = g["self"]
                out[f"{group}_calls"] = g["calls"]
        out.update(self.counts())
        return out


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"
