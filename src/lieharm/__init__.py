"""lieharm: verification engine for eigenfunctions and proper p-harmonic
functions on the symmetric spaces SU(n)/SO(n), Sp(n)/U(n), SO(2n)/U(n)
and SU(2n)/Sp(n).

`import lieharm` loads numpy (with one BLAS thread, see below) and none of
lieharm's own modules.  Each public name in `__all__` is looked up in its
home module on first use (PEP 562 `__getattr__`), and so is each
submodule, such as `lieharm.harness`.  A run loads the modules of its
suites when `RunConfig.validate` checks its config, before `harness.run`
starts: `eigenfamilies` only for the sampled suites (eigen, dual,
crosscheck), `identities` and `exact` only for the identities suite.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# OpenBLAS starts one worker thread per extra core when it loads, and reads
# its thread count from the environment only then.  lieharm's matrices are at
# most 12 x 12, far below the sizes OpenBLAS splits across threads, so the
# workers get no work but spin for tens of milliseconds of CPU.  When lieharm
# is the first to import numpy and the caller has chosen no BLAS thread count
# (OpenBLAS reads any of these variables), load it with one thread, then unset
# the variable so that subprocesses inherit nothing.  Results are bitwise the
# same for any thread count.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARIABLES):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

# public name -> its home module, imported by `__getattr__` on first use
_HOMES = {
    "RationalComplex": "exact",
    "JetScalar": "jets",
    "ShapeError": "matrices",
    "GroupSpec": "lie",
    "SymmetricSpaceSpec": "lie",
    "basis_g": "lie",
    "cartan_decomposition": "lie",
    "expected_eigenvalues": "lie",
    "standard_symplectic": "lie",
    "GroupFunction": "diffops",
    "kappa": "diffops",
    "tau": "diffops",
    "tau_iterated": "diffops",
    "EigenfunctionSpec": "eigenfamilies",
    "build_eigenfunction": "eigenfamilies",
    "verify_eigen": "eigenfamilies",
    "verify_sampled": "eigenfamilies",
    "FormalSum": "formal",
    "build_phi_p": "formal",
    "evaluate_formal": "formal",
    "tau_formal": "formal",
    "verify_p_harmonic": "formal",
    "RunConfig": "harness",
    "run": "harness",
}

_SUBMODULES = frozenset(_HOMES.values()) | {"cli", "identities"}

__all__ = [*_HOMES, "__version__"]


def _submodule(name):
    # `__import__`, not `importlib.import_module`: `python -X importtime` lists
    # only the modules that an import statement or `__import__` loads
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _HOMES:
        value = getattr(_submodule(_HOMES[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
