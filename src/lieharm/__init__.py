"""lieharm: verification engine for eigenfunctions and proper p-harmonic
functions on the symmetric spaces SU(n)/SO(n), Sp(n)/U(n), SO(2n)/U(n)
and SU(2n)/Sp(n)."""

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

from .exact import QSqrt2, RationalComplex, rc
from .jets import JetScalar
from .matrices import ShapeError
from .lie import GroupSpec, SymmetricSpaceSpec, basis_g, cartan_decomposition, standard_symplectic
from .diffops import GroupFunction, kappa, tau, tau_iterated
from .eigenfamilies import (
    EigenfunctionSpec,
    build_eigenfunction,
    expected_eigenvalues,
    verify_eigen,
    verify_sampled,
)
from .formal import FormalSum, build_phi_p, evaluate_formal, tau_formal, verify_p_harmonic
from .harness import RunConfig, run

__all__ = [
    "QSqrt2",
    "RationalComplex",
    "rc",
    "JetScalar",
    "ShapeError",
    "standard_symplectic",
    "GroupSpec",
    "SymmetricSpaceSpec",
    "basis_g",
    "cartan_decomposition",
    "GroupFunction",
    "kappa",
    "tau",
    "tau_iterated",
    "EigenfunctionSpec",
    "build_eigenfunction",
    "expected_eigenvalues",
    "verify_eigen",
    "verify_sampled",
    "FormalSum",
    "build_phi_p",
    "evaluate_formal",
    "tau_formal",
    "verify_p_harmonic",
    "RunConfig",
    "run",
    "__version__",
]
