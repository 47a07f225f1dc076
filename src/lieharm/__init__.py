"""lieharm: verification engine for eigenfunctions and proper p-harmonic
functions on the symmetric spaces SU(n)/SO(n), Sp(n)/U(n), SO(2n)/U(n)
and SU(2n)/Sp(n)."""

__version__ = "0.1.0"

from .exact import QSqrt2, RationalComplex, rc
from .jets import JetDomainError, JetScalar, jet_log, jet_pow
from .matrices import ShapeError
from .lie import GroupSpec, SymmetricSpaceSpec, basis_g, cartan_decomposition, standard_symplectic
from .diffops import GroupFunction, directional_jet, kappa, tau, tau_iterated
from .eigenfamilies import (
    EigenfunctionSpec,
    build_eigenfunction,
    expected_eigenvalues,
    verify_eigen,
    verify_phi2,
)
from .formal import FormalSum, build_phi_p, evaluate_formal, tau_formal, verify_p_harmonic
from .harness import RunConfig, run

__all__ = [
    "QSqrt2",
    "RationalComplex",
    "rc",
    "JetDomainError",
    "JetScalar",
    "jet_log",
    "jet_pow",
    "ShapeError",
    "standard_symplectic",
    "GroupSpec",
    "SymmetricSpaceSpec",
    "basis_g",
    "cartan_decomposition",
    "GroupFunction",
    "directional_jet",
    "kappa",
    "tau",
    "tau_iterated",
    "EigenfunctionSpec",
    "build_eigenfunction",
    "expected_eigenvalues",
    "verify_eigen",
    "verify_phi2",
    "FormalSum",
    "build_phi_p",
    "evaluate_formal",
    "tau_formal",
    "verify_p_harmonic",
    "RunConfig",
    "run",
    "__version__",
]
