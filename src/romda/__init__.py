"""Reduced-order surrogate variational assimilation toolkit.

Builds POD and POD-PCE surrogates of a forward model, runs hybrid 3DVAR
solvers against them (closed-form linear analysis, gradient-based nonlinear
descent, classical finite-difference reference), and drives twin/measurement
experiments on a fast synthetic tidal model.
"""

__version__ = "0.1.0"

from .assimilate import (
    AnalysisResult,
    AssimilationProblem,
    solve_classical_3dvar,
    solve_poden3dvar,
    solve_podpce3dvar,
)
from .optimize import OptimizerConfig, bounded_quasi_newton
from .pce import PceConfig, PceModel, fit_lars, pce_eval, pce_jacobian, select_degree
from .pod import PodBasis, SnapshotMatrix, evr, fit_pod, reconstruct, truncate
from .surrogate import (
    ErrorCovariance,
    PodEnSurrogate,
    PodPceSurrogate,
    build_poden,
    build_podpce,
    corrected_error_covariance,
    metamodel_error_covariance,
    poden_predict,
    podpce_predict,
)

__all__ = [
    "__version__",
    "AnalysisResult",
    "AssimilationProblem",
    "ErrorCovariance",
    "OptimizerConfig",
    "PceConfig",
    "PceModel",
    "PodBasis",
    "PodEnSurrogate",
    "PodPceSurrogate",
    "SnapshotMatrix",
    "bounded_quasi_newton",
    "build_poden",
    "build_podpce",
    "corrected_error_covariance",
    "evr",
    "fit_lars",
    "fit_pod",
    "metamodel_error_covariance",
    "pce_eval",
    "pce_jacobian",
    "poden_predict",
    "podpce_predict",
    "reconstruct",
    "select_degree",
    "solve_classical_3dvar",
    "solve_poden3dvar",
    "solve_podpce3dvar",
    "truncate",
]
