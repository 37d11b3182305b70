"""Reduced-order surrogate variational assimilation toolkit.

Builds POD and POD-PCE surrogates of a forward model, runs hybrid 3DVAR
solvers against them (closed-form linear analysis, gradient-based nonlinear
descent, classical finite-difference reference), and drives twin/measurement
experiments on a fast synthetic tidal model. The library API is imported
from its modules (``romda.pod``, ``romda.experiments``, ...); ``import romda``
loads none of them.
"""

__version__ = "0.1.0"
