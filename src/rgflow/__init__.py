"""rgflow: desk-scale laboratory for Poincare constants along Gaussian
renormalization flows.

Modules
-------
covariance  covariance decompositions t -> (C_t, C_t', C_t'')
potential   renormalized potentials and their tilted-moment derivatives
flow        flow measures on grids, the scale-to-scale semigroup, the variance
            audit, heat-flow harness
spectral    the flow measure's divergence-form generator and its spectra
            (scipy's compiled LAPACK in 1-D, scipy.sparse in 2-D; loaded on
            first use)
curvature   multiscale curvature schedules and inequality certification
phi4        lattice quartic models, susceptibility, schedule formulas
oracles     independent brute-force references used by the tests (scipy)
runner/cli  config-driven experiments with machine-readable reports

``import rgflow`` loads numpy but not scipy.  The names of ``spectral``
(``build_generator``, ``rayleigh_flow_trace``, ``rayleigh_quotient``,
``spectrum``) resolve on first access, and that first access loads scipy's
compiled LAPACK wrappers, with no scipy Python package; a 2-D generator
loads ``scipy.sparse`` when it is built.  A config whose checks solve an
eigenproblem (``spectrum``, ``theorem``, ``higher-k``, ``heatflow``) loads
``spectral`` when it is parsed, and ``scipy.sparse`` too when the model is
2-D; ``rgflow oracle`` loads ``scipy.integrate``; every other run stays
without scipy.
"""

from .covariance import CovarianceSchedule, make_schedule, schedule_from_table_file
from .curvature import (CurvatureSchedule, build_schedule,
                        higher_eigenvalue_margin, integrate_schedules,
                        intertwining_check, poincare_upper_bound,
                        theorem_margin)
from .flow import (Box, FlowMeasure, GridFunction, conservation_check,
                   default_box, heatflow_harness, make_flow_measure,
                   semigroup_apply)
from .phi4 import (Phi4Model, hessian_identity_check, phi4_schedules,
                   susceptibility, tilted_covariance)
from .potential import (PotentialDescriptor, QuadratureRule,
                        renormalized_derivatives, renormalized_value)

__all__ = [
    "Box", "CovarianceSchedule", "CurvatureSchedule", "FlowMeasure",
    "GridFunction", "Phi4Model", "PotentialDescriptor", "QuadratureRule",
    "build_generator", "build_schedule", "conservation_check",
    "default_box", "heatflow_harness",
    "hessian_identity_check", "higher_eigenvalue_margin",
    "integrate_schedules", "intertwining_check", "make_flow_measure",
    "make_schedule", "phi4_schedules",
    "poincare_upper_bound", "rayleigh_flow_trace", "rayleigh_quotient",
    "renormalized_derivatives", "renormalized_value", "schedule_from_table_file",
    "semigroup_apply", "spectrum", "susceptibility", "theorem_margin",
    "tilted_covariance",
]

__version__ = "0.1.0"

_SPECTRAL_NAMES = ("build_generator", "rayleigh_flow_trace", "rayleigh_quotient",
                   "spectrum")


def __getattr__(name):
    if name in _SPECTRAL_NAMES:
        from . import spectral
        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
