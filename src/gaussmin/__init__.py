"""Optimal measures and rare-event diagnostics for minima of Gaussian processes.

The package computes the probability measure nu* minimizing the covariance
double integral over an interval (whose value sigma*^2 governs the Gaussian
decay of P(min X > u)), both in closed form for the families with known
solutions and numerically on dyadic grids with optimality certificates.  On
top of the optimal measure it provides exact path sampling and change-of-
measure Monte Carlo estimators for the tail of the minimum, its sub-Gaussian
correction exponent, small-ball probabilities, and the conditional law of the
argmin location.

``__all__`` is the public API; helpers and intermediate result types are
imported from their submodules.
"""

from .exceptions import (
    ClosedFormError,
    ConfigError,
    DomainError,
    EstimationError,
    FactorizationError,
    GaussminError,
    GridMismatchError,
    NotPositiveSemidefiniteError,
    OptimizerError,
)
from .grids import MAX_LEVEL, DyadicGrid, PointGrid
from .kernels import (
    ExplicitGram,
    Kernel,
    ModulatedBrownian,
    OrnsteinUhlenbeck,
    PowerExponential,
    PowerScale,
    ScaleFunction,
    ShiftedRootScale,
    TabulatedScale,
)
from .measure import (
    GridMeasure,
    MixedMeasure,
    discretize,
    energy,
    mean_function,
    normalize,
    tv_distance,
)
from .optimizer import OptimalSolution, certify, refine, solve_simplex_qp
from .closedform import (
    ou_measure,
    ou_sigma_star_sq,
    power_law_measure,
    sigma_star_from_mu,
    tbm_measure,
)
from .gauss_sim import SamplerConfig, functionals, sample
from .estimators import (
    Estimate,
    Problem,
    argmin_conditional,
    correction_diagnostic,
    fit_correction_exponent,
    mx_conditional,
    small_ball,
    tail_crude,
    tail_is,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormError",
    "ConfigError",
    "DomainError",
    "DyadicGrid",
    "Estimate",
    "EstimationError",
    "ExplicitGram",
    "FactorizationError",
    "GaussminError",
    "GridMeasure",
    "GridMismatchError",
    "Kernel",
    "MAX_LEVEL",
    "MixedMeasure",
    "ModulatedBrownian",
    "NotPositiveSemidefiniteError",
    "OptimalSolution",
    "OptimizerError",
    "OrnsteinUhlenbeck",
    "PointGrid",
    "PowerExponential",
    "PowerScale",
    "Problem",
    "SamplerConfig",
    "ScaleFunction",
    "ShiftedRootScale",
    "TabulatedScale",
    "argmin_conditional",
    "certify",
    "correction_diagnostic",
    "discretize",
    "energy",
    "fit_correction_exponent",
    "functionals",
    "mean_function",
    "mx_conditional",
    "normalize",
    "ou_measure",
    "ou_sigma_star_sq",
    "power_law_measure",
    "refine",
    "sample",
    "sigma_star_from_mu",
    "small_ball",
    "solve_simplex_qp",
    "tail_crude",
    "tail_is",
    "tbm_measure",
    "tv_distance",
]
