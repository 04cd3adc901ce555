"""Nonparametric estimation of monotone-trajectory dynamics.

Estimates the gradient function g of x'(t) = g(x(t)) from noisy
observations of one strictly increasing trajectory: a spline expansion
of g fitted by trimmed nonlinear least squares on the integral curve,
initialized by a two-stage smoothing regression, with data-driven
choice of the basis dimension and pointwise uncertainty bands.
"""

from .basis import BasisError, SplineBasis, gram_matrix, make_basis
from .errors import DynfitError
from .estimator import (AllCandidatesFailedError, EstimatorError, FitConfig,
                        FitResult, InfeasibleCoefficientsError, LMConfig,
                        LMReport, NoDescentError, SingularDesignError,
                        approximate_loo_score, conditioning_diagnostic,
                        covariance, fit_at_dimension, lm_fit, loss,
                        residuals_and_jacobian, select_M, support_margin,
                        two_stage_fit)
from .ode import (GradientModel, NonpositiveGradientError, SensitivityBundle,
                  TrajectoryDivergenceError, TrajectorySolution,
                  hessian_sensitivities, sensitivities_closed_form,
                  sensitivities_ode, solve_trajectory)
from .sim import (ReplicateReport, SimSpec, conditioning_sweep,
                  generate_dataset, integrated_squared_error, rate_sweep,
                  run_replicate, run_study, true_gradient_model)
from .smooth import (Dataset, InsufficientDataError, SmoothingError,
                     choose_delta, cv_bandwidth, estimate_endpoints,
                     local_poly)

__version__ = "0.1.0"

__all__ = [
    "AllCandidatesFailedError", "BasisError", "Dataset", "DynfitError",
    "EstimatorError", "FitConfig", "FitResult", "GradientModel",
    "InfeasibleCoefficientsError", "InsufficientDataError", "LMConfig",
    "LMReport", "NoDescentError", "NonpositiveGradientError",
    "ReplicateReport", "SensitivityBundle", "SimSpec", "SingularDesignError",
    "SmoothingError", "SplineBasis", "TrajectoryDivergenceError",
    "TrajectorySolution", "approximate_loo_score", "choose_delta",
    "conditioning_diagnostic", "conditioning_sweep", "covariance",
    "cv_bandwidth", "estimate_endpoints", "fit_at_dimension",
    "generate_dataset", "gram_matrix", "hessian_sensitivities",
    "integrated_squared_error", "lm_fit", "local_poly", "loss", "make_basis",
    "rate_sweep", "residuals_and_jacobian", "run_replicate", "run_study",
    "select_M", "sensitivities_closed_form", "sensitivities_ode",
    "solve_trajectory", "support_margin", "true_gradient_model",
    "two_stage_fit",
]
