"""Reproducible simulation harness.

Implements the benchmark protocol: a known cubic-spline gradient
function drives a monotone trajectory from x(0) = 0.25; each replicate
draws a sample size from {60, ..., 100}, uniform observation times, and
Gaussian noise with sd 0.01, then fits both the integral-curve
estimator (with data-driven dimension selection) and the two-stage
regression estimator on the same basis and prepared ``Sample``.  The
rate sweep fits at a forced dimension with ``fit_at_dimension``; the
conditioning sweep runs the fit body at every dimension on one Sample.

Streams are counter-based (Philox keyed by (seed, replicate index)), so
replicates are independent and insensitive to execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .basis import _leggauss, make_basis
from .errors import DynfitError
from .estimator import (EstimatorError, FitConfig, Sample, _fit, _lambda_min,
                        fit_at_dimension, select_M, support_margin,
                        two_stage_fit)
from .ode import GradientModel, _sorted_unique, solve_trajectory
from .smooth import Dataset

TRUE_KNOT_INTERVAL = (0.1, 1.1)
TRUE_RAW_COEFFICIENTS = (0.1, 1.2, 1.6, 0.4)
TRUE_X0 = 0.25

_TRUTH_STEP = 1e-4    # RK4 step of the simulated truth
_ISE_NODES = 12       # Gauss-Legendre nodes per piece of the ISE
# The rate sweep's dimension rule ceil(_DIMENSION_SCALE * n**(1/(2s+3)))
# for a gradient of smoothness s = _SMOOTHNESS.
_DIMENSION_SCALE, _SMOOTHNESS = 2.75, 3


def true_gradient_model() -> GradientModel:
    """The benchmark gradient: four cubic B-splines on [0.1, 1.1].

    The stated coefficients weight the raw (partition-of-unity) splines;
    they are rescaled here because the package basis carries unit-norm
    functions.  The resulting trajectory from x(0) = 0.25 spans roughly
    [0.25, 1.10] over the unit time interval.
    """
    basis = make_basis(*TRUE_KNOT_INTERVAL, 4, 4)
    beta = np.asarray(TRUE_RAW_COEFFICIENTS) / basis.norm_factors
    return GradientModel(basis, beta)


@dataclass(frozen=True)
class SimSpec:
    true_model: GradientModel = field(default_factory=true_gradient_model)
    x0: float = TRUE_X0
    n_range: tuple = (60, 100)
    sigma: float = 0.01
    replicates: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_range[0] <= self.n_range[1]:
            raise ValueError(f"sample-size range {self.n_range} is empty or "
                             f"starts below 1")
        if not self.sigma >= 0.0:
            raise ValueError(f"noise sd must be nonnegative, got {self.sigma}")
        if self.replicates < 1:
            raise ValueError(f"need at least one replicate, got "
                             f"{self.replicates}")
        basis = self.true_model.basis
        if self.true_model.min_on(basis.x_lo, basis.x_hi) <= 0.0:
            raise ValueError("true gradient must be positive on its domain")


@dataclass(frozen=True)
class ReplicateReport:
    seed: int
    n: int
    chosen_M: int
    ise_onestep: float
    ise_twostage: float
    endpoint_errors: tuple
    status: str
    extras: dict = field(default_factory=dict)


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _true_trajectory(spec: SimSpec):
    return solve_trajectory(spec.true_model, 0.0, 1.0, spec.x0,
                            h=_TRUTH_STEP)


def generate_dataset(spec: SimSpec, replicate_index: int,
                     _truth=None) -> Dataset:
    """One replicate's observations, fully determined by (seed, index)."""
    rng = _replicate_rng(spec.rng_seed, replicate_index)
    n = int(rng.integers(spec.n_range[0], spec.n_range[1] + 1))
    times = np.sort(rng.uniform(0.0, 1.0, n))
    truth = _truth if _truth is not None else _true_trajectory(spec)
    values = truth.state_at(times)
    if spec.sigma > 0:
        values = values + spec.sigma * rng.standard_normal(n)
    return Dataset(times, values)


def integrated_squared_error(g_a, g_b, lo: float, hi: float,
                             breakpoints=()) -> float:
    """Integral of (g_a - g_b)^2 over [lo, hi] by 12-point Gauss-Legendre.

    Splits at the supplied breakpoints so piecewise-polynomial
    integrands are handled exactly.
    """
    cuts = np.asarray(breakpoints, dtype=float)
    edges = _sorted_unique(np.concatenate(
        [[lo], cuts[(cuts > lo) & (cuts < hi)], [hi]]))
    z, w = _leggauss(_ISE_NODES)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = mid + half * z
        diff = np.asarray(g_a(u)) - np.asarray(g_b(u))
        total += half * float(w @ diff ** 2)
    return total


def _model_ise(fit_model: GradientModel, true_model: GradientModel,
               lo: float, hi: float) -> float:
    cuts = np.concatenate([fit_model.basis.breakpoints,
                           true_model.basis.breakpoints])
    return integrated_squared_error(fit_model.g, true_model.g, lo, hi, cuts)


def run_replicate(spec: SimSpec, index: int, config: FitConfig,
                  truth=None) -> ReplicateReport:
    """Generate one dataset and fit both estimators on one ``Sample`` of it.

    A preparation or fit that fails with a DynfitError is reported as a
    failed replicate; any other exception propagates.
    """
    truth = truth if truth is not None else _true_trajectory(spec)
    data = generate_dataset(spec, index, _truth=truth)
    try:
        sample = Sample(data, config)
        fit = select_M(sample, config)
        presmoothed = sample.full_presmoothed()
    except DynfitError as exc:
        return ReplicateReport(seed=index, n=data.n, chosen_M=-1,
                               ise_onestep=np.nan, ise_twostage=np.nan,
                               endpoint_errors=(np.nan, np.nan),
                               status=f"failed: {type(exc).__name__}",
                               extras={"index": index})
    x_true = (truth.state_at(fit.delta), truth.state_at(1.0 - fit.delta))
    lo, hi = fit.endpoints
    ise1 = _model_ise(fit.model, spec.true_model, lo, hi)
    try:
        beta_ts = two_stage_fit(sample.fit_data, fit.model.basis, fit.delta,
                                presmoothed)
        ise2 = _model_ise(GradientModel(fit.model.basis, beta_ts),
                          spec.true_model, lo, hi)
    except EstimatorError:
        ise2 = np.nan
    g06, se06 = fit.model.g(0.6), float(fit.pointwise_se([0.6])[0])
    ise1_true_window = _model_ise(fit.model, spec.true_model,
                                  x_true[0], x_true[1])
    return ReplicateReport(
        seed=index, n=data.n, chosen_M=fit.chosen_M,
        ise_onestep=ise1, ise_twostage=ise2,
        endpoint_errors=(fit.endpoints[0] - x_true[0],
                         fit.endpoints[1] - x_true[1]),
        status=fit.convergence.status,
        extras={"index": index, "cv_score": fit.cv_score,
                "sigma2_hat": fit.sigma2_hat,
                "g_at_0.6": g06, "se_at_0.6": se06,
                "true_g_at_0.6": float(spec.true_model.g(0.6)),
                "ise_true_window": ise1_true_window})


def _quartiles(values) -> dict:
    arr = np.asarray([v for v in values if np.isfinite(v)])
    if len(arr) == 0:
        return {"q25": None, "median": None, "q75": None}
    q = np.quantile(arr, [0.25, 0.5, 0.75])
    return {"q25": float(q[0]), "median": float(q[1]), "q75": float(q[2])}


def run_study(spec: SimSpec, config: FitConfig | None = None):
    """All replicates plus a summary; deterministic given the seed.

    Returns (reports, summary).  Replicate failures are recorded in the
    reports and counted in the summary, never fatal.
    """
    config = config if config is not None else FitConfig()
    truth = _true_trajectory(spec)
    reports = [run_replicate(spec, i, config, truth=truth)
               for i in range(spec.replicates)]
    chosen = [r.chosen_M for r in reports if r.chosen_M > 0]
    histogram = {int(m): int(sum(1 for c in chosen if c == m))
                 for m in sorted(set(chosen))}
    summary = {
        "replicates": spec.replicates,
        "failures": int(sum(1 for r in reports if r.chosen_M < 0)),
        "ise_onestep": _quartiles([r.ise_onestep for r in reports]),
        "ise_twostage": _quartiles([r.ise_twostage for r in reports]),
        "selection_histogram": histogram,
        "endpoint_abs_error": _quartiles(
            [abs(r.endpoint_errors[0]) for r in reports]),
    }
    return reports, summary


def conditioning_sweep(spec: SimSpec, dims=(4, 8, 16, 32), n: int = 4000,
                       config: FitConfig | None = None) -> dict:
    """Smallest eigenvalue of the sensitivity Gram matrix across dims.

    Fits noiseless dense data at each dimension on a common basis
    interval (margin taken from the largest dimension) so that only the
    number of basis functions varies, then reports lambda_min of
    (1/n) J'J per dimension and the shrink factor per doubling.  The
    endpoints and the presmoothing are computed once for all dimensions,
    and J is the one each fit ends with, as ``residuals_and_jacobian``
    would recompute it at the fitted coefficients.
    """
    config = config if config is not None else FitConfig()
    data = generate_dataset(replace(spec, sigma=0.0, n_range=(n, n)), 0)
    sample = Sample(data, config)
    margin = support_margin(*sample.endpoints, max(dims), config.order, n)
    lam = {M: _lambda_min(_fit(sample, config, M, margin)[1])
           for M in sorted(dims)}
    factors = {f"{a}->{2 * a}": lam[a] / lam[2 * a]
               for a in lam if 2 * a in lam}
    return {"lambda_min": lam, "shrink_factors": factors, "n": n,
            "margin": margin}


def rate_sweep(spec: SimSpec, n_list, config: FitConfig | None = None,
               fixed_M: int | None = None) -> dict:
    """Log-log slope of mean integrated squared error against n.

    Fits ``spec.replicates`` datasets at each sample size.  The basis
    dimension is ``fixed_M``, or else ceil(2.75 n^(1/9)) (the n-rule for
    a gradient of smoothness 3) but at least the order, and the mean
    one-step error over the replicates is recorded.  Returns the OLS
    slope with its standard error.  Requires four sample sizes or more
    and a 70% success rate per n; a ``fixed_M`` below ``config.order`` is
    a ValueError before any fit.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 4:
        raise ValueError("need at least 4 sample sizes for a slope")
    config = config if config is not None else FitConfig()
    if fixed_M is not None:  # FitConfig rejects a dimension below the order
        config = replace(config, candidate_Ms=(fixed_M,))
    replicates = spec.replicates
    exponent = 1.0 / (2 * _SMOOTHNESS + 3)
    per_n = []
    for n in n_list:
        M = fixed_M if fixed_M is not None \
            else max(int(np.ceil(_DIMENSION_SCALE * n ** exponent)),
                     config.order)
        spec_n = replace(spec, n_range=(n, n))
        truth = _true_trajectory(spec_n)
        ises = []
        for i in range(replicates):
            data = generate_dataset(spec_n, i, _truth=truth)
            try:
                fit = fit_at_dimension(data, config, M)
            except DynfitError:
                continue
            ises.append(_model_ise(fit.model, spec_n.true_model,
                                   *fit.endpoints))
        if len(ises) < 0.7 * replicates:
            raise EstimatorError(
                f"only {len(ises)}/{replicates} replicates succeeded at n={n}")
        per_n.append({"n": n, "M": M, "mean_ise": float(np.mean(ises)),
                      "n_ok": len(ises)})
    x = np.log([row["n"] for row in per_n])
    y = np.log([row["mean_ise"] for row in per_n])
    design = np.column_stack([np.ones_like(x), x])
    coef, res, *_ = np.linalg.lstsq(design, y, rcond=None)
    dof = len(x) - 2
    rss = float(res[0]) if len(res) else float(((design @ coef - y) ** 2).sum())
    var = rss / dof * np.linalg.inv(design.T @ design)[1, 1] if dof > 0 else np.nan
    return {"slope": float(coef[1]), "slope_se": float(np.sqrt(var)),
            "per_n": per_n}
