"""Nonlinear least-squares estimation of the gradient function.

The estimator minimizes the trimmed loss

    sum_j (Y_j - X(t_j; beta, x0_hat))^2  over  delta <= t_j <= 1 - delta,

where X is the integral curve of x' = g_beta(x) started at the
estimated state x0_hat at time delta.  Minimization is damped
Gauss-Newton (Levenberg-Marquardt) with the Jacobian supplied by the
closed-form trajectory sensitivities.  Coefficient vectors whose path
is infeasible (see ``_evaluate``) get an infinite loss and act as
rejected steps, which keeps the search unconstrained.

A ``Sample`` prepares a dataset once: the trimming level, the endpoints
from the even-indexed half, and the odd-indexed half, with its
presmoothing, that every fit uses; so the two halves are independent.
On it, ``fit_at_dimension`` widens the basis by a margin, starts from
the two-stage regression, runs LM, scores by approximate leave-one-out
(from the linearized hat matrix at the fitted coefficients) and takes
the Gauss-Newton covariance.  ``select_M`` runs the same body for every
candidate dimension and keeps the best score.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import (SplineBasis, _knot_spacing, _knot_vector,
                    _smallest_support, make_basis)
from .errors import DynfitError
from .ode import (GradientModel, TrajectoryDivergenceError,
                  sensitivities_closed_form, solve_trajectory)
from .smooth import (Dataset, SmoothingError, choose_delta, cv_bandwidth,
                     estimate_endpoints, local_poly)


class EstimatorError(DynfitError, RuntimeError):
    pass


class InfeasibleCoefficientsError(EstimatorError):
    """The path of these beta is infeasible: it diverges, escapes the
    basis domain, or visits a state where g_beta <= 0 (``_evaluate``)."""


class NoDescentError(EstimatorError):
    """LM damping grew past its cap, after accepted steps or none.

    ``best_beta`` holds the last accepted coefficients and ``report`` the
    LMReport (status ``no_descent``) of the run.
    """

    def __init__(self, message, best_beta, report):
        super().__init__(message)
        self.best_beta = best_beta
        self.report = report


class SingularDesignError(EstimatorError):
    """Two-stage design does not identify all coefficients."""


class AllCandidatesFailedError(EstimatorError):
    def __init__(self, failures):
        lines = "; ".join(f"M={m}: {why}" for m, why in failures.items())
        super().__init__(f"every candidate dimension failed ({lines})")
        self.failures = failures


# LM damping: start, factor on a rejected and on an accepted step, cap;
# the iteration limit; tolerances on |gradient| / (1 + loss) and on
# |step| / (1 + |beta|).
_LAMBDA_INIT, _LAMBDA_UP, _LAMBDA_DOWN, _LAMBDA_MAX = 1e-3, 10.0, 0.1, 1e12
_MAX_ITER, _GRAD_TOL, _STEP_TOL = 200, 1e-8, 1e-10

# RK4 step of every fitted path, and of the CLI's traj_grid.  On study
# replicates 0-7 (seed 0), halving it moved the fitted coefficients by at
# most 2.5e-11 relative, far below the noise.
_STEP = 1e-3


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the full fitting pipeline.

    ``delta`` of None means the smallest trimming level that puts about
    5% of the observations in each tail.  ``order`` >= 3, and candidates
    below the order are skipped, but one must reach it.  The basis margin
    follows min(M^(-3/2) log n, s_M / log n) with s_M the smallest support
    length of the candidate basis.  Smoothing, LM and the RK4 step
    (``_STEP``) are fixed: see ``estimate_endpoints``, ``presmooth`` and
    ``lm_fit``.
    """

    delta: float | None = None
    candidate_Ms: tuple = (3, 4, 5)
    order: int = 4

    def __post_init__(self):
        if self.delta is not None and not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if self.order < 3:
            raise ValueError(f"order must be at least 3, got {self.order}")
        if not any(M >= self.order for M in self.candidate_Ms):
            raise ValueError(f"need a candidate dimension of at least the "
                             f"order {self.order}")


@dataclass(frozen=True)
class LMReport:
    status: str            # converged | step_tol | max_iter | no_descent
    iterations: int
    final_lambda: float
    grad_norm: float
    loss_value: float
    accepted_losses: tuple


@dataclass(frozen=True)
class FitResult:
    """A fitted gradient model with its selection and uncertainty data."""

    model: GradientModel
    chosen_M: int
    loss_value: float
    cv_score: float
    covariance: np.ndarray
    sigma2_hat: float
    endpoints: tuple
    delta: float
    convergence: LMReport
    n_eff: int
    candidate_scores: dict = field(default_factory=dict)
    candidate_failures: dict = field(default_factory=dict)

    def pointwise_se(self, x_grid) -> np.ndarray:
        """Standard error of the fitted gradient at each x."""
        phi = self.model.basis.eval(np.atleast_1d(np.asarray(x_grid, float)))
        var = np.einsum("qm,ml,ql->q", phi, self.covariance, phi)
        return np.sqrt(np.maximum(var, 0.0))

    def gradient_band(self, x_grid, width: float = 2.0):
        """(ghat, lower, upper) with +- width standard errors."""
        x = np.atleast_1d(np.asarray(x_grid, float))
        g = self.model.g(x)
        se = self.pointwise_se(x)
        return g, g - width * se, g + width * se


def support_margin(n_basis: int, n_obs: int, smallest_support: float) -> float:
    """Widening of the basis support beyond the estimated endpoints."""
    logn = np.log(n_obs)
    return float(min(n_basis ** -1.5 * logn, smallest_support / logn))


def margin_basis(x0_hat: float, x1_hat: float, M: int, order: int,
                 n_obs: int, margin: float | None = None) -> SplineBasis:
    """Basis of dimension M on [x0_hat, x1_hat] widened by the margin.

    The margin defaults to ``support_margin`` of the unwidened basis and
    must lie in (0, knot spacing of the unwidened basis); both are read
    off its knot vector.
    """
    _, knots = _knot_vector(x0_hat, x1_hat, M, order)
    eta = support_margin(M, n_obs, _smallest_support(knots, order)) \
        if margin is None else margin
    if not 0.0 < eta < _knot_spacing(knots, order):
        raise EstimatorError(
            f"margin {eta:.3g} outside (0, knot spacing) for M={M}")
    return make_basis(x0_hat - eta, x1_hat + eta, M, order)


def trim_mask(times: np.ndarray, delta: float) -> np.ndarray:
    return (times >= delta) & (times <= 1.0 - delta)


def _evaluate(beta, data: Dataset, delta: float, start_value: float,
              basis: SplineBasis):
    """(loss, residuals, trajectory, model); loss is +inf when infeasible.

    The fit's one feasibility rule: the RK4 path from ``start_value`` is
    finite, ends at or below the basis edge x_hi, and has g > 0 over the
    states x it visits, ``min_on(min x, max x) > 0`` (exact).  So the path
    is monotone and the closed-form Jacobian applies; g may dip below zero
    where the path does not go.
    """
    model = GradientModel(basis, np.asarray(beta, dtype=float))
    mask = trim_mask(data.times, delta)
    t_in = data.times[mask]
    try:
        # the grid hits the kept times exactly
        traj = solve_trajectory(model, delta, 1.0 - delta, start_value,
                                h=_STEP, extra_times=t_in)
    except TrajectoryDivergenceError:
        return np.inf, None, None, model
    x = traj.x_values
    if x[-1] > basis.x_hi or model.min_on(x.min(), x.max()) <= 0.0:
        return np.inf, None, None, model
    resid = data.values[mask] - traj.state_at(t_in)
    return float(resid @ resid), resid, traj, model


def _jacobian(model, traj, t_in) -> np.ndarray:
    """d(residual)/d(beta) at the kept times: the negated sensitivities."""
    return -sensitivities_closed_form(model, traj, t_in).jacobian


def residuals_and_jacobian(beta, data: Dataset, delta: float,
                           start_value: float, basis: SplineBasis):
    """Residual vector and its Jacobian d(residual)/d(beta).

    Rows cover only the trimmed-in observations; each Jacobian row is
    the negated coefficient sensitivity of the trajectory at that time.
    """
    value, resid, traj, model = _evaluate(beta, data, delta, start_value,
                                          basis)
    if not np.isfinite(value):
        raise InfeasibleCoefficientsError(
            "path infeasible (diverged, left the domain or met g <= 0)")
    return resid, _jacobian(model, traj,
                            data.times[trim_mask(data.times, delta)])


class _Start:
    """Start coefficients the caller has already evaluated: ``lm_fit``
    takes one in place of ``init_beta`` and uses ``evaluation``, the four
    values ``_evaluate`` gave at ``beta``, instead of solving them again."""

    __slots__ = ("beta", "evaluation")

    def __init__(self, beta, evaluation):
        self.beta, self.evaluation = beta, evaluation


def lm_fit(init_beta, data: Dataset, delta: float, start_value: float,
           basis: SplineBasis):
    """Levenberg-Marquardt minimization of the loss trimmed at ``delta``.

    Solves (J'J + lambda diag(J'J)) step = J'r at each iteration and
    accepts a step exactly when its loss is lower (an infeasible step's
    is +inf, see ``_evaluate``); accepted steps shrink lambda, rejected
    ones grow it, by the module's ``_LAMBDA_*`` constants; ``_*_TOL`` end
    the run.  Paths are solved at the step ``_STEP``.  ``init_beta`` may
    also be a ``_Start``, evaluated at the same ``delta``.  Returns
    (beta_hat, LMReport, residuals, J): the last two are the residual
    vector and its Jacobian d(residual)/d(beta) at beta_hat, as
    ``residuals_and_jacobian`` gives them, from the evaluation LM already
    made there.  Raises
    InfeasibleCoefficientsError if the start is infeasible, and
    NoDescentError as soon as lambda passes ``_LAMBDA_MAX``, whether or
    not earlier steps were accepted; the error carries the last accepted
    coefficients and the report.
    """
    if isinstance(init_beta, _Start):
        beta = init_beta.beta.copy()
        value, resid, traj, model = init_beta.evaluation
    else:
        beta = np.asarray(init_beta, dtype=float).copy()
        value, resid, traj, model = _evaluate(
            beta, data, delta, start_value, basis)
    if not np.isfinite(value):
        raise InfeasibleCoefficientsError("initial coefficients are infeasible")
    t_in = data.times[trim_mask(data.times, delta)]
    J = _jacobian(model, traj, t_in)
    lam = _LAMBDA_INIT
    accepted = [value]
    status = "max_iter"
    grad = J.T @ resid
    it = 0
    while it < _MAX_ITER:
        it += 1
        gnorm = np.abs(grad).max()
        if gnorm <= _GRAD_TOL * (1.0 + value):
            status = "converged"
            break
        JtJ = J.T @ J
        damped = JtJ + lam * np.diag(np.diag(JtJ))
        try:
            step = np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None:
            cand = beta - step
            cand_value, cand_resid, cand_traj, cand_model = _evaluate(
                cand, data, delta, start_value, basis)
        if step is not None and cand_value < value:
            beta, value, resid = cand, cand_value, cand_resid
            J = _jacobian(cand_model, cand_traj, t_in)
            grad = J.T @ resid
            lam *= _LAMBDA_DOWN
            accepted.append(value)
            if np.linalg.norm(step) <= _STEP_TOL * (1.0 + np.linalg.norm(beta)):
                status = "step_tol"
                break
        else:
            lam *= _LAMBDA_UP
            if lam > _LAMBDA_MAX:
                report = LMReport(status="no_descent", iterations=it,
                                  final_lambda=lam,
                                  grad_norm=float(np.abs(grad).max()),
                                  loss_value=value,
                                  accepted_losses=tuple(accepted))
                raise NoDescentError(
                    f"damping exceeded {_LAMBDA_MAX:g} without descent",
                    best_beta=beta, report=report)
    report = LMReport(status=status, iterations=it, final_lambda=lam,
                      grad_norm=float(np.abs(grad).max()), loss_value=value,
                      accepted_losses=tuple(accepted))
    return beta, report, resid, J


def constant_coefficients(basis: SplineBasis, level: float) -> np.ndarray:
    """Coefficients making the model identically ``level`` on its domain."""
    return level / basis.norm_factors


def presmooth(data: Dataset):
    """Smoothed trajectory and derivative at the observation times.

    Level by local linear fit, derivative by local quadratic fit, each
    with a Gaussian kernel and its own bandwidth, cross-validated over 20
    log-spaced values up to 0.5.  Their floor is 0.02 for ordinary sample
    sizes and shrinks like 10/n on dense samples, where the wider floor
    would leave irreducible smoothing bias.  One ``cv_bandwidth`` call
    scores both degrees over the whole grid.
    """
    grid = np.geomspace(min(0.02, 10.0 / max(data.n, 20)), 0.5, 20)
    bw_level, bw_deriv = cv_bandwidth(data, (1, 2), grid)
    level, _ = local_poly(data, 1, bw_level, data.times)
    _, deriv = local_poly(data, 2, bw_deriv, data.times)
    return level, deriv


def two_stage_fit(data: Dataset, basis: SplineBasis, delta: float,
                  presmoothed) -> np.ndarray:
    """Regress the smoothed derivative on basis functions of the level.

    Ordinary least squares of X'hat(t_j) on phi(Xhat(t_j)) over the
    trimmed-in observations; ``presmoothed`` is the pair ``presmooth``
    gives for ``data``.  A ridge jitter of 1e-10 I is added only when the
    normal matrix is numerically singular, with a warning.
    """
    level, deriv = presmoothed
    mask = trim_mask(data.times, delta)
    if mask.sum() < basis.n_basis:
        raise SingularDesignError("fewer trimmed-in points than coefficients")
    design = basis.eval(level[mask])
    if (design != 0.0).sum(axis=0).min() == 0:
        raise SingularDesignError(
            "smoothed states do not cover the support of every basis function")
    normal = design.T @ design
    rhs = design.T @ deriv[mask]
    # condition number of the symmetric normal matrix from its eigenvalues
    size = np.abs(np.linalg.eigvalsh(normal))
    cond = size.max() / size.min() if size.min() > 0.0 else np.inf
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn("two-stage normal matrix numerically singular; "
                      "adding 1e-10 ridge jitter", RuntimeWarning)
        normal = normal + 1e-10 * np.eye(basis.n_basis)
    try:
        return np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"two-stage normal equations failed: {exc}")


def _initial_coefficients(data: Dataset, basis: SplineBasis, delta: float,
                          endpoints: tuple, presmoothed):
    """Two-stage initializer with a constant-model fallback.

    ``presmoothed`` is the (level, derivative) pair of ``presmooth(data)``.
    A two-stage start with a finite loss comes back as a ``_Start``
    holding its evaluation, for ``lm_fit``; the fallback comes back as
    coefficients.  It is the average slope between the estimated
    endpoints, so its path from x0_hat ends at x1_hat, inside the widened
    basis domain (``margin_basis`` has already rejected x1_hat <= x0_hat).
    """
    x0_hat, x1_hat = endpoints
    try:
        beta = two_stage_fit(data, basis, delta, presmoothed)
        evaluation = _evaluate(beta, data, delta, x0_hat, basis)
        if np.isfinite(evaluation[0]):
            return _Start(beta, evaluation)
    except SingularDesignError:
        pass
    return constant_coefficients(basis,
                                 (x1_hat - x0_hat) / (1.0 - 2.0 * delta))


def approximate_loo_score(resid: np.ndarray, J: np.ndarray) -> float:
    """Linearized leave-one-out score sum((r_j / (1 - H_jj))^2)."""
    try:
        sol = np.linalg.solve(J.T @ J, J.T)
    except np.linalg.LinAlgError as exc:
        raise EstimatorError(f"singular normal matrix: {exc}") from None
    hat = np.einsum("jm,mj->j", J, sol)
    denom = 1.0 - hat
    if (denom <= 1e-10).any():
        raise EstimatorError("hat matrix has leverage ~1; score undefined")
    return float(np.sum((resid / denom) ** 2))


def _gauss_newton(resid: np.ndarray, J: np.ndarray):
    """(D, sigma2): D = sigma2 (J'J)^{-1}, sigma2 the residual mean square."""
    n_eff, M = J.shape
    if n_eff <= M:
        raise EstimatorError(f"only {n_eff} trimmed-in points for M={M}")
    sigma2 = float(resid @ resid) / (n_eff - M)
    JtJ = J.T @ J
    try:
        D = sigma2 * np.linalg.inv(JtJ)
    except np.linalg.LinAlgError:
        raise EstimatorError(
            f"singular normal matrix (cond={np.linalg.cond(JtJ):.3g})")
    return 0.5 * (D + D.T), sigma2


class Sample:
    """A dataset prepared once for every fit: ``delta`` (``config.delta`` or
    ``choose_delta``), the ``endpoints`` from the even half, and the odd
    half ``fit_data`` with its ``presmoothed()`` pair, made on first use."""

    def __init__(self, data: Dataset, config: FitConfig):
        if data.n < 10:
            raise EstimatorError("need at least 10 observations")
        self.n = data.n
        self.delta = config.delta if config.delta is not None \
            else choose_delta(data.times)
        self.endpoints = estimate_endpoints(data, self.delta)
        self.fit_data = data.odd_half()
        self._smoothed = None

    def presmoothed(self):
        # one smoothing for every fit; a failure fails each later fit alike
        if self._smoothed is None:
            try:
                self._smoothed = presmooth(self.fit_data)
            except SmoothingError as exc:
                self._smoothed = exc
        if isinstance(self._smoothed, SmoothingError):
            raise self._smoothed
        return self._smoothed


def _fit(sample: Sample, config: FitConfig, M: int, margin: float | None):
    """(FitResult, J): the fit at dimension M and the residual Jacobian at
    its coefficients, which is not kept on the result."""
    if config.delta is not None and config.delta != sample.delta:
        raise ValueError(f"config delta {config.delta} differs from the "
                         f"sample's {sample.delta}")
    x0_hat, x1_hat = sample.endpoints
    delta, data_fit = sample.delta, sample.fit_data
    basis = margin_basis(x0_hat, x1_hat, M, config.order, sample.n, margin)
    init = _initial_coefficients(data_fit, basis, delta, sample.endpoints,
                                 sample.presmoothed())
    beta, report, resid, J = lm_fit(init, data_fit, delta, x0_hat, basis)
    cv = approximate_loo_score(resid, J)
    cov, sigma2 = _gauss_newton(resid, J)
    return FitResult(model=GradientModel(basis, beta), chosen_M=M,
                     loss_value=report.loss_value, cv_score=cv,
                     covariance=cov, sigma2_hat=sigma2,
                     endpoints=(x0_hat, x1_hat), delta=delta,
                     convergence=report, n_eff=len(resid)), J


def fit_at_dimension(data: Dataset | Sample, config: FitConfig, M: int,
                     margin: float | None = None) -> FitResult:
    """The whole fit at basis dimension M, with its LOO score and
    covariance; ``margin`` defaults to ``support_margin``.  The
    ``candidate_Ms`` of ``config`` are not read.  A ``Sample`` given as
    ``data`` supplies delta; a config delta that differs is a ValueError."""
    sample = data if isinstance(data, Sample) else Sample(data, config)
    return _fit(sample, config, M, margin)[0]


def select_M(data: Dataset | Sample,
             config: FitConfig = FitConfig()) -> FitResult:
    """Fit every candidate dimension and keep the best LOO score.

    Endpoints come from the even-indexed half of the sample, the fits
    use the odd-indexed half; a ``Sample`` given as ``data`` supplies
    delta, and a config delta that differs is a ValueError.  Dimensions
    below the spline order are not candidates.  Candidates that fail
    (infeasible margin, singular designs, no descent, ...) are recorded
    and skipped; ties in the score break toward the smaller dimension.
    """
    sample = data if isinstance(data, Sample) else Sample(data, config)
    fits: dict[int, FitResult] = {}
    failures: dict[int, str] = {}
    candidates = {M for M in config.candidate_Ms if M >= config.order}
    for M in sorted(candidates):
        try:
            fits[M], _ = _fit(sample, config, M, None)
        except DynfitError as exc:
            failures[M] = f"{type(exc).__name__}: {exc}"
    if not fits:
        raise AllCandidatesFailedError(failures)
    best_M = min(fits, key=lambda m: (fits[m].cv_score, m))
    best = fits[best_M]
    return replace(best,
                   candidate_scores={m: f.cv_score for m, f in fits.items()},
                   candidate_failures=failures)


def _lambda_min(J: np.ndarray) -> float:
    """Smallest eigenvalue of (1/n) J'J."""
    return float(np.linalg.eigvalsh((J.T @ J) / len(J))[0])
