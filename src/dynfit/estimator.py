"""Nonlinear least-squares estimation of the gradient function.

The estimator minimizes the trimmed loss

    sum_j (Y_j - X(t_j; beta, x0_hat))^2  over  delta <= t_j <= 1 - delta,

where X is the integral curve of x' = g_beta(x) started at the
estimated state x0_hat at time delta.  Minimization is damped
Gauss-Newton (Levenberg-Marquardt) with the Jacobian supplied by the
closed-form trajectory sensitivities.  Coefficient vectors for which
g_beta is not positive on the basis domain get an infinite loss and act
as rejected steps, which keeps the search unconstrained.

The whole pipeline at one basis dimension is ``fit_at_dimension``:
trim, estimate the endpoints, widen the basis by a margin, start from
the two-stage regression, run LM, score by approximate leave-one-out
(from the linearized hat matrix at the fitted coefficients) and take
the Gauss-Newton covariance.  ``select_M`` runs the same body for every
candidate dimension, sharing the per-dataset work, and keeps the best
score.  The start value comes from the even-indexed half of the sample;
everything else uses the odd-indexed half, so the two are independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import SplineBasis, make_basis
from .errors import DynfitError
from .ode import (GradientModel, NonpositiveGradientError,
                  TrajectoryDivergenceError, sensitivities_closed_form,
                  solve_trajectory)
from .smooth import (Dataset, SmoothingError, choose_delta, cv_bandwidth,
                     estimate_endpoints, local_poly)


class EstimatorError(DynfitError, RuntimeError):
    pass


class InfeasibleCoefficientsError(EstimatorError):
    """g_beta is nonpositive (or the trajectory diverges) at these beta."""


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


@dataclass(frozen=True)
class LMConfig:
    lambda_init: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    max_iter: int = 200
    grad_tol: float = 1e-8
    step_tol: float = 1e-10
    lambda_max: float = 1e12


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the full fitting pipeline.

    ``delta`` of None means the smallest trimming level that puts about
    5% of the observations in each tail.  The basis margin is not
    configurable; it follows min(M^(-3/2) log n, s_M / log n) with s_M
    the smallest support length of the candidate basis.  Smoothing is
    not configurable either: see ``estimate_endpoints`` and ``presmooth``.
    """

    delta: float | None = None
    candidate_Ms: tuple = (3, 4, 5)
    order: int = 4
    lm: LMConfig = field(default_factory=LMConfig)
    h: float = 1e-3

    def __post_init__(self):
        if self.delta is not None and not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if len(self.candidate_Ms) == 0:
            raise ValueError("need at least one candidate dimension")


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
    must lie in (0, knot spacing of the unwidened basis).
    """
    probe = make_basis(x0_hat, x1_hat, M, order)
    eta = support_margin(M, n_obs, probe.smallest_support) \
        if margin is None else margin
    if not 0.0 < eta < probe.knot_spacing:
        raise EstimatorError(
            f"margin {eta:.3g} outside (0, knot spacing) for M={M}")
    return make_basis(x0_hat - eta, x1_hat + eta, M, order)


def trim_mask(times: np.ndarray, delta: float) -> np.ndarray:
    return (times >= delta) & (times <= 1.0 - delta)


def _evaluate(beta, data: Dataset, delta: float, start_value: float,
              basis: SplineBasis, h: float):
    """(loss, residuals, trajectory, model); loss is +inf when infeasible.

    Infeasible means: the gradient is nonpositive somewhere on the
    traversed state range (monotonicity lost), the trajectory diverges,
    or it escapes the basis domain.  Nonpositive stretches of g in the
    unreached margin fringes are fine; the path never sees them.
    """
    model = GradientModel(basis, np.asarray(beta, dtype=float))
    if model.g(float(start_value)) <= 0.0:
        return np.inf, None, None, model
    mask = trim_mask(data.times, delta)
    t_in = data.times[mask]
    try:
        # the grid hits the kept times exactly
        traj = solve_trajectory(model, delta, 1.0 - delta, start_value, h=h,
                                extra_times=t_in)
    except TrajectoryDivergenceError:
        return np.inf, None, None, model
    if traj.nonpositive_encountered or traj.x_values[-1] > basis.x_hi:
        return np.inf, None, None, model
    resid = data.values[mask] - traj.state_at(t_in)
    return float(resid @ resid), resid, traj, model


def loss(beta, data: Dataset, delta: float, start_value: float,
         basis: SplineBasis, h: float = 1e-3) -> float:
    """Trimmed sum of squared residuals; +inf for infeasible beta."""
    value, _, _, _ = _evaluate(beta, data, delta, start_value, basis, h)
    return value


def _jacobian(model, traj, t_in) -> np.ndarray:
    """d(residual)/d(beta) at the kept times: the negated sensitivities."""
    try:
        return -sensitivities_closed_form(model, traj, t_in).jacobian
    except NonpositiveGradientError as exc:
        raise InfeasibleCoefficientsError(str(exc)) from None


def residuals_and_jacobian(beta, data: Dataset, delta: float,
                           start_value: float, basis: SplineBasis,
                           h: float = 1e-3):
    """Residual vector and its Jacobian d(residual)/d(beta).

    Rows cover only the trimmed-in observations; each Jacobian row is
    the negated coefficient sensitivity of the trajectory at that time.
    """
    value, resid, traj, model = _evaluate(beta, data, delta, start_value,
                                          basis, h)
    if not np.isfinite(value):
        raise InfeasibleCoefficientsError(
            "gradient not positive (or trajectory diverged) at these beta")
    return resid, _jacobian(model, traj,
                            data.times[trim_mask(data.times, delta)])


class _Start:
    """Start coefficients the caller has already evaluated: ``lm_fit``
    takes one in place of ``init_beta`` and uses ``evaluation``, the four
    values ``_evaluate`` gave at ``beta``, instead of solving them again."""

    __slots__ = ("beta", "evaluation")

    def __init__(self, beta, evaluation):
        self.beta, self.evaluation = beta, evaluation


def lm_fit(init_beta, data: Dataset, config: FitConfig, start_value: float,
           basis: SplineBasis):
    """Levenberg-Marquardt minimization of the trimmed loss.

    Solves (J'J + lambda diag(J'J)) step = J'r at each iteration;
    accepted steps shrink lambda, rejected or infeasible ones grow it.
    ``init_beta`` may also be a ``_Start``, evaluated with the step size
    and trimming level that LM uses.
    Returns (beta_hat, LMReport, residuals, J): the last two are the
    residual vector and its Jacobian d(residual)/d(beta) at beta_hat, as
    ``residuals_and_jacobian`` gives them, from the evaluation LM already
    made there.  Raises InfeasibleCoefficientsError if the start is
    infeasible, and NoDescentError as soon as lambda passes
    ``lambda_max``, whether or not earlier steps were accepted; the error
    carries the last accepted coefficients and the report.
    """
    lm = config.lm
    delta = _delta_of(config, data)
    if isinstance(init_beta, _Start):
        beta = init_beta.beta.copy()
        value, resid, traj, model = init_beta.evaluation
    else:
        beta = np.asarray(init_beta, dtype=float).copy()
        value, resid, traj, model = _evaluate(
            beta, data, delta, start_value, basis, config.h)
    if not np.isfinite(value):
        raise InfeasibleCoefficientsError("initial coefficients are infeasible")
    t_in = data.times[trim_mask(data.times, delta)]
    J = _jacobian(model, traj, t_in)
    lam = lm.lambda_init
    accepted = [value]
    status = "max_iter"
    grad = J.T @ resid
    it = 0
    while it < lm.max_iter:
        it += 1
        gnorm = np.abs(grad).max()
        if gnorm <= lm.grad_tol * (1.0 + value):
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
                cand, data, delta, start_value, basis, config.h)
        cand_J = None
        if step is not None and cand_value < value:
            try:
                cand_J = _jacobian(cand_model, cand_traj, t_in)
            except InfeasibleCoefficientsError:
                pass
        if cand_J is not None:
            beta, value, resid = cand, cand_value, cand_resid
            model, traj = cand_model, cand_traj
            J = cand_J
            grad = J.T @ resid
            lam *= lm.lambda_down
            accepted.append(value)
            if np.linalg.norm(step) <= lm.step_tol * (1.0 + np.linalg.norm(beta)):
                status = "step_tol"
                break
        else:
            lam *= lm.lambda_up
            if lam > lm.lambda_max:
                report = LMReport(status="no_descent", iterations=it,
                                  final_lambda=lam,
                                  grad_norm=float(np.abs(grad).max()),
                                  loss_value=value,
                                  accepted_losses=tuple(accepted))
                raise NoDescentError(
                    f"damping exceeded {lm.lambda_max:g} without descent",
                    best_beta=beta, report=report)
    report = LMReport(status=status, iterations=it, final_lambda=lam,
                      grad_norm=float(np.abs(grad).max()), loss_value=value,
                      accepted_losses=tuple(accepted))
    return beta, report, resid, J


def _delta_of(config: FitConfig, data: Dataset) -> float:
    return config.delta if config.delta is not None else choose_delta(data.times)


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
    bw_level, bw_deriv = cv_bandwidth(data, (1, 2), "gaussian", grid)
    level, _ = local_poly(data, 1, bw_level, "gaussian", data.times)
    _, deriv = local_poly(data, 2, bw_deriv, "gaussian", data.times)
    return level, deriv


def two_stage_fit(data: Dataset, basis: SplineBasis, delta: float,
                  presmoothed=None) -> np.ndarray:
    """Regress the smoothed derivative on basis functions of the level.

    Ordinary least squares of X'hat(t_j) on phi(Xhat(t_j)) over the
    trimmed-in observations.  A ridge jitter of 1e-10 I is added only
    when the normal matrix is numerically singular, with a warning.
    """
    level, deriv = presmoothed if presmoothed is not None else presmooth(data)
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
                          h: float, endpoints: tuple, presmoothed):
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
        beta = two_stage_fit(data, basis, delta, presmoothed=presmoothed)
        evaluation = _evaluate(beta, data, delta, x0_hat, basis, h)
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


class _Sample:
    """What every candidate dimension shares: the trimming level, the
    endpoints (from the even half), the odd half and its presmoothing."""

    def __init__(self, data: Dataset, config: FitConfig):
        if data.n < 10:
            raise EstimatorError("need at least 10 observations")
        self.n = data.n
        self.delta = _delta_of(config, data)
        self.endpoints = estimate_endpoints(data, self.delta)
        self.fit_data = data.odd_half()
        self._smoothed = None

    def presmoothed(self):
        # Every candidate smooths the same data: do it once, and fail each
        # later candidate the same way.
        if self._smoothed is None:
            try:
                self._smoothed = presmooth(self.fit_data)
            except SmoothingError as exc:
                self._smoothed = exc
        if isinstance(self._smoothed, SmoothingError):
            raise self._smoothed
        return self._smoothed


def _fit(sample: _Sample, config: FitConfig, M: int, margin: float | None):
    """(FitResult, J): the fit at dimension M and the residual Jacobian at
    its coefficients, which is not kept on the result."""
    x0_hat, x1_hat = sample.endpoints
    delta, data_fit = sample.delta, sample.fit_data
    basis = margin_basis(x0_hat, x1_hat, M, config.order, sample.n, margin)
    init = _initial_coefficients(data_fit, basis, delta, config.h,
                                 sample.endpoints, sample.presmoothed())
    beta, report, resid, J = lm_fit(init, data_fit,
                                    replace(config, delta=delta), x0_hat, basis)
    cv = approximate_loo_score(resid, J)
    cov, sigma2 = _gauss_newton(resid, J)
    return FitResult(model=GradientModel(basis, beta), chosen_M=M,
                     loss_value=report.loss_value, cv_score=cv,
                     covariance=cov, sigma2_hat=sigma2,
                     endpoints=(x0_hat, x1_hat), delta=delta,
                     convergence=report, n_eff=len(resid)), J


def fit_at_dimension(data: Dataset, config: FitConfig, M: int,
                     margin: float | None = None) -> FitResult:
    """The whole fit at basis dimension M, with its LOO score and
    covariance; ``margin`` defaults to ``support_margin``.  The
    ``candidate_Ms`` of ``config`` are not read."""
    return _fit(_Sample(data, config), config, M, margin)[0]


def select_M(data: Dataset, config: FitConfig = FitConfig()) -> FitResult:
    """Fit every candidate dimension and keep the best LOO score.

    Endpoints come from the even-indexed half of the sample, the fits
    use the odd-indexed half.  Candidates that fail (infeasible margin,
    singular designs, no descent, ...) are recorded and skipped; ties in
    the score break toward the smaller dimension.
    """
    sample = _Sample(data, config)
    fits: dict[int, FitResult] = {}
    failures: dict[int, str] = {}
    for M in sorted(set(config.candidate_Ms)):
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


def covariance(fit: FitResult, data: Dataset, h: float = 1e-3):
    """Recompute the coefficient covariance on a given dataset.

    Returns (D, sigma2) as ``_gauss_newton`` does.
    """
    return _gauss_newton(*residuals_and_jacobian(
        fit.model.beta, data, fit.delta, fit.endpoints[0], fit.model.basis,
        h))


def conditioning_diagnostic(fit: FitResult, data: Dataset,
                            h: float = 1e-3) -> dict:
    """Smallest eigenvalue of the scaled sensitivity Gram matrix.

    The matrix is (1/n) J'J over the trimmed-in observations at the
    fitted coefficients; its smallest eigenvalue quantifies how
    ill-posed the inverse problem is at this basis dimension.
    """
    _, J = residuals_and_jacobian(fit.model.beta, data, fit.delta,
                                  fit.endpoints[0], fit.model.basis, h)
    return {"lambda_min": _lambda_min(J), "M": fit.chosen_M}


def _lambda_min(J: np.ndarray) -> float:
    """Smallest eigenvalue of (1/n) J'J."""
    return float(np.linalg.eigvalsh((J.T @ J) / len(J))[0])
