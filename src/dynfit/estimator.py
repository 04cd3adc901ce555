"""Nonlinear least-squares estimation of the gradient function.

The estimator minimizes the trimmed loss

    sum_j (Y_j - X(t_j; beta, x0_hat))^2  over  delta <= t_j <= 1 - delta,

where X is the integral curve of x' = g_beta(x) started at the
estimated state x0_hat at time delta.  Minimization is damped
Gauss-Newton (Levenberg-Marquardt) with the Jacobian supplied by the
closed-form trajectory sensitivities.  Coefficient vectors for which
g_beta is not positive on the basis domain get an infinite loss and act
as rejected steps, which keeps the search unconstrained.

The basis dimension is chosen by an approximate leave-one-out score
built from the linearized hat matrix at the fitted coefficients.  The
start value comes from the even-indexed half of the sample; everything
else uses the odd-indexed half, so the two are independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisError, SplineBasis, make_basis
from .ode import (GradientModel, NonpositiveGradientError,
                  TrajectoryDivergenceError, sensitivities_closed_form,
                  solve_trajectory)
from .smooth import (Dataset, InsufficientDataError, SmoothingError,
                     choose_delta, cv_bandwidth, estimate_endpoints,
                     local_poly)

def default_bandwidth_grid(n_obs: int) -> tuple:
    """Log-spaced presmoothing bandwidths, 20 values up to 0.5.

    The floor is 0.02 for ordinary sample sizes and shrinks like 10/n on
    dense samples, where the wider floor would leave irreducible
    smoothing bias.
    """
    lo = min(0.02, 10.0 / max(n_obs, 20))
    return tuple(np.geomspace(lo, 0.5, 20))


class EstimatorError(RuntimeError):
    pass


class InfeasibleCoefficientsError(EstimatorError):
    """g_beta is nonpositive (or the trajectory diverges) at these beta."""


class NoDescentError(EstimatorError):
    """Damping grew past its cap without an accepted step."""

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
    the smallest support length of the candidate basis.
    """

    delta: float | None = None
    candidate_Ms: tuple = (3, 4, 5)
    order: int = 4
    lm: LMConfig = field(default_factory=LMConfig)
    h: float = 1e-3
    rng_seed: int = 0
    endpoint_degree: int = 4
    kernel: str = "gaussian"
    bandwidth_grid: tuple | None = None

    def __post_init__(self):
        if self.delta is not None and not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if len(self.candidate_Ms) == 0:
            raise ValueError("need at least one candidate dimension")


@dataclass(frozen=True)
class LMReport:
    status: str            # converged | step_tol | max_iter
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


def trim_mask(times: np.ndarray, delta: float) -> np.ndarray:
    return (times >= delta) & (times <= 1.0 - delta)


def _solve_fit_trajectory(model, data: Dataset, delta: float,
                          start_value: float, h: float):
    """Trajectory over the trimmed window hitting the kept times exactly."""
    mask = trim_mask(data.times, delta)
    t_in = data.times[mask]
    traj = solve_trajectory(model, delta, 1.0 - delta, start_value, h=h,
                            extra_times=t_in)
    return traj, t_in, data.values[mask]


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
    try:
        traj, t_in, y_in = _solve_fit_trajectory(model, data, delta,
                                                 start_value, h)
    except TrajectoryDivergenceError:
        return np.inf, None, None, model
    if traj.nonpositive_encountered or traj.x_values[-1] > basis.x_hi:
        return np.inf, None, None, model
    resid = y_in - traj.state_at(t_in)
    return float(resid @ resid), resid, traj, model


def loss(beta, data: Dataset, delta: float, start_value: float,
         basis: SplineBasis, h: float = 1e-3) -> float:
    """Trimmed sum of squared residuals; +inf for infeasible beta."""
    value, _, _, _ = _evaluate(beta, data, delta, start_value, basis, h)
    return value


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
    mask = trim_mask(data.times, delta)
    try:
        bundle = sensitivities_closed_form(model, traj, data.times[mask])
    except NonpositiveGradientError as exc:
        raise InfeasibleCoefficientsError(str(exc)) from None
    return resid, -bundle.jacobian


def lm_fit(init_beta, data: Dataset, config: FitConfig, start_value: float,
           basis: SplineBasis):
    """Levenberg-Marquardt minimization of the trimmed loss.

    Solves (J'J + lambda diag(J'J)) step = J'r at each iteration;
    accepted steps shrink lambda, rejected or infeasible ones grow it.
    Returns (beta_hat, LMReport).  Raises InfeasibleCoefficientsError if
    the start is infeasible and NoDescentError if lambda exceeds its cap
    without any accepted step.
    """
    lm = config.lm
    delta = _delta_of(config, data)
    beta = np.asarray(init_beta, dtype=float).copy()
    value, resid, traj, model = _evaluate(beta, data, delta, start_value,
                                          basis, config.h)
    if not np.isfinite(value):
        raise InfeasibleCoefficientsError("initial coefficients are infeasible")
    mask = trim_mask(data.times, delta)
    t_in = data.times[mask]

    def jac(model, traj):
        try:
            return -sensitivities_closed_form(model, traj, t_in).jacobian
        except NonpositiveGradientError:
            return None

    J = jac(model, traj)
    if J is None:
        raise InfeasibleCoefficientsError("initial coefficients are infeasible")
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
            cand_J = jac(cand_model, cand_traj)
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
    else:
        status = "max_iter"
    report = LMReport(status=status, iterations=it, final_lambda=lam,
                      grad_norm=float(np.abs(grad).max()), loss_value=value,
                      accepted_losses=tuple(accepted))
    return beta, report


def _delta_of(config: FitConfig, data: Dataset) -> float:
    return config.delta if config.delta is not None else choose_delta(data.times)


def constant_coefficients(basis: SplineBasis, level: float) -> np.ndarray:
    """Coefficients making the model identically ``level`` on its domain."""
    return level / basis.norm_factors


@dataclass(frozen=True)
class TwoStageConfig:
    level_degree: int = 1
    deriv_degree: int = 2
    kernel: str = "gaussian"
    bandwidth_grid: tuple | None = None


def presmooth(data: Dataset, cfg: TwoStageConfig = TwoStageConfig()):
    """Smoothed trajectory and derivative at the observation times.

    Level by local linear fit, derivative by local quadratic fit, each
    with its own cross-validated bandwidth.
    """
    grid = cfg.bandwidth_grid if cfg.bandwidth_grid is not None \
        else default_bandwidth_grid(data.n)
    bw_level = cv_bandwidth(data, cfg.level_degree, cfg.kernel, grid)
    level, _ = local_poly(data, cfg.level_degree, bw_level, cfg.kernel,
                          data.times)
    bw_deriv = cv_bandwidth(data, cfg.deriv_degree, cfg.kernel, grid)
    _, deriv = local_poly(data, cfg.deriv_degree, bw_deriv, cfg.kernel,
                          data.times)
    return level, deriv


def two_stage_fit(data: Dataset, basis: SplineBasis, delta: float,
                  cfg: TwoStageConfig = TwoStageConfig(),
                  presmoothed=None) -> np.ndarray:
    """Regress the smoothed derivative on basis functions of the level.

    Ordinary least squares of X'hat(t_j) on phi(Xhat(t_j)) over the
    trimmed-in observations.  A ridge jitter of 1e-10 I is added only
    when the normal matrix is numerically singular, with a warning.
    """
    level, deriv = presmoothed if presmoothed is not None else presmooth(data, cfg)
    mask = trim_mask(data.times, delta)
    if mask.sum() < basis.n_basis:
        raise SingularDesignError("fewer trimmed-in points than coefficients")
    design = basis.eval(level[mask])
    if (design != 0.0).sum(axis=0).min() == 0:
        raise SingularDesignError(
            "smoothed states do not cover the support of every basis function")
    normal = design.T @ design
    rhs = design.T @ deriv[mask]
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn("two-stage normal matrix numerically singular; "
                      "adding 1e-10 ridge jitter", RuntimeWarning)
        normal = normal + 1e-10 * np.eye(basis.n_basis)
    try:
        return np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"two-stage normal equations failed: {exc}")


def _initial_coefficients(data: Dataset, basis: SplineBasis, delta: float,
                          h: float, start_value: float, presmoothed):
    """Two-stage initializer with a constant-model fallback.

    ``presmoothed`` is the (level, derivative) pair of ``presmooth(data)``.
    """
    try:
        beta = two_stage_fit(data, basis, delta, presmoothed=presmoothed)
        if np.isfinite(loss(beta, data, delta, start_value, basis, h)):
            return beta
    except SingularDesignError:
        pass
    mask = trim_mask(data.times, delta)
    med = float(np.median(presmoothed[1][mask]))
    if med <= 0.0:
        raise InfeasibleCoefficientsError(
            "median smoothed derivative is nonpositive; no feasible start")
    return constant_coefficients(basis, med)


def _hat_diagonal(J: np.ndarray) -> np.ndarray:
    JtJ = J.T @ J
    sol = np.linalg.solve(JtJ, J.T)
    return np.einsum("jm,mj->j", J, sol)


def approximate_loo_score(resid: np.ndarray, J: np.ndarray) -> float:
    """Linearized leave-one-out score sum((r_j / (1 - H_jj))^2)."""
    hat = _hat_diagonal(J)
    denom = 1.0 - hat
    if (denom <= 1e-10).any():
        raise EstimatorError("hat matrix has leverage ~1; score undefined")
    return float(np.sum((resid / denom) ** 2))


def _fit_single_M(data_fit: Dataset, config: FitConfig, delta: float,
                  x0_hat: float, x1_hat: float, n_full: int, M: int,
                  get_presmoothed):
    """One candidate fit; ``get_presmoothed()`` returns presmooth(data_fit)."""
    basis0 = make_basis(x0_hat, x1_hat, M, config.order)
    order = config.order
    eta = support_margin(M, n_full, basis0.smallest_support)
    if not 0.0 < eta < basis0.knot_spacing:
        raise EstimatorError(
            f"margin {eta:.3g} outside (0, knot spacing) for M={M}")
    basis = make_basis(x0_hat - eta, x1_hat + eta, M, order)
    init = _initial_coefficients(data_fit, basis, delta, config.h, x0_hat,
                                 get_presmoothed())
    beta, report = lm_fit(init, data_fit, replace(config, delta=delta),
                          x0_hat, basis)
    resid, J = residuals_and_jacobian(beta, data_fit, delta, x0_hat, basis,
                                      config.h)
    cv = approximate_loo_score(resid, J)
    n_eff = len(resid)
    if n_eff <= M:
        raise EstimatorError(f"only {n_eff} trimmed-in points for M={M}")
    sigma2 = float(resid @ resid) / (n_eff - M)
    JtJ = J.T @ J
    try:
        cov = sigma2 * np.linalg.inv(JtJ)
    except np.linalg.LinAlgError:
        raise EstimatorError(
            f"singular normal matrix (cond={np.linalg.cond(JtJ):.3g})")
    cov = 0.5 * (cov + cov.T)
    return FitResult(model=GradientModel(basis, beta), chosen_M=M,
                     loss_value=report.loss_value, cv_score=cv,
                     covariance=cov, sigma2_hat=sigma2,
                     endpoints=(x0_hat, x1_hat), delta=delta,
                     convergence=report, n_eff=n_eff)


def select_M(data: Dataset, config: FitConfig = FitConfig()) -> FitResult:
    """Fit every candidate dimension and keep the best LOO score.

    Endpoints come from the even-indexed half of the sample, the fits
    use the odd-indexed half.  Candidates that fail (infeasible margin,
    singular designs, no descent, ...) are recorded and skipped; ties in
    the score break toward the smaller dimension.
    """
    if data.n < 10:
        raise EstimatorError("need at least 10 observations")
    delta = _delta_of(config, data)
    x0_hat, x1_hat = estimate_endpoints(data, delta,
                                        p=config.endpoint_degree,
                                        kernel=config.kernel)
    data_fit = data.odd_half()
    ts_cfg = TwoStageConfig(kernel=config.kernel,
                            bandwidth_grid=config.bandwidth_grid)
    smoothed = []  # the presmooth result, or its SmoothingError

    def get_presmoothed():
        # Every candidate smooths the same data: do it once, on the first
        # candidate that gets that far, and fail each later one the same way.
        if not smoothed:
            try:
                smoothed.append(presmooth(data_fit, ts_cfg))
            except SmoothingError as exc:
                smoothed.append(exc)
        if isinstance(smoothed[0], SmoothingError):
            raise smoothed[0]
        return smoothed[0]

    fits: dict[int, FitResult] = {}
    failures: dict[int, str] = {}
    for M in sorted(set(config.candidate_Ms)):
        try:
            fits[M] = _fit_single_M(data_fit, config, delta, x0_hat, x1_hat,
                                    data.n, M, get_presmoothed)
        except (BasisError, EstimatorError, SmoothingError,
                InsufficientDataError, TrajectoryDivergenceError) as exc:
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

    Returns (D, sigma2) with D = sigma2 * (J'J)^{-1} and sigma2 the
    residual mean square over the trimmed-in observations.
    """
    resid, J = residuals_and_jacobian(fit.model.beta, data, fit.delta,
                                      fit.endpoints[0], fit.model.basis, h)
    n_eff, M = J.shape
    if n_eff <= M:
        raise EstimatorError("not enough observations for a variance estimate")
    sigma2 = float(resid @ resid) / (n_eff - M)
    JtJ = J.T @ J
    try:
        D = sigma2 * np.linalg.inv(JtJ)
    except np.linalg.LinAlgError:
        raise EstimatorError(
            f"singular normal matrix (cond={np.linalg.cond(JtJ):.3g})")
    return 0.5 * (D + D.T), sigma2


def conditioning_diagnostic(fit: FitResult, data: Dataset,
                            h: float = 1e-3) -> dict:
    """Smallest eigenvalue of the scaled sensitivity Gram matrix.

    The matrix is (1/n) J'J over the trimmed-in observations at the
    fitted coefficients; its smallest eigenvalue quantifies how
    ill-posed the inverse problem is at this basis dimension.
    """
    _, J = residuals_and_jacobian(fit.model.beta, data, fit.delta,
                                  fit.endpoints[0], fit.model.basis, h)
    gram = (J.T @ J) / len(J)
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    return {"lambda_min": lam_min, "M": fit.chosen_M}
