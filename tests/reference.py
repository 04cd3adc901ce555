"""Independent oracles used by the tests.

Deliberately naive implementations: a textbook pointwise Cox-de Boor
recursion for B-spline values, plain central finite differences, and a
Gram matrix by Gauss-Legendre quadrature on every knot interval.

RK4 on the linear sensitivity equations checks the package's closed
forms: ``sensitivities_ode`` for the first order, ``_hessian_ode`` for
the second, with g'' from the derivative of the model's g' table.

The numpy-scalar trajectory loop is the other kind of reference: the
solver as it was before it ran on Python floats, kept word for word so
that tests can require the package's solver to give the same bytes.
``vectorised_min_on`` is the exact minimum of g as it was computed on
the vector path of g, before ``GradientModel.min_on`` moved to floats.
So is the moment smoother with its cross-validation, as it was before
one kernel pass per query block served every bandwidth and degree.
"""

from bisect import bisect_right

import numpy as np
from numpy.polynomial.legendre import leggauss

from dynfit.basis import _differentiate
from dynfit.ode import (SensitivityBundle, TrajectoryDivergenceError,
                        TrajectorySolution, _real_roots, _sorted_unique,
                        solve_trajectory)
from dynfit.smooth import Dataset, SmoothingError


def cox_de_boor(x: float, k: int, i: int, t) -> float:
    """Value of the order-(k) B-spline N_{i,k} at x (recursion on k).

    ``k`` counts the order (k=1 is the indicator), ``t`` is the full
    knot vector.  Right-continuous convention, with the top interval
    closed so the last spline reaches 1 at the right boundary.
    """
    if k == 1:
        if t[i] <= x < t[i + 1]:
            return 1.0
        if x == t[i + 1] == t[-1] and t[i] < t[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    if t[i + k - 1] > t[i]:
        left = (x - t[i]) / (t[i + k - 1] - t[i]) * cox_de_boor(x, k - 1, i, t)
    right = 0.0
    if t[i + k] > t[i + 1]:
        right = ((t[i + k] - x) / (t[i + k] - t[i + 1])
                 * cox_de_boor(x, k - 1, i + 1, t))
    return left + right


def raw_basis_values(basis, x: float) -> np.ndarray:
    """All raw B-spline values at x via the textbook recursion."""
    return np.array([cox_de_boor(x, basis.order, i, basis.knots)
                     for i in range(basis.n_basis)])


def raw_eval(basis, x, deriv: int = 0) -> np.ndarray:
    """The package's basis values (or first derivatives) at ``x``, taken
    back to the unnormalized, partition-of-unity splines."""
    return basis.eval(x, deriv) / basis.norm_factors


def gram_matrix(basis) -> np.ndarray:
    """Pairwise L2 inner products of the basis functions, by Gauss-Legendre
    quadrature on every knot interval (exact for products of splines)."""
    z, w = leggauss(basis.order + 1)
    bp = basis.breakpoints
    half = 0.5 * np.diff(bp)[:, None]
    vals = basis.eval((0.5 * (bp[1:] + bp[:-1])[:, None] + half * z).ravel())
    g = vals.T @ ((half * w).ravel()[:, None] * vals)
    return 0.5 * (g + g.T)


def central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    return (np.asarray(f(x + h)) - np.asarray(f(x - h))) / (2 * h)


def richardson_rk4_endpoint(model, t_start, t_end, x_start, h):
    """Richardson-extrapolated RK4 endpoint (orders h and 2h combined)."""
    fine = solve_trajectory(model, t_start, t_end, x_start, h=h)
    coarse = solve_trajectory(model, t_start, t_end, x_start, h=2 * h)
    xf, xc = fine.x_values[-1], coarse.x_values[-1]
    return xf + (xf - xc) / 15.0


def local_poly_lstsq(times, values, t_query, degree, bandwidth):
    """(level, derivative) of the local polynomial fit, one query at a time.

    Solves each Gaussian-kernel weighted least squares problem directly,
    by ``lstsq`` on the Vandermonde matrix of the scaled offsets with rows
    scaled by the square root of the weights.
    """
    level, deriv = [], []
    for q in np.atleast_1d(t_query):
        z = (np.asarray(times) - q) / bandwidth
        w = np.exp(-0.5 * z * z)
        root = np.sqrt(w)
        vander = np.vander(z, degree + 1, increasing=True)
        coef = np.linalg.lstsq(root[:, None] * vander, root * values,
                               rcond=None)[0]
        level.append(coef[0])
        deriv.append(coef[1] / bandwidth)
    return np.array(level), np.array(deriv)


class NumpyScalarGradient:
    """A GradientModel's scalar g, evaluated on numpy scalars and arrays
    (its breakpoint array and its g coefficient table) as the package did
    before its scalar path moved to Python lists."""

    def __init__(self, model):
        self.basis = model.basis
        self._gpoly = model._gpoly

    def _poly_at(self, x: float, which: int) -> float:
        bas = self.basis
        x = min(max(x, bas.x_lo), bas.x_hi)
        j = bisect_right(bas.breakpoints, x) - 1
        j = min(max(j, 0), len(bas.breakpoints) - 2)
        u = x - bas.breakpoints[j]
        c = self._gpoly[which][j]
        acc = 0.0
        for m in range(len(c) - 1, -1, -1):
            acc = acc * u + c[m]
        return acc

    def g(self, x):
        return self._poly_at(float(x), 0)


def vectorised_min_on(model, lo: float, hi: float) -> float:
    """Exact minimum of g over [lo, hi], both clamped to the domain: the
    vector path of g at lo, hi, the breakpoints between them and the
    roots of g' on each interval."""
    bas = model.basis
    lo, hi = (min(max(float(v), bas.x_lo), bas.x_hi) for v in (lo, hi))
    bp = bas.breakpoints
    points = [np.array([lo, hi]), bp[(bp > lo) & (bp < hi)]]
    first, last = bas.interval_index(np.array([lo, hi]))
    for j in range(first, last + 1):
        roots = bp[j] + np.asarray(_real_roots(model._gpoly[1][j]))
        points.append(np.clip(roots, max(lo, bp[j]), min(hi, bp[j + 1])))
    return float(model.g(np.concatenate(points)).min())


def numpy_time_grid(t_start: float, t_end: float, h: float,
                    extra_times=None) -> np.ndarray:
    """The solver's time grid, merged with the extra times by np.unique."""
    n_full = int(np.floor((t_end - t_start) / h + 1e-9))
    grid = t_start + h * np.arange(n_full + 1)
    if grid[-1] < t_end - 1e-12:
        grid = np.append(grid, t_end)
    else:
        grid[-1] = t_end
    if extra_times is not None and len(extra_times):
        extra = np.asarray(extra_times, dtype=float)
        grid = np.unique(np.concatenate([grid, extra]))
        grid = grid[(grid >= t_start) & (grid <= t_end)]
    return grid


def numpy_scalar_solve_trajectory(model, t_start: float, t_end: float,
                                  x_start: float, h: float = 1e-3,
                                  overflow_bound: float = 1e6,
                                  extra_times=None):
    """Classical RK4 on numpy scalars: the solver loop before it moved to
    Python floats."""
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    if h <= 0:
        raise ValueError("step size must be positive")
    grid = numpy_time_grid(t_start, t_end, h, extra_times)
    g = model.g
    x = float(x_start)
    xs = np.empty(len(grid))
    fs = np.empty(len(grid))
    xs[0] = x
    f = g(x)
    fs[0] = f
    for i in range(len(grid) - 1):
        dt = grid[i + 1] - grid[i]
        k1 = fs[i]
        k2 = g(x + 0.5 * dt * k1)
        k3 = g(x + 0.5 * dt * k2)
        k4 = g(x + dt * k3)
        x = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not np.isfinite(x) or abs(x) > overflow_bound:
            raise TrajectoryDivergenceError(
                f"state overflow at t={grid[i + 1]:.6g} (|x| > {overflow_bound:g})")
        f = g(x)
        xs[i + 1] = x
        fs[i + 1] = f
    return TrajectorySolution(t_grid=grid, x_values=xs, f_values=fs,
                              t_start=float(t_start), t_end=float(t_end),
                              x_start=float(x_start))


_BLOCK = 128  # queries per block of the moment sums in _local_systems


def _local_systems(times, values, t_query, degree, bandwidth):
    """Weighted normal equations of the local fits, one per query.

    With z = (t_i - q)/bandwidth and Gaussian kernel weights w_i, the normal
    matrix at query q is the Hankel matrix of the weighted moments
    S_k = sum_i w_i z_i^k (k = 0..2d), and the right-hand side holds
    T_m = sum_i w_i z_i^m y_i (m = 0..d).  Both come from one running
    product w z^k over blocks of _BLOCK queries, so memory stays
    O(_BLOCK * n) whatever the number of queries.  Returns
    (active, A, rhs): the number of observations with positive weight,
    the (q, d+1, d+1) matrices and the (q, d+1) right-hand sides.
    """
    n_mom = 2 * degree + 1
    S = np.empty((len(t_query), n_mom))
    T = np.empty((len(t_query), degree + 1))
    active = np.empty(len(t_query), dtype=int)
    for start in range(0, len(t_query), _BLOCK):
        rows = slice(start, start + _BLOCK)
        z = (times[None, :] - t_query[rows, None]) / bandwidth
        wz = np.exp(-0.5 * z ** 2)
        active[rows] = (wz > 0).sum(axis=1)
        for k in range(n_mom):
            if k:
                wz *= z
            S[rows, k] = wz.sum(axis=1)
            if k <= degree:
                T[rows, k] = wz @ values
    hankel = np.add.outer(np.arange(degree + 1), np.arange(degree + 1))
    return active, S[:, hankel], T


def _loo_errors(data: Dataset, degree: int, bandwidth: float,
                query_idx=None) -> np.ndarray | None:
    """Exact leave-one-out residuals of the level fit at the data times.

    Uses the linear-smoother identity (y - yhat)/(1 - l_jj), where l_jj
    is the weight the fit at t_j places on observation j.  Returns None
    when the design is singular for this bandwidth.  ``query_idx``
    restricts the residuals to a subset of observations (the smoother
    still uses all of them).
    """
    if query_idx is None:
        query_idx = np.arange(data.n)
    active, A, rhs = _local_systems(data.times, data.values,
                                    data.times[query_idx], degree, bandwidth)
    if (active < degree + 1).any():
        return None
    try:
        coef = np.linalg.solve(A, rhs[..., None])[..., 0]
        e1 = np.zeros(degree + 1)
        e1[0] = 1.0
        Ainv_e1 = np.linalg.solve(
            A, np.broadcast_to(e1[:, None],
                               (len(query_idx), degree + 1, 1)))[..., 0]
    except np.linalg.LinAlgError:
        return None
    level = coef[:, 0]
    denom = 1.0 - Ainv_e1[:, 0]  # the kernel weight at offset 0 is 1
    if (denom <= 1e-12).any():
        return None
    return (data.values[query_idx] - level) / denom


_CV_MAX_QUERIES = 400


def cv_bandwidth(data: Dataset, degree: int, grid) -> float:
    """Bandwidth from the grid minimizing leave-one-out level error.

    Ties break toward the larger bandwidth.  Raises SmoothingError when
    every grid value yields a singular design.  On large samples the
    score is evaluated at a deterministic thinning of the observations
    (every k-th point) to keep the cost linear in n; the left-out fits
    always use the full sample.  Each grid value costs one pass of the
    blocked moment sums of ``_local_systems`` over those queries.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if len(grid) == 0 or grid[0] <= 0:
        raise ValueError("bandwidth grid must be nonempty and positive")
    if data.n > _CV_MAX_QUERIES:
        stride = -(-data.n // _CV_MAX_QUERIES)
        query_idx = np.arange(0, data.n, stride)
    else:
        query_idx = None
    best_bw, best_err = None, np.inf
    for bw in grid:
        resid = _loo_errors(data, degree, bw, query_idx)
        if resid is None:
            continue
        err = float(resid @ resid)
        if err <= best_err:
            best_bw, best_err = float(bw), err
    if best_bw is None:
        raise SmoothingError("all candidate bandwidths give singular designs")
    return best_bw


def _rk4(rhs, model, y0, grid) -> np.ndarray:
    """Classical RK4 for y' = rhs(model, y); the state at every grid node."""
    ys = np.empty((len(grid), len(y0)))
    ys[0] = y = y0
    for i, dt in enumerate(np.diff(grid)):
        k1 = rhs(model, y)
        k2 = rhs(model, y + 0.5 * dt * k1)
        k3 = rhs(model, y + 0.5 * dt * k2)
        k4 = rhs(model, y + dt * k3)
        y = y + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        ys[i + 1] = y
    return ys


def _sensitivity_rhs(model, y):
    """(x, S, A)' = (g(x), g'(x) S + phi(x), g'(x) A), phi the clamped row."""
    M = model.n_params
    x = y[0]
    gp = model.g_prime(x)
    return np.concatenate(([model.g(x)], y[1:M + 1] * gp + model.basis_row(x),
                           [y[M + 1] * gp]))


def sensitivities_ode(model, traj: TrajectorySolution,
                      t_query) -> SensitivityBundle:
    """First-order sensitivities by RK4 on the augmented linear system.

    The state is re-integrated alongside the sensitivities (sharing all
    gradient evaluations) on the trajectory grid refined with the query
    times, so the bundle is read off at exact grid nodes.
    """
    t_query = np.atleast_1d(np.asarray(t_query, dtype=float))
    if t_query.min() < traj.t_start - 1e-12 or t_query.max() > traj.t_end + 1e-12:
        raise ValueError("query time outside the solved window")
    M = model.n_params
    grid = _sorted_unique(np.concatenate([traj.t_grid, t_query]))
    y0 = np.concatenate(([traj.x_start], np.zeros(M), [1.0]))
    ys = _rk4(_sensitivity_rhs, model, y0, grid)[grid.searchsorted(t_query)]
    return SensitivityBundle(t_query=t_query, jacobian=ys[:, 1:M + 1],
                             initial_sensitivity=ys[:, M + 1])


def _basis_prime_row(model, x):
    """Derivative of the basis row; zero under the flat extension."""
    if model.basis.x_lo <= x <= model.basis.x_hi:
        return model.basis.eval(x, 1)
    return np.zeros(model.n_params)


def _hessian_rhs(model, y, g2_rows):
    """(x, S, A, H)' with H' = g' H + S phi'^T + phi' S^T + g'' S S^T.

    ``g2_rows`` holds the coefficients of g'' per knot interval, highest
    degree first; g'' is zero outside the domain (flat extension).
    """
    M = model.n_params
    x, S, H = y[0], y[1:M + 1], y[M + 2:].reshape(M, M)
    inside = model.basis.x_lo <= x <= model.basis.x_hi
    g2 = model._poly_at(float(x), g2_rows) if inside else 0.0
    cross = np.outer(S, _basis_prime_row(model, x))
    dH = (H * model.g_prime(x) + cross + cross.T + g2 * np.outer(S, S))
    return np.concatenate((_sensitivity_rhs(model, y[:M + 2]), dH.ravel()))


def _hessian_ode(model, traj, t_query):
    M = model.n_params
    g2_rows = _differentiate(model._gpoly[1])[:, ::-1]
    grid = _sorted_unique(np.concatenate([traj.t_grid, t_query]))
    y0 = np.concatenate(([traj.x_start], np.zeros(M), [1.0],
                         np.zeros(M * M)))
    ys = _rk4(lambda m, y: _hessian_rhs(m, y, g2_rows), model, y0,
              grid)[grid.searchsorted(t_query)]
    H = ys[:, M + 2:].reshape(-1, M, M)
    return SensitivityBundle(t_query=t_query, jacobian=ys[:, 1:M + 1],
                             initial_sensitivity=ys[:, M + 1],
                             hessian=0.5 * (H + H.transpose(0, 2, 1)))
