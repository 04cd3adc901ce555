"""Independent oracles used by the tests.

Deliberately naive implementations: a textbook pointwise Cox-de Boor
recursion for B-spline values, and plain central finite differences.
They share no code with the package so they can serve as cross-checks.

The numpy-scalar trajectory loop is the other kind of reference: the
solver as it was before it ran on Python floats, kept word for word so
that tests can require the package's solver to give the same bytes.
So is the moment smoother with its cross-validation, as it was before
one kernel pass per query block served every bandwidth and degree.
"""

from bisect import bisect_right

import numpy as np

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


def central_difference(f, x: np.ndarray, h: float) -> np.ndarray:
    return (np.asarray(f(x + h)) - np.asarray(f(x - h))) / (2 * h)


def richardson_rk4_endpoint(model, t_start, t_end, x_start, h):
    """Richardson-extrapolated RK4 endpoint (orders h and 2h combined)."""
    from dynfit.ode import solve_trajectory

    fine = solve_trajectory(model, t_start, t_end, x_start, h=h)
    coarse = solve_trajectory(model, t_start, t_end, x_start, h=2 * h)
    xf, xc = fine.x_values[-1], coarse.x_values[-1]
    return xf + (xf - xc) / 15.0


def local_poly_lstsq(times, values, t_query, degree, bandwidth, kernel):
    """(level, derivative) of the local polynomial fit, one query at a time.

    Solves each kernel-weighted least squares problem directly, by
    ``lstsq`` on the Vandermonde matrix of the scaled offsets with rows
    scaled by the square root of the weights.
    """
    level, deriv = [], []
    for q in np.atleast_1d(t_query):
        z = (np.asarray(times) - q) / bandwidth
        if kernel == "gaussian":
            w = np.exp(-0.5 * z * z)
        else:
            w = np.maximum(0.0, 0.75 * (1.0 - z * z))
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
    from dynfit.ode import TrajectoryDivergenceError, TrajectorySolution

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
    nonpos = f <= 0.0
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
        if f <= 0.0:
            nonpos = True
    return TrajectorySolution(t_grid=grid, x_values=xs, f_values=fs,
                              t_start=float(t_start), t_end=float(t_end),
                              x_start=float(x_start),
                              nonpositive_encountered=bool(nonpos))


_BLOCK = 128  # queries per block of the moment sums in _local_systems


def _kernel_weights(u: np.ndarray, kernel: str) -> np.ndarray:
    if kernel == "gaussian":
        return np.exp(-0.5 * u ** 2)
    if kernel == "epanechnikov":
        return np.maximum(0.0, 0.75 * (1.0 - u ** 2))
    raise ValueError(f"unknown kernel {kernel!r}")


def _local_systems(times, values, t_query, degree, bandwidth, kernel):
    """Weighted normal equations of the local fits, one per query.

    With z = (t_i - q)/bandwidth and kernel weights w_i, the normal
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
        wz = _kernel_weights(z, kernel)
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
                kernel: str, query_idx=None) -> np.ndarray | None:
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
                                    data.times[query_idx], degree, bandwidth,
                                    kernel)
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
    l_jj = _kernel_weights(np.zeros(1), kernel)[0] * Ainv_e1[:, 0]
    denom = 1.0 - l_jj
    if (denom <= 1e-12).any():
        return None
    return (data.values[query_idx] - level) / denom


_CV_MAX_QUERIES = 400


def cv_bandwidth(data: Dataset, degree: int, kernel: str,
                 grid) -> float:
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
        resid = _loo_errors(data, degree, bw, kernel, query_idx)
        if resid is None:
            continue
        err = float(resid @ resid)
        if err <= best_err:
            best_bw, best_err = float(bw), err
    if best_bw is None:
        raise SmoothingError("all candidate bandwidths give singular designs")
    return best_bw
