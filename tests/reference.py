"""Independent oracles used by the tests.

Deliberately naive implementations: a textbook pointwise Cox-de Boor
recursion for B-spline values, and plain central finite differences.
They share no code with the package so they can serve as cross-checks.

The numpy-scalar trajectory loop is the other kind of reference: the
solver as it was before it ran on Python floats, kept word for word so
that tests can require the package's solver to give the same bytes.
"""

from bisect import bisect_right

import numpy as np


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
