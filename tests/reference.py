"""Independent oracles used by the tests.

Deliberately naive implementations: a textbook pointwise Cox-de Boor
recursion for B-spline values, and plain central finite differences.
They share no code with the package so they can serve as cross-checks.
"""

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
