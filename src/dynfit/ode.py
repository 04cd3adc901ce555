"""Trajectories of x' = g(x) and their parameter sensitivities.

The gradient function is a spline-coefficient model extended flat
outside its basis domain.  Trajectories are integrated with the
classical 4th-order Runge-Kutta scheme on a uniform grid (last step
shortened), with cubic-Hermite dense output using g as the slope; the
loop reuses g at each node as the next stage and the Hermite slope.

That loop runs on Python floats, not numpy scalars: the step sizes come
from ``np.diff`` of the grid as a list, and the scalar path of g reads
its breakpoints and coefficient rows from lists, finds the interval by
``bisect`` and applies Horner's rule.  Both kinds of scalar are IEEE
doubles and every operation keeps its operands and its order, so the
states and slopes are the same bit for bit as on numpy scalars
(``tests/reference.py`` keeps that loop as the reference).

When g > 0 along the path, which ``GradientModel.min_on`` decides
exactly over the visited states (g is piecewise polynomial), the
sensitivities have closed forms in the state variable, from the
integral curve T(X; beta) = integral of du/g(u) from x0 to X =
t - t_start: the Jacobian is g(X) times the integral of phi/g^2, and
the Hessian adds the integral of phi phi^T/g^3.  So they need only the
start state and the states at the query times:
``sensitivities_closed_form(model, x0, xq)`` and
``hessian_sensitivities(model, x0, xq)``, not a trajectory.  One engine,
``_state_integrals``, computes every such integral on one Gauss-Legendre
node table over the traversed state range (a few points per piece of
every knot interval, with a piece halved only where its rule has not
settled), so its cost does not grow with the number of query states
beyond one short rule each.  Their independent oracle, RK4 on the
linear sensitivity equations, lives with the tests
(``tests/reference.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .basis import SplineBasis, _leggauss
from .errors import DynfitError

# Node table of sensitivities_closed_form: Gauss-Legendre points per piece,
# pieces per knot interval, and the error control of each piece.
_GAUSS_NODES = 10
_SUBINTERVALS = 8
_RTOL = 1e-10
_MAX_HALVINGS = 12
_GAUSS_TABLE = _leggauss(_GAUSS_NODES)

# |x| past which a path counts as diverged
_OVERFLOW = 1e6


def _real_roots(coeffs):
    """Real parts of the roots of sum_m coeffs[m] u^m, as ``np.roots``
    gives them up to rounding.  Up to degree two (g' of a cubic spline)
    they come from the quadratic formula: the first ``np.roots`` call
    pages in LAPACK's general eigenvalue routine, about 0.4 MiB."""
    c = [float(v) for v in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    if len(c) > 3:
        return np.roots(c[::-1]).real
    if len(c) < 2:
        return []
    if len(c) == 2:
        return [-c[0] / c[1]]
    c0, b, a = c
    disc = b * b - 4.0 * a * c0
    if disc < 0.0:
        return [-b / (2.0 * a)]
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c0 / q] if q != 0.0 else [0.0]


class TrajectoryDivergenceError(DynfitError, RuntimeError):
    """State exceeded the overflow bound during integration."""


class NonpositiveGradientError(DynfitError, RuntimeError):
    """Closed-form sensitivities need g > 0 on the traversed range."""


@dataclass(frozen=True)
class GradientModel:
    """Gradient function g(x) = sum_k beta_k * phi_k(x), extended flat.

    Outside [x_lo, x_hi] the function continues with its boundary value,
    so g' vanishes there and the basis row is clamped to the
    boundary row (the derivative of the extension w.r.t. beta).
    """

    basis: SplineBasis
    beta: np.ndarray
    # coefficient tables of g and g' per knot interval
    _gpoly: tuple = field(repr=False, default=None)
    # Python floats for scalar calls: (x_lo, x_hi, breakpoints, g's
    # coefficient rows with the highest degree first)
    _scalar: tuple = field(repr=False, default=None)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (self.basis.n_basis,):
            raise ValueError("coefficient vector does not match the basis")
        object.__setattr__(self, "beta", beta)
        gp = tuple(np.einsum("jkm,k->jm", self.basis._tables[d], beta)
                   for d in (0, 1))
        object.__setattr__(self, "_gpoly", gp)
        bas = self.basis
        object.__setattr__(self, "_scalar", (
            float(bas.x_lo), float(bas.x_hi), bas.breakpoints.tolist(),
            gp[0][:, ::-1].tolist()))

    @property
    def n_params(self) -> int:
        return self.basis.n_basis

    def min_on(self, lo: float, hi: float) -> float:
        """Exact minimum of g over [lo, hi], both clamped to the domain: g
        is evaluated at lo, hi, the breakpoints between them and the roots
        of g' on each interval, on the scalar path."""
        x_lo, x_hi, breaks, rows = self._scalar
        lo, hi = (min(max(float(v), x_lo), x_hi) for v in (lo, hi))
        last = len(breaks) - 2
        points = [lo, hi] + [b for b in breaks if lo < b < hi]
        for j in range(min(bisect_right(breaks, lo) - 1, last),
                       min(bisect_right(breaks, hi) - 1, last) + 1):
            a, b = max(lo, breaks[j]), min(hi, breaks[j + 1])
            points += [min(max(breaks[j] + r, a), b)
                       for r in _real_roots(self._gpoly[1][j])]
        return float(min(self._poly_at(x, rows) for x in points))

    def _poly_at(self, x: float, rows) -> float:
        """Horner's rule on the knot interval of x, with x clamped to the
        domain; ``rows`` has one row per interval, highest degree first."""
        lo, hi, breaks, _ = self._scalar
        if x < lo:
            x = lo
        elif x > hi:
            x = hi
        j = bisect_right(breaks, x) - 1
        last = len(breaks) - 2
        if j > last:
            j = last
        elif j < 0:
            j = 0
        u = x - breaks[j]
        acc = 0.0
        for c in rows[j]:
            acc = acc * u + c
        return acc

    def g(self, x):
        """Gradient value(s); flat extension outside the domain."""
        # the float test first: np.ndim is slow on a Python float
        if isinstance(x, float) or np.ndim(x) == 0:
            return self._poly_at(float(x), self._scalar[3])
        return self._poly_vec(np.asarray(x, dtype=float), 0)

    def g_prime(self, x):
        """First derivative; zero outside the domain (flat extension)."""
        lo, hi = self.basis.x_lo, self.basis.x_hi
        if np.ndim(x) == 0:
            x = float(x)
            if x < lo or x > hi:
                return 0.0
            return self._poly_at(x, self._gpoly[1][:, ::-1])
        x = np.asarray(x, dtype=float)
        vals = self._poly_vec(x, 1)
        vals[(x < lo) | (x > hi)] = 0.0
        return vals

    def _poly_vec(self, x: np.ndarray, which: int) -> np.ndarray:
        xc = np.clip(x, self.basis.x_lo, self.basis.x_hi)
        j = self.basis.interval_index(xc)
        powers = (xc - self.basis.breakpoints[j])[:, None] \
            ** np.arange(self.basis.order)
        return np.einsum("jm,jm->j", self._gpoly[which][j], powers)

    def basis_row(self, x):
        """Basis values clamped to the boundary outside the domain.

        This is d g_ext(x) / d beta under the flat extension, which is
        what the sensitivity equations need; contrast with
        ``SplineBasis.eval`` which is zero outside the domain.
        """
        xc = np.clip(x, self.basis.x_lo, self.basis.x_hi)
        return self.basis.eval(xc)


@dataclass(frozen=True)
class TrajectorySolution:
    """RK4 solution on a grid, with cubic-Hermite dense output."""

    t_grid: np.ndarray
    x_values: np.ndarray
    f_values: np.ndarray  # g(x) at the grid nodes, the Hermite slopes
    t_start: float
    t_end: float
    x_start: float

    def state_at(self, t):
        """Interpolated state at arbitrary times inside the window."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.min() < self.t_start - 1e-12 or t.max() > self.t_end + 1e-12:
            raise ValueError("query time outside the solved window")
        i = np.clip(np.searchsorted(self.t_grid, t, side="right") - 1,
                    0, len(self.t_grid) - 2)
        dt = self.t_grid[i + 1] - self.t_grid[i]
        s = np.clip((t - self.t_grid[i]) / dt, 0.0, 1.0)
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s ** 2 * (3 - 2 * s)
        h11 = s ** 2 * (s - 1)
        out = (h00 * self.x_values[i] + h10 * dt * self.f_values[i]
               + h01 * self.x_values[i + 1] + h11 * dt * self.f_values[i + 1])
        return float(out[0]) if scalar else out


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as ``np.unique`` gives them for floats
    (sort, then keep each first copy), without the ``numpy.ma`` import
    that ``np.unique`` makes on its first call."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _time_grid(t_start: float, t_end: float, h: float,
               extra_times=None) -> np.ndarray:
    n_full = int(np.floor((t_end - t_start) / h + 1e-9))
    grid = t_start + h * np.arange(n_full + 1)
    if grid[-1] < t_end - 1e-12:
        grid = np.append(grid, t_end)
    else:
        grid[-1] = t_end
    if extra_times is not None and len(extra_times):
        extra = np.asarray(extra_times, dtype=float)
        grid = _sorted_unique(np.concatenate([grid, extra]))
        grid = grid[(grid >= t_start) & (grid <= t_end)]
    return grid


def solve_trajectory(model, t_start: float, t_end: float, x_start: float,
                     h: float = 1e-3, extra_times=None) -> TrajectorySolution:
    """Integrate x' = g(x) from (t_start, x_start) by classical RK4.

    ``h`` is the step, which differs by caller: 1e-3 for the fit
    (``estimator._STEP``), 1e-4 for the simulated truth.  ``extra_times``
    in range join the grid.  ``model`` only needs a ``g(x)`` method here, so
    synthetic non-spline dynamics go through the same interface.  Raises
    TrajectoryDivergenceError when |x| exceeds 1e6 (``_OVERFLOW``), and
    leaves the sign of g to the caller (the fit's: ``estimator._evaluate``).
    """
    if not t_start < t_end:
        raise ValueError("need t_start < t_end")
    if h <= 0:
        raise ValueError("step size must be positive")
    grid = _time_grid(t_start, t_end, h, extra_times)
    g = model.g
    x = float(x_start)
    xs = np.empty(len(grid))
    fs = np.empty(len(grid))
    xs[0] = x
    f = g(x)
    fs[0] = f
    for i, dt in enumerate(np.diff(grid).tolist(), start=1):
        k1 = f
        k2 = g(x + 0.5 * dt * k1)
        k3 = g(x + 0.5 * dt * k2)
        k4 = g(x + dt * k3)
        x = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(x) or abs(x) > _OVERFLOW:
            raise TrajectoryDivergenceError(
                f"state overflow at t={grid[i]:.6g} (|x| > {_OVERFLOW:g})")
        f = g(x)
        xs[i] = x
        fs[i] = f
    return TrajectorySolution(t_grid=grid, x_values=xs, f_values=fs,
                              t_start=float(t_start), t_end=float(t_end),
                              x_start=float(x_start))


@dataclass(frozen=True)
class SensitivityBundle:
    """Trajectory derivatives at query states.

    ``jacobian[q, r]`` is the derivative of the q-th query state with
    respect to coefficient r; ``initial_sensitivity[q]`` the derivative
    with respect to the starting value; ``hessian`` (optional) has shape
    (n_query, n_params, n_params) and is symmetric in the last two axes.
    """

    jacobian: np.ndarray
    initial_sensitivity: np.ndarray
    hessian: np.ndarray | None = None


def _settled_table(integral, edges):
    """Pieces of the closed-form node table and their integrals.

    Each piece's rule is checked against the sum of the rules on its two
    halves; where they differ by more than _RTOL of the piece's largest
    column, the piece is replaced by its halves, at most _MAX_HALVINGS
    times; a piece that passes keeps its own rule's value.  Pieces fail
    where 1/g^2 changes fast across them: on growth-style gradients that
    fall tenfold or more, and most of all next to a root of g just past
    the path end.  Returns the sorted piece edges and the integral over
    each piece.
    """
    a, b = edges[:-1], edges[1:]
    coarse = integral(a, b)
    starts, values = [], []
    for level in range(_MAX_HALVINGS + 1):
        mid = 0.5 * (a + b)
        left, right = np.split(integral(np.concatenate([a, mid]),
                                        np.concatenate([mid, b])), 2)
        fine = left + right
        ok = (np.abs(fine - coarse).max(axis=1)
              <= _RTOL * np.abs(fine).max(axis=1)) | (level == _MAX_HALVINGS)
        starts.append(a[ok])
        values.append(coarse[ok])
        if ok.all():
            break
        a, b = (np.concatenate([a[~ok], mid[~ok]]),
                np.concatenate([mid[~ok], b[~ok]]))
        coarse = np.concatenate([left[~ok], right[~ok]])
    starts = np.concatenate(starts)
    order = np.argsort(starts)
    return np.append(starts[order], edges[-1]), np.concatenate(values)[order]


def _state_integrals(model, x0: float, xq: np.ndarray, columns) -> np.ndarray:
    """Integrals from x0 to each query state of ``columns(phi, g)``.

    ``columns`` maps the clamped basis rows and gradient values at a set
    of states to one row of integrands per state; the result has one row
    per query state.  Requires g > 0 between x0 and the query states.
    The integrals come from one Gauss-Legendre node table: every knot
    interval between x0 and the largest query state is cut into
    _SUBINTERVALS equal pieces with _GAUSS_NODES nodes each (halved where
    the rule has not settled, see _settled_table), cumulative sums of the
    table give the integrals at the piece edges, and one more
    _GAUSS_NODES-point rule per query covers the stretch from the nearest
    edge below it to the query state.
    """
    x_lo = min(float(xq.min()), x0)
    x_hi = max(float(xq.max()), x0)
    if model.min_on(x_lo, x_hi) <= 0.0:
        raise NonpositiveGradientError(
            "gradient is not positive on the traversed state range")

    bas = model.basis
    z, w = _GAUSS_TABLE

    def integral(a, b):
        """Integral of the columns over each [a_i, b_i], one row each."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = (mid[:, None] + half[:, None] * z).ravel()
        f = columns(bas.eval(np.clip(u, bas.x_lo, bas.x_hi)), model.g(u))
        return half[:, None] * np.einsum("k,ikm->im", w,
                                         f.reshape(len(a), len(z), -1))

    inner = (bas.breakpoints > x0) & (bas.breakpoints < x_hi)
    cuts = np.concatenate([[x0], bas.breakpoints[inner], [x_hi]])
    pieces = np.arange(_SUBINTERVALS) / _SUBINTERVALS
    edges, table = _settled_table(integral, np.append(
        cuts[:-1, None] + np.diff(cuts)[:, None] * pieces, x_hi))
    prefix = np.vstack([np.zeros(table.shape[1]), np.cumsum(table, axis=0)])
    k = np.clip(np.searchsorted(edges, xq, side="right") - 1,
                0, len(edges) - 2)
    return prefix[k] + integral(edges[k], xq)


def sensitivities_closed_form(model, x0: float, xq) -> SensitivityBundle:
    """First-order sensitivities by the explicit quadrature formulas.

    ``xq`` are states of the path of x' = g(x) from the starting state
    ``x0``, one per query time.  The coefficient sensitivities are
    g(X) times the integral of phi_r(u)/g(u)^2 from x0 to X
    (``_state_integrals``); the starting-value sensitivity is g(X)/g(x0).
    Requires g > 0 on the traversed range.
    """
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    I = _state_integrals(model, x0, xq, lambda phi, g: phi / g[:, None] ** 2)
    g_q = np.atleast_1d(model.g(xq))
    return SensitivityBundle(jacobian=g_q[:, None] * I,
                             initial_sensitivity=g_q / model.g(x0))


def _second_order_columns(phi, g):
    """phi/g^2 and the flattened outer products phi phi^T/g^3."""
    outer = (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), -1)
    return np.hstack([phi / g[:, None] ** 2, outer / g[:, None] ** 3])


def hessian_sensitivities(model, x0: float, xq) -> SensitivityBundle:
    """Second-order sensitivities in closed form, at the states ``xq`` of
    the path from ``x0`` (as in ``sensitivities_closed_form``).

    Differentiates the integral curve T(X; beta) = integral of du/g from
    x0 to X = t - t_start twice:

        d2X/dbeta_r dbeta_s = g'(X) g(X) I_r I_s + phi_r(X) I_s
                              + phi_s(X) I_r - 2 g(X) K_rs,

    with I = integral of phi/g^2 and K = integral of phi phi^T/g^3 from
    x0 to X, both from the node table of ``_state_integrals``, so it
    needs g > 0 on the traversed range.  The Hessian is a symmetric
    (n_query, M, M) array, for curvature diagnostics rather than the
    optimizer.
    """
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    M = model.n_params
    both = _state_integrals(model, x0, xq, _second_order_columns)
    I, K = both[:, :M], both[:, M:].reshape(-1, M, M)
    g_q = np.atleast_1d(model.g(xq))
    cross = I[:, :, None] * model.basis_row(xq)[:, None, :]
    # half of the formula, so that H + H^T is symmetric to the last bit
    H = ((0.5 * model.g_prime(xq) * g_q)[:, None, None] * I[:, :, None]
         * I[:, None, :] + cross - g_q[:, None, None] * K)
    return SensitivityBundle(jacobian=g_q[:, None] * I,
                             initial_sensitivity=g_q / model.g(x0),
                             hessian=H + H.transpose(0, 2, 1))
