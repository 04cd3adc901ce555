"""Independent reference for checking dynfit's outputs.

Gradients are rebuilt with ``scipy.interpolate.BSpline`` from raw knot
vectors and coefficients, trajectories with ``scipy.integrate.solve_ivp``
at tight tolerance, and integrated squared errors with Gauss-Legendre
quadrature split at every breakpoint of both splines.  Nothing here
imports dynfit: a fault in ``dynfit.basis`` or ``dynfit.ode`` cannot hide
behind a shared helper.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp
from scipy.interpolate import BSpline, PPoly

DEGREE = 3
_GAUSS = leggauss(8)  # exact for polynomials up to degree 15


def integrate(f, lo: float, hi: float, cuts=()) -> float:
    """Integral of f over [lo, hi], Gauss-Legendre on each piece between cuts."""
    cuts = np.asarray(cuts, dtype=float)
    edges = np.unique(np.concatenate([[lo], cuts[(cuts > lo) & (cuts < hi)],
                                      [hi]]))
    z, w = _GAUSS
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * z).ravel()
    weights = (half[:, None] * w).ravel()
    return float(weights @ f(nodes))


def unit_norm_factors(knots) -> np.ndarray:
    """Multipliers taking each raw B-spline on ``knots`` to unit L2 norm."""
    knots = np.asarray(knots, dtype=float)
    n_basis = len(knots) - DEGREE - 1
    factors = np.empty(n_basis)
    for k in range(n_basis):
        raw = BSpline(knots, np.eye(n_basis)[k], DEGREE, extrapolate=False)
        sq = integrate(lambda x: np.nan_to_num(raw(x)) ** 2,
                       knots[DEGREE], knots[-DEGREE - 1], knots)
        factors[k] = 1.0 / np.sqrt(sq)
    return factors


class SplineGradient:
    """g(x) = sum_k c_k B_k(x) on a clamped cubic knot vector, flat outside."""

    def __init__(self, knots, raw_coefficients):
        self.knots = np.asarray(knots, dtype=float)
        self.lo = float(self.knots[DEGREE])
        self.hi = float(self.knots[-DEGREE - 1])
        self.spline = BSpline(self.knots, np.asarray(raw_coefficients, float),
                              DEGREE, extrapolate=False)

    @classmethod
    def from_unit_norm(cls, knots, beta) -> "SplineGradient":
        """From coefficients of the unit-L2-norm basis (dynfit's convention)."""
        return cls(knots, np.asarray(beta, float) * unit_norm_factors(knots))

    def __call__(self, x):
        return self.spline(np.clip(x, self.lo, self.hi))

    def minimum(self, lo: float, hi: float) -> float:
        """Exact minimum over [lo, hi]: ends, knots and critical points."""
        slope = PPoly.from_spline(self.spline.derivative())
        roots = slope.roots(extrapolate=False)
        cand = np.concatenate([[lo, hi], self.knots, roots])
        cand = cand[(cand >= lo) & (cand <= hi)]
        return float(np.min(self(cand)))


def ise(g_a: SplineGradient, g_b: SplineGradient, lo: float,
        hi: float) -> float:
    """Integral of (g_a - g_b)^2 over [lo, hi], split at both knot sets."""
    cuts = np.concatenate([g_a.knots, g_b.knots])
    return integrate(lambda x: (g_a(x) - g_b(x)) ** 2, lo, hi, cuts)


def trajectory(g: SplineGradient, x0: float, t0: float = 0.0,
               t1: float = 1.0):
    """Dense solution X(t) of x' = g(x), X(t0) = x0, on [t0, t1]."""
    sol = solve_ivp(lambda t, x: g(x), (t0, t1), [x0], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return lambda t: sol.sol(np.asarray(t, dtype=float))[0]


def trimming_level(times, frac: float = 0.05) -> float:
    """Smallest delta with ceil(frac*n) points in each tail, between points."""
    t = np.sort(np.asarray(times, dtype=float))
    n, k = len(t), int(np.ceil(frac * len(t)))
    lo = 0.5 * (t[k - 1] + t[k])
    hi = 0.5 * (t[n - k - 1] + t[n - k])
    return float(max(lo, 1.0 - hi))


def clamped_knots(lo: float, hi: float, n_basis: int) -> np.ndarray:
    """Cubic knot vector with equally spaced interior knots, ends repeated."""
    inner = np.linspace(lo, hi, n_basis - DEGREE + 1)
    return np.concatenate([[lo] * DEGREE, inner, [hi] * DEGREE])
