"""Local polynomial kernel regression.

Used in two places: estimating the trajectory value near the trimmed
time endpoints (feeding the start value of the integral-curve fit), and
presmoothing the trajectory and its derivative for the two-stage
initializer.  The derivative estimate is the linear coefficient of the
local fit, never a finite difference of the level fit.

Endpoint estimation runs on the even-indexed half of the sample so that
the start value is independent of the data used by the main fit.

Each local fit is solved from weighted moments of the scaled time
offsets: the normal matrix is the Hankel matrix of sum w z^k and the
right-hand side holds sum w z^m y.  The moments are accumulated over
blocks of queries, so the work is O(queries * n * degree) and the
memory O(block * n), with no per-query design matrix.  Bandwidth
cross-validation takes the moments of every grid value and every
degree it scores from one pass over the query blocks: the offsets are
formed once per block, and a degree's moments are the first terms of
the highest degree's running product, so each score is bit for bit the
one a separate pass at that bandwidth and degree would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DynfitError


class SmoothingError(DynfitError, RuntimeError):
    """Local design matrix singular at one or more query points."""

    def __init__(self, message, bad_queries=None):
        super().__init__(message)
        self.bad_queries = bad_queries


class InsufficientDataError(DynfitError, RuntimeError):
    """Too few observations near a query point."""


class TrimmingError(DynfitError, ValueError):
    """Too few observations, or too unevenly placed, to trim."""


@dataclass(frozen=True)
class Dataset:
    """Time-ordered observations (t_j, Y_j) on [0, 1].

    Sorted ascending by time on construction (stable, so ties keep
    their input order).  ``subject_id`` tags the series when several
    subjects share a file.
    """

    times: np.ndarray
    values: np.ndarray
    subject_id: str | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != y.shape:
            raise ValueError("times and values must be 1-d and equal length")
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValueError("times and values must be finite")
        if len(t) and (t.min() < -1e-12 or t.max() > 1 + 1e-12):
            raise ValueError("times must lie in [0, 1]")
        order = np.argsort(t, kind="stable")
        object.__setattr__(self, "times", t[order])
        object.__setattr__(self, "values", y[order])

    @property
    def n(self) -> int:
        return len(self.times)

    def subset(self, idx) -> "Dataset":
        return Dataset(self.times[idx], self.values[idx], self.subject_id)

    def even_half(self) -> "Dataset":
        """Observations at even positions (0, 2, ...) of the sorted series."""
        return self.subset(np.arange(0, self.n, 2))

    def odd_half(self) -> "Dataset":
        """Observations at odd positions (1, 3, ...) of the sorted series."""
        return self.subset(np.arange(1, self.n, 2))


_BLOCK = 128  # queries per block of the moment sums in _local_moments
_CV_MAX_QUERIES = 400


def _kernel_weights(u: np.ndarray, kernel: str, out=None) -> np.ndarray:
    """Kernel weights of the scaled offsets ``u``, written into ``out``
    when it is given."""
    if kernel == "gaussian":
        w = np.multiply(u, u, out=out)
        w *= -0.5
        return np.exp(w, out=w)
    if kernel == "epanechnikov":
        w = np.multiply(u, u, out=out)
        np.subtract(1.0, w, out=w)
        w *= 0.75
        return np.maximum(0.0, w, out=w)
    raise ValueError(f"unknown kernel {kernel!r}")


def _local_moments(times, values, t_query, degree, bandwidths, kernel):
    """Weighted moments of the local fits, per bandwidth and query.

    With z = (t_i - q)/h and kernel weights w_i, the normal matrix of
    the degree-d fit at query q is the Hankel matrix of the moments
    S_k = sum_i w_i z_i^k (k = 0..2d), and its right-hand side holds
    T_m = sum_i w_i z_i^m y_i (m = 0..d).  The offsets t_i - q are
    formed once per block of _BLOCK queries; for each bandwidth, z and w
    go into (block, n) buffers allocated once, and one running product
    w z^k gives every moment.  A lower degree's moments are the first
    terms of the same product, so ``degree`` is the highest one wanted.
    Memory stays O(_BLOCK * n) whatever the number of queries.  Returns
    (active, S, T) of shapes (b, q), (b, q, 2d+1) and (b, q, d+1), with
    ``active`` the number of observations with positive weight.
    """
    n_mom, n_rhs = 2 * degree + 1, degree + 1
    shape = (len(bandwidths), len(t_query))
    S = np.empty(shape + (n_mom,))
    T = np.empty(shape + (n_rhs,))
    active = np.empty(shape, dtype=int)
    block = (min(_BLOCK, len(t_query)), len(times))
    offsets, z, wz = np.empty(block), np.empty(block), np.empty(block)
    for start in range(0, len(t_query), _BLOCK):
        rows = slice(start, start + _BLOCK)
        m = len(t_query[rows])
        d = np.subtract(times[None, :], t_query[rows, None], out=offsets[:m])
        for b, bw in enumerate(bandwidths):
            zb = np.divide(d, bw, out=z[:m])
            w = _kernel_weights(zb, kernel, out=wz[:m])
            active[b, rows] = (w > 0).sum(axis=1)
            for k in range(n_mom):
                if k:
                    w *= zb
                S[b, rows, k] = w.sum(axis=1)
                if k < n_rhs:
                    T[b, rows, k] = w @ values
    return active, S, T


def _normal_equations(S, T, degree):
    """(A, rhs) of the degree-d fits from one bandwidth's moments: the
    (q, d+1, d+1) Hankel matrices and the (q, d+1) right-hand sides."""
    k = np.arange(degree + 1)
    return S[:, np.add.outer(k, k)], T[:, :degree + 1]


def local_poly(data: Dataset, degree: int, bandwidth: float, kernel: str,
               t_query) -> tuple[np.ndarray, np.ndarray]:
    """Local polynomial fit; returns (level, derivative) at the queries.

    The fit at each query is a kernel-weighted least squares polynomial
    in the centered, bandwidth-scaled time variable; level is its
    constant term, the derivative its linear coefficient rescaled back.
    Degree 1 is enough for the level, degree 2 is recommended when the
    derivative is wanted.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    t_query = np.atleast_1d(np.asarray(t_query, dtype=float))
    active, S, T = _local_moments(data.times, data.values, t_query, degree,
                                  (bandwidth,), kernel)
    A, rhs = _normal_equations(S[0], T[0], degree)
    bad = t_query[active[0] < degree + 1]
    if len(bad):
        raise SmoothingError(
            f"fewer than degree+1 observations receive weight near "
            f"{bad[:5].tolist()} (bandwidth too small)", bad_queries=bad)
    try:
        coef = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        dets = np.abs(np.linalg.det(A))
        bad = t_query[dets < 1e-300]
        raise SmoothingError(
            f"singular local design at queries {bad[:5].tolist()}",
            bad_queries=bad) from None
    return coef[:, 0], coef[:, 1] / bandwidth


def _loo_residuals(y, active, S, T, degree, w0) -> np.ndarray | None:
    """Exact leave-one-out residuals of the degree-d level fits at the
    queries, from one bandwidth's moments; ``y`` holds the observations
    at the queries and ``w0`` the kernel weight at offset 0.

    Uses the linear-smoother identity (y - yhat)/(1 - l_jj), where l_jj
    is the weight the fit at t_j places on observation j.  Returns None
    when the design is singular.
    """
    if (active < degree + 1).any():
        return None
    A, rhs = _normal_equations(S, T, degree)
    try:
        coef = np.linalg.solve(A, rhs[..., None])[..., 0]
        e1 = np.zeros(degree + 1)
        e1[0] = 1.0
        Ainv_e1 = np.linalg.solve(
            A, np.broadcast_to(e1[:, None], (len(y), degree + 1, 1)))[..., 0]
    except np.linalg.LinAlgError:
        return None
    level = coef[:, 0]
    l_jj = w0 * Ainv_e1[:, 0]
    denom = 1.0 - l_jj
    if (denom <= 1e-12).any():
        return None
    return (y - level) / denom


def _cv_residuals(data: Dataset, degrees, kernel: str, grid) -> list:
    """Leave-one-out residuals of the level fits at the CV queries (every
    k-th observation, at most _CV_MAX_QUERIES of them): one list per
    degree, with one array (None where singular) per grid value."""
    stride = max(1, -(-data.n // _CV_MAX_QUERIES))
    query_idx = np.arange(0, data.n, stride)
    active, S, T = _local_moments(data.times, data.values,
                                  data.times[query_idx], max(degrees), grid,
                                  kernel)
    y = data.values[query_idx]
    w0 = _kernel_weights(np.zeros(1), kernel)[0]
    return [[_loo_residuals(y, active[b], S[b], T[b], d, w0)
             for b in range(len(grid))] for d in degrees]


def cv_bandwidth(data: Dataset, degree, kernel: str, grid):
    """Bandwidth from the grid minimizing leave-one-out level error.

    ``degree`` is one degree, for which one bandwidth is returned, or a
    tuple of degrees, for which a tuple of bandwidths is returned in the
    same order.  Ties break toward the larger bandwidth.  Raises
    SmoothingError when every grid value yields a singular design for
    some degree.  On large samples the score is evaluated at a
    deterministic thinning of the observations (every k-th point) to
    keep the cost linear in n; the left-out fits always use the full
    sample.  The blocked moment sums of ``_local_moments`` run once over
    those queries for the whole grid and every degree.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if len(grid) == 0 or grid[0] <= 0:
        raise ValueError("bandwidth grid must be nonempty and positive")
    single = np.ndim(degree) == 0
    degrees = (degree,) if single else tuple(degree)
    chosen = []
    for residuals in _cv_residuals(data, degrees, kernel, grid):
        best_bw, best_err = None, np.inf
        for bw, resid in zip(grid, residuals):
            if resid is None:
                continue
            err = float(resid @ resid)
            if err <= best_err:
                best_bw, best_err = float(bw), err
        if best_bw is None:
            raise SmoothingError(
                "all candidate bandwidths give singular designs")
        chosen.append(best_bw)
    return chosen[0] if single else tuple(chosen)


def choose_delta(times, frac: float = 0.05) -> float:
    """Smallest trimming level with ~``frac`` of the data in each tail.

    Returns the smallest delta such that at least ceil(frac*n) points
    fall in [0, delta] and in [1-delta, 1], placed midway between the
    adjacent order statistics.  Raises TrimmingError (a ValueError) when
    that leaves no usable window.
    """
    t = np.sort(np.asarray(times, dtype=float))
    n = len(t)
    k = int(np.ceil(frac * n))
    if n < 2 * k + 2:
        raise TrimmingError("too few observations to trim")
    lo = 0.5 * (t[k - 1] + t[k])
    hi = 0.5 * (t[n - k - 1] + t[n - k])
    delta = max(lo, 1.0 - hi)
    if not 0.0 < delta < 0.5:
        raise TrimmingError(f"degenerate trimming level {delta:.4g}")
    return float(delta)


def estimate_endpoints(data: Dataset, delta: float, p: int = 4,
                       kernel: str = "gaussian",
                       c_grid=(0.25, 0.5, 1.0, 2.0)) -> tuple[float, float]:
    """Trajectory values at the trimmed endpoints, from the even half.

    Fits a local polynomial of degree ``p`` with bandwidth c * m**(-1/(2p+3))
    (m the subsample size, c picked by leave-one-out CV) and evaluates
    the level at delta and 1 - delta.  Uses only even-indexed
    observations so the estimates are independent of the odd-indexed
    half that feeds the main fit.  Degree 4 keeps the bias small enough
    for noiseless data to anchor the trajectory fit almost exactly;
    candidate bandwidths without 2(p+1) points in reach of an endpoint
    are dropped before cross-validation.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must be in (0, 1/2)")
    sub = data.even_half()
    if sub.n < 2 * (p + 1):
        raise InsufficientDataError(
            f"only {sub.n} points available for endpoint estimation")
    rate = sub.n ** (-1.0 / (2 * p + 3))
    need = 2 * (p + 1)
    grid = [c * rate for c in c_grid
            if all(int(np.sum(np.abs(sub.times - q) <= c * rate)) >= need
                   for q in (delta, 1.0 - delta))]
    if not grid:
        raise InsufficientDataError(
            f"no candidate bandwidth has {need} points within reach of the "
            f"trimmed endpoints")
    try:
        bw = cv_bandwidth(sub, p, kernel, grid)
        level, _ = local_poly(sub, p, bw, kernel, [delta, 1.0 - delta])
    except SmoothingError as exc:
        raise InsufficientDataError(
            f"endpoint smoothing impossible: {exc}") from None
    return float(level[0]), float(level[1])
