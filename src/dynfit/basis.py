"""Normalized B-spline bases with equally spaced knots.

The basis is the clamped (open-uniform) B-spline family on a closed
interval: interior knots equally spaced, boundary knots repeated
``order`` times so that the combined support of the functions is exactly
the interval.  Each function is rescaled to unit L2 norm.

Evaluation is backed by per-interval polynomial coefficient tables built
once from the Cox-de Boor recursion, so evaluating all functions at a
point is a single table lookup plus a small matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DynfitError


class BasisError(DynfitError, ValueError):
    """Invalid basis construction arguments."""


def _poly_mul_linear(p: np.ndarray, a: float, b: float) -> np.ndarray:
    """Multiply a polynomial (ascending coefficients) by ``a + b*u``."""
    out = np.zeros(len(p) + 1)
    out[:-1] += a * p
    out[1:] += b * p
    return out


def _build_coefficient_table(knots: np.ndarray, breakpoints: np.ndarray,
                             order: int) -> np.ndarray:
    """Per-interval polynomial coefficients of every raw B-spline.

    Returns an array of shape (n_intervals, n_basis, order) where entry
    (j, k, m) is the coefficient of (x - breakpoints[j])**m of raw
    function k on interval j.  Built by running the Cox-de Boor
    recursion on the coefficient arrays; exact up to rounding because
    every step is a polynomial identity.
    """
    n_knots = len(knots)
    n_intervals = len(breakpoints) - 1
    # level 1: indicators of nonempty knot spans
    table = np.zeros((n_knots - 1, n_intervals, 1))
    for i in range(n_knots - 1):
        if knots[i + 1] > knots[i]:
            j = int(np.searchsorted(breakpoints, knots[i], side="right")) - 1
            j = min(max(j, 0), n_intervals - 1)
            table[i, j, 0] = 1.0

    for k in range(2, order + 1):
        n_spl = n_knots - k
        new = np.zeros((n_spl, n_intervals, k))
        for i in range(n_spl):
            for j in range(n_intervals):
                acc = np.zeros(k)
                d1 = knots[i + k - 1] - knots[i]
                if d1 > 0.0 and table[i, j].any():
                    acc += _poly_mul_linear(
                        table[i, j], (breakpoints[j] - knots[i]) / d1, 1.0 / d1)
                d2 = knots[i + k] - knots[i + 1]
                if d2 > 0.0 and table[i + 1, j].any():
                    acc += _poly_mul_linear(
                        table[i + 1, j],
                        (knots[i + k] - breakpoints[j]) / d2, -1.0 / d2)
                new[i, j] = acc
        table = new

    # (n_basis, n_intervals, order) -> (n_intervals, n_basis, order)
    return np.ascontiguousarray(table.transpose(1, 0, 2))


def _legendre_value(x: np.ndarray, c) -> np.ndarray:
    """Legendre series sum_k c[k] P_k(x) by Clenshaw's recursion."""
    c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0.0)
    nd = len(c)
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1].

    The floating-point steps of ``numpy.polynomial.legendre.leggauss``
    (eigenvalues of the symmetric companion matrix, one Newton step,
    symmetrised weights), so the table is the same bit for bit without
    importing ``numpy.polynomial``, which costs memory in every process.
    """
    c = [0.0] * n + [1.0]
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    dc = [float(2 * k + 1) if (n - 1 - k) % 2 == 0 else 0.0
          for k in range(n)]
    df = _legendre_value(x, dc)
    x -= _legendre_value(x, c) / df
    fm = _legendre_value(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


def _gauss_nodes(breakpoints: np.ndarray, n_nodes: int):
    """Gauss-Legendre nodes on every knot interval, one row per interval,
    with the intervals' half-lengths and the reference weights."""
    z, w = _leggauss(n_nodes)
    mid = 0.5 * (breakpoints[1:] + breakpoints[:-1])
    half = 0.5 * np.diff(breakpoints)
    return mid[:, None] + half[:, None] * z[None, :], half, w


def _differentiate(table: np.ndarray) -> np.ndarray:
    """Coefficient table of the derivative (same shape, last column 0)."""
    out = np.zeros_like(table)
    deg = table.shape[-1]
    for m in range(1, deg):
        out[..., m - 1] = m * table[..., m]
    return out


@dataclass(frozen=True)
class SplineBasis:
    """Unit-L2-norm B-spline basis on a closed interval.

    Attributes
    ----------
    order : polynomial order (cubic = 4).
    n_basis : number of basis functions.
    x_lo, x_hi : endpoints of the combined support.
    knots : full clamped knot vector, length ``n_basis + order``.
    norm_factors : per-function multipliers taking the raw
        (partition-of-unity) splines to unit L2 norm.
    """

    order: int
    n_basis: int
    x_lo: float
    x_hi: float
    knots: np.ndarray
    norm_factors: np.ndarray
    breakpoints: np.ndarray = field(repr=False)
    # normalized coefficients of derivatives 0 and 1; 2 is added on first use
    _tables: tuple = field(repr=False)

    @property
    def knot_spacing(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n_basis - self.order + 1)

    @property
    def smallest_support(self) -> float:
        """Length of the shortest support among the basis functions."""
        k = self.order
        return float(min(self.knots[i + k] - self.knots[i]
                         for i in range(self.n_basis)))

    def _table(self, deriv: int) -> np.ndarray:
        if deriv == len(self._tables):
            object.__setattr__(self, "_tables", self._tables
                               + (_differentiate(self._tables[-1]),))
        return self._tables[deriv]

    def interval_index(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.clip(idx, 0, len(self.breakpoints) - 2)

    def eval(self, x, deriv: int = 0) -> np.ndarray:
        """Values of all functions at ``x``; zeros outside the domain.

        Scalar ``x`` gives shape (n_basis,), arrays give (len(x), n_basis).
        """
        if deriv not in (0, 1, 2):
            raise ValueError("deriv must be 0, 1 or 2")
        table = self._table(deriv)
        if np.isscalar(x) or np.ndim(x) == 0:
            x = float(x)
            if x < self.x_lo or x > self.x_hi:
                return np.zeros(self.n_basis)
            j = int(self.interval_index(x))
            u = x - self.breakpoints[j]
            return table[j] @ (u ** np.arange(self.order))
        x = np.asarray(x, dtype=float)
        j = self.interval_index(x)
        u = x - self.breakpoints[j]
        powers = u[:, None] ** np.arange(self.order)
        vals = np.einsum("jkm,jm->jk", table[j], powers)
        inside = (x >= self.x_lo) & (x <= self.x_hi)
        vals[~inside] = 0.0
        return vals

    def eval_raw(self, x, deriv: int = 0) -> np.ndarray:
        """Values of the unnormalized (partition-of-unity) splines."""
        return self.eval(x, deriv) / self.norm_factors

    def quadrature_nodes(self, n_nodes: int | None = None):
        """Gauss-Legendre nodes/weights on every knot interval."""
        nodes, half, w = _gauss_nodes(self.breakpoints,
                                      n_nodes or self.order + 1)
        return nodes.ravel(), (half[:, None] * w[None, :]).ravel()


def make_basis(x_lo: float, x_hi: float, n_basis: int,
               order: int = 4) -> SplineBasis:
    """Construct the clamped, unit-norm B-spline basis.

    Knot spacing is (x_hi - x_lo)/(n_basis - order + 1); boundary knots
    are repeated ``order`` times.
    """
    if not (np.isfinite(x_lo) and np.isfinite(x_hi)) or x_lo >= x_hi:
        raise BasisError(f"degenerate interval [{x_lo}, {x_hi}]")
    if order < 3:
        raise BasisError(f"order must be >= 3, got {order}")
    if n_basis < order:
        raise BasisError(
            f"need at least as many functions as the order ({n_basis} < {order})")

    n_intervals = n_basis - order + 1
    breakpoints = np.linspace(x_lo, x_hi, n_intervals + 1)
    knots = np.concatenate([np.full(order - 1, x_lo), breakpoints,
                            np.full(order - 1, x_hi)])

    raw = _build_coefficient_table(knots, breakpoints, order)

    # unit L2 norm via Gauss-Legendre, exact for the squared splines
    nodes, half, w = _gauss_nodes(breakpoints, order + 1)
    sq = np.zeros(n_basis)
    for j in range(n_intervals):
        powers = (nodes[j] - breakpoints[j])[:, None] ** np.arange(order)
        vals = powers @ raw[j].T  # (n_nodes, n_basis)
        sq += half[j] * (w[:, None] * vals ** 2).sum(axis=0)
    norm_factors = 1.0 / np.sqrt(sq)

    c0 = raw * norm_factors[None, :, None]
    return SplineBasis(order=order, n_basis=n_basis, x_lo=float(x_lo),
                       x_hi=float(x_hi), knots=knots,
                       norm_factors=norm_factors, breakpoints=breakpoints,
                       _tables=(c0, _differentiate(c0)))


def gram_matrix(basis: SplineBasis) -> np.ndarray:
    """Matrix of pairwise L2 inner products, by exact quadrature."""
    nodes, weights = basis.quadrature_nodes()
    vals = basis.eval(nodes)
    g = vals.T @ (weights[:, None] * vals)
    return 0.5 * (g + g.T)
