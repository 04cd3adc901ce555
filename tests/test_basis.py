import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad, simpson
from scipy.interpolate import BSpline

from dynfit.basis import BasisError, _leggauss, gram_matrix, make_basis
from reference import central_difference, raw_basis_values


def scipy_raw(basis, x, deriv=0):
    out = np.empty((np.size(x), basis.n_basis))
    for k in range(basis.n_basis):
        c = np.zeros(basis.n_basis)
        c[k] = 1.0
        spl = BSpline(basis.knots, c, basis.order - 1, extrapolate=False)
        if deriv:
            spl = spl.derivative(deriv)
        out[:, k] = spl(np.atleast_1d(x))
    return out


def test_single_interval_cubic_construction():
    basis = make_basis(0.1, 1.1, 4, order=4)
    assert basis.n_basis == 4
    assert len(basis.breakpoints) == 2  # one knot interval
    assert basis.knot_spacing == pytest.approx(1.0)
    assert np.all(basis.eval(0.5) > 0)


def test_knot_spacing_formula():
    basis = make_basis(0.0, 1.0, 8, order=4)
    assert basis.knot_spacing == pytest.approx(1.0 / 5.0)
    # interior functions span 4 intervals, boundary ones fewer
    spans = [basis.knots[i + 4] - basis.knots[i] for i in range(8)]
    assert max(spans) == pytest.approx(0.8)
    assert basis.smallest_support == pytest.approx(0.2)


def test_invalid_arguments():
    with pytest.raises(BasisError):
        make_basis(0.0, 1.0, 3, order=4)
    with pytest.raises(BasisError):
        make_basis(1.0, 1.0, 6, order=4)
    with pytest.raises(BasisError):
        make_basis(0.0, 1.0, 4, order=2)


@pytest.mark.parametrize("M,order", [(4, 4), (6, 4), (8, 4), (13, 3), (40, 4)])
def test_matches_textbook_recursion(M, order):
    basis = make_basis(-0.5, 2.0, M, order)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-0.5, 2.0, 40)
    mine = np.vstack([basis.eval_raw(x) for x in xs])
    ref = np.vstack([raw_basis_values(basis, x) for x in xs])
    np.testing.assert_allclose(mine, ref, atol=1e-12)


@pytest.mark.parametrize("M,order", [(4, 4), (7, 4), (12, 3), (25, 4)])
def test_matches_scipy_evaluation(M, order):
    basis = make_basis(0.0, 1.0, M, order)
    xs = np.random.default_rng(1).uniform(0, 1, 100)
    np.testing.assert_allclose(basis.eval_raw(xs), scipy_raw(basis, xs),
                               atol=1e-12)
    for deriv in (1, 2):
        np.testing.assert_allclose(basis.eval_raw(xs, deriv),
                                   scipy_raw(basis, xs, deriv), atol=1e-9)


def test_outside_domain_is_zero():
    basis = make_basis(0.0, 1.0, 6, order=4)
    for deriv in (0, 1, 2):
        assert np.all(basis.eval(-0.5, deriv) == 0.0)
        assert np.all(basis.eval(1.5, deriv) == 0.0)
    # the right boundary itself is inside
    assert basis.eval(1.0)[-1] > 0


def test_deriv_argument_validated():
    basis = make_basis(0.0, 1.0, 6, order=4)
    with pytest.raises(ValueError):
        basis.eval(0.5, deriv=3)


def test_partition_of_unity():
    for M in (4, 6, 11, 23):
        basis = make_basis(0.2, 0.9, M, 4)
        xs = np.linspace(0.2, 0.9, 257)
        sums = basis.eval_raw(xs).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@pytest.mark.parametrize("M", [4, 8, 16, 28, 40])
def test_unit_norms_by_independent_quadrature(M):
    basis = make_basis(0.0, 1.0, M, 4)
    xs = np.linspace(0.0, 1.0, 40001)
    vals = basis.eval(xs)
    norms = simpson(vals ** 2, x=xs, axis=0)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-8)


def test_derivative_consistency_with_finite_differences():
    rng = np.random.default_rng(5)
    for M in (5, 9, 17):
        basis = make_basis(0.0, 1.0, M, 4)
        xs = rng.uniform(0.05, 0.95, 100)
        for j in (1, 2):
            fd = central_difference(lambda u: basis.eval(u, j - 1), xs, 1e-6)
            exact = basis.eval(xs, j)
            assert np.abs(exact - fd).max() < 1e-4 * M ** j


def test_gram_matrix_properties():
    basis = make_basis(0.0, 1.0, 6, order=4)
    G = gram_matrix(basis)
    np.testing.assert_allclose(G, G.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-10)
    evals = np.linalg.eigvalsh(G)
    assert evals[0] > 0.05 and evals[-1] < 3.0
    # disjoint supports give exact zeros
    for k in range(6):
        for l in range(6):
            if abs(k - l) >= 4:
                assert G[k, l] == 0.0


def test_gram_entries_against_adaptive_quadrature():
    basis = make_basis(0.3, 1.7, 9, order=4)
    G = gram_matrix(basis)
    pts = basis.breakpoints
    for k, l in [(0, 0), (2, 3), (4, 4), (3, 6)]:
        ref, _ = quad(lambda u: basis.eval(u)[k] * basis.eval(u)[l],
                      basis.x_lo, basis.x_hi, points=pts, limit=200)
        assert G[k, l] == pytest.approx(ref, abs=1e-10)


def test_gram_eigenvalue_bounds_across_dimensions():
    lo, hi = np.inf, 0.0
    for M in range(6, 41, 2):
        evals = np.linalg.eigvalsh(gram_matrix(make_basis(0.0, 1.0, M, 4)))
        lo = min(lo, evals[0])
        hi = max(hi, evals[-1])
    assert lo >= 0.01
    assert hi <= 5.0


def test_support_locality():
    basis = make_basis(0.0, 1.0, 10, order=4)
    rng = np.random.default_rng(2)
    xs = rng.uniform(0, 1, 200)
    vals = basis.eval(xs)
    for k in range(10):
        lo, hi = basis.knots[k], basis.knots[k + 4]
        outside = (xs < lo) | (xs > hi)
        assert np.all(vals[outside, k] == 0.0)


@pytest.mark.parametrize("n", range(2, 61))
def test_gauss_legendre_table_matches_numpy_bitwise(n):
    ours, theirs = _leggauss(n), leggauss(n)
    assert ours[0].tobytes() == theirs[0].tobytes()
    assert ours[1].tobytes() == theirs[1].tobytes()


def test_dynfit_does_not_import_numpy_polynomial_or_ma():
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "import dynfit, dynfit.cli\n"
        "from dynfit.sim import SimSpec, generate_dataset\n"
        "spec = SimSpec(rng_seed=0)\n"
        "dynfit.select_M(generate_dataset(spec, 0),"
        " dynfit.FitConfig(candidate_Ms=(4,)))\n"
        "print('numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
