"""Properties of the fit over random spline gradients.

The strategy draws a spline model of order 3-5 with up to 8 basis
functions whose coefficients may dip below zero, so that some paths are
feasible, some meet g <= 0 and some leave the basis domain; with a
start x0, a sample size n and a noise sd sigma.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynfit import estimator
from dynfit.basis import make_basis
from dynfit.errors import DynfitError
from dynfit.estimator import FitConfig, select_M, trim_mask
from dynfit.ode import (GradientModel, TrajectoryDivergenceError,
                        sensitivities_closed_form, solve_trajectory)
from dynfit.smooth import Dataset
from reference import sensitivities_ode, vectorised_min_on
from test_estimator import fit_bytes

# tolerance of min_on against its vectorised oracle, relative to the
# largest |g| on the window, and of the Jacobian routes (criterion 2)
_MIN_RTOL = 1e-12
_ROUTES_RTOL = 1e-6
# RK4 step of the ODE route: g'' of a quadratic spline jumps at the
# knots, which costs RK4 its order; at the fit's 1e-3 the route itself
# can be 1e-6 off (order 3, M = 6 on [0, 1]), at 2.5e-4 it is 1e-7
_ORACLE_STEP = 2.5e-4


@st.composite
def spline_cases(draw):
    """(model, x0, n, sigma): g on [x_lo, x_lo + width] scaled so that a
    unit of time moves a path across about width times the raw weight."""
    order = draw(st.integers(3, 5))
    M = draw(st.integers(order, 8))
    x_lo = draw(st.floats(-5.0, 5.0))
    width = draw(st.floats(0.2, 5.0))
    raw = draw(st.lists(st.floats(-0.5, 2.0), min_size=M, max_size=M))
    basis = make_basis(x_lo, x_lo + width, M, order)
    model = GradientModel(basis, width * np.array(raw) / basis.norm_factors)
    x0 = x_lo + width * draw(st.floats(0.0, 0.5))
    n = draw(st.integers(20, 120))
    sigma = width * draw(st.floats(0.0, 0.05))
    return model, x0, n, sigma


def sample_of(model, x0, n, sigma, seed=0):
    """n noisy observations of the path of g from x0 at sorted times."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1.0, n))
    try:
        x = solve_trajectory(model, 0.0, 1.0, x0, h=1e-3).state_at(t)
    except TrajectoryDivergenceError:
        x = x0 + t
    return Dataset(t, x + sigma * rng.standard_normal(n))


def visited_states(model, data, delta, x0):
    """States of the fit's RK4 path, or None when it diverges."""
    t_in = data.times[trim_mask(data.times, delta)]
    try:
        return solve_trajectory(model, delta, 1.0 - delta, x0,
                                h=estimator._STEP, extra_times=t_in).x_values
    except TrajectoryDivergenceError:
        return None


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(case=spline_cases(), delta=st.floats(0.01, 0.2))
def test_evaluate_is_finite_exactly_on_feasible_paths(case, delta):
    model, x0, n, sigma = case
    data = sample_of(model, x0, n, sigma)
    value = estimator._evaluate(model.beta, data, delta, x0, model.basis)[0]
    x = visited_states(model, data, delta, x0)
    feasible = (x is not None and x[-1] <= model.basis.x_hi
                and vectorised_min_on(model, x.min(), x.max()) > 0.0)
    assert np.isfinite(value) == feasible
    if feasible:
        # no state between the visited extremes has g <= 0
        assert model.g(np.linspace(x.min(), x.max(), 4001)).min() > 0.0
        assert model.g(x).min() > 0.0


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=spline_cases(), ends=st.tuples(st.floats(-0.2, 1.2),
                                           st.floats(-0.2, 1.2)))
def test_min_on_matches_the_vectorised_oracle(case, ends):
    model = case[0]
    bas = model.basis
    lo, hi = sorted(bas.x_lo + (bas.x_hi - bas.x_lo) * e for e in ends)
    ours, ref = model.min_on(lo, hi), vectorised_min_on(model, lo, hi)
    grid = np.linspace(max(lo, bas.x_lo), min(hi, bas.x_hi), 2001)
    g = model.g(grid)
    scale = max(np.abs(g).max(), abs(ref))
    assert abs(ours - ref) <= _MIN_RTOL * scale
    # the sign is only defined beyond rounding of zero
    if abs(ref) > _MIN_RTOL * scale:
        assert np.sign(ours) == np.sign(ref)
    assert ours <= g.min() + _MIN_RTOL * scale


@pytest.mark.slow
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(case=spline_cases(), delta=st.floats(0.01, 0.2))
def test_closed_form_jacobian_matches_the_ode_route(case, delta):
    model, x0, n, sigma = case
    data = sample_of(model, x0, n, sigma)
    _, _, traj, _ = estimator._evaluate(model.beta, data, delta, x0,
                                        model.basis)
    if traj is None:
        return
    t_in = data.times[trim_mask(data.times, delta)]
    closed = sensitivities_closed_form(model, traj, t_in).jacobian
    fine = solve_trajectory(model, delta, 1.0 - delta, x0, h=_ORACLE_STEP,
                            extra_times=t_in)
    ode = sensitivities_ode(model, fine, t_in).jacobian
    scale = np.abs(closed).max()
    assert np.abs(closed - ode).max() <= _ROUTES_RTOL * scale


@pytest.mark.slow
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(case=spline_cases(), seed=st.integers(0, 2 ** 16))
def test_select_m_is_byte_deterministic(case, seed):
    data = sample_of(*case, seed=seed)
    config = FitConfig(candidate_Ms=(4, 5, 6), order=case[0].basis.order)

    def outcome():
        try:
            return fit_bytes(select_M(data, config))
        except DynfitError as exc:
            return f"{type(exc).__name__}: {exc}"

    assert outcome() == outcome()
