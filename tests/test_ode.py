import numpy as np
import pytest

from dynfit.basis import make_basis
from dynfit.ode import (GradientModel, TrajectoryDivergenceError,
                        NonpositiveGradientError, _real_roots,
                        hessian_sensitivities, sensitivities_closed_form,
                        solve_trajectory)
from dynfit.sim import true_gradient_model
from reference import (NumpyScalarGradient, _hessian_ode,
                       numpy_scalar_solve_trajectory, richardson_rk4_endpoint,
                       sensitivities_ode)


class ExpModel:
    """g(x) = x; trajectory e^t from x(0)=1.  Not spline-backed."""

    def g(self, x):
        return x


def constant_model(level=0.8, lo=0.0, hi=2.0):
    basis = make_basis(lo, hi, 4, 4)
    return GradientModel(basis, level / basis.norm_factors)


def random_positive_model(rng, lo=0.0, hi=1.0):
    M = int(rng.integers(4, 9))
    basis = make_basis(lo, hi, M, 4)
    raw = rng.uniform(0.3, 1.5, M)  # positive raw weights => positive g
    return GradientModel(basis, raw / basis.norm_factors)


def test_constant_gradient_is_linear_in_time():
    model = constant_model(0.5)
    traj = solve_trajectory(model, 0.0, 1.0, 0.1, h=1e-2)
    np.testing.assert_allclose(traj.x_values, 0.1 + 0.5 * traj.t_grid,
                               rtol=0, atol=1e-14)


def test_exponential_accuracy():
    traj = solve_trajectory(ExpModel(), 0.0, 1.0, 1.0, h=1e-3)
    assert abs(traj.x_values[-1] - np.e) < 1e-9
    ts = np.linspace(0, 1, 501)
    assert np.abs(traj.state_at(ts) - np.exp(ts)).max() < 1e-11


def test_fourth_order_convergence():
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = solve_trajectory(ExpModel(), 0.0, 1.0, 1.0, h=h)
        errs.append(abs(traj.x_values[-1] - np.e))
    assert errs[0] / errs[1] >= 14
    assert errs[1] / errs[2] >= 14


def test_benchmark_trajectory_against_richardson_oracle(true_model):
    traj = solve_trajectory(true_model, 0.0, 1.0, 0.25, h=1e-3)
    oracle = richardson_rk4_endpoint(true_model, 0.0, 1.0, 0.25, h=1e-5)
    assert abs(traj.x_values[-1] - oracle) / abs(oracle) < 1e-7


def test_monotone_when_gradient_positive(true_model):
    traj = solve_trajectory(true_model, 0.0, 1.0, 0.25, h=1e-3)
    assert np.all(np.diff(traj.x_values) > 0)


def test_flat_extension_continues_linearly():
    model = constant_model(0.7, lo=0.0, hi=1.0)
    edge = model.g(1.0)
    traj = solve_trajectory(model, 0.0, 1.0, 0.999, h=1e-3)
    # beyond the domain the slope is frozen at the boundary value
    out = traj.t_grid > (1.0 - 0.999) / edge
    expect = 0.999 + edge * traj.t_grid
    np.testing.assert_allclose(traj.x_values[out], expect[out], atol=1e-12)
    assert model.g(5.0) == pytest.approx(edge)
    assert model.g_prime(5.0) == 0.0


def test_divergence_error():
    with pytest.raises(TrajectoryDivergenceError):
        solve_trajectory(ExpModel(), 0.0, 30.0, 1.0, h=1e-2)


def test_nonpositive_gradient_on_visited_states():
    basis = make_basis(0.0, 1.0, 5, 4)
    raw = np.array([0.8, 0.8, -1.5, 0.8, 0.8])  # dips negative mid-domain
    model = GradientModel(basis, raw / basis.norm_factors)
    assert model.min_on(0.0, 1.0) <= 0.0
    # started inside the dip, the path visits a state with g <= 0
    x = solve_trajectory(model, 0.0, 0.5, 0.5, h=1e-3).x_values
    assert model.min_on(x.min(), x.max()) <= 0.0
    # started below the dip the path stalls under the root: g stays > 0
    x = solve_trajectory(model, 0.0, 2.0, 0.05, h=1e-3).x_values
    assert model.min_on(x.min(), x.max()) > 0.0
    assert x[-1] < 0.5


def test_dense_output_checks_window():
    traj = solve_trajectory(ExpModel(), 0.0, 1.0, 1.0, h=1e-2)
    with pytest.raises(ValueError):
        traj.state_at(1.5)


def test_sensitivities_constant_model():
    model = constant_model(0.8, lo=0.0, hi=2.0)
    c = model.basis_row(0.5) @ np.ones(4)  # value of a constant row sum
    traj = solve_trajectory(model, 0.2, 1.0, 0.1, h=1e-3)
    tq = np.array([0.2, 0.5, 1.0])
    for bundle in (sensitivities_ode(model, traj, tq),
                   sensitivities_closed_form(model, traj.x_start,
                                             traj.state_at(tq))):
        # X(t) = x0 + 0.8 (t - 0.2); each coefficient contributes its
        # basis function along the path
        assert bundle.jacobian[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(bundle.initial_sensitivity, 1.0,
                                   atol=1e-10)
        fd = np.empty((3, 4))
        eps = 1e-6
        for r in range(4):
            up = model.beta.copy(); up[r] += eps
            dn = model.beta.copy(); dn[r] -= eps
            xu = solve_trajectory(GradientModel(model.basis, up), 0.2, 1.0,
                                  0.1, h=1e-3).state_at(tq)
            xd = solve_trajectory(GradientModel(model.basis, dn), 0.2, 1.0,
                                  0.1, h=1e-3).state_at(tq)
            fd[:, r] = (xu - xd) / (2 * eps)
        np.testing.assert_allclose(bundle.jacobian, fd, atol=1e-8)
    assert c > 0


def test_initial_condition_sensitivity_exponential_analog():
    # for g(x) = x the start-value sensitivity is X(t)/x_start = e^(t-t0)
    traj = solve_trajectory(ExpModel(), 0.0, 1.0, 1.0, h=1e-3)
    ts = np.array([0.0, 0.4, 1.0])
    ratio = traj.state_at(ts) / 1.0
    np.testing.assert_allclose(ratio, np.exp(ts), atol=1e-9)


def test_benchmark_jacobian_routes_agree(true_model):
    traj = solve_trajectory(true_model, 0.0, 1.0, 0.25, h=1e-3)
    tq = np.array([0.25, 0.5, 0.75])
    b_ode = sensitivities_ode(true_model, traj, tq)
    b_cf = sensitivities_closed_form(true_model, traj.x_start,
                                     traj.state_at(tq))
    scale = np.abs(b_cf.jacobian).max()
    assert np.abs(b_ode.jacobian - b_cf.jacobian).max() / scale < 1e-6
    np.testing.assert_allclose(b_ode.initial_sensitivity,
                               b_cf.initial_sensitivity, rtol=1e-6)


def test_benchmark_jacobian_matches_finite_differences(true_model):
    traj = solve_trajectory(true_model, 0.0, 1.0, 0.25, h=1e-3)
    tq = np.array([0.25, 0.5, 0.75])
    bundle = sensitivities_ode(true_model, traj, tq)
    eps = 1e-6
    fd = np.empty_like(bundle.jacobian)
    for r in range(true_model.n_params):
        up = true_model.beta.copy(); up[r] += eps
        dn = true_model.beta.copy(); dn[r] -= eps
        xu = solve_trajectory(GradientModel(true_model.basis, up), 0.0, 1.0,
                              0.25, h=1e-4).state_at(tq)
        xd = solve_trajectory(GradientModel(true_model.basis, dn), 0.0, 1.0,
                              0.25, h=1e-4).state_at(tq)
        fd[:, r] = (xu - xd) / (2 * eps)
    assert np.abs(bundle.jacobian - fd).max() / np.abs(fd).max() < 1e-4


def test_sensitivity_rows_at_start_time(true_model):
    traj = solve_trajectory(true_model, 0.1, 0.9, 0.3, h=1e-3)
    bundle = sensitivities_ode(true_model, traj, [0.1])
    np.testing.assert_allclose(bundle.jacobian[0], 0.0, atol=1e-15)
    assert bundle.initial_sensitivity[0] == pytest.approx(1.0)


def test_route_equivalence_on_random_positive_models():
    rng = np.random.default_rng(123)
    for _ in range(20):
        model = random_positive_model(rng)
        x0 = rng.uniform(0.05, 0.3)
        traj = solve_trajectory(model, 0.0, 0.6, x0, h=2e-3)
        tq = np.sort(rng.uniform(0.0, 0.6, 4))
        b1 = sensitivities_ode(model, traj, tq)
        b2 = sensitivities_closed_form(model, traj.x_start, traj.state_at(tq))
        scale = max(np.abs(b2.jacobian).max(), 1e-12)
        assert np.abs(b1.jacobian - b2.jacobian).max() / scale < 1e-6
        h1 = _hessian_ode(model, traj, tq[-1:])
        h2 = hessian_sensitivities(model, traj.x_start, traj.state_at(tq[-1:]))
        hscale = max(np.abs(h1.hessian).max(), 1e-12)
        assert np.abs(h1.hessian - h2.hessian).max() / hscale < 1e-5


def test_routes_agree_on_growth_model():
    # the cohort fixture's gradient: g falls from ~400 to ~34 cm per unit
    # time as the height approaches its adult level
    basis = make_basis(70.0, 185.0, 7, 4)
    raw = np.array([24.0, 7.5, 4.5, 3.5, 15.0, 1.2, 0.15]) * 17.0
    model = GradientModel(basis, raw / basis.norm_factors)
    traj = solve_trajectory(model, 0.0, 1.0, 75.0, h=5e-4)
    tq = np.linspace(0.0, 1.0, 41)
    b_ode = sensitivities_ode(model, traj, tq)
    b_cf = sensitivities_closed_form(model, traj.x_start, traj.state_at(tq))
    scale = np.abs(b_ode.jacobian).max(axis=0)
    assert (np.abs(b_cf.jacobian - b_ode.jacobian).max(axis=0)
            <= 1e-8 * scale).all()
    np.testing.assert_allclose(b_cf.initial_sensitivity,
                               b_ode.initial_sensitivity, rtol=1e-8)


def near_root_model():
    """Growth-style g with a root at x ~ 170.41: a path from 75 over unit
    time ends ~7e-3 short of it, where g is 4e-4 of its largest value,
    so 1/g^2 has a near-pole in the last piece of the node table."""
    basis = make_basis(70.0, 185.0, 7, 4)
    raw = np.array([24.0, 7.5, 4.5, 3.5, 15.0, 1.2, -40.0]) * 18.7
    return GradientModel(basis, raw / basis.norm_factors)


def test_routes_agree_next_to_a_root():
    model = near_root_model()
    traj = solve_trajectory(model, 0.0, 1.0, 75.0, h=5e-4)
    x_end = traj.x_values[-1]
    assert 0 < model.g(x_end) < 1e-3 * model.g(np.linspace(70, x_end, 999)).max()
    tq = np.linspace(0.0, 1.0, 41)
    b_ode = sensitivities_ode(model, traj, tq)
    b_cf = sensitivities_closed_form(model, traj.x_start, traj.state_at(tq))
    scale = np.abs(b_ode.jacobian).max(axis=0)
    assert (np.abs(b_cf.jacobian - b_ode.jacobian).max(axis=0)
            <= 1e-8 * scale).all()


def _truth_case():
    return [(true_gradient_model(), 1.0, 0.25, np.array([0.25, 0.5, 0.75]))]


def _random_cases():
    rng = np.random.default_rng(123)  # the models of the route test above
    cases = []
    for _ in range(20):
        model = random_positive_model(rng)
        x0 = rng.uniform(0.05, 0.3)
        cases.append((model, 0.6, x0, np.sort(rng.uniform(0.0, 0.6, 4))))
    return cases


def _near_root_case():
    return [(near_root_model(), 1.0, 75.0, np.linspace(0.0, 1.0, 41))]


@pytest.mark.parametrize("cases", [
    _truth_case, _near_root_case,
    pytest.param(_random_cases, marks=pytest.mark.slow)])
def test_closed_form_hessian_matches_fine_ode_route(cases):
    # on an h = 1e-4 trajectory the RK4 route's own error is far below
    # the bound, so this checks the closed form itself
    for model, t_end, x0, tq in cases():
        traj = solve_trajectory(model, 0.0, t_end, x0, h=1e-4)
        ode = _hessian_ode(model, traj, tq)
        quad = hessian_sensitivities(model, traj.x_start, traj.state_at(tq))
        scale = np.abs(ode.hessian).max()
        assert np.abs(quad.hessian - ode.hessian).max() / scale < 1e-7
        np.testing.assert_array_equal(
            quad.hessian, np.transpose(quad.hessian, (0, 2, 1)))


def test_closed_form_requires_positive_gradient():
    basis = make_basis(0.0, 1.0, 5, 4)
    raw = np.array([0.8, 0.8, -1.5, 0.8, 0.8])
    model = GradientModel(basis, raw / basis.norm_factors)
    traj = solve_trajectory(model, 0.0, 0.5, 0.5, h=1e-3)
    with pytest.raises(NonpositiveGradientError):
        sensitivities_closed_form(model, traj.x_start, traj.state_at([0.4]))


def test_positivity_is_exact_between_grid_nodes():
    # g = (x - c)^2 - 1e-10 dips below zero only within 1e-5 of c, which
    # lies midway between two nodes of a 4096-point grid on [0, 1]
    basis = make_basis(0.0, 1.0, 6, 4)
    c = 2047.5 / 4095
    xs = np.linspace(0.0, 1.0, 200)
    beta = np.linalg.lstsq(basis.eval(xs), (xs - c) ** 2 - 1e-10,
                           rcond=None)[0]
    model = GradientModel(basis, beta)
    assert model.g(c) < 0.0
    assert model.min_on(0.0, 1.0) <= 0.0
    assert model.min_on(0.0, 1.0) == pytest.approx(-1e-10, rel=1e-3)
    assert model.min_on(0.6, 0.9) == pytest.approx(0.01 - 1e-10)
    # a path from 0.1 to 0.9 (driven by a constant gradient) crosses c
    flat = GradientModel(basis, 0.8 / basis.norm_factors)
    traj = solve_trajectory(flat, 0.0, 1.0, 0.1, h=1e-3)
    with pytest.raises(NonpositiveGradientError):
        sensitivities_closed_form(model, traj.x_start,
                                  traj.state_at([0.25, 1.0]))


def test_real_roots_match_numpy_roots():
    rng = np.random.default_rng(12)
    # ascending coefficients; a complex pair counts once, by its real part
    cases = [[0.0, 0.0, 1.0], [0.0, -2.0, 1.0], [1.0, 0.0, 1.0],
             [3.0, 2.0, 0.0], [5.0, 0.0, 0.0], [0.0, 0.0, 0.0],
             [2.0, -3.0, 1.0, 0.0]]
    cases += [list(rng.normal(size=k)) + [0.0] for k in (2, 3, 4)
              for _ in range(50)]
    for coeffs in cases:
        ours = np.asarray(_real_roots(coeffs), dtype=float)
        theirs = np.roots(coeffs[::-1]).real
        assert len(ours) == 0 if len(theirs) == 0 else len(ours) > 0
        for a, b in ((ours, theirs), (theirs, ours)):
            for v in a:
                assert np.abs(b - v).min() <= 1e-12 * (1.0 + abs(v))


def test_hessian_routes_and_symmetry(true_model):
    traj = solve_trajectory(true_model, 0.0, 1.0, 0.25, h=1e-3)
    tq = np.array([0.3, 0.6])
    h_ode = _hessian_ode(true_model, traj, tq)
    h_quad = hessian_sensitivities(true_model, traj.x_start, traj.state_at(tq))
    scale = np.abs(h_ode.hessian).max()
    assert np.abs(h_ode.hessian - h_quad.hessian).max() / scale < 1e-5
    np.testing.assert_allclose(h_ode.hessian,
                               np.transpose(h_ode.hessian, (0, 2, 1)),
                               atol=1e-12)


def test_hessian_zero_at_start_and_constant_model():
    model = constant_model(0.6, lo=0.0, hi=2.0)
    traj = solve_trajectory(model, 0.1, 0.9, 0.2, h=1e-3)
    bundle = _hessian_ode(model, traj, [0.1, 0.7])
    np.testing.assert_allclose(bundle.hessian[0], 0.0, atol=1e-15)
    # constant raw coefficients: g' = 0 and phi' rows vanish in the
    # interior only for the *sum*; the full Hessian is still tiny next
    # to the Jacobian scale
    jac_scale = np.abs(bundle.jacobian).max()
    assert np.abs(bundle.hessian[1]).max() < 10 * jac_scale


def test_hessian_exactly_zero_for_scalar_constant_model():
    # one constant basis function: the trajectory is linear in the
    # coefficient, so all second derivatives vanish identically
    from test_estimator import constant_basis

    basis = constant_basis(0.0, 3.0)
    model = GradientModel(basis, np.array([1.1]))
    traj = solve_trajectory(model, 0.1, 0.9, 0.2, h=1e-3)
    bundle = _hessian_ode(model, traj, [0.5, 0.9])
    np.testing.assert_array_equal(bundle.hessian, 0.0)


def test_hessian_matches_finite_differences(true_model):
    traj = solve_trajectory(true_model, 0.0, 1.0, 0.25, h=1e-3)
    tq = np.array([0.5])
    bundle = _hessian_ode(true_model, traj, tq)
    eps = 1e-4
    M = true_model.n_params
    fd = np.empty((M, M))
    base = true_model.beta

    def x_at(beta):
        return solve_trajectory(GradientModel(true_model.basis, beta),
                                0.0, 1.0, 0.25, h=1e-3).state_at(0.5)

    x0 = x_at(base)
    for r in range(M):
        for s in range(r, M):
            bpp = base.copy(); bpp[r] += eps; bpp[s] += eps
            bpm = base.copy(); bpm[r] += eps; bpm[s] -= eps
            bmp = base.copy(); bmp[r] -= eps; bmp[s] += eps
            bmm = base.copy(); bmm[r] -= eps; bmm[s] -= eps
            fd[r, s] = fd[s, r] = (
                x_at(bpp) - x_at(bpm) - x_at(bmp) + x_at(bmm)) / (4 * eps ** 2)
    assert np.abs(bundle.hessian[0] - fd).max() < 1e-3


def assert_same_solution(model, *args, **kwargs):
    """The solver gives the bytes of the numpy-scalar reference loop."""
    ours = solve_trajectory(model, *args, **kwargs)
    ref = numpy_scalar_solve_trajectory(NumpyScalarGradient(model), *args,
                                        **kwargs)
    for name in ("t_grid", "x_values", "f_values"):
        assert getattr(ours, name).tobytes() == getattr(ref, name).tobytes()
    return ours


def test_solver_bitwise_on_simulation_truth(true_model):
    assert_same_solution(true_model, 0.0, 1.0, 0.25, h=1e-4)


def test_solver_bitwise_on_growth_model_with_extra_times():
    basis = make_basis(70.0, 185.0, 7, 4)
    raw = np.array([24.0, 7.5, 4.5, 3.5, 15.0, 1.2, 0.15]) * 17.0
    ages = np.concatenate([np.arange(1.0, 2.0, 0.25), np.arange(2.0, 8.0),
                           np.arange(8.0, 18.01, 0.5)])
    model = GradientModel(basis, raw / basis.norm_factors)
    unit = (ages - 1.0) / 17.0
    # repeated ages (and 0.5, a grid time) must each enter the grid once
    traj = assert_same_solution(model, 0.02, 0.98, 76.0, h=1e-3,
                                extra_times=np.concatenate([unit, unit[::3],
                                                            [0.5]]))
    assert traj.x_values[-1] > 150.0


def test_solver_bitwise_when_gradient_crosses_zero():
    basis = make_basis(0.0, 1.0, 5, 4)
    raw = np.array([0.8, 0.8, -1.5, 0.8, 0.8])
    model = GradientModel(basis, raw / basis.norm_factors)
    assert_same_solution(model, 0.0, 0.5, 0.5, h=1e-3)
    assert_same_solution(model, 0.0, 2.0, 0.05, h=1e-3)


def test_solver_divergence_message_matches_reference():
    # g is 2e5 on the domain and beyond it, so |x| passes 1e6 at t = 5
    model = constant_model(2e5, lo=0.0, hi=2.0)
    with pytest.raises(TrajectoryDivergenceError) as ours:
        solve_trajectory(model, 0.0, 10.0, 0.1, h=1e-2)
    with pytest.raises(TrajectoryDivergenceError) as ref:
        numpy_scalar_solve_trajectory(NumpyScalarGradient(model), 0.0, 10.0,
                                      0.1, h=1e-2)
    assert str(ours.value) == str(ref.value)


def test_scalar_gradient_matches_vector_path(true_model):
    for model in (true_model, random_positive_model(
            np.random.default_rng(8), lo=0.1, hi=1.1)):
        bas = model.basis
        # at breakpoints both paths reduce to the constant coefficient
        points = bas.breakpoints[:-1]
        assert np.array_equal([model.g(x) for x in points], model.g(points))
        # outside the domain both continue with the boundary values
        outside = np.array([bas.x_lo - 1.0, bas.x_lo - 1e-9,
                            bas.x_hi + 1e-9, bas.x_hi + 3.0])
        edges = np.array([bas.x_lo, bas.x_lo, bas.x_hi, bas.x_hi])
        scalar = [model.g(x) for x in outside]
        assert scalar == [model.g(x) for x in edges]
        assert np.array_equal(model.g(outside), model.g(edges))
        np.testing.assert_allclose(scalar, model.g(outside), rtol=1e-14)
        assert scalar == [NumpyScalarGradient(model).g(x) for x in outside]

