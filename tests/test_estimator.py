import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynfit import estimator
from dynfit.basis import SplineBasis, make_basis
from dynfit.estimator import (AllCandidatesFailedError, EstimatorError,
                              FitConfig, InfeasibleCoefficientsError,
                              NoDescentError, Sample, SingularDesignError,
                              approximate_loo_score, constant_coefficients,
                              fit_at_dimension, lm_fit, margin_basis,
                              presmooth, residuals_and_jacobian, select_M,
                              support_margin, trim_mask, two_stage_fit,
                              _evaluate, _gauss_newton,
                              _initial_coefficients, _lambda_min)
from dynfit.ode import GradientModel, solve_trajectory
from dynfit.smooth import Dataset, SmoothingError, choose_delta
from conftest import make_replicate


def constant_basis(lo: float, hi: float) -> SplineBasis:
    """Degenerate one-function basis: the normalized indicator of [lo, hi].

    Built directly (bypassing make_basis validation) as the scalar-case
    harness: the model is g = beta / sqrt(hi - lo), constant.
    """
    length = hi - lo
    c0 = np.array([[[1.0 / np.sqrt(length)]]])
    return SplineBasis(order=1, n_basis=1, x_lo=lo, x_hi=hi,
                       knots=np.array([lo, hi]),
                       norm_factors=np.array([1.0 / np.sqrt(length)]),
                       breakpoints=np.array([lo, hi]),
                       _tables=(c0, np.zeros_like(c0)))


def loss(beta, data, delta, start_value, basis):
    """Trimmed sum of squared residuals; +inf for infeasible beta."""
    return _evaluate(beta, data, delta, start_value, basis)[0]



def fitting_setup(true_trajectory, seed=7, n=100, sigma=0.0):
    """Replicate plus the basis/anchor the selection pipeline would build."""
    d = make_replicate(true_trajectory, seed=seed, n=n, sigma=sigma)
    delta = choose_delta(d.times)
    x0 = true_trajectory.state_at(delta)
    x1 = true_trajectory.state_at(1.0 - delta)
    probe = make_basis(x0, x1, 4, 4)
    eta = support_margin(4, n, probe.smallest_support)
    basis = make_basis(x0 - eta, x1 + eta, 4, 4)
    return d, delta, x0, basis


def project_onto(basis, g, lo, hi):
    """Coefficients reproducing a cubic g exactly on [lo, hi]."""
    xs = np.linspace(lo, hi, basis.n_basis)
    return np.linalg.solve(basis.eval(xs), g(xs))


def project_true(basis, true_model):
    """Coefficients matching the benchmark cubic on the fitted domain.

    Interpolation nodes stay inside the benchmark's own knot interval,
    where its gradient really is the cubic (outside it is flat-extended,
    which would corrupt the interpolation).
    """
    from dynfit.sim import TRUE_KNOT_INTERVAL

    lo = max(basis.x_lo, TRUE_KNOT_INTERVAL[0] + 1e-9)
    hi = min(basis.x_hi, TRUE_KNOT_INTERVAL[1] - 1e-9)
    return project_onto(basis, true_model.g, lo, hi)


def test_loss_zero_noise_self_consistency(true_model, true_trajectory):
    d, delta, x0, basis = fitting_setup(true_trajectory)
    beta = project_true(basis, true_model)
    assert loss(beta, d, delta, x0, basis) < 1e-12


def test_loss_infeasible_sentinel(true_trajectory):
    d, delta, x0, basis = fitting_setup(true_trajectory)
    bad = constant_coefficients(basis, -0.5)
    assert loss(bad, d, delta, x0, basis) == np.inf


def test_loss_concentrates_at_noise_level(true_model, true_trajectory):
    ok = 0
    for seed in range(20):
        d, delta, x0, basis = fitting_setup(true_trajectory, seed=seed,
                                            sigma=0.01)
        beta = project_true(basis, true_model)
        n_eff = int(trim_mask(d.times, delta).sum())
        ratio = loss(beta, d, delta, x0, basis) / n_eff / 1e-4
        ok += 0.5 < ratio < 2.0
    assert ok >= 19


def test_jacobian_row_zero_at_trim_start(true_model):
    delta = 0.1
    times = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    traj = solve_trajectory(true_model, 0.0, 1.0, 0.25, h=1e-4)
    d = Dataset(times, traj.state_at(times))
    beta = true_model.beta
    resid, J = residuals_and_jacobian(beta, d, delta, traj.state_at(delta),
                                      true_model.basis)
    np.testing.assert_allclose(J[0], 0.0, atol=1e-15)
    assert resid.shape == (5,) and J.shape == (5, 4)


def test_gradient_matches_finite_differences(true_model, true_trajectory):
    d, delta, x0, basis = fitting_setup(true_trajectory, sigma=0.01)
    rng = np.random.default_rng(0)
    base = project_true(basis, true_model)
    checked = 0
    while checked < 10:
        beta = base * rng.uniform(0.8, 1.2, basis.n_basis)
        val = loss(beta, d, delta, x0, basis)
        if not np.isfinite(val):
            continue
        resid, J = residuals_and_jacobian(beta, d, delta, x0, basis)
        grad = 2 * J.T @ resid
        eps = 1e-6
        fd = np.empty_like(grad)
        for m in range(basis.n_basis):
            up = beta.copy(); up[m] += eps
            dn = beta.copy(); dn[m] -= eps
            fd[m] = (loss(up, d, delta, x0, basis)
                     - loss(dn, d, delta, x0, basis)) / (2 * eps)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-4
        checked += 1


def test_constant_model_jacobian_column():
    basis = constant_basis(0.0, 4.0)
    c = 1.0 / 2.0  # normalized indicator value
    beta = np.array([1.6])
    delta = 0.1
    times = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    g_val = beta[0] * c
    d = Dataset(times, 0.2 + g_val * (times - delta))
    resid, J = residuals_and_jacobian(beta, d, delta, 0.2, basis)
    np.testing.assert_allclose(J[:, 0], -c * (times - delta), atol=1e-10)
    np.testing.assert_allclose(resid, 0.0, atol=1e-12)


def test_lm_converges_instantly_from_truth(true_model, true_trajectory):
    d, delta, x0, basis = fitting_setup(true_trajectory)
    beta_star = project_true(basis, true_model)
    beta, report, _, _ = lm_fit(beta_star, d, delta, x0, basis)
    assert report.status == "converged"
    assert report.iterations <= 2
    assert np.linalg.norm(beta - beta_star) < 1e-6


def test_lm_rejects_infeasible_init(true_trajectory):
    d, delta, x0, basis = fitting_setup(true_trajectory)
    with pytest.raises(InfeasibleCoefficientsError):
        lm_fit(constant_coefficients(basis, -1.0), d, delta, x0, basis)


def test_lm_monotone_descent_and_stationarity(true_trajectory):
    d, delta, x0, basis = fitting_setup(true_trajectory, seed=5, sigma=0.01)
    init = constant_coefficients(basis, 0.8)
    beta, report, _, _ = lm_fit(init, d, delta, x0, basis)
    losses = np.array(report.accepted_losses)
    assert np.all(np.diff(losses) < 0)
    assert report.status == "converged"
    resid, J = residuals_and_jacobian(beta, d, delta, x0, basis)
    gnorm = np.abs(J.T @ resid).max()
    assert gnorm <= estimator._GRAD_TOL * (1 + report.loss_value)


def test_lm_no_descent_error(true_model, true_trajectory, monkeypatch):
    d, delta, x0, basis = fitting_setup(true_trajectory)
    beta_star = project_true(basis, true_model)
    monkeypatch.setattr(estimator, "_GRAD_TOL", 0.0)
    monkeypatch.setattr(estimator, "_STEP_TOL", 0.0)
    with pytest.raises(NoDescentError) as err:
        lm_fit(beta_star, d, delta, x0, basis)
    assert np.linalg.norm(err.value.best_beta - beta_star) < 1e-8


def test_trimming_excludes_tail_observations(true_model, true_trajectory):
    d, delta, x0, basis = fitting_setup(true_trajectory, sigma=0.01)
    beta = project_true(basis, true_model)
    outside = (d.times < delta) | (d.times > 1 - delta)
    assert outside.any()
    corrupted = Dataset(d.times, np.where(outside, d.values + 50.0, d.values))
    assert loss(beta, d, delta, x0, basis) == \
        loss(beta, corrupted, delta, x0, basis)
    r1, J1 = residuals_and_jacobian(beta, d, delta, x0, basis)
    r2, J2 = residuals_and_jacobian(beta, corrupted, delta, x0, basis)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(J1, J2)


def golden_section(f, lo, hi, tol=1e-10):
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_scalar_case_matches_brute_force():
    basis = constant_basis(0.0, 3.0)
    rng = np.random.default_rng(9)
    times = np.sort(rng.uniform(0, 1, 60))
    delta = 0.08
    true_beta = np.array([1.2])
    model = GradientModel(basis, true_beta)
    traj = solve_trajectory(model, delta, 1 - delta, 0.3, h=1e-4)
    y = traj.state_at(np.clip(times, delta, 1 - delta)) \
        + 0.01 * rng.standard_normal(len(times))
    d = Dataset(times, y)

    def scalar_loss(b):
        return loss(np.array([b]), d, delta, 0.3, basis)

    grid = np.linspace(0.2, 2.5, 300)
    vals = [scalar_loss(b) for b in grid]
    i = int(np.argmin(vals))
    brute = golden_section(scalar_loss, grid[max(i - 1, 0)],
                           grid[min(i + 1, len(grid) - 1)])
    beta_hat, report, _, _ = lm_fit(np.array([1.0]), d, delta, 0.3, basis)
    assert abs(beta_hat[0] - brute) < 1e-6


def test_two_stage_recovers_in_span_gradient(true_model, true_trajectory):
    rng = np.random.default_rng(2)
    t = np.sort(rng.uniform(0, 1, 2000))
    d = Dataset(t, true_trajectory.state_at(t))
    delta = choose_delta(t)
    x0 = true_trajectory.state_at(delta)
    x1 = true_trajectory.state_at(1 - delta)
    basis = make_basis(x0 - 0.02, x1 + 0.02, 4, 4)
    beta = two_stage_fit(d, basis, delta, presmooth(d))
    fitted = GradientModel(basis, beta)
    xs = np.linspace(x0, x1, 2000)
    ise = np.trapezoid((fitted.g(xs) - true_model.g(xs)) ** 2, xs)
    assert ise < 1e-4


def test_two_stage_singular_when_support_uncovered(true_trajectory):
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, 1, 200))
    d = Dataset(t, true_trajectory.state_at(t))
    delta = choose_delta(t)
    # basis extends far beyond the data's state range on the right
    basis = make_basis(0.2, 3.0, 8, 4)
    with pytest.raises(SingularDesignError):
        two_stage_fit(d, basis, delta, presmooth(d))


def test_two_stage_near_singular_design_warns_and_adds_ridge():
    # smoothed states packed into a sliver of the single knot interval:
    # every column is covered, but the columns are nearly collinear
    t = np.linspace(0.0, 1.0, 60)
    level = 0.5 + 1e-3 * t
    deriv = 1.0 + t
    basis = make_basis(0.0, 1.0, 4, 4)
    delta = 0.05
    with pytest.warns(RuntimeWarning, match="ridge jitter"):
        beta = two_stage_fit(Dataset(t, level), basis, delta,
                             presmoothed=(level, deriv))
    mask = trim_mask(t, delta)
    design = basis.eval(level[mask])
    normal = design.T @ design
    assert np.linalg.cond(normal) > 1e12
    expected = np.linalg.solve(normal + 1e-10 * np.eye(4),
                               design.T @ deriv[mask])
    assert np.array_equal(beta, expected)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(x0=st.floats(-50.0, 50.0), width=st.floats(1e-2, 100.0),
       delta=st.floats(0.01, 0.45), order=st.integers(3, 5),
       extra=st.integers(0, 12))
def test_constant_fallback_start_is_feasible(x0, width, delta, order, extra):
    x1, n = x0 + width, 60
    basis = margin_basis(x0, x1, order + extra, order, n)
    t = np.linspace(0.0, 1.0, n)
    data = Dataset(t, x0 + width * t)
    # smoothed states beyond the basis domain leave the two-stage design
    # empty, so the initializer takes its constant fallback
    beyond = np.full(n, basis.x_hi + width)
    beta = _initial_coefficients(data, basis, delta, (x0, x1),
                                 (beyond, np.zeros(n)))
    assert np.isfinite(loss(beta, data, delta, x0, basis))


def test_select_m_reuses_the_last_lm_residuals_and_jacobian(true_trajectory,
                                                             monkeypatch):
    import dynfit.estimator as est

    calls = []
    real = est.residuals_and_jacobian

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(est, "residuals_and_jacobian", counted)
    d = make_replicate(true_trajectory, seed=3)
    fit = select_M(d, FitConfig(candidate_Ms=(4, 5)))
    assert calls == []
    # the covariance is the one a fresh evaluation at beta_hat gives
    cov, sigma2 = _gauss_newton(*residuals_and_jacobian(
        fit.model.beta, d.odd_half(), fit.delta, fit.endpoints[0],
        fit.model.basis))
    assert np.array_equal(cov, fit.covariance) and sigma2 == fit.sigma2_hat


def test_two_stage_start_is_solved_once_per_candidate(true_trajectory,
                                                     monkeypatch):
    import dynfit.estimator as est

    starts, runs = [], []  # runs: the coefficients solved, per candidate
    real_solve, real_init = est.solve_trajectory, est._initial_coefficients

    def counted_solve(model, *args, **kwargs):
        runs[-1].append(model.beta.tobytes())
        return real_solve(model, *args, **kwargs)

    def recorded_init(*args, **kwargs):
        runs.append([])
        starts.append(real_init(*args, **kwargs))
        return starts[-1]

    monkeypatch.setattr(est, "solve_trajectory", counted_solve)
    monkeypatch.setattr(est, "_initial_coefficients", recorded_init)
    select_M(make_replicate(true_trajectory, seed=3),
             FitConfig(candidate_Ms=(4, 5)))
    assert len(starts) == 2
    for start, run in zip(starts, runs):
        assert isinstance(start, est._Start)
        # the initializer's solve comes first, and LM does not repeat it
        assert run[0] == start.beta.tobytes()
        assert len(run) == len(set(run))


def test_loo_score_formula():
    rng = np.random.default_rng(4)
    J = rng.standard_normal((30, 3))
    r = rng.standard_normal(30)
    H = J @ np.linalg.inv(J.T @ J) @ J.T
    expected = float(np.sum((r / (1 - np.diag(H))) ** 2))
    assert approximate_loo_score(r, J) == pytest.approx(expected)


def test_loo_score_singular_design():
    J = np.random.default_rng(4).standard_normal((30, 3))
    J[:, 1] = 0.0
    with pytest.raises(EstimatorError):
        approximate_loo_score(np.ones(30), J)


def test_fit_at_dimension_is_the_selection_body(true_trajectory):
    d = make_replicate(true_trajectory, seed=10, n=90, sigma=0.01)
    one = fit_at_dimension(d, FitConfig(), 5)
    sel = select_M(d, FitConfig(candidate_Ms=(5,)))
    np.testing.assert_array_equal(one.model.beta, sel.model.beta)
    np.testing.assert_array_equal(one.covariance, sel.covariance)
    assert one.cv_score == sel.cv_score


def test_fit_at_dimension_default_margin(true_trajectory):
    d = make_replicate(true_trajectory, seed=10, n=90, sigma=0.01)
    default = fit_at_dimension(d, FitConfig(), 5)
    x0, x1 = default.endpoints
    s_M = make_basis(x0, x1, 5, 4).smallest_support
    given = fit_at_dimension(d, FitConfig(), 5,
                             margin=support_margin(5, d.n, s_M))
    np.testing.assert_array_equal(given.model.beta, default.model.beta)
    np.testing.assert_array_equal(given.covariance, default.covariance)
    assert given.cv_score == default.cv_score
    with pytest.raises(EstimatorError):
        fit_at_dimension(d, FitConfig(), 5, margin=0.0)


def test_select_single_candidate_unconditional(true_trajectory):
    d = make_replicate(true_trajectory, seed=10, n=90, sigma=0.01)
    fit = select_M(d, FitConfig(candidate_Ms=(5,)))
    assert fit.chosen_M == 5
    assert list(fit.candidate_scores) == [5]


def test_select_noiseless_prefers_true_dimension(true_trajectory):
    d = make_replicate(true_trajectory, seed=11, n=100, sigma=0.0)
    fit = select_M(d, FitConfig(candidate_Ms=(3, 4, 5)))
    # with cubic order, a 3-function basis is not a candidate
    assert 3 not in fit.candidate_failures
    assert 3 not in fit.candidate_scores
    assert fit.chosen_M in (4, 5)
    best = min(fit.candidate_scores.items(), key=lambda kv: (kv[1], kv[0]))
    assert fit.chosen_M == best[0]


def failing_presmooth(data):
    raise SmoothingError("all candidate bandwidths give singular designs")


def test_select_all_failed(true_trajectory, monkeypatch):
    monkeypatch.setattr(estimator, "presmooth", failing_presmooth)
    d = make_replicate(true_trajectory, seed=12, n=80, sigma=0.01)
    with pytest.raises(AllCandidatesFailedError):
        select_M(d, FitConfig(candidate_Ms=(4, 5)))


def test_select_presmooths_once(true_trajectory, monkeypatch):
    import dynfit.estimator as estimator

    calls = []

    def counted(data):
        calls.append(data.n)
        return presmooth(data)

    monkeypatch.setattr(estimator, "presmooth", counted)
    d = make_replicate(true_trajectory, seed=13, n=80, sigma=0.01)
    fit = select_M(d, FitConfig(candidate_Ms=(3, 4, 5)))
    assert sorted(fit.candidate_scores) == [4, 5]
    assert calls == [40]

    def failing(data):
        calls.append(data.n)
        raise SmoothingError("all candidate bandwidths give singular designs")

    calls.clear()
    monkeypatch.setattr(estimator, "presmooth", failing)
    with pytest.raises(AllCandidatesFailedError) as err:
        select_M(d, FitConfig(candidate_Ms=(3, 4, 5)))
    assert calls == [40]
    assert sorted(err.value.failures) == [4, 5]
    assert err.value.failures[4] == err.value.failures[5] == (
        "SmoothingError: all candidate bandwidths give singular designs")


def fit_bytes(fit):
    """Every array, score, failure and LM report of a fit, as bytes."""
    return repr((fit.model.beta.tobytes(), fit.covariance.tobytes(),
                 fit.model.basis.knots.tobytes(), fit.chosen_M,
                 fit.loss_value, fit.cv_score, fit.sigma2_hat, fit.endpoints,
                 fit.delta, fit.convergence, fit.n_eff,
                 sorted(fit.candidate_scores.items()),
                 sorted(fit.candidate_failures.items())))


def test_prepared_sample_fits_are_bit_equal_to_dataset_fits(true_trajectory):
    d = make_replicate(true_trajectory, seed=13, n=80, sigma=0.01)
    cfg = FitConfig(candidate_Ms=(3, 4, 5))
    assert fit_bytes(select_M(Sample(d, cfg), cfg)) == \
        fit_bytes(select_M(d, cfg))
    assert fit_bytes(fit_at_dimension(Sample(d, cfg), cfg, 5)) == \
        fit_bytes(fit_at_dimension(d, cfg, 5))


def test_sample_supplies_its_own_delta(true_trajectory):
    d = make_replicate(true_trajectory, seed=13, n=80, sigma=0.01)
    sample = Sample(d, FitConfig(delta=0.1))
    fit = fit_at_dimension(sample, FitConfig(), 4)
    assert fit.delta == sample.delta == 0.1
    assert fit.endpoints == sample.endpoints
    assert fit_at_dimension(sample, FitConfig(delta=0.1), 4).delta == 0.1
    # a config delta that contradicts the sample's is an error, not ignored
    with pytest.raises(ValueError, match="differs"):
        fit_at_dimension(sample, FitConfig(delta=0.2), 4)
    with pytest.raises(ValueError, match="differs"):
        select_M(sample, FitConfig(delta=0.2))


def test_lm_fit_takes_delta_and_reproduces_the_fit(true_trajectory):
    d = make_replicate(true_trajectory, seed=13, n=80, sigma=0.01)
    sample = Sample(d, FitConfig(delta=0.1))
    fit = fit_at_dimension(sample, FitConfig(), 4)
    basis = fit.model.basis
    init = _initial_coefficients(sample.fit_data, basis, 0.1,
                                 sample.endpoints, sample.presmoothed())
    beta, report, _, _ = lm_fit(init, sample.fit_data, 0.1,
                                sample.endpoints[0], basis)
    assert beta.tobytes() == fit.model.beta.tobytes()
    assert report == fit.convergence


def test_select_needs_enough_data():
    d = Dataset(np.linspace(0, 1, 8), np.linspace(0.2, 1.0, 8))
    with pytest.raises(EstimatorError):
        select_M(d, FitConfig())


def test_covariance_vanishes_for_perfect_fit(true_model, true_trajectory):
    # data generated exactly on a model trajectory: residuals ~ 0
    d0, delta, x0, basis = fitting_setup(true_trajectory)
    beta = project_true(basis, true_model)
    model = GradientModel(basis, beta)
    traj = solve_trajectory(model, delta, 1 - delta, x0, h=1e-3)
    t_in = d0.times[(d0.times >= delta) & (d0.times <= 1 - delta)]
    d = Dataset(t_in, traj.state_at(t_in))
    resid, J = residuals_and_jacobian(beta, d, delta, x0, basis)
    sigma2 = float(resid @ resid) / (len(resid) - basis.n_basis)
    D = sigma2 * np.linalg.inv(J.T @ J)
    assert sigma2 < 1e-20
    assert np.abs(D).max() < 1e-18


def test_covariance_and_bands_from_fit(true_trajectory):
    d = make_replicate(true_trajectory, seed=13, n=100, sigma=0.01)
    fit = select_M(d, FitConfig(candidate_Ms=(4,)))
    D, sigma2 = _gauss_newton(*residuals_and_jacobian(
        fit.model.beta, d.odd_half(), fit.delta, fit.endpoints[0],
        fit.model.basis))
    np.testing.assert_allclose(D, fit.covariance, rtol=1e-8)
    assert sigma2 > 0
    assert np.linalg.eigvalsh(fit.covariance)[0] >= -1e-12
    # no basis support outside the domain -> zero variance there
    assert fit.pointwise_se([fit.model.basis.x_hi + 1.0])[0] == 0.0
    g, lo_band, hi_band = fit.gradient_band([0.6])
    assert lo_band[0] < g[0] < hi_band[0]


def test_conditioning_scalar_closed_form():
    basis = constant_basis(0.0, 3.0)
    beta = np.array([1.2])
    c = 1.0 / np.sqrt(3.0)
    delta = 0.1
    rng = np.random.default_rng(14)
    times = np.sort(rng.uniform(0, 1, 200))
    model = GradientModel(basis, beta)
    traj = solve_trajectory(model, delta, 1 - delta, 0.3, h=1e-4)
    inside = (times >= delta) & (times <= 1 - delta)
    d = Dataset(times, np.where(inside, traj.state_at(
        np.clip(times, delta, 1 - delta)), 0.3))
    _, J = residuals_and_jacobian(beta, d, delta, 0.3, basis)
    lam = float(np.linalg.eigvalsh((J.T @ J) / len(J))[0])
    expected = c ** 2 * np.mean((times[inside] - delta) ** 2)
    assert lam == pytest.approx(expected, rel=1e-8)


def test_conditioning_diagnostic_positive(true_trajectory):
    d = make_replicate(true_trajectory, seed=15, n=90, sigma=0.01)
    fit = select_M(d, FitConfig(candidate_Ms=(4, 5)))
    _, J = residuals_and_jacobian(fit.model.beta, d.odd_half(), fit.delta,
                                  fit.endpoints[0], fit.model.basis)
    assert _lambda_min(J) > 0


@pytest.mark.slow
def test_two_stage_agrees_with_one_step_in_easy_limit(true_trajectory):
    rng = np.random.default_rng(16)
    t = np.sort(rng.uniform(0, 1, 5000))
    y = true_trajectory.state_at(t) + 1e-6 * rng.standard_normal(5000)
    d = Dataset(t, y)
    fit = select_M(d, FitConfig(candidate_Ms=(4,)))
    beta_ts = two_stage_fit(d.odd_half(), fit.model.basis, fit.delta,
                            presmooth(d.odd_half()))
    ts_model = GradientModel(fit.model.basis, beta_ts)
    xs = np.linspace(*fit.endpoints, 3000)
    diff = np.trapezoid((ts_model.g(xs) - fit.model.g(xs)) ** 2, xs)
    assert diff < 1e-6


def test_support_margin_formula():
    assert support_margin(4, 100, 1.0) == pytest.approx(
        min(4 ** -1.5 * np.log(100), 1.0 / np.log(100)))
    assert support_margin(32, 4000, 0.03) == pytest.approx(
        min(32 ** -1.5 * np.log(4000), 0.03 / np.log(4000)))


def test_fit_config_validation():
    for options in ({"delta": 0.7}, {"candidate_Ms": ()}, {"order": 2},
                    {"candidate_Ms": (2, 3)},
                    {"candidate_Ms": (4, 5), "order": 6}):
        with pytest.raises(ValueError):
            FitConfig(**options)
