import json
from dataclasses import replace

import numpy as np
import pytest

from dynfit.basis import make_basis
from dynfit import estimator, sim
from dynfit.estimator import (FitConfig, conditioning_diagnostic,
                              fit_at_dimension, two_stage_fit)
from dynfit.ode import GradientModel, solve_trajectory
from dynfit.sim import (SimSpec, conditioning_sweep, generate_dataset,
                        integrated_squared_error, rate_sweep, run_replicate,
                        run_study, true_gradient_model)


def test_true_model_construction():
    model = true_gradient_model()
    assert model.is_positive
    assert model.basis.n_basis == 4
    assert (model.basis.x_lo, model.basis.x_hi) == (0.1, 1.1)
    # coefficients weight the raw partition-of-unity splines
    raw_edge = model.g(0.1)
    assert raw_edge == pytest.approx(0.1, abs=1e-12)
    assert model.g(1.1) == pytest.approx(0.4, abs=1e-12)


def test_dataset_determinism():
    spec = SimSpec(rng_seed=42)
    d1 = generate_dataset(spec, 3)
    d2 = generate_dataset(spec, 3)
    assert np.array_equal(d1.times, d2.times)
    assert np.array_equal(d1.values, d2.values)
    d3 = generate_dataset(spec, 4)
    assert not np.array_equal(d1.values[:10], d3.values[:10])


def test_dataset_envelope(true_trajectory):
    d = generate_dataset(SimSpec(rng_seed=0), 0)
    assert d.values.min() > 0.2
    assert d.values.max() < 1.2
    assert 60 <= d.n <= 100


def test_noiseless_dataset_matches_truth(true_trajectory):
    spec = SimSpec(rng_seed=9, sigma=0.0)
    d = generate_dataset(spec, 1)
    np.testing.assert_allclose(d.values, true_trajectory.state_at(d.times),
                               atol=1e-9)


def test_noiseless_replicate_recovers_gradient():
    spec = SimSpec(rng_seed=5, sigma=0.0, n_range=(100, 100), replicates=1)
    rep = run_replicate(spec, 0, FitConfig(candidate_Ms=(3, 4, 5)))
    assert rep.chosen_M in (4, 5)
    assert rep.ise_onestep < 1e-6


def test_study_summary_deterministic_bytes():
    spec = SimSpec(rng_seed=11, replicates=4)
    cfg = FitConfig(candidate_Ms=(4, 5))
    _, s1 = run_study(spec, cfg)
    _, s2 = run_study(spec, cfg)
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)


def test_study_reports_structure():
    spec = SimSpec(rng_seed=1, replicates=3)
    reports, summary = run_study(spec, FitConfig(candidate_Ms=(4, 5)))
    assert len(reports) == 3
    assert summary["failures"] == 0
    for rep in reports:
        assert rep.ise_onestep >= 0
        assert rep.ise_twostage >= 0
        assert rep.chosen_M in (4, 5)
        assert np.isfinite(rep.extras["se_at_0.6"])


def test_paired_comparison_uses_same_data_and_basis(true_trajectory):
    spec = SimSpec(rng_seed=21, replicates=1)
    cfg = FitConfig(candidate_Ms=(4,))
    rep = run_replicate(spec, 0, cfg)
    # recompute the two-stage coefficients on the identical inputs
    from dynfit.estimator import select_M

    data = generate_dataset(spec, 0)
    fit = select_M(data, cfg)
    beta_ts = two_stage_fit(data.odd_half(), fit.model.basis, fit.delta)
    ts = GradientModel(fit.model.basis, beta_ts)
    lo, hi = fit.endpoints
    cuts = np.concatenate([fit.model.basis.breakpoints,
                           spec.true_model.basis.breakpoints])
    ise2 = integrated_squared_error(ts.g, spec.true_model.g, lo, hi, cuts)
    assert rep.ise_twostage == pytest.approx(ise2, rel=1e-12)


def test_ise_quadrature_matches_dense_trapezoid(true_model, true_trajectory):
    from dynfit.estimator import select_M

    spec = SimSpec(rng_seed=2, replicates=1)
    data = generate_dataset(spec, 0)
    fit = select_M(data, FitConfig(candidate_Ms=(4, 5)))
    lo, hi = fit.endpoints
    cuts = np.concatenate([fit.model.basis.breakpoints,
                           true_model.basis.breakpoints])
    gl = integrated_squared_error(fit.model.g, true_model.g, lo, hi, cuts)
    xs = np.linspace(lo, hi, 10_000)
    trap = np.trapezoid((fit.model.g(xs) - true_model.g(xs)) ** 2, xs)
    assert gl == pytest.approx(trap, rel=1e-6)


def test_run_replicate_failure_is_recorded():
    spec = SimSpec(rng_seed=3, replicates=1)
    rep = run_replicate(spec, 0, FitConfig(candidate_Ms=(2,)))
    assert rep.chosen_M == -1
    assert rep.status.startswith("failed")
    assert np.isnan(rep.ise_onestep)


def test_run_replicate_propagates_programming_errors(monkeypatch):
    import dynfit.sim as sim

    def broken(data, config):
        raise TypeError("a bug, not a failed fit")

    monkeypatch.setattr(sim, "select_M", broken)
    with pytest.raises(TypeError):
        run_replicate(SimSpec(rng_seed=3, replicates=1), 0, FitConfig())


def test_rate_sweep_needs_four_sizes():
    with pytest.raises(ValueError):
        rate_sweep(SimSpec(), [500], replicates=2)
    with pytest.raises(ValueError):
        rate_sweep(SimSpec(), [200, 400, 800], replicates=2)


@pytest.mark.slow
def test_rate_sweep_noiseless_bias_floor_is_flat():
    # truth outside the fitted span: the error is pure approximation
    # bias, so the mean error cannot depend on n
    b6 = make_basis(0.1, 1.1, 6, 4)
    raw = np.array([0.3, 1.1, 0.5, 1.6, 0.9, 0.4])
    truth = GradientModel(b6, raw / b6.norm_factors)
    spec = SimSpec(true_model=truth, x0=0.25, sigma=0.0, rng_seed=2)
    out = rate_sweep(spec, [200, 400, 800, 1600], replicates=3, fixed_M=4)
    assert abs(out["slope"]) < 0.1


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(n_range=(100, 60))
    basis = make_basis(0.0, 1.0, 5, 4)
    raw = np.array([0.8, 0.8, -1.5, 0.8, 0.8])
    bad = GradientModel(basis, raw / basis.norm_factors)
    with pytest.raises(ValueError):
        SimSpec(true_model=bad)


def test_conditioning_sweep_smoke():
    out = conditioning_sweep(SimSpec(rng_seed=8), dims=(4, 8), n=1200)
    assert set(out["lambda_min"]) == {4, 8}
    assert out["lambda_min"][4] > out["lambda_min"][8] > 0
    assert "4->8" in out["shrink_factors"]


def test_conditioning_sweep_reads_each_fits_own_jacobian(monkeypatch):
    calls = []
    real = estimator.residuals_and_jacobian

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimator, "residuals_and_jacobian", counted)
    conditioning_sweep(SimSpec(rng_seed=8), dims=(4,), n=400)
    assert calls == []


def test_conditioning_sweep_prepares_the_sample_once(monkeypatch):
    counts = {"estimate_endpoints": 0, "presmooth": 0}
    for name in counts:
        def counted(*args, _real=getattr(estimator, name), _name=name,
                    **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        for module in (estimator, sim):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    spec = SimSpec(rng_seed=8)
    out = conditioning_sweep(spec, dims=(4, 8), n=1200)
    assert counts == {"estimate_endpoints": 1, "presmooth": 1}
    monkeypatch.undo()
    # the same numbers as a separate fit and diagnostic per dimension
    data = generate_dataset(replace(spec, sigma=0.0, n_range=(1200, 1200)), 0)
    config = FitConfig()
    for M, lam in out["lambda_min"].items():
        fit = fit_at_dimension(data, config, M, margin=out["margin"])
        ref = conditioning_diagnostic(fit, data.odd_half(), config.h)
        assert np.float64(lam).tobytes() == \
            np.float64(ref["lambda_min"]).tobytes()
