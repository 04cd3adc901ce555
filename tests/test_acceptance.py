"""Acceptance suite: one test per exit criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Criterion 5 is marked slow (about ten minutes).
"""

import json
import time

import numpy as np
import pytest

from dynfit import estimator
from dynfit.basis import make_basis
from dynfit.estimator import FitConfig, lm_fit, residuals_and_jacobian
from dynfit.ode import (GradientModel, hessian_sensitivities,
                        sensitivities_closed_form, solve_trajectory)
from dynfit.sim import (SimSpec, conditioning_sweep, rate_sweep,
                        run_replicate, run_study)
from dynfit.smooth import Dataset, choose_delta
from conftest import make_replicate
from reference import _hessian_ode, gram_matrix, raw_eval, sensitivities_ode
from test_estimator import (constant_basis, fitting_setup, golden_section,
                            loss, project_true)
from test_ode import ExpModel


def _report(num, detail):
    print(f"\n[criterion {num}] PASS: {detail}")


def test_criterion_1_ode_correctness():
    start = time.perf_counter()
    traj = solve_trajectory(ExpModel(), 0.0, 1.0, 1.0, h=1e-3)
    err = abs(traj.x_values[-1] - np.e)
    assert err < 1e-9
    errs = [abs(solve_trajectory(ExpModel(), 0.0, 1.0, 1.0, h=h).x_values[-1]
                - np.e) for h in (1e-2, 5e-3, 2.5e-3)]
    factors = (errs[0] / errs[1], errs[1] / errs[2])
    assert min(factors) >= 14
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"exp error {err:.2e} < 1e-9; halving factors "
               f"{factors[0]:.1f}, {factors[1]:.1f} >= 14; {elapsed:.2f}s")


def test_criterion_2_sensitivity_exactness(true_model):
    start = time.perf_counter()
    traj = solve_trajectory(true_model, 0.0, 1.0, 0.25, h=1e-3)
    tq = np.array([0.25, 0.5, 0.75])
    b_ode = sensitivities_ode(true_model, traj, tq)
    b_cf = sensitivities_closed_form(true_model, traj.x_start,
                                     traj.state_at(tq))
    scale = np.abs(b_cf.jacobian).max()
    gap_routes = np.abs(b_ode.jacobian - b_cf.jacobian).max() / scale
    assert gap_routes < 1e-6

    eps = 1e-6
    fd = np.empty_like(b_ode.jacobian)
    for r in range(true_model.n_params):
        up = true_model.beta.copy(); up[r] += eps
        dn = true_model.beta.copy(); dn[r] -= eps
        xu = solve_trajectory(GradientModel(true_model.basis, up), 0, 1,
                              0.25, h=1e-4).state_at(tq)
        xd = solve_trajectory(GradientModel(true_model.basis, dn), 0, 1,
                              0.25, h=1e-4).state_at(tq)
        fd[:, r] = (xu - xd) / (2 * eps)
    gap_fd = max(np.abs(b_ode.jacobian - fd).max(),
                 np.abs(b_cf.jacobian - fd).max()) / np.abs(fd).max()
    assert gap_fd < 1e-4

    h_ode = _hessian_ode(true_model, traj, tq)
    h_quad = hessian_sensitivities(true_model, traj.x_start, traj.state_at(tq))
    gap_h = np.abs(h_ode.hessian - h_quad.hessian).max() \
        / np.abs(h_ode.hessian).max()
    assert gap_h < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"routes {gap_routes:.1e} < 1e-6; FD {gap_fd:.1e} < 1e-4; "
               f"hessian {gap_h:.1e} < 1e-5; {elapsed:.1f}s")


def test_criterion_3_benchmark_reproduction(benchmark_study):
    spec, reports, summary = benchmark_study
    elapsed = summary["_elapsed_s"]
    assert elapsed < 600
    med1 = summary["ise_onestep"]["median"]
    med2 = summary["ise_twostage"]["median"]
    assert med1 < med2
    ok = [r for r in reports if r.chosen_M > 0]
    share = np.mean([r.chosen_M in (4, 5) for r in ok])
    assert share >= 0.90

    rep = run_replicate(SimSpec(rng_seed=5, sigma=0.0, n_range=(100, 100),
                                replicates=1), 0,
                        FitConfig(candidate_Ms=(3, 4, 5)))
    assert rep.ise_onestep < 1e-6
    _report(3, f"median ISE {med1:.5f} < {med2:.5f} (two-stage); "
               f"dimension in {{4,5}} for {share:.0%} >= 90%; noiseless "
               f"ISE {rep.ise_onestep:.1e} < 1e-6; study {elapsed:.0f}s "
               f"< 600s")


def test_criterion_4_ill_posedness_scaling():
    start = time.perf_counter()
    out = conditioning_sweep(SimSpec(rng_seed=11), dims=(4, 8, 16, 32),
                             n=4000)
    factors = out["shrink_factors"]
    for pair, f in factors.items():
        assert 2.5 <= f <= 6.5, (pair, f)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    pretty = {k: round(v, 2) for k, v in factors.items()}
    _report(4, f"lambda_min shrink per doubling {pretty} all in [2.5, 6.5]; "
               f"{elapsed:.0f}s < 120s")


@pytest.mark.slow
def test_criterion_5_rate_bracket():
    start = time.perf_counter()
    out = rate_sweep(SimSpec(rng_seed=17, replicates=30),
                     [200, 400, 800, 1600, 3200])
    assert -1.2 <= out["slope"] <= -0.55
    elapsed = time.perf_counter() - start
    assert elapsed < 1800
    _report(5, f"log-log slope {out['slope']:.3f} (se {out['slope_se']:.3f}) "
               f"in [-1.2, -0.55] bracketing -2/3; {elapsed:.0f}s < 1800s")


def test_criterion_6_invariant_suites(true_model, true_trajectory):
    start = time.perf_counter()
    # basis invariants
    checks = []
    for M in (4, 8, 16, 40):
        basis = make_basis(0.0, 1.0, M, 4)
        xs = np.linspace(0, 1, 301)
        checks.append(np.abs(raw_eval(basis, xs).sum(axis=1) - 1).max() < 1e-12)
        G = gram_matrix(basis)
        checks.append(np.abs(np.diag(G) - 1).max() < 1e-10)
        if M >= 6:
            ev = np.linalg.eigvalsh(G)
            checks.append(ev[0] >= 0.01 and ev[-1] <= 5.0)
    assert all(checks)

    # gradient vs finite differences at a random feasible point
    d, delta, x0, basis = fitting_setup(true_trajectory, seed=3, sigma=0.01)
    beta = project_true(basis, true_model) * 1.07
    resid, J = residuals_and_jacobian(beta, d, delta, x0, basis)
    grad = 2 * J.T @ resid
    eps = 1e-6
    fd = np.array([(loss(beta + eps * e, d, delta, x0, basis)
                    - loss(beta - eps * e, d, delta, x0, basis)) / (2 * eps)
                   for e in np.eye(basis.n_basis)])
    assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4

    # LM monotone descent and stationarity
    from dynfit.estimator import constant_coefficients
    beta_hat, report, _, _ = lm_fit(constant_coefficients(basis, 0.8), d,
                                    delta, x0, basis)
    assert np.all(np.diff(report.accepted_losses) < 0)
    assert report.status == "converged"
    r2, J2 = residuals_and_jacobian(beta_hat, d, delta, x0, basis)
    assert np.abs(J2.T @ r2).max() <= \
        estimator._GRAD_TOL * (1 + report.loss_value)

    # trimming exactness
    outside = (d.times < delta) | (d.times > 1 - delta)
    corrupted = Dataset(d.times, np.where(outside, d.values + 9.0, d.values))
    assert loss(beta, d, delta, x0, basis) == \
        loss(beta, corrupted, delta, x0, basis)

    # scalar brute-force oracle
    cbasis = constant_basis(0.0, 3.0)
    rng = np.random.default_rng(9)
    times = np.sort(rng.uniform(0, 1, 60))
    model = GradientModel(cbasis, np.array([1.2]))
    traj = solve_trajectory(model, 0.08, 0.92, 0.3, h=1e-4)
    y = traj.state_at(np.clip(times, 0.08, 0.92)) \
        + 0.01 * rng.standard_normal(60)
    dd = Dataset(times, y)

    def f(b):
        return loss(np.array([b]), dd, 0.08, 0.3, cbasis)

    grid = np.linspace(0.2, 2.5, 300)
    i = int(np.argmin([f(b) for b in grid]))
    brute = golden_section(f, grid[i - 1], grid[i + 1])
    bhat, _, _, _ = lm_fit(np.array([1.0]), dd, 0.08, 0.3, cbasis)
    assert abs(bhat[0] - brute) < 1e-6

    # determinism byte-equality
    spec = SimSpec(rng_seed=23, replicates=3)
    cfg3 = FitConfig(candidate_Ms=(4, 5))
    _, s1 = run_study(spec, cfg3)
    _, s2 = run_study(spec, cfg3)
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)

    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(6, f"basis/gradient/LM/trimming/oracle/determinism invariants "
               f"hold; {elapsed:.0f}s < 120s")


def test_criterion_7_endpoint_estimation(benchmark_study):
    start = time.perf_counter()
    _, reports, _ = benchmark_study
    errs = np.array([abs(r.endpoint_errors[0]) for r in reports
                     if r.chosen_M > 0])
    share = np.mean(errs < 0.01)
    assert share >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _report(7, f"|x0_hat - X(delta)| < 0.01 in {share:.0%} of "
               f"{len(errs)} replicates >= 95%")


def test_paired_comparison_favors_integral_fit(benchmark_study):
    # per-replicate pairing on identical data and basis: the integral
    # fit wins most pairs and is about twice as accurate at the median
    _, reports, _ = benchmark_study
    ise1 = np.array([r.ise_onestep for r in reports])
    ise2 = np.array([r.ise_twostage for r in reports])
    ok = np.isfinite(ise1) & np.isfinite(ise2)
    assert (ise1[ok] < ise2[ok]).mean() > 0.5
    assert np.median(ise2[ok] / ise1[ok]) > 1.5


def test_coverage_of_pointwise_bands(benchmark_study):
    # two-standard-error band behavior at x = 0.6 (approximate bands)
    spec, reports, _ = benchmark_study
    hits = [abs(r.extras["g_at_0.6"] - r.extras["true_g_at_0.6"])
            <= 2 * r.extras["se_at_0.6"] for r in reports if r.chosen_M > 0]
    rate = np.mean(hits)
    assert 0.80 <= rate <= 0.99
    print(f"\n[bands] coverage at x=0.6: {rate:.0%} in [80%, 99%]")
