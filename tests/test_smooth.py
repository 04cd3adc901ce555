import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynfit.smooth as smooth
from dynfit.estimator import presmooth
from dynfit.sim import SimSpec, generate_dataset
from dynfit.smooth import (Dataset, InsufficientDataError, SmoothingError,
                           choose_delta, cv_bandwidth, estimate_endpoints,
                           local_poly)
from conftest import make_replicate
import reference
from reference import local_poly_lstsq


def test_dataset_sorted_and_validated():
    d = Dataset([0.5, 0.1, 0.9], [2.0, 1.0, 3.0])
    np.testing.assert_array_equal(d.times, [0.1, 0.5, 0.9])
    np.testing.assert_array_equal(d.values, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Dataset([0.1, 1.4], [0.0, 1.0])
    with pytest.raises(ValueError):
        Dataset([0.1, 0.2], [0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Dataset([0.1, bad, 0.9], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        Dataset([0.1, 0.5, 0.9], [1.0, bad, 3.0])


def test_even_odd_halves_are_disjoint():
    d = Dataset(np.linspace(0, 1, 11), np.arange(11.0))
    even, odd = d.even_half(), d.odd_half()
    assert even.n + odd.n == d.n
    assert set(even.values).isdisjoint(odd.values)


def test_local_linear_reproduces_lines():
    t = np.sort(np.random.default_rng(0).uniform(0, 1, 60))
    d = Dataset(t, 2 * t + 1)
    for bw in (0.05, 0.2, 1.0):
        level, deriv = local_poly(d, 1, bw, [0.1, 0.5, 0.9])
        np.testing.assert_allclose(level, 2 * np.array([0.1, 0.5, 0.9]) + 1,
                                   atol=1e-10)
        np.testing.assert_allclose(deriv, 2.0, atol=1e-10)


def test_local_quadratic_reproduces_parabola():
    t = np.sort(np.random.default_rng(1).uniform(0, 1, 60))
    d = Dataset(t, t ** 2)
    q = np.array([0.25, 0.7])
    level, deriv = local_poly(d, 2, 0.15, q)
    np.testing.assert_allclose(level, q ** 2, atol=1e-10)
    np.testing.assert_allclose(deriv, 2 * q, atol=1e-10)


def test_fit_is_linear_in_values():
    rng = np.random.default_rng(2)
    t = np.sort(rng.uniform(0, 1, 50))
    y = rng.standard_normal(50)
    q = [0.3, 0.6]
    l1, d1 = local_poly(Dataset(t, y), 2, 0.2, q)
    l2, d2 = local_poly(Dataset(t, 2 * y), 2, 0.2, q)
    np.testing.assert_allclose(l2, 2 * l1, rtol=1e-12)
    np.testing.assert_allclose(d2, 2 * d1, rtol=1e-12)


def test_rank_deficiency_reported_per_query():
    # at 0.05 every |z| is at least 70: the Gaussian weights underflow to 0
    t = np.sort(np.random.default_rng(3).uniform(0.4, 0.6, 30))
    d = Dataset(t, t)
    with pytest.raises(SmoothingError) as err:
        local_poly(d, 2, 0.005, [0.05, 0.5])
    assert err.value.bad_queries is not None
    assert 0.05 in err.value.bad_queries.tolist()


def test_bad_queries_cover_every_query():
    t = np.sort(np.random.default_rng(3).uniform(0.4, 0.6, 30))
    with pytest.raises(SmoothingError) as err:
        local_poly(Dataset(t, t), 2, 0.005, np.linspace(0.0, 1.0, 1001))
    bad = err.value.bad_queries.tolist()
    assert 0.0 in bad and 1.0 in bad


@pytest.mark.parametrize("degree", [1, 2, 4], ids=lambda d: f"{d}-gaussian")
def test_moment_sums_match_direct_least_squares(degree):
    # query counts around the moment-sum block size and many blocks
    rng = np.random.default_rng(8)
    t = np.sort(rng.uniform(0, 1, 400))
    y = 2 + t + 0.3 * np.sin(5 * t) + 0.05 * rng.standard_normal(400)
    d = Dataset(t, y)
    for n_query in (1, 127, 128, 129, 1600):
        q = np.linspace(0, 1, n_query)
        level, deriv = local_poly(d, degree, 0.1, q)
        ref_level, ref_deriv = local_poly_lstsq(t, y, q, degree, 0.1)
        np.testing.assert_allclose(level, ref_level, rtol=1e-10)
        np.testing.assert_allclose(deriv, ref_deriv, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref_deriv).max())


def test_loo_errors_match_refits_without_the_point():
    rng = np.random.default_rng(9)
    t = np.sort(rng.uniform(0, 1, 40))
    y = np.cos(2 * t) + 0.05 * rng.standard_normal(40)
    [[resid]] = smooth._cv_residuals(Dataset(t, y), (2,), [0.2])
    keep = np.ones(40, dtype=bool)
    for j in range(40):
        keep[j] = False
        level, _ = local_poly_lstsq(t[keep], y[keep], t[j], 2, 0.2)
        keep[j] = True
        assert resid[j] == pytest.approx(y[j] - level[0], rel=1e-9)


@pytest.mark.parametrize("n", [400, 401, 800, 801])
def test_thinned_keeps_every_kth_point_up_to_the_cap(n):
    rng = np.random.default_rng(n)
    t = rng.uniform(0.0, 1.0, n)
    data = Dataset(t, np.sin(3.0 * t) + 0.1 * rng.standard_normal(n))
    kept = smooth.thinned(data)
    stride = -(-n // 400)
    if n <= 400:
        assert kept is data
    else:
        assert kept.n <= 400
        np.testing.assert_array_equal(kept.times, data.times[::stride])
        np.testing.assert_array_equal(kept.values, data.values[::stride])
    # the CV scores at the same points as its own every-k-th rule did
    [[resid]] = smooth._cv_residuals(data, (2,), [0.1])
    ref = reference._loo_errors(data, 2, 0.1, np.arange(0, n, stride))
    assert resid.tobytes() == ref.tobytes()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(12, 900), seed=st.integers(0, 2 ** 16),
       ties=st.booleans(), lowest=st.floats(1e-4, 0.05),
       degrees=st.sampled_from([(1, 2), (4,)]))
def test_one_pass_cv_matches_a_pass_per_bandwidth_and_degree(
        n, seed, ties, lowest, degrees):
    # above 400 points the scores are taken at every k-th one, and the
    # last block of 128 queries is partial; tied times and bandwidths
    # down to 1e-4 make singular designs
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n)
    if ties:
        t = np.round(t, 1)
    data = Dataset(t, np.sin(3.0 * t) + 0.1 * rng.standard_normal(n))
    grid = np.geomspace(lowest, 0.5, 12)
    query_idx = np.arange(0, n, -(-n // 400)) if n > 400 else None
    got = smooth._cv_residuals(data, degrees, grid)
    for degree, residuals in zip(degrees, got):
        for bw, resid in zip(grid, residuals):
            ref = reference._loo_errors(data, degree, bw, query_idx)
            assert (resid is None) == (ref is None)
            if ref is not None:
                assert resid.tobytes() == ref.tobytes()
    chosen = []
    for degree in degrees:
        try:
            chosen.append(reference.cv_bandwidth(data, degree, grid))
        except SmoothingError:
            with pytest.raises(SmoothingError):
                cv_bandwidth(data, degrees, grid)
            return
    assert cv_bandwidth(data, degrees, grid) == tuple(chosen)


def test_presmooth_makes_one_kernel_pass_per_block_and_bandwidth(
        monkeypatch):
    # n = 1600: 400 CV queries in 4 blocks for each of the 20 bandwidths,
    # both degrees at once, then 13 blocks for each of the two fits
    data = generate_dataset(SimSpec(rng_seed=0, n_range=(3200, 3200)),
                            0).odd_half()
    calls = []
    real = smooth._kernel_weights

    def counted(u, *args, **kwargs):
        calls.append(np.ndim(u))
        return real(u, *args, **kwargs)

    monkeypatch.setattr(smooth, "_kernel_weights", counted)
    presmooth(data)
    assert calls.count(2) == 20 * 4 + 2 * 13


def test_presmooth_memory_is_bounded():
    import tracemalloc

    data = generate_dataset(SimSpec(rng_seed=0, n_range=(3200, 3200)),
                            0).odd_half()
    tracemalloc.start()
    try:
        presmooth(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_local_poly_linear_data():
    t = np.linspace(0, 1, 40)
    level, deriv = local_poly(Dataset(t, 3 * t), 1, 0.3, [0.5])
    assert level[0] == pytest.approx(1.5)
    assert deriv[0] == pytest.approx(3.0)


def test_cv_tie_breaks_toward_larger_bandwidth(monkeypatch):
    d = Dataset(np.linspace(0, 1, 30), np.zeros(30))
    monkeypatch.setattr(smooth, "_loo_residuals",
                        lambda *a, **k: np.full(30, 0.125))
    assert cv_bandwidth(d, (1,), [0.05, 0.1, 0.4]) == (0.4,)


def test_cv_zero_error_on_noiseless_linear():
    t = np.sort(np.random.default_rng(4).uniform(0, 1, 50))
    d = Dataset(t, 2 * t + 1)
    for bw in (0.1, 0.3, 0.8):
        [[resid]] = smooth._cv_residuals(d, (1,), [bw])
        assert float(resid @ resid) < 1e-20


def test_cv_all_singular_raises():
    d = Dataset(np.full(12, 0.5), np.random.default_rng(5).standard_normal(12))
    with pytest.raises(SmoothingError):
        cv_bandwidth(d, (2,), [1e-4, 1e-3])


def test_cv_pure_noise_prefers_upper_half():
    grid = np.geomspace(0.02, 0.5, 10)
    upper = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0, 1, 60))
        d = Dataset(t, 1.0 + 0.5 * rng.standard_normal(60))
        (bw,) = cv_bandwidth(d, (1,), grid)
        upper += bw >= grid[len(grid) // 2]
    assert upper > 25


def test_cv_bandwidth_interior_on_benchmark(true_trajectory):
    grid = np.geomspace(0.02, 0.5, 20)
    d = make_replicate(true_trajectory, seed=12, n=80)
    (bw,) = cv_bandwidth(d, (1,), grid)
    assert grid[0] < bw < grid[-1]


def test_benchmark_level_accuracy(true_trajectory):
    d = make_replicate(true_trajectory, seed=3, n=80)
    grid = np.geomspace(0.02, 0.5, 20)
    (bw,) = cv_bandwidth(d, (1,), grid)
    inner = (d.times > 0.1) & (d.times < 0.9)
    level, _ = local_poly(d, 1, bw, d.times[inner])
    truth = true_trajectory.state_at(d.times[inner])
    assert np.abs(level - truth).max() < 0.02


def test_choose_delta_five_percent_rule():
    t = np.linspace(0.001, 0.999, 100)
    delta = choose_delta(t)
    assert np.sum(t <= delta) >= 5
    assert np.sum(t >= 1 - delta) >= 5
    # midpoint placement between order statistics
    assert delta == pytest.approx(max(0.5 * (t[4] + t[5]),
                                      1 - 0.5 * (t[94] + t[95])))


def test_endpoints_linear_exact():
    t = np.linspace(0, 1, 80)
    x0, x1 = estimate_endpoints(Dataset(t, t + 0.5), 0.05)
    assert x0 == pytest.approx(0.55, abs=1e-9)
    assert x1 == pytest.approx(1.45, abs=1e-9)


def test_endpoints_use_even_half_only():
    rng = np.random.default_rng(6)
    t = np.sort(rng.uniform(0, 1, 90))
    y = t + 0.5
    base = estimate_endpoints(Dataset(t, y), 0.06)
    # corrupting odd-indexed values must not move the estimates
    y2 = y.copy()
    y2[1::2] += 100.0
    corrupted = estimate_endpoints(Dataset(t, y2), 0.06)
    assert base == corrupted


def test_endpoints_insufficient_data():
    d = Dataset(np.full(24, 0.5), np.random.default_rng(7).standard_normal(24))
    with pytest.raises(InsufficientDataError):
        estimate_endpoints(d, 0.05)


def test_endpoint_accuracy_on_benchmark(true_trajectory):
    hits = 0
    for seed in range(100):
        d = make_replicate(true_trajectory, seed=seed)
        delta = choose_delta(d.times)
        x0, _ = estimate_endpoints(d, delta)
        hits += abs(x0 - true_trajectory.state_at(delta)) < 0.01
    assert hits >= 95
