import csv
import json

import numpy as np
import pytest
from jsonschema import validate

from dynfit.basis import make_basis
from dynfit.cli import _read_long_csv, _rescale_times, main
from dynfit.estimator import FitConfig, select_M
from dynfit.ode import GradientModel, solve_trajectory
from dynfit.sim import SimSpec, generate_dataset, true_gradient_model
from dynfit.smooth import Dataset

GROWTH_AGES = np.concatenate([np.arange(1.0, 2.0, 0.25),
                              np.arange(2.0, 8.0, 1.0),
                              np.arange(8.0, 18.01, 0.5)])


@pytest.fixture(scope="session")
def schema():
    with open("docs/output_schema.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def single_csv(tmp_path_factory):
    """Noiseless benchmark trajectory, one subject, times already unit."""
    spec = SimSpec(rng_seed=3, sigma=0.0, n_range=(80, 80))
    d = generate_dataset(spec, 0)
    path = tmp_path_factory.mktemp("cli") / "single.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y"])
        w.writerows(zip(d.times, d.values))
    return str(path)


@pytest.fixture(scope="session")
def cohort_csv(tmp_path_factory):
    """54 growth-style subjects, 31 ages each, in original time units.

    Heights follow per-subject gradients with an infancy decline and a
    sharp pubertal spurt (7 spline coefficients), so richer bases are
    genuinely needed; measurement noise is 0.15 cm.
    """
    basis = make_basis(70.0, 185.0, 7, 4)
    base_raw = np.array([24.0, 7.5, 4.5, 3.5, 15.0, 1.2, 0.15]) * 17.0
    rng = np.random.default_rng(54)
    t_unit = (GROWTH_AGES - 1.0) / 17.0
    path = tmp_path_factory.mktemp("cli") / "cohort.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject", "t", "y"])
        for s in range(54):
            raw = base_raw * np.exp(0.04 * rng.standard_normal(7))
            model = GradientModel(basis, raw / basis.norm_factors)
            h0 = rng.uniform(73.0, 78.0)
            traj = solve_trajectory(model, 0.0, 1.0, h0, h=5e-4)
            heights = traj.state_at(t_unit) \
                + 0.15 * rng.standard_normal(len(t_unit))
            for age, height in zip(GROWTH_AGES, heights):
                w.writerow([f"girl{s:02d}", age, height])
    return str(path)


def assert_compact_json(path, payload):
    """One line: sorted keys, no spaces, a final newline."""
    text = open(path, encoding="utf-8").read()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(payload, sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_fit_single_subject(single_csv, tmp_path, schema):
    out = tmp_path / "fit"
    assert main(["fit", single_csv, "--out", str(out),
                 "--M-candidates", "4,5"]) == 0
    payload = json.load(open(f"{out}.json"))
    validate(payload, schema)
    assert_compact_json(f"{out}.json", payload)
    rec = payload["per_subject"][0]
    truth = true_gradient_model()
    errs = [abs(row["g"] - truth.g(row["x"])) for row in rec["g_grid"]]
    assert max(errs) < 0.05
    assert rec["convergence"]["status"] == "converged"


def test_fit_time_map_round_trip(single_csv, tmp_path):
    out = tmp_path / "fit"
    main(["fit", single_csv, "--out", str(out), "--M-candidates", "4"])
    rec = json.load(open(f"{out}.json"))["per_subject"][0]
    tm = rec["time_map"]
    ts = np.array([row["t"] for row in rec["traj_grid"]])
    unit = (ts - tm["offset"]) / tm["scale"]
    assert unit.min() >= 0 and unit.max() <= 1
    # the reported window maps back to the trimmed unit window exactly
    delta_lo = (ts[0] - tm["offset"]) / tm["scale"]
    delta_hi = (ts[-1] - tm["offset"]) / tm["scale"]
    assert delta_lo == pytest.approx(1 - delta_hi, abs=1e-12)


def test_fit_traj_grid_uses_step_size(single_csv, tmp_path):
    out = tmp_path / "fit"
    assert main(["fit", single_csv, "--out", str(out), "--M-candidates", "4",
                 "--h", "5e-4"]) == 0
    rec = json.load(open(f"{out}.json"))["per_subject"][0]
    t_raw, y = (np.asarray(v) for v in _read_long_csv(single_csv)["series"])
    t_unit, _ = _rescale_times(t_raw)
    fit = select_M(Dataset(t_unit, y), FitConfig(candidate_Ms=(4,), h=5e-4))
    ts = np.linspace(fit.delta, 1.0 - fit.delta, len(rec["traj_grid"]))
    traj = solve_trajectory(fit.model, fit.delta, 1.0 - fit.delta,
                            fit.endpoints[0], h=5e-4)
    assert [row["x"] for row in rec["traj_grid"]] == \
        traj.state_at(ts).tolist()


def test_fit_programming_error_is_not_a_failed_subject(single_csv, tmp_path,
                                                       monkeypatch, capsys):
    import dynfit.cli as cli

    def broken(data, config):
        raise TypeError("a bug, not a failed fit")

    monkeypatch.setattr(cli, "select_M", broken)
    assert main(["fit", single_csv, "--out", str(tmp_path / "o")]) == 1
    assert "TypeError" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_fit_empty_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit", str(empty), "--out", str(tmp_path / "o")]) == 2


def test_fit_malformed_row_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,y\n0.1,1.0\n0.2,oops\n")
    assert main(["fit", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert ":3:" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_fit_non_finite_row_names_line(tmp_path, capsys, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"t,y\n0.1,1.0\n{cell},2.0\n0.3,{cell}\n")
    assert main(["fit", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert ":3: non-finite t or y" in capsys.readouterr().err


def test_fit_bad_header(tmp_path):
    f = tmp_path / "h.csv"
    f.write_text("time,value\n0.1,1\n")
    assert main(["fit", str(f), "--out", str(tmp_path / "o")]) == 2


def test_two_stage_defaults_with_warning(single_csv, tmp_path, capsys,
                                         schema):
    out = tmp_path / "ts"
    assert main(["two-stage", single_csv, "--out", str(out)]) == 0
    assert "defaulting to M=6" in capsys.readouterr().err
    payload = json.load(open(f"{out}.json"))
    validate(payload, schema)
    assert payload["per_subject"][0]["M"] == 6


def test_two_stage_worse_than_integral_fit(single_csv, tmp_path):
    truth = true_gradient_model()

    def grid_ise(path):
        rec = json.load(open(path))["per_subject"][0]
        xs = np.array([row["x"] for row in rec["g_grid"]])
        gs = np.array([row["g"] for row in rec["g_grid"]])
        return np.trapezoid((gs - truth.g(xs)) ** 2, xs)

    main(["fit", single_csv, "--out", str(tmp_path / "a"),
          "--M-candidates", "4"])
    main(["two-stage", single_csv, "--out", str(tmp_path / "b"), "--M", "4"])
    ise_fit = grid_ise(tmp_path / "a.json")
    ise_ts = grid_ise(tmp_path / "b.json")
    assert np.isfinite(ise_ts)
    assert ise_fit < ise_ts


def test_simulate_deterministic_outputs(tmp_path, schema):
    args = ["simulate", "--replicates", "2", "--seed", "7",
            "--M-candidates", "4,5"]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1.json").read_bytes() == \
        (tmp_path / "s2.json").read_bytes()
    assert (tmp_path / "s1.csv").read_bytes() == \
        (tmp_path / "s2.csv").read_bytes()
    payload = json.load(open(tmp_path / "s1.json"))
    validate(payload, schema)
    assert_compact_json(tmp_path / "s1.json", payload)
    rows = list(csv.DictReader(open(tmp_path / "s1.csv")))
    assert len(rows) == 2
    assert set(rows[0]) == {"seed", "n", "chosen_M", "ise_onestep",
                            "ise_twostage", "status"}


def test_simulate_noiseless_recovery(tmp_path):
    assert main(["simulate", "--replicates", "1", "--sigma", "0",
                 "--n-min", "100", "--n-max", "100", "--seed", "5",
                 "--out", str(tmp_path / "s")]) == 0
    row = next(csv.DictReader(open(tmp_path / "s.csv")))
    assert float(row["ise_onestep"]) < 1e-6


def test_simulate_bad_range(tmp_path):
    assert main(["simulate", "--n-min", "90", "--n-max", "60",
                 "--out", str(tmp_path / "x")]) == 2


def test_simulate_config_round_trip(tmp_path):
    main(["simulate", "--replicates", "2", "--seed", "3", "--sigma", "0.02",
          "--n-min", "70", "--n-max", "80", "--M-candidates", "4",
          "--out", str(tmp_path / "s")])
    cfg = json.load(open(tmp_path / "s.json"))["config"]
    assert cfg == {"n_min": 70, "n_max": 80, "sigma": 0.02,
                   "replicates": 2, "seed": 3}


def test_rates_needs_four_sizes(tmp_path):
    assert main(["rates", "--n-min", "200", "--n-max", "400",
                 "--out", str(tmp_path / "r")]) == 2


@pytest.mark.slow
def test_rates_small_run(tmp_path, schema):
    assert main(["rates", "--n-min", "50", "--n-max", "400",
                 "--replicates", "2", "--seed", "1", "--fixed-M", "4",
                 "--out", str(tmp_path / "r")]) == 0
    payload = json.load(open(tmp_path / "r.json"))
    validate(payload, schema)
    assert len(payload["per_n"]) == 4
    assert np.isfinite(payload["slope"])


@pytest.mark.slow
def test_cohort_modal_dimension(cohort_csv, tmp_path, schema):
    out = tmp_path / "cohort"
    assert main(["fit", cohort_csv, "--out", str(out)]) == 0
    payload = json.load(open(f"{out}.json"))
    validate(payload, schema)
    assert len(payload["per_subject"]) + len(payload["errors"]) == 54
    assert len(payload["per_subject"]) == 54
    counts = {}
    for rec in payload["per_subject"]:
        counts[rec["M"]] = counts.get(rec["M"], 0) + 1
    modal = max(counts, key=counts.get)
    assert modal in (6, 7), counts
