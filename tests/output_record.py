"""The output record: digests and statistics of dynfit's reference outputs.

Computes one fixed set of outputs:

- every candidate fit (M = 4, 5, 6) and the selected fit of study
  replicates 0-39 (seed 0, candidates 3, 4, 5);
- the ``run_replicate`` reports of those 40 replicates, through
  ``run_study``;
- the two n = 3200, M = 7 dense panel fits (seed 0);
- ``dynfit fit`` and ``dynfit two-stage --M 6`` on the 54-subject
  growth-style cohort;
- ``dynfit simulate --replicates 5 --seed 0``;
- ``conditioning_sweep`` at dimensions 4, 8, 16 and 32 (seed 11).

For each it keeps a sha256 digest of the exact bits, and statistics a
reader can judge: the study's ISE quartiles, selection histogram and
failures, each cohort subject's chosen M and LM status, the dense ISE
and lambda_min per dimension.  A change that keeps the bits leaves the
record as it is; one that moves them shows which outputs moved, and by
how much.  Digests depend on the numpy build, so the tier-1 test
(``test_output_record.py``) compares only the statistics.

    PYTHONPATH=src python tests/output_record.py             # rewrite
    PYTHONPATH=src python tests/output_record.py --check     # compare

The script uses only API that has been stable across changes, so the
same file can be run on an older checkout for comparison.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from dynfit import (DynfitError, FitConfig, GradientModel, Sample, SimSpec,
                    conditioning_sweep, fit_at_dimension, generate_dataset,
                    integrated_squared_error, make_basis, run_study,
                    select_M, solve_trajectory)
from dynfit.cli import main as cli_main

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "output_record.json")

STUDY_REPLICATES = 40
STUDY_CANDIDATES = (3, 4, 5)
STUDY_DIMENSIONS = (4, 5, 6)
DENSE_N, DENSE_M, DENSE_PANEL = 3200, 7, 2
CONDITIONING_DIMS = (4, 8, 16, 32)

GROWTH_AGES = np.concatenate([np.arange(1.0, 2.0, 0.25),
                              np.arange(2.0, 8.0, 1.0),
                              np.arange(8.0, 18.01, 0.5)])


def write_cohort_csv(path) -> None:
    """54 growth-style subjects, 31 ages each, in original time units.

    Heights follow per-subject gradients with an infancy decline and a
    sharp pubertal spurt (7 spline coefficients), so richer bases are
    genuinely needed; measurement noise is 0.15 cm.
    """
    basis = make_basis(70.0, 185.0, 7, 4)
    base_raw = np.array([24.0, 7.5, 4.5, 3.5, 15.0, 1.2, 0.15]) * 17.0
    rng = np.random.default_rng(54)
    t_unit = (GROWTH_AGES - 1.0) / 17.0
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


def _canon(value):
    """A byte-exact, numpy-version-independent text form of ``value``."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}{value.tobytes().hex()}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canon({f.name: getattr(value, f.name)
                       for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}"
                              for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return repr(value)


def _sha(*values) -> str:
    return hashlib.sha256(_canon(values).encode()).hexdigest()


def _fit_or_error(fn, *args):
    try:
        return fn(*args)
    except DynfitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _ise(fit, true_model) -> float:
    cuts = np.concatenate([fit.model.basis.breakpoints,
                           true_model.basis.breakpoints])
    return integrated_squared_error(fit.model.g, true_model.g,
                                    *fit.endpoints, cuts)


def _study(digests, stats):
    config = FitConfig(candidate_Ms=STUDY_CANDIDATES)
    spec = SimSpec(rng_seed=0, replicates=STUDY_REPLICATES)
    fits = []
    for i in range(STUDY_REPLICATES):
        sample = Sample(generate_dataset(spec, i), config)
        per_M = [_fit_or_error(fit_at_dimension, sample, config, M)
                 for M in STUDY_DIMENSIONS]
        fits.append(_sha(per_M, _fit_or_error(select_M, sample, config)))
    digests["study_candidate_fits"] = fits
    reports, summary = run_study(spec, config)
    digests["study_reports"] = [_sha(r) for r in reports]
    digests["study_summary"] = _sha(summary)
    stats["study"] = {
        "replicates": STUDY_REPLICATES,
        "failures": summary["failures"],
        "selection_histogram": {str(m): c for m, c in
                                summary["selection_histogram"].items()},
        "ise_onestep": summary["ise_onestep"],
        "ise_twostage": summary["ise_twostage"],
    }


def _dense(digests, stats):
    config = FitConfig(candidate_Ms=(DENSE_M,))
    spec = SimSpec(rng_seed=0, n_range=(DENSE_N, DENSE_N))
    digests["dense_fits"], ises = [], []
    for i in range(DENSE_PANEL):
        fit = select_M(generate_dataset(spec, i), config)
        digests["dense_fits"].append(_sha(fit))
        ises.append(_ise(fit, spec.true_model))
    stats["dense"] = {"n": DENSE_N, "M": DENSE_M, "ise": ises}


def _cli(name, argv, workdir, digests):
    """Run one dynfit command, keep the digests of its JSON and CSV under
    ``name``, and return its exit code and JSON payload."""
    base = os.path.join(workdir, name)
    code = cli_main(argv + ["--out", base])
    for ext in ("json", "csv"):
        with open(f"{base}.{ext}", "rb") as fh:
            digests[f"{name}_{ext}"] = hashlib.sha256(fh.read()).hexdigest()
    with open(f"{base}.json", encoding="utf-8") as fh:
        return code, json.load(fh)


def _cohort(digests, stats, workdir):
    path = os.path.join(workdir, "cohort.csv")
    write_cohort_csv(path)
    fit_code, fit = _cli("cohort_fit", ["fit", path], workdir, digests)
    ts_code, ts = _cli("cohort_two_stage", ["two-stage", path, "--M", "6"],
                       workdir, digests)
    stats["cohort"] = {
        "fit_exit_code": fit_code,
        "fit_errors": len(fit["errors"]),
        "subjects": {r["subject"]: [r["M"], r["convergence"]["status"]]
                     for r in fit["per_subject"]},
        "two_stage_exit_code": ts_code,
        "two_stage_fitted": len(ts["per_subject"]),
    }


def _simulate(digests, stats, workdir):
    code, payload = _cli("simulate",
                         ["simulate", "--replicates", "5", "--seed", "0"],
                         workdir, digests)
    summary = payload["summary"]
    stats["simulate"] = {
        "exit_code": code,
        "failures": summary["failures"],
        "selection_histogram": summary["selection_histogram"],
        "ise_onestep_median": summary["ise_onestep"]["median"],
    }


def _conditioning(digests, stats):
    out = conditioning_sweep(SimSpec(rng_seed=11), dims=CONDITIONING_DIMS,
                             n=4000)
    digests["conditioning"] = _sha(out)
    stats["conditioning"] = {"n": out["n"],
                             "lambda_min": {str(M): v for M, v in
                                            out["lambda_min"].items()}}


def compute() -> dict:
    """The record: {"digests": ..., "statistics": ...}."""
    digests, stats = {}, {}
    _study(digests, stats)
    _dense(digests, stats)
    with tempfile.TemporaryDirectory() as workdir:
        _cohort(digests, stats, workdir)
        _simulate(digests, stats, workdir)
    _conditioning(digests, stats)
    return {"digests": digests, "statistics": stats}


def _dumps(record) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=RECORD,
                        help="where to write the record (default: the "
                             "committed one)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed record instead of "
                             "writing; exit 1 on any difference")
    args = parser.parse_args(argv)
    text = _dumps(compute())
    if not args.check:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0
    with open(RECORD, encoding="utf-8") as fh:
        committed = json.load(fh)
    fresh = json.loads(text)
    moved = [f"{part}.{key}" for part in ("digests", "statistics")
             for key in sorted(set(committed[part]) | set(fresh[part]))
             if committed[part].get(key) != fresh[part].get(key)]
    for name in moved:
        print(f"moved: {name}")
    print("record reproduced" if not moved else f"{len(moved)} entries moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
