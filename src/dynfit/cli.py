"""Command-line front end.

Four subcommands: ``fit`` (per-subject gradient estimation from a long
CSV), ``two-stage`` (the presmooth-and-regress comparison estimator),
``simulate`` (the replicated benchmark study), and ``rates`` (the
error-vs-sample-size sweep).  Input is CSV with header ``subject,t,y``
(``subject`` optional for single-series files); outputs are JSON plus a
CSV table, validated by docs/output_schema.json.

Exit codes: 0 success, 1 computation failure (every subject failing is
one), 2 usage or input error, such as a value FitConfig or SimSpec rejects.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .errors import DynfitError
from .estimator import (_STEP, FitConfig, Sample, margin_basis, select_M,
                        two_stage_fit)
from .ode import GradientModel, solve_trajectory
from .sim import SimSpec, rate_sweep, run_study
from .smooth import Dataset

SCHEMA_VERSION = 1
PREDICTION_GRID = 200


class InputError(DynfitError):
    """Bad file or malformed row; maps to exit code 2."""


def _read_long_csv(path: str) -> dict[str, tuple[list, list]]:
    """Parse ``subject,t,y`` (or ``t,y``) rows grouped by subject."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file")
        header = [h.strip().lower() for h in header]
        if header == ["subject", "t", "y"]:
            has_subject = True
        elif header == ["t", "y"]:
            has_subject = False
        else:
            raise InputError(
                f"{path}: header must be 'subject,t,y' or 't,y', got {header}")
        series: dict[str, tuple[list, list]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} "
                                 f"columns, got {len(row)}")
            subject = row[0].strip() if has_subject else "series"
            try:
                t = float(row[-2])
                y = float(row[-1])
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric t or y")
            if not (np.isfinite(t) and np.isfinite(y)):
                raise InputError(f"{path}:{lineno}: non-finite t or y")
            series.setdefault(subject, ([], []))
            series[subject][0].append(t)
            series[subject][1].append(y)
    if not series:
        raise InputError(f"{path}: no data rows")
    return series


def _rescale_times(t: np.ndarray):
    lo, hi = float(np.min(t)), float(np.max(t))
    if hi <= lo:
        raise InputError("degenerate time range")
    return (t - lo) / (hi - lo), {"offset": lo, "scale": hi - lo}


def _trajectory_records(fit, time_map):
    ts = np.linspace(fit.delta, 1.0 - fit.delta, PREDICTION_GRID)
    traj = solve_trajectory(fit.model, fit.delta, 1.0 - fit.delta,
                            fit.endpoints[0], h=_STEP)
    xs = traj.state_at(ts)
    t_orig = time_map["offset"] + time_map["scale"] * ts
    return [{"t": float(t), "x": float(x)} for t, x in zip(t_orig, xs)]


def _subject_record(subject: str, M: int, model, endpoints, time_map,
                    se=None, **fields) -> dict:
    """One subject's record: M, coefficients, knots, domain, time map,
    ``g_grid`` (g at PREDICTION_GRID points spanning ``endpoints``, with
    the standard errors ``se(xs)``, or None without ``se``) and the other
    ``fields``."""
    xs = np.linspace(*endpoints, PREDICTION_GRID)
    ses = se(xs).tolist() if se is not None else [None] * len(xs)
    return {
        "subject": subject,
        "M": int(M),
        "beta": [float(b) for b in model.beta],
        "knots": [float(k) for k in model.basis.knots],
        "domain": [model.basis.x_lo, model.basis.x_hi],
        "time_map": time_map,
        "g_grid": [{"x": float(x), "g": float(v), "se": s}
                   for x, v, s in zip(xs, model.g(xs), ses)],
        **fields,
    }


def _write_outputs(base: str, payload: dict, rows, columns, fmt: str):
    if fmt in ("json", "both"):
        with open(base + ".json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
    if fmt in ("csv", "both") and rows is not None:
        with open(base + ".csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)


def _parse_m_candidates(text: str) -> tuple:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise InputError(f"bad dimension list {text!r}")
    return values


def _build(cls, **options):
    """``cls(**options)``, with the ValueError of a rejected value raised
    as an InputError."""
    try:
        return cls(**options)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _fit_config(args, default_candidates=(4, 5, 6, 7)) -> FitConfig:
    cands = _parse_m_candidates(args.M_candidates) \
        if args.M_candidates else default_candidates
    return _build(FitConfig, delta=args.delta, candidate_Ms=cands,
                  order=args.order)


def _fit_subjects(args, method: str, record_of) -> int:
    """Write ``record_of(subject, data, time_map)`` for every subject, or
    its DynfitError under ``errors``; returns 0, or 1 with a message when
    every subject failed.  The CSV status is the LM status, or "ols" for a
    record without one."""
    series = _read_long_csv(args.input)
    per_subject, errors = [], []
    for subject in sorted(series):
        t_raw, y = (np.asarray(v, dtype=float) for v in series[subject])
        try:
            if len(t_raw) < 10:
                raise InputError("fewer than 10 rows")
            t_unit, time_map = _rescale_times(t_raw)
            per_subject.append(record_of(
                subject, Dataset(t_unit, y, subject_id=subject), time_map))
        except DynfitError as exc:
            errors.append({"subject": subject,
                           "error": f"{type(exc).__name__}: {exc}"})
    payload = {"version": SCHEMA_VERSION, "method": method,
               "per_subject": per_subject, "errors": errors}
    rows = [[r["subject"], r["M"], r["cv_score"], r["sigma2"],
             r["convergence"]["status"] if r["convergence"] else "ols"]
            for r in per_subject]
    _write_outputs(args.out, payload, rows,
                   ["subject", "M", "cv_score", "sigma2", "status"],
                   args.format)
    if not per_subject:
        print("all subjects failed", file=sys.stderr)
        return 1
    return 0


def cmd_fit(args) -> int:
    config = _fit_config(args)

    def record(subject, data, time_map):
        fit = select_M(data, config)
        lm = fit.convergence
        return _subject_record(
            subject, fit.chosen_M, fit.model, fit.endpoints, time_map,
            se=fit.pointwise_se,
            cv_score=float(fit.cv_score) if np.isfinite(fit.cv_score)
            else None,
            sigma2=float(fit.sigma2_hat),
            convergence={"status": lm.status,
                         "iterations": int(lm.iterations),
                         "final_lambda": float(lm.final_lambda),
                         "grad_norm": float(lm.grad_norm)},
            traj_grid=_trajectory_records(fit, time_map))

    return _fit_subjects(args, "integral_curve", record)


def cmd_two_stage(args) -> int:
    n_basis = 6 if args.M is None else args.M
    config = _build(FitConfig, delta=args.delta, candidate_Ms=(n_basis,),
                    order=args.order)
    if args.M is None:
        print("warning: --M not given, defaulting to M=6", file=sys.stderr)

    def record(subject, data, time_map):
        sample = Sample(data, config)
        basis = margin_basis(*sample.endpoints, n_basis, config.order, data.n)
        beta = two_stage_fit(sample.fit_data, basis, sample.delta,
                             sample.presmoothed())
        return _subject_record(subject, n_basis, GradientModel(basis, beta),
                               sample.endpoints, time_map, cv_score=None,
                               sigma2=None, convergence=None, traj_grid=[])

    return _fit_subjects(args, "two_stage", record)


def cmd_simulate(args) -> int:
    spec = _build(SimSpec, n_range=(args.n_min, args.n_max), sigma=args.sigma,
                  replicates=args.replicates, rng_seed=args.seed)
    config = _fit_config(args, default_candidates=(3, 4, 5))
    reports, summary = run_study(spec, config)
    payload = {"version": SCHEMA_VERSION, "method": "simulate",
               "config": {"n_min": args.n_min, "n_max": args.n_max,
                          "sigma": args.sigma, "replicates": args.replicates,
                          "seed": args.seed},
               "summary": summary}
    rows = [[r.seed, r.n, r.chosen_M,
             f"{r.ise_onestep:.10e}" if np.isfinite(r.ise_onestep) else "nan",
             f"{r.ise_twostage:.10e}" if np.isfinite(r.ise_twostage) else "nan",
             r.status] for r in reports]
    _write_outputs(args.out, payload, rows,
                   ["seed", "n", "chosen_M", "ise_onestep", "ise_twostage",
                    "status"], args.format)
    ok = spec.replicates - summary["failures"]
    return 0 if ok >= 1 else 1


def cmd_rates(args) -> int:
    # n_range only bounds the doubling sizes; rate_sweep fits at each one
    spec = _build(SimSpec, n_range=(args.n_min, args.n_max), sigma=args.sigma,
                  replicates=args.replicates, rng_seed=args.seed)
    fixed = args.order if args.fixed_M is None else args.fixed_M
    config = _build(FitConfig, delta=args.delta, candidate_Ms=(fixed,),
                    order=args.order)
    n_list = [args.n_min]
    while 2 * n_list[-1] <= args.n_max:
        n_list.append(2 * n_list[-1])
    if len(n_list) < 4:
        raise InputError("need at least 4 doubling sample sizes between "
                         "--n-min and --n-max")
    out = rate_sweep(spec, n_list, config=config, fixed_M=args.fixed_M)
    payload = {"version": SCHEMA_VERSION, "method": "rates",
               "slope": out["slope"], "slope_se": out["slope_se"],
               "per_n": out["per_n"]}
    rows = [[row["n"], row["M"], f"{row['mean_ise']:.10e}", row["n_ok"]]
            for row in out["per_n"]]
    _write_outputs(args.out, payload, rows, ["n", "M", "mean_ise", "n_ok"],
                   args.format)
    return 0


def _add_common(p, with_input: bool):
    if with_input:
        p.add_argument("input", help="long CSV with header subject,t,y")
    p.add_argument("--out", required=True,
                   help="output base path (writes <out>.json and <out>.csv)")
    p.add_argument("--format", choices=("json", "csv", "both"),
                   default="both")
    p.add_argument("--delta", type=float, default=None,
                   help="trimming level; default puts ~5%% of data per tail")
    p.add_argument("--order", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynfit",
        description="Estimate the gradient function of a monotone "
                    "trajectory from noisy observations.")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: "--h" would be read as "--help"
    strict = {"allow_abbrev": False}

    p = sub.add_parser("fit", help="fit each subject in a CSV", **strict)
    _add_common(p, with_input=True)
    p.add_argument("--M-candidates", dest="M_candidates", default=None,
                   help="comma list of basis dimensions (default 4,5,6,7)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("two-stage", help="presmooth-and-regress estimator",
                       **strict)
    _add_common(p, with_input=True)
    p.add_argument("--M", type=int, default=None,
                   help="basis dimension (default 6, with a warning)")
    p.set_defaults(func=cmd_two_stage)

    p = sub.add_parser("simulate", help="replicated benchmark study", **strict)
    _add_common(p, with_input=False)
    p.add_argument("--M-candidates", dest="M_candidates", default=None,
                   help="comma list of basis dimensions (default 3,4,5)")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--n-min", dest="n_min", type=int, default=60)
    p.add_argument("--n-max", dest="n_max", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rates", help="error-vs-n rate sweep", **strict)
    _add_common(p, with_input=False)
    p.add_argument("--replicates", type=int, default=30)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--n-min", dest="n_min", type=int, default=200)
    p.add_argument("--n-max", dest="n_max", type=int, default=3200)
    p.add_argument("--fixed-M", dest="fixed_M", type=int, default=None,
                   help="force one basis dimension instead of the n-rule")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rates)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
