"""The three benchmark workloads: inputs, operations and output checks.

Each workload holds a list of operations (one round).  Panel operations
have inputs fixed by the seeds of the paper's study and the test suite,
so their fitted errors are the same on every run and ``ise_median`` is
read from them alone: the error of one noisy fit varies by about its own
size between datasets, which a median over a few fits cannot steady.
The other operations take their inputs from ``--seed``, so a timing
holds beyond one fixed dataset.  They are kept to a small share of each
round because operation costs are heavy-tailed: about one cohort subject
in ten takes three times as long as the rest, so a round made mostly of
seeded subjects would swing in throughput from seed to seed.

A workload builds its inputs in its constructor and offers ``run(op)``
(the timed call), ``failed(out)``, ``digest(out)`` (for the bit-identity
check between rounds), ``output_bytes(out)`` and ``check(results,
oracle)``, which returns the failed checks and the panel's ISE values.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

# The paper's simulation truth: four raw cubic B-splines on [0.1, 1.1]
# driving x(0) = 0.25 over the unit time interval.
TRUE_INTERVAL = (0.1, 1.1)
TRUE_RAW = (0.1, 1.2, 1.6, 0.4)
TRUE_X0 = 0.25
STUDY_CANDIDATES = (3, 4, 5)

DENSE_N = 3200
DENSE_ISE_BOUND = 1e-3
DENSE_ENDPOINT_TOL = 0.01

GROWTH_AGES = np.concatenate([np.arange(1.0, 2.0, 0.25),
                              np.arange(2.0, 8.0, 1.0),
                              np.arange(8.0, 18.01, 0.5)])
COHORT_SEED = 54
COHORT_INTERVAL = (70.0, 185.0)
COHORT_RAW = np.array([24.0, 7.5, 4.5, 3.5, 15.0, 1.2, 0.15]) * 17.0
COHORT_NOISE = 0.15
COHORT_TRAJ_NOISE_MULTIPLE = 20.0
COHORT_G_REL_L2 = 0.2

RELATIVE_ISE_AGREEMENT = 1e-8
NOISELESS_ISE_BOUND = 1e-6


@dataclass(frozen=True)
class Op:
    label: str
    panel: bool
    args: tuple


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _truth(oracle):
    knots = oracle.clamped_knots(*TRUE_INTERVAL, len(TRUE_RAW))
    return oracle.SplineGradient(knots, TRUE_RAW)


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@contextlib.contextmanager
def _capture(module, name: str, sink: list):
    """Record the results of ``module.name`` while the block runs."""
    inner = getattr(module, name)

    def recording(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, recording)
    try:
        yield
    finally:
        setattr(module, name, inner)


def _fitted_gradient(oracle, fit):
    return oracle.SplineGradient.from_unit_norm(fit.model.basis.knots,
                                                fit.model.beta)


def _positive_along_path(oracle, g_hat, x_start: float, delta: float) -> bool:
    """g_hat > 0 on the states its trajectory from (delta, x_start) visits."""
    path = oracle.trajectory(g_hat, x_start, delta, 1.0 - delta)
    x_end = max(float(path(1.0 - delta)), x_start)
    return g_hat.minimum(x_start, x_end) > 0.0


def _positivity(oracle, op: Op, g_hat, lo: float, hi: float, delta: float,
                known: tuple = ()) -> list:
    """Problems with g_hat > 0 over the fitted window [lo, hi].

    The fit enforces positivity only along its own trajectory, which can
    end short of hi; past that end g_hat can dip below zero (a fault of
    the program).  A panel fit in ``known`` is one with fixed inputs on
    which that fault is known to show: it must still be positive along
    its path.  A seeded fit is held to the same, since the fault hits
    some seeds' inputs and not others.  Every other fit must be positive
    over its whole window.
    """
    low = g_hat.minimum(lo, hi)
    if low > 0.0:
        return []
    if not _positive_along_path(oracle, g_hat, lo, delta):
        return [f"{op.label}: fitted g not positive along its trajectory"]
    where = f"reaches {low:.4g} inside its window [{lo:.6g}, {hi:.6g}]"
    if op.panel and op.label not in known:
        return [f"{op.label}: fitted g {where}"]
    print(f"known fault: {op.label}: fitted g {where}, past the end of "
          f"its trajectory", file=sys.stderr)
    return []


class Study:
    """Replicates of the simulation study through ``sim.run_replicate``."""

    name = "study"
    PANEL = 12
    EXTRA = 4

    def __init__(self, dynfit, seed: int, workdir: str):
        self.dynfit = dynfit
        self.config = dynfit.FitConfig(candidate_Ms=STUDY_CANDIDATES)
        panel = dynfit.SimSpec(rng_seed=0)
        extra = dynfit.SimSpec(rng_seed=seed + 1)
        self.truth = dynfit.solve_trajectory(panel.true_model, 0.0, 1.0,
                                             panel.x0, h=1e-4)
        self.ops = ([Op(f"panel-{i}", True, (panel, i))
                     for i in range(self.PANEL)]
                    + [Op(f"seed{seed}-{i}", False, (extra, i))
                       for i in range(self.EXTRA)])

    def _replicate(self, spec, index):
        """(report, one-step fit, two-stage coefficients) of one replicate."""
        sim = self.dynfit.sim
        fits, two_stage = [], []
        with _capture(sim, "select_M", fits), \
                _capture(sim, "two_stage_fit", two_stage):
            report = sim.run_replicate(spec, index, self.config,
                                       truth=self.truth)
        return (report, fits[0] if fits else None,
                two_stage[0] if two_stage else None)

    def run(self, op: Op):
        return self._replicate(*op.args)

    def failed(self, out) -> bool:
        report, fit, beta_ts = out
        return (report.chosen_M < 0 or fit is None or beta_ts is None
                or not math.isfinite(report.ise_twostage))

    def digest(self, out) -> str:
        report, fit, beta_ts = out
        return _sha(report, fit.model.beta.tobytes(),
                    fit.covariance.tobytes(), np.asarray(beta_ts).tobytes())

    def output_bytes(self, out) -> int:
        return 0

    def check(self, results, oracle):
        truth = _truth(oracle)
        problems, ise_one, ise_two = [], {}, {}
        for op, (report, fit, beta_ts) in results:
            label = op.label
            lo, hi = fit.endpoints
            g_hat = _fitted_gradient(oracle, fit)
            g_ts = oracle.SplineGradient.from_unit_norm(
                fit.model.basis.knots, beta_ts)
            ise_one[label] = oracle.ise(g_hat, truth, lo, hi)
            ise_two[label] = oracle.ise(g_ts, truth, lo, hi)
            for what, mine, theirs in (
                    ("one-step", ise_one[label], report.ise_onestep),
                    ("two-stage", ise_two[label], report.ise_twostage)):
                if _relative_gap(theirs, mine) > RELATIVE_ISE_AGREEMENT:
                    problems.append(f"{label}: {what} ISE {float(theirs)!r} "
                                    f"differs from the reference {mine!r}")
            problems += _positivity(oracle, op, g_hat, lo, hi, fit.delta)
        panel = [op.label for op, _ in results if op.panel]
        one = float(np.median([ise_one[k] for k in panel]))
        two = float(np.median([ise_two[k] for k in panel]))
        if not one < two:
            problems.append(f"panel median one-step ISE {one:.4g} is not "
                            f"below the two-stage median {two:.4g}")
        noiseless = self.dynfit.SimSpec(rng_seed=5, sigma=0.0,
                                        n_range=(100, 100))
        _, fit, _ = self._replicate(noiseless, 0)
        g_hat = _fitted_gradient(oracle, fit)
        err = oracle.ise(g_hat, truth, *fit.endpoints)
        if not err < NOISELESS_ISE_BOUND:
            problems.append(f"noiseless replicate ISE {err:.3g} is not below "
                            f"{NOISELESS_ISE_BOUND:g}")
        problems += _positivity(oracle, Op("noiseless", True, ()), g_hat,
                                *fit.endpoints, fit.delta)
        return problems, [ise_one[k] for k in panel]


class Dense:
    """One rate-sweep cell: n = 3200 and the single candidate M = 7."""

    name = "dense"
    PANEL = 2

    def __init__(self, dynfit, seed: int, workdir: str):
        self.dynfit = dynfit
        n_basis = math.ceil(2.75 * DENSE_N ** (1.0 / 9.0))
        self.config = dynfit.FitConfig(candidate_Ms=(n_basis,))
        panel = dynfit.SimSpec(rng_seed=0, n_range=(DENSE_N, DENSE_N))
        extra = dynfit.SimSpec(rng_seed=seed + 1,
                               n_range=(DENSE_N, DENSE_N))
        self.ops = ([Op(f"panel-{i}", True,
                        (dynfit.generate_dataset(panel, i),))
                     for i in range(self.PANEL)]
                    + [Op(f"seed{seed}-0", False,
                          (dynfit.generate_dataset(extra, 0),))])

    def run(self, op: Op):
        return self.dynfit.select_M(op.args[0], self.config)

    def failed(self, out) -> bool:
        return False

    def digest(self, out) -> str:
        return _sha(out.model.beta.tobytes(), out.covariance.tobytes(),
                    out.endpoints, out.delta, out.cv_score, out.sigma2_hat,
                    out.convergence)

    def output_bytes(self, out) -> int:
        return 0

    def check(self, results, oracle):
        truth = _truth(oracle)
        path = oracle.trajectory(truth, TRUE_X0)
        problems, ises = [], []
        for op, fit in results:
            label = op.label
            delta = oracle.trimming_level(op.args[0].times)
            if _relative_gap(fit.delta, delta) > 1e-12:
                problems.append(f"{label}: trimming level {fit.delta!r}, "
                                f"expected {delta!r}")
            lo, hi = fit.endpoints
            for est, t in ((lo, delta), (hi, 1.0 - delta)):
                if abs(est - float(path(t))) > DENSE_ENDPOINT_TOL:
                    problems.append(f"{label}: endpoint {est:.6g} is more "
                                    f"than {DENSE_ENDPOINT_TOL} from "
                                    f"X({t:.4g}) = {float(path(t)):.6g}")
            g_hat = _fitted_gradient(oracle, fit)
            err = oracle.ise(g_hat, truth, lo, hi)
            if not err < DENSE_ISE_BOUND:
                problems.append(f"{label}: ISE {err:.3g} is not below "
                                f"{DENSE_ISE_BOUND:g}")
            problems += _positivity(oracle, op, g_hat, lo, hi, fit.delta)
            if op.panel:
                ises.append(err)
        return problems, ises


class Cohort:
    """``dynfit fit`` on single-subject files of growth-style heights."""

    name = "cohort"
    PANEL = 10
    EXTRA = 2
    # Panel subjects whose fitted g is negative near adult height, past
    # the end of the fitted trajectory but inside the reported window.
    KNOWN_NEGATIVE = ("girl00", "girl02", "girl08", "girl09")

    def __init__(self, dynfit, seed: int, workdir: str):
        self.dynfit = dynfit
        basis = dynfit.make_basis(*COHORT_INTERVAL, len(COHORT_RAW), 4)
        self.t_unit = (GROWTH_AGES - GROWTH_AGES[0]) / \
            (GROWTH_AGES[-1] - GROWTH_AGES[0])
        self.subjects = {}
        self.ops = []
        streams = ((True, "girl", np.random.default_rng(COHORT_SEED),
                    self.PANEL),
                   (False, f"seed{seed}-", np.random.default_rng(
                       [COHORT_SEED, seed]), self.EXTRA))
        for panel, prefix, rng, count in streams:
            for k in range(count):
                label = f"{prefix}{k:02d}"
                raw = COHORT_RAW * np.exp(0.04 * rng.standard_normal(7))
                model = dynfit.GradientModel(basis, raw / basis.norm_factors)
                h0 = rng.uniform(73.0, 78.0)
                path = dynfit.solve_trajectory(model, 0.0, 1.0, h0, h=5e-4)
                heights = path.state_at(self.t_unit) + \
                    COHORT_NOISE * rng.standard_normal(len(self.t_unit))
                csv_path = os.path.join(workdir, f"{label}.csv")
                with open(csv_path, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["subject", "t", "y"])
                    writer.writerows((label, a, h)
                                     for a, h in zip(GROWTH_AGES, heights))
                self.subjects[label] = (raw, h0)
                self.ops.append(Op(label, panel, (
                    csv_path, os.path.join(workdir, f"{label}-fit"))))

    def run(self, op: Op):
        csv_path, out = op.args
        code = self.dynfit.cli.main(["fit", csv_path, "--out", out])
        with open(out + ".json", "rb") as fh:
            js = fh.read()
        with open(out + ".csv", "rb") as fh:
            table = fh.read()
        return code, js, table

    def failed(self, out) -> bool:
        code, js, _ = out
        return code != 0 or bool(json.loads(js)["errors"])

    def digest(self, out) -> str:
        return _sha(out[1], out[2])

    def output_bytes(self, out) -> int:
        return len(out[1]) + len(out[2])

    def check(self, results, oracle):
        import jsonschema

        schema_path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "docs", "output_schema.json")
        with open(schema_path, encoding="utf-8") as fh:
            schema = json.load(fh)
        delta = oracle.trimming_level(self.t_unit)
        problems, ises = [], []
        for op, (_, js, _) in results:
            label = op.label
            payload = json.loads(js)
            try:
                jsonschema.validate(payload, schema)
            except jsonschema.ValidationError as exc:
                problems.append(f"{label}: schema: {exc.message}")
                continue
            recs = payload["per_subject"]
            if len(recs) != 1 or recs[0]["subject"] != label:
                problems.append(f"{label}: expected one record for {label}")
                continue
            problems += self._check_record(op, recs[0], delta, oracle, ises)
        return problems, ises

    def _check_record(self, op, rec, delta, oracle, ises):
        label = op.label
        raw, h0 = self.subjects[label]
        g_true = oracle.SplineGradient(
            oracle.clamped_knots(*COHORT_INTERVAL, len(raw)), raw)
        path = oracle.trajectory(g_true, h0)
        problems = []
        t = np.array([p["t"] for p in rec["traj_grid"]])
        x = np.array([p["x"] for p in rec["traj_grid"]])
        if not (np.all(np.diff(t) > 0) and np.all(np.diff(x) > 0)):
            problems.append(f"{label}: traj_grid not strictly increasing")
        unit = (t - rec["time_map"]["offset"]) / rec["time_map"]["scale"]
        if abs(unit[0] - delta) > 1e-12 or abs(unit[-1] - (1 - delta)) > 1e-12:
            problems.append(f"{label}: traj_grid spans [{unit[0]!r}, "
                            f"{unit[-1]!r}], not [delta, 1 - delta] with "
                            f"delta = {delta!r}")
        traj_err = float(np.max(np.abs(x - path(unit))))
        if traj_err > COHORT_TRAJ_NOISE_MULTIPLE * COHORT_NOISE:
            problems.append(f"{label}: traj_grid is {traj_err:.3g} cm from "
                            f"the true trajectory")
        xs = np.array([p["x"] for p in rec["g_grid"]])
        gs = np.array([p["g"] for p in rec["g_grid"]])
        g_ref = g_true(xs)
        rel = float(np.sqrt(np.sum((gs - g_ref) ** 2) / np.sum(g_ref ** 2)))
        if rel > COHORT_G_REL_L2:
            problems.append(f"{label}: g_grid relative L2 error {rel:.3g}")
        g_hat = oracle.SplineGradient.from_unit_norm(rec["knots"], rec["beta"])
        if np.max(np.abs(g_hat(xs) - gs)) > 1e-9 * np.max(np.abs(gs)):
            problems.append(f"{label}: g_grid disagrees with its own "
                            f"knots and coefficients")
        problems += _positivity(oracle, op, g_hat, float(xs[0]),
                                float(xs[-1]), delta, self.KNOWN_NEGATIVE)
        if op.panel:
            ises.append(oracle.ise(g_hat, g_true, float(xs[0]),
                                   float(xs[-1])))
        return problems


WORKLOADS = {w.name: w for w in (Study, Dense, Cohort)}
