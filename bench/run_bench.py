"""End-to-end and per-layer benchmark of dynfit.

    python3 bench/run_bench.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a dynfit checkout; the package is imported from
``src/``.  Each run builds the workload's inputs, then repeats whole
rounds of its operations until ``--seconds`` have passed, checks every
output against an independent reference (``oracle.py``), and prints one
JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs rounds
in untraced/traced pairs and reports the per-layer metrics of one traced
round (plus the traced set-up), the tracing overhead, and checks that
traced and untraced rounds give bit-identical outputs.  Results and span
dumps are written under ``bench/results/``.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One plain single-threaded run on a shared machine: pin BLAS and OpenMP
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END_UNITS = {"setup_s": "s", "op_s_median": "s", "fits_per_s": "1/s",
                    "peak_rss_mib": "MiB", "ise_median": "sq_gradient"}


def load_program():
    """Import dynfit from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "dynfit" / "__init__.py").is_file():
        sys.exit(f"error: no dynfit package under {src}")
    sys.path.insert(0, str(src))
    dynfit = importlib.import_module("dynfit")
    if Path(dynfit.__file__).resolve().parent != (src / "dynfit").resolve():
        sys.exit(f"error: imported dynfit from {dynfit.__file__}, not {src}")
    importlib.import_module("dynfit.cli")
    return dynfit


def run_round(workload, tracer=None):
    """Run every operation once: list of (op, seconds, output or None)."""
    results = []
    for op in workload.ops:
        if tracer is not None:
            tracer.op = op.label
        start = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            out = None
        results.append((op, time.perf_counter() - start, out))
        if tracer is not None:
            tracer.op = None
    return results


def is_failed(workload, out) -> bool:
    return out is None or workload.failed(out)


def digests(workload, results):
    return [None if is_failed(workload, out) else workload.digest(out)
            for _, _, out in results]


def per_layer(setup_tracer, round_tracer, rounds: int, fits: int,
              untraced_times, traced_times, output_bytes: int) -> dict:
    """Per-layer metrics of the traced set-up plus one traced round."""

    def total(field, key):
        value = (getattr(setup_tracer, field)[key]
                 + getattr(round_tracer, field)[key] / rounds)
        return round(value) if field != "self_s" else value

    m = {}
    for qual in ("ode.solve_trajectory", "ode.sensitivities_closed_form",
                 "ode.GradientModel", "smooth.cv_bandwidth",
                 "smooth.local_poly", "estimator.presmooth",
                 "estimator.lm_fit", "estimator.two_stage_fit",
                 "estimator.residuals_and_jacobian", "basis.make_basis"):
        m[f"{qual}.calls"] = (total("calls", qual), "count")
    for qual in ("ode.solve_trajectory", "ode.sensitivities_closed_form",
                 "ode.GradientModel", "smooth.cv_bandwidth",
                 "smooth.local_poly", "smooth.estimate_endpoints",
                 "estimator.lm_fit", "estimator.two_stage_fit",
                 "estimator.residuals_and_jacobian",
                 "estimator.approximate_loo_score", "basis.make_basis",
                 "sim.generate_dataset", "cli.main"):
        m[f"{qual}.self_s"] = (total("self_s", qual), "s")
    for key, unit in (("ode.solve_trajectory.steps", "count"),
                      ("estimator.lm_fit.iterations", "count"),
                      ("estimator.lm_fit.accepted_steps", "count"),
                      ("estimator.select_M.candidates", "count"),
                      ("estimator.select_M.candidates_failed", "count")):
        m[key] = (total("counts", key), unit)
    presmooth = round_tracer.calls["estimator.presmooth"] / rounds
    m["estimator.presmooth.calls_per_fit"] = (presmooth / fits, "calls/fit")
    its = m["estimator.lm_fit.iterations"][0]
    m["estimator.lm_fit.accept_ratio"] = (
        m["estimator.lm_fit.accepted_steps"][0] / its if its else 0.0, "ratio")
    cands = m["estimator.select_M.candidates"][0]
    m["estimator.select_M.candidate_yield"] = (
        (cands - m["estimator.select_M.candidates_failed"][0]) / cands
        if cands else 0.0, "ratio")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    m["untraced_s"] = ((sum(traced_times) - round_tracer.top_level_s)
                       / rounds, "s")
    m["trace_overhead_s"] = (statistics.median(traced_times)
                             - statistics.median(untraced_times), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "dense", "cohort"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    dynfit = load_program()
    import tracer as tracing
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RESULTS, prefix="work-")
    try:
        return measure(dynfit, tracing, WORKLOADS[args.workload], args,
                       workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(dynfit, tracing, workload_cls, args, workdir) -> int:
    setup_tracer = tracing.Tracer(dynfit) if args.trace else None
    if setup_tracer:
        setup_tracer.install()
    workload = workload_cls(dynfit, args.seed, workdir)
    if setup_tracer:
        setup_tracer.uninstall()
    setup_s = time.perf_counter() - T_START

    rounds, traced_flags = [], []
    round_tracer = tracing.Tracer(dynfit) if args.trace else None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        if args.trace:
            rounds.append(run_round(workload))
            traced_flags.append(False)
            round_tracer.install()
            try:
                rounds.append(run_round(workload, round_tracer))
            finally:
                round_tracer.uninstall()
            traced_flags.append(True)
        else:
            rounds.append(run_round(workload))
            traced_flags.append(False)
    elapsed = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"round {k}: operation {op.label} failed"
                for k, results in enumerate(rounds)
                for op, _, out in results if is_failed(workload, out)]
    reference = digests(workload, rounds[0])
    for k, results in enumerate(rounds[1:], start=1):
        if digests(workload, results) != reference:
            kind = "traced" if traced_flags[k] else "untraced"
            problems.append(f"round {k} ({kind}) outputs differ from round 0")
    first = [(op, out) for op, _, out in rounds[0]
             if not is_failed(workload, out)]
    import oracle
    check_problems, panel_ise = workload.check(first, oracle)
    problems += check_problems
    if not panel_ise:
        sys.exit("error: no panel operation succeeded; no ise_median")

    all_results = [r for results in rounds for r in results]
    attempted = len(all_results)
    failed = sum(is_failed(workload, out) for _, _, out in all_results)
    if args.trace:
        traced = [r for results, t in zip(rounds, traced_flags) if t
                  for r in results]
        untraced = [r for results, t in zip(rounds, traced_flags) if not t
                    for r in results]
        n_traced = sum(traced_flags)
        out_bytes = sum(workload.output_bytes(out) for _, _, out in traced
                        if out is not None) // n_traced
        metrics = per_layer(setup_tracer, round_tracer, n_traced,
                            len(workload.ops), [t for _, t, _ in untraced],
                            [t for _, t, _ in traced], out_bytes)
        absent = sorted(set(setup_tracer.absent))
        if absent:
            print(f"absent traced layers: {', '.join(absent)}",
                  file=sys.stderr)
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        round_tracer.dump(trace_path, {"setup_spans": [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p, _ in setup_tracer.spans]})
    else:
        times = [t for _, t, _ in all_results]
        metrics = {
            "setup_s": setup_s,
            "op_s_median": statistics.median(times),
            "fits_per_s": (attempted - failed) / elapsed,
            "peak_rss_mib": peak_rss_mib,
            "ise_median": statistics.median(panel_ise),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
