"""Run the benchmark over several seeds and store the reference figures.

    python3 bench/reference.py --seeds 21-30 --out bench/reference.json

Runs ``run_bench.py`` once per workload and seed (one process at a time,
from the repository root), then one traced run per workload on the first
seed.  For each end-to-end metric it reports the median and the spread,
the distance between the first and third quartiles as a share of the
median.  The file written holds every run's result line as well.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run_bench.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}",
          flush=True)
    return result


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpus": os.cpu_count(),
            "machine": platform.machine()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"versions": versions(), "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, s, seconds, 0) for s in seeds]
        entry = {"runs": results,
                 "all_correct": all(r["correct"] for r in results),
                 "failed_share": sorted({r["failed"] / r["attempted"]
                                         for r in results}),
                 "end_to_end": summarize(results),
                 "traced": run(workload, seeds[0], seconds, 1)}
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] is None or \
                s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload:7s} {name:14s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={bounds[name]}{flag}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
