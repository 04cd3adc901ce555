"""The names the benchmark in ``bench/`` reaches into must keep working.

``bench/tracer.py`` wraps dynfit functions by module attribute, and the
study workload records each replicate's fits by patching
``dynfit.sim.select_M`` and ``dynfit.sim.two_stage_fit``.  A refactor
that renames those or calls around them would silently zero the
per-layer metrics or fail every study operation.
"""

import types
from pathlib import Path

import dynfit
import dynfit.sim as sim
from dynfit.estimator import FitConfig
from dynfit.sim import SimSpec, generate_dataset, run_replicate

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    # executed from its source so that nothing is written under bench/
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.Tracer(dynfit).absent == []


def test_run_replicate_calls_through_the_sim_module(monkeypatch):
    seen = {"select_M": [], "two_stage_fit": []}
    for name, sink in seen.items():
        inner = getattr(sim, name)

        def recording(*args, _inner=inner, _sink=sink, **kwargs):
            _sink.append(_inner(*args, **kwargs))
            return _sink[-1]

        monkeypatch.setattr(sim, name, recording)
    report = run_replicate(SimSpec(rng_seed=0), 0,
                           FitConfig(candidate_Ms=(4,)))
    assert report.chosen_M == 4
    assert len(seen["select_M"]) == len(seen["two_stage_fit"]) == 1


def test_trajectory_solver_layer_is_traced():
    tracer = load_tracer().Tracer(dynfit)
    tracer.install()
    try:
        dynfit.select_M(generate_dataset(SimSpec(rng_seed=0), 0),
                        FitConfig(candidate_Ms=(4,)))
    finally:
        tracer.uninstall()
    assert tracer.calls["ode.solve_trajectory"] > 0
    assert tracer.counts["ode.solve_trajectory.steps"] > 0
