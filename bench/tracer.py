"""Spans around dynfit's layers, installed from outside the package.

A module that does ``from .ode import solve_trajectory`` holds its own
binding of the name, so a traced function is wrapped in every dynfit
module whose attribute *is* that function, not only where it is defined.
``GradientModel`` is traced through its ``__init__``.  Per-point calls
(``GradientModel.g``, ``SplineBasis.eval``) get no span: they run hundreds
of thousands of times per fit.

Spans stay in memory; ``dump`` writes them out when the run ends.  A
layer's self time is its span's duration minus the time covered by the
spans it caused.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("basis", "ode", "smooth", "estimator", "sim", "cli")

TRACED = (
    "basis.make_basis",
    "ode.GradientModel",
    "ode.solve_trajectory",
    "ode.sensitivities_closed_form",
    "smooth.cv_bandwidth",
    "smooth.local_poly",
    "smooth.estimate_endpoints",
    "estimator.presmooth",
    "estimator.two_stage_fit",
    "estimator.lm_fit",
    "estimator.residuals_and_jacobian",
    "estimator.approximate_loo_score",
    "estimator.select_M",
    "sim.generate_dataset",
    "cli.main",
)


def _count_solve_trajectory(counts, bound, result, exc):
    if result is not None:
        counts["ode.solve_trajectory.steps"] += len(result.t_grid) - 1


def _count_lm_fit(counts, bound, result, exc):
    report = result[1] if result is not None else getattr(exc, "report", None)
    if report is not None:
        counts["estimator.lm_fit.iterations"] += report.iterations
        counts["estimator.lm_fit.accepted_steps"] += \
            len(report.accepted_losses) - 1


def _count_select_M(counts, bound, result, exc):
    config = bound.arguments["config"]
    counts["estimator.select_M.candidates"] += len(set(config.candidate_Ms))
    if result is not None:
        failed = len(result.candidate_failures)
    else:
        failed = len(getattr(exc, "failures", ()))
    counts["estimator.select_M.candidates_failed"] += failed


# Counters read from a layer's arguments or result: (counts, bound args,
# result or None, exception or None).
COUNTERS = {
    "ode.solve_trajectory": _count_solve_trajectory,
    "estimator.lm_fit": _count_lm_fit,
    "estimator.select_M": _count_select_M,
}


class Tracer:
    """Records spans and counts while installed; restores dynfit on removal."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # (name, start, end, parent, op)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []
        self.op = None           # identifier shared by the spans of one operation
        self.top_level_s = 0.0   # span time at depth 0 during operations
        self._stack = []         # [span index, start, child seconds]
        self._restore = []
        self._targets = self._resolve()

    def _resolve(self):
        """(name, object) of each traced name dynfit still has; the rest are
        listed in ``absent``."""
        targets = []
        for qual in TRACED:
            mod_name, attr = qual.split(".")
            try:
                mod = importlib.import_module(
                    f"{self.package.__name__}.{mod_name}")
            except ModuleNotFoundError:
                mod = None
            obj = getattr(mod, attr, None)
            if obj is None:
                self.absent.append(qual)
            else:
                targets.append((qual, obj))
        return targets

    def _wrap(self, qual, func):
        counter = COUNTERS.get(qual)
        signature = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            self._stack.append(frame)
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                parent = self._stack[-1][0] if self._stack else None
                if self._stack:
                    self._stack[-1][2] += duration
                elif self.op is not None:
                    self.top_level_s += duration
                self.spans[index] = (qual, frame[1], end, parent, self.op)
                self.calls[qual] += 1
                self.self_s[qual] += duration - frame[2]
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self.counts, bound, result, exc)

        return traced

    def install(self):
        modules = [self.package] + [
            mod for mod in (getattr(self.package, m, None) for m in MODULES)
            if mod is not None]
        for qual, obj in self._targets:
            if inspect.isclass(obj):
                self._patch(obj, "__init__", self._wrap(qual, obj.__init__))
                continue
            wrapper = self._wrap(qual, obj)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is obj:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def dump(self, path, extra: dict):
        records = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                   for n, s, e, p, o in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": records, **extra}, fh)
            fh.write("\n")
