"""Span tracing of the polariton_ring layers, installed from outside the
package.

Each traced name is a module or class attribute that its caller looks up at
call time (for example ``experiments.assemble``), so replacing the attribute
with a wrapper records a span around every call without touching the
package. A span holds its name, start, end, parent span and run id; spans
stay in memory and are written out at the end of the benchmark. A layer's
self time is the duration of its spans minus the time their child spans
cover, so the self times of one run add up to the duration of its
``cli.main`` span.

The kernel counts (``superop.bytes_computed``, ``steady.flops_computed``,
``steady.rk4_steps``) are computed from array sizes and the solver's
step-size rule, not measured.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polariton_ring import cli, experiments, steady
from polariton_ring.experiments import ObservableSpec

# Per-layer self time: the metric each span's self time is added to.
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "experiments.run_sweep": "experiments.self_s",
    "experiments.optimize_concurrence": "experiments.self_s",
    "experiments.thermal_map": "experiments.self_s",
    "experiments.validate_effective": "experiments.self_s",
    "experiments.solve_spec": "experiments.self_s",
    "models.build_model": "models.build_s",
    "superop.assemble": "superop.assemble_s",
    "steady.steady_state_on": "steady.check_s",
    "steady.lstsq_solve": "steady.lstsq_s",
    "steady.evolve_to_steady": "steady.evolve_s",
    "steady.spectral_gap": "steady.gap_s",
    "observables.evaluate": "observables.observe_s",
    "observables.trace_distance": "observables.observe_s",
    "optimize.multistart_maximize": "optimize.self_s",
}

# Metrics that are extremes over a run rather than sums.
WORST = {"steady.worst_residual_rel": max, "steady.worst_min_eig": min}
OBSERVE_SPANS = ("observables.evaluate", "observables.trace_distance")
OPTIMIZE_SPAN = "optimize.multistart_maximize"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int


def _lstsq_flops(rows: int, n: int) -> float:
    """Column-pivoted QR of a rows x n complex system, in real flops."""
    return 8.0 * rows * n * n - 8.0 * n**3 / 3.0


def _uniqueness_flops(n: int) -> float:
    """L @ basis (n x n times n x n-1) plus the singular values of the
    n x (n-1) product, complex, in real flops."""
    k = n - 1
    return 8.0 * n * n * k + 16.0 * n * k * k - 16.0 * k**3 / 3.0


class NonuniqueCounter:
    """Counts steady-state solves that report ``unique=False``.

    Installed in traced and untraced runs alike: it is part of the
    workload's failure accounting, not of the tracing.
    """

    def __init__(self):
        self.count = 0

    @contextmanager
    def installed(self):
        original = experiments.steady_state_on

        def counted(*args, **kwargs):
            report = original(*args, **kwargs)
            if not report.unique:
                self.count += 1
            return report

        experiments.steady_state_on = counted
        try:
            yield self
        finally:
            experiments.steady_state_on = original


class Tracer:
    """Records spans and per-run counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._stack: list[int] = []
        self._last_gap = 0.0
        self._objective_values: list[float] = []

    # --- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _inside(self, *names: str) -> bool:
        return any(self.spans[i].name in names for i in self._stack)

    def wrap(self, fn, name: str, hook=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[self.run][key] += value

    def _worst(self, key: str, value: float) -> None:
        counts = self.counts[self.run]
        counts[key] = WORST[key](counts[key], value) if key in counts else value

    # --- count hooks, run after the span has closed -------------------------

    def _on_build(self, args, kwargs, result):
        self.add("models.build_calls", 1)

    def _on_assemble(self, args, kwargs, result):
        terms = len(args[1])
        self.add("superop.terms", terms)
        # one dense n x n matrix per dissipator term, one for the commutator
        # and one for the sum
        self.add("superop.bytes_computed", result.mat.nbytes * (terms + 2))

    def _on_lstsq(self, args, kwargs, result):
        self.add("steady.flops_computed", _lstsq_flops(*args[0].shape))

    def _on_steady(self, args, kwargs, report):
        liouv = args[0]
        self.add("steady.solves", 1)
        if report.unique:
            self.add("steady.flops_computed", _uniqueness_flops(liouv.dim**2))
        else:
            self.add("steady.nonunique", 1)
        self._worst("steady.worst_residual_rel", report.residual / max(liouv.norm_inf(), 1.0))
        self._worst("steady.worst_min_eig", report.min_eigenvalue)

    def _on_gap(self, args, kwargs, gap):
        self._last_gap = gap

    def _on_evolve(self, args, kwargs, result):
        bound = inspect.signature(steady.evolve_to_steady).bind(*args, **kwargs)
        bound.apply_defaults()
        scale = bound.arguments["l"].norm_inf()
        gap = self._last_gap if self._last_gap > 0 else 1e-4 * max(scale, 1.0)
        dt = steady.STABILITY_LIMIT / max(scale, 1e-12)
        self.add("steady.rk4_steps", math.ceil(bound.arguments["decades"] / gap / dt - 1e-9))

    def _on_observe(self, args, kwargs, value):
        if self._inside(*OBSERVE_SPANS):
            return
        self.add("observables.calls", 1)
        if self._inside(OPTIMIZE_SPAN):
            self._objective_values.append(value)

    def _on_optimize(self, args, kwargs, report):
        values = self._objective_values
        self._objective_values = []
        self.add("optimize.evaluations", len(values))
        if values:
            self.add("optimize.evals_to_best", (int(np.argmax(values)) + 1) / len(values))

    # --- installation -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, hook) for every traced call site."""
        return [
            (cli, "run_sweep", "experiments.run_sweep", None),
            (cli, "optimize_concurrence", "experiments.optimize_concurrence", None),
            (cli, "thermal_map", "experiments.thermal_map", None),
            (cli, "validate_effective", "experiments.validate_effective", None),
            (experiments, "solve_spec", "experiments.solve_spec", None),
            (experiments, "build_model", "models.build_model", self._on_build),
            (experiments, "assemble", "superop.assemble", self._on_assemble),
            (experiments, "steady_state_on", "steady.steady_state_on", self._on_steady),
            (steady, "lstsq_solve", "steady.lstsq_solve", self._on_lstsq),
            (experiments, "evolve_to_steady", "steady.evolve_to_steady", self._on_evolve),
            (steady, "spectral_gap", "steady.spectral_gap", self._on_gap),
            (ObservableSpec, "evaluate", "observables.evaluate", self._on_observe),
            (experiments, "trace_distance", "observables.trace_distance", self._on_observe),
            (experiments, "multistart_maximize", OPTIMIZE_SPAN, self._on_optimize),
        ]

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- reporting ----------------------------------------------------------

    def run_metrics(self, run: int) -> dict[str, float]:
        """Self time per layer and the counts of one run.

        Every self-time and count metric is present, 0 when the run did not
        call that layer.
        """
        spans = [(k, s) for k, s in enumerate(self.spans) if s.run == run]
        child_time = defaultdict(float)
        for _, s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        metrics = {name: 0.0 for name in set(SELF_TIME_METRIC.values())}
        for k, s in spans:
            metrics[SELF_TIME_METRIC[s.name]] += s.end - s.start - child_time[k]
        metrics["trace.run_s"] = sum(s.end - s.start for _, s in spans if s.name == "cli.main")
        for key in COUNT_METRICS:
            metrics[key] = float(self.counts[run].get(key, 0.0))
        return metrics

    def write(self, path: Path) -> None:
        """Write every span as columns: names, start/end relative to the
        first span, parent index and run id."""
        t0 = self.spans[0].start if self.spans else 0.0
        names = sorted({s.name for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        payload = {
            "names": names,
            "name": [code[s.name] for s in self.spans],
            "start": [s.start - t0 for s in self.spans],
            "end": [s.end - t0 for s in self.spans],
            "parent": [s.parent for s in self.spans],
            "run": [s.run for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


COUNT_METRICS = (
    "cli.bytes_written",
    "models.build_calls",
    "superop.terms",
    "superop.bytes_computed",
    "steady.solves",
    "steady.flops_computed",
    "steady.rk4_steps",
    "steady.nonunique",
    "steady.worst_residual_rel",
    "steady.worst_min_eig",
    "observables.calls",
    "optimize.evaluations",
    "optimize.evals_to_best",
)
