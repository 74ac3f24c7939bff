"""Derivative-free maximization: Nelder-Mead polished from a deterministic
multi-start (bound-box corners plus center). The searches are ask/tell
generators: they yield the points to evaluate and receive their values, so
that the caller evaluates the starts' points together."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence

import numpy as np

Bounds = Sequence[tuple[float, float]]

_STEP_FRAC = 0.1  # initial simplex edge, as a fraction of each box width
_TOL = 1e-9  # relative spread of simplex values at which nelder_mead stops
_MAX_CORNERS = 8  # box corners that corner_starts returns at most


@dataclass
class OptimizeReport:
    best_params: dict[str, float]
    best_value: float
    evaluations: int
    trace: list[tuple[dict[str, float], float]] = field(default_factory=list)


def _clip(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, lo), hi)


def nelder_mead(x0: np.ndarray, bounds: Bounds, budget: int) -> Generator[np.ndarray, float, tuple]:
    """Minimize inside a box, spending at most ``budget`` evaluations.

    A generator: it yields each point to evaluate, clipped to the box, and
    receives that point's value through ``send``. Standard
    reflection/expansion/contraction/shrink moves. Returns
    (x_best, f_best, evals_used) when it stops; :func:`drive` runs it on a
    function.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    x0 = _clip(np.asarray(x0, dtype=float), lo, hi)
    n = len(x0)
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return (yield _clip(x, lo, hi))

    fx0 = yield from f(x0)
    width = hi - lo
    if budget <= 1 or not np.any(width > 0):
        return x0, fx0, evals

    simplex = [(x0, fx0)]
    for i in range(n):
        if width[i] == 0:
            continue
        x = x0.copy()
        step = _STEP_FRAC * width[i]
        x[i] = x[i] + step if x[i] + step <= hi[i] else x[i] - step
        if evals >= budget:
            break
        simplex.append((x, (yield from f(x))))
    if len(simplex) < 2:
        return x0, fx0, evals

    alpha, gamma, beta, delta = 1.0, 2.0, 0.5, 0.5
    while evals < budget:
        simplex.sort(key=lambda p: p[1])
        best, worst = simplex[0], simplex[-1]
        if abs(worst[1] - best[1]) <= _TOL * (abs(best[1]) + _TOL):
            break
        centroid = np.mean([p[0] for p in simplex[:-1]], axis=0)

        xr = _clip(centroid + alpha * (centroid - worst[0]), lo, hi)
        fr = yield from f(xr)
        if best[1] <= fr < simplex[-2][1]:
            simplex[-1] = (xr, fr)
            continue
        if fr < best[1]:
            if evals >= budget:
                simplex[-1] = (xr, fr)
                break
            xe = _clip(centroid + gamma * (xr - centroid), lo, hi)
            fe = yield from f(xe)
            simplex[-1] = (xe, fe) if fe < fr else (xr, fr)
            continue
        if evals >= budget:
            break
        xc = _clip(centroid + beta * (worst[0] - centroid), lo, hi)
        fc = yield from f(xc)
        if fc < worst[1]:
            simplex[-1] = (xc, fc)
            continue
        x_best = simplex[0][0]
        new_simplex = [simplex[0]]
        for x, _ in simplex[1:]:
            if evals >= budget:
                break
            xs = x_best + delta * (x - x_best)
            new_simplex.append((xs, (yield from f(xs))))
        simplex = new_simplex
        if len(simplex) < 2:
            break

    simplex.sort(key=lambda p: p[1])
    return simplex[0][0], simplex[0][1], evals


def corner_starts(bounds: Bounds) -> list[np.ndarray]:
    """Deterministic multi-start points: box corners (all-low and all-high
    first, then binary-counting patterns, capped) plus the center."""
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    n = len(bounds)
    patterns: list[int] = [0, (1 << n) - 1]
    code = 1
    while len(patterns) < min(_MAX_CORNERS, 1 << n):
        if code not in patterns:
            patterns.append(code)
        code += 1
    starts = []
    for pat in patterns[: min(_MAX_CORNERS, 1 << n)]:
        corner = np.array([hi[i] if (pat >> i) & 1 else lo[i] for i in range(n)])
        starts.append(corner)
    starts.append((lo + hi) / 2)
    return starts


def check_box(bounds: Bounds, budget: int) -> None:
    """Raise ValueError unless every bound is a finite [lo, hi] with lo <= hi
    and the budget allows at least one evaluation."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    for k, (lo, hi) in enumerate(bounds):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"bounds[{k}] = [{lo}, {hi}] must be finite")
        if lo > hi:
            raise ValueError(f"bounds[{k}] = [{lo}, {hi}] has lower bound above upper bound")


def at_bound(params: dict[str, float], bounds: Bounds) -> dict[str, str | None]:
    """Per parameter, in ``bounds`` order, the end of its bound it sits on:
    "lo", "hi" or None inside the box ("lo" for a collapsed bound). The
    search clips its points to the box, so a parameter on a bound equals
    that bound exactly."""
    return {name: "lo" if value == lo else "hi" if value == hi else None
            for (name, value), (lo, hi) in zip(params.items(), bounds, strict=True)}


def multistart_maximize(
    bounds: Bounds,
    budget: int,
    param_names: Sequence[str] | None = None,
) -> Generator[list[np.ndarray], list[float], OptimizeReport]:
    """Maximize over a box: Nelder-Mead from each corner start, the starts in
    lockstep.

    The box and the budget are checked here, at the call (:func:`check_box`).
    Each start gets ``max(1, budget // len(starts))`` evaluations, so a start
    never depends on another, and when the budget is below the number of
    starts only the first ``budget`` starts run, one evaluation each. The
    returned generator yields the pending points, one per live start in start
    order, and receives their values as a list through ``send``; it returns
    the :class:`OptimizeReport` (:func:`drive` runs it on a batch function).
    The report is built in start order: the first start with the strictly
    largest value is the best, and the improvements trace records every new
    best as (params, value). Deterministic given the function.
    """
    check_box(bounds, budget)
    names = list(param_names) if param_names is not None else [f"p{i}" for i in range(len(bounds))]
    starts = corner_starts(bounds)
    per_start = max(1, budget // len(starts))
    return _lockstep([nelder_mead(start, bounds, per_start) for start in starts[:budget]], names)


def _lockstep(searches: list, names: list[str]):
    """The generator that :func:`multistart_maximize` returns."""
    pending = dict(enumerate(next(search) for search in searches))  # live start -> its point, in start order
    results: list = [None] * len(searches)
    while pending:
        values = yield list(pending.values())
        for i, value in zip(list(pending), values, strict=True):
            try:
                pending[i] = searches[i].send(-value)  # Nelder-Mead minimizes
            except StopIteration as stop:
                del pending[i]
                results[i] = stop.value

    trace: list[tuple[dict[str, float], float]] = []
    best_x, best_val = None, -np.inf
    for x, fneg, _ in results:
        if -fneg > best_val:
            best_x, best_val = x, -fneg
            trace.append(({n: float(v) for n, v in zip(names, x)}, best_val))
    assert best_x is not None
    return OptimizeReport(
        best_params={n: float(v) for n, v in zip(names, best_x)},
        best_value=float(best_val),
        evaluations=sum(evals for _, _, evals in results),
        trace=trace,
    )


def drive(search: Generator, evaluate: Callable):
    """Run an ask/tell generator to its end, answering each yielded request
    with ``evaluate(request)``; returns what the generator returns. Drives
    :func:`multistart_maximize` on a batch function, or :func:`nelder_mead`
    on a scalar one."""
    answer = None
    while True:
        try:
            request = search.send(answer)
        except StopIteration as stop:
            return stop.value
        answer = evaluate(request)
