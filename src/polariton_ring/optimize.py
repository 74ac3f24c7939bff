"""Derivative-free maximization: Nelder-Mead polished from a deterministic
multi-start (bound-box corners plus center)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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


def nelder_mead(
    func: Callable[[np.ndarray], float],
    x0: np.ndarray,
    bounds: Bounds,
    budget: int,
):
    """Minimize ``func`` inside a box, spending at most ``budget`` evaluations.

    Standard reflection/expansion/contraction/shrink moves; points are clipped
    to the box before evaluation. Returns (x_best, f_best, evals_used).
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    x0 = _clip(np.asarray(x0, dtype=float), lo, hi)
    n = len(x0)
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return func(_clip(x, lo, hi))

    fx0 = f(x0)
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
        simplex.append((x, f(x)))
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
        fr = f(xr)
        if best[1] <= fr < simplex[-2][1]:
            simplex[-1] = (xr, fr)
            continue
        if fr < best[1]:
            if evals >= budget:
                simplex[-1] = (xr, fr)
                break
            xe = _clip(centroid + gamma * (xr - centroid), lo, hi)
            fe = f(xe)
            simplex[-1] = (xe, fe) if fe < fr else (xr, fr)
            continue
        if evals >= budget:
            break
        xc = _clip(centroid + beta * (worst[0] - centroid), lo, hi)
        fc = f(xc)
        if fc < worst[1]:
            simplex[-1] = (xc, fc)
            continue
        x_best = simplex[0][0]
        new_simplex = [simplex[0]]
        for x, _ in simplex[1:]:
            if evals >= budget:
                break
            xs = x_best + delta * (x - x_best)
            new_simplex.append((xs, f(xs)))
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


def multistart_maximize(
    func: Callable[[np.ndarray], float],
    bounds: Bounds,
    budget: int = 2000,
    param_names: Sequence[str] | None = None,
) -> OptimizeReport:
    """Maximize ``func`` over a box: Nelder-Mead from each corner start.

    Deterministic given the function; the improvements trace records every
    new best as (params, value).
    """
    check_box(bounds, budget)
    names = list(param_names) if param_names is not None else [f"p{i}" for i in range(len(bounds))]
    starts = corner_starts(bounds)
    trace: list[tuple[dict[str, float], float]] = []
    best_x, best_val = None, -np.inf
    used = 0

    def neg(x):
        return -func(x)

    per_start = max(1, budget // len(starts))
    for start in starts:
        if used >= budget:
            break
        x, fneg, ev = nelder_mead(neg, start, bounds, min(per_start, budget - used))
        used += ev
        if -fneg > best_val:
            best_x, best_val = x, -fneg
            trace.append(({n: float(v) for n, v in zip(names, x)}, best_val))
    assert best_x is not None
    return OptimizeReport(
        best_params={n: float(v) for n, v in zip(names, best_x)},
        best_value=float(best_val),
        evaluations=used,
        trace=trace,
    )
