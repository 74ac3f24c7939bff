"""The benchmark's workloads: which CLI calls make up each one, how the seed
changes their inputs, how many operations each call attempts, and the
physics checks its outputs must pass.

An input adds one common offset to every drive phase. With the middle drive
at zero that is a gauge symmetry (a global rotation e^{iθN}), so every
headline number stays the same while the inputs change. The seed picks
``PASS_INPUTS`` offsets, and the passes of a run cycle through them; the
first input of seed 0 is the shipped configs exactly. The thermal map has no
drive phase, so its inputs are the same for every seed.

A run cycles through several inputs because the work is not the same on
each: the rounding of the offset steers the Nelder-Mead search, and the
fig3 optimization takes 600 to 850 evaluations depending on it. A median over
passes on several inputs repeats from seed to seed; one input per run does
not.
"""

from __future__ import annotations

import cmath
import copy
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN = 0.6180339887498949

# Headline values and tolerances, as tests/test_acceptance.py pins them.
REFERENCE = {
    "ring_max": 0.417,        # fig3 concurrence_1_2 maximum at phi1 - phi3 = pi
    "ring_max_tol": 0.01,
    "ring_ground_min": 0.95,  # pop_0_0 of the mediator cavity on those cells
    "pair_max": 0.470,        # fig5 concurrence_0_1 maximum at phi1 - phi3 = pi
    "pair_max_tol": 0.01,
    "ridges": 2,              # interior maxima of |dd/dx| per temperature
    "ridge_x": 2.0,           # ... sitting at x = +-2
    "t_valid_max": 0.1,
    "t_spread_max": 0.02,
    "d_undriven_max": 0.05,
    "best_lo": 0.39,          # fig3 optimizer best_value range
    "best_hi": 0.44,
    "micro_d_max": 0.05,      # trace distance at the largest J/kappa
    "halving_gain": 2.0,      # d(J/2) <= d(J) / halving_gain
}


PASS_INPUTS = 8


def phase_offset(seed: int, index: int) -> float:
    """Drive-phase offset of input ``index`` of ``seed``: a golden-ratio
    sequence, 0.0 for input 0 of seed 0."""
    return ((seed * PASS_INPUTS + index) * GOLDEN) % 1.0 * 2.0 * math.pi


def seeded_config(cfg: dict, theta: float) -> dict:
    """Copy of a CLI config with every drive phase shifted by ``theta``."""
    out = copy.deepcopy(cfg)
    for key in ("model", "micro"):
        model = out.get(key)
        if not model:
            continue
        if "x" in model:
            rotated = [complex(re, im) * cmath.exp(1j * theta) for re, im in model["x"]]
            model["x"] = [[z.real, z.imag] for z in rotated]
        if "phi" in model:
            model["phi"] = [p + theta for p in model["phi"]]
    for axis in out.get("axes", []):
        if not axis["path"].endswith(".phase"):
            continue
        grid = axis["grid"]
        if isinstance(grid, dict):
            grid["start"] += theta
            grid["stop"] += theta
        else:
            axis["grid"] = [v + theta for v in grid]
    return out


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, k] for k, name in enumerate(rows[0])}


def _grid_count(grid) -> int:
    return int(grid["count"]) if isinstance(grid, dict) else len(grid)


def _wrapped_distance_to_pi(delta: np.ndarray) -> np.ndarray:
    return np.abs(np.abs((delta + np.pi) % (2 * np.pi) - np.pi) - np.pi)


def _phase_map_failures(cols: dict[str, np.ndarray], column: str, target: float, tol: float) -> list[str]:
    """Maximum on the phi1 - phi3 = pi cells at target +- tol, and every
    global maximum within one grid cell of that line."""
    c = cols[column]
    delta = cols["x[0].phase"] - cols["x[2].phase"]
    on_pi = _wrapped_distance_to_pi(delta) <= 1e-9
    if not on_pi.any():
        return ["no grid cell at phi1 - phi3 = pi"]
    failures = []
    top_pi = c[on_pi].max()
    if abs(top_pi - target) > tol:
        failures.append(f"max {column} on the pi line {top_pi:.4f}, want {target}+-{tol}")
    cell = np.diff(np.unique(cols["x[0].phase"])).max()
    at_max = c >= c.max() - 1e-9
    if (_wrapped_distance_to_pi(delta[at_max]) > cell + 1e-12).any():
        failures.append(f"a maximum of {column} lies off the pi line")
    return failures


def check_ring_sweep(csv_path: Path, summary: dict, ref: dict) -> list[str]:
    cols = read_csv(csv_path)
    failures = _phase_map_failures(cols, "concurrence_1_2", ref["ring_max"], ref["ring_max_tol"])
    on_pi = _wrapped_distance_to_pi(cols["x[0].phase"] - cols["x[2].phase"]) <= 1e-9
    if on_pi.any() and cols["pop_0_0"][on_pi].min() < ref["ring_ground_min"]:
        failures.append(f"pop_0_0 {cols['pop_0_0'][on_pi].min():.4f} < {ref['ring_ground_min']} on the pi line")
    return failures


def check_pair_sweep(csv_path: Path, summary: dict, ref: dict) -> list[str]:
    return _phase_map_failures(read_csv(csv_path), "concurrence_0_1", ref["pair_max"], ref["pair_max_tol"])


def _interior_maxima(values: np.ndarray) -> list[int]:
    """Strict interior local maxima after a 3-point moving average, the rule
    of the acceptance suite; written out here so that the check does not run
    the code it checks."""
    v = values.copy()
    v[1:-1] = (values[:-2] + values[1:-1] + values[2:]) / 3.0
    return [i for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]


def check_thermal(csv_path: Path, summary: dict, ref: dict) -> list[str]:
    cols = read_csv(csv_path)
    xs = np.unique(cols["x"])
    ts = np.unique(cols["T_R"])
    d = cols["d"].reshape(len(xs), len(ts))
    dd = cols["abs_dd_dx"].reshape(len(xs), len(ts))
    valid = ts <= ref["t_valid_max"]
    step = np.diff(xs).max()
    failures = []
    for j in np.flatnonzero(valid):
        ridges = xs[_interior_maxima(dd[:, j])]
        at_x = np.abs(np.abs(ridges) - ref["ridge_x"]) <= step + 1e-12
        if len(ridges) != ref["ridges"] or not at_x.all() or not ridges.min() < 0 < ridges.max():
            failures.append(f"ridges at x = {ridges.tolist()} for T = {ts[j]}, want +-{ref['ridge_x']}")
    dv = d[:, valid]
    spread = float((dv.max(axis=1) - dv.min(axis=1)).max())
    if spread > ref["t_spread_max"]:
        failures.append(f"temperature spread {spread:.3g} > {ref['t_spread_max']}")
    d0 = float(d[np.argmin(np.abs(xs)), :].max())
    if d0 > ref["d_undriven_max"]:
        failures.append(f"d(x=0) = {d0:.3g} > {ref['d_undriven_max']}")
    return failures


def check_optimize(csv_path: Path, summary: dict, ref: dict) -> list[str]:
    best = summary["best_value"]
    if not ref["best_lo"] <= best <= ref["best_hi"]:
        return [f"best_value {best:.4f} outside [{ref['best_lo']}, {ref['best_hi']}]"]
    return []


def check_validate(csv_path: Path, summary: dict, ref: dict) -> list[str]:
    dist = sorted((float(k), v) for k, v in summary["distances"].items())
    failures = []
    ratio, d_top = dist[-1]
    if d_top > ref["micro_d_max"]:
        failures.append(f"d = {d_top:.3g} at J/kappa = {ratio} > {ref['micro_d_max']}")
    for (r_lo, d_lo), (r_hi, d_hi) in zip(dist, dist[1:]):
        bound = d_hi / ref["halving_gain"] ** math.log2(r_hi / r_lo)
        if d_lo > bound:
            failures.append(f"d({r_lo}) = {d_lo:.3g} above {bound:.3g} (>= {ref['halving_gain']}x per halving)")
    return failures


def sweep_ops(cfg: dict, summary: dict | None) -> int:
    return math.prod(_grid_count(axis["grid"]) for axis in cfg["axes"])


def thermal_ops(cfg: dict, summary: dict | None) -> int:
    return _grid_count(cfg["x_grid"]) * _grid_count(cfg["t_grid"])


def optimize_ops(cfg: dict, summary: dict | None) -> int:
    return summary["evaluations"] if summary else 1


def validate_ops(cfg: dict, summary: dict | None) -> int:
    return len(cfg["j_over_kappa"])


@dataclass(frozen=True)
class Call:
    """One ``polariton-ring <command> --config configs/<config>.json`` call."""

    command: str
    config: str
    ops: Callable[[dict, dict | None], int]
    check: Callable[[Path, dict, dict], list[str]]


# Why each workload is in the benchmark is recorded in BENCHMARK.json and
# bench/README.md.
WORKLOADS: dict[str, tuple[Call, ...]] = {
    "ring_sweep": (Call("sweep", "fig3_sweep", sweep_ops, check_ring_sweep),),
    "pair_maps": (
        Call("sweep", "fig5_sweep", sweep_ops, check_pair_sweep),
        Call("thermal", "thermal_map", thermal_ops, check_thermal),
    ),
    "ring_optimize": (Call("optimize", "fig3_optimize", optimize_ops, check_optimize),),
    "micro_validate": (Call("validate", "validate", validate_ops, check_validate),),
}
