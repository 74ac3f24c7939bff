"""Reproductions of the headline results: phase-grid concurrence sweeps,
concurrence optimization, thermalization-distance maps with their
driving-strength derivative, and effective-vs-full model validation."""

from __future__ import annotations

import cmath
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .linalg import DensityMatrix, partial_trace
from .models import (
    EffectiveParams,
    MicroParams,
    ModelSpec,
    WEAK_COUPLING_RATIO,
    apply_path,
    build_model,
    derive_effective,
    thermal_pair_spec,
    validate_path,
)
from .observables import (
    ThermalSpec,
    concurrence,
    gibbs_two_qubit,
    population,
    purity,
    thermal_occupation,
    trace_distance,
)
from .optimize import OptimizeReport, multistart_maximize
from .steady import SteadyStateError, SteadyStateReport, evolve_to_steady, steady_state_on
from .superop import assemble

T_VALIDITY_MAX = 0.1  # reservoir temperatures beyond this leave the model's regime
CSV_FORMAT = "%.12g"


class SweepError(RuntimeError):
    """A grid point failed; the message carries its coordinates."""


@dataclass(frozen=True)
class Axis:
    path: str
    grid: tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError(f"axis {self.path!r} has an empty grid")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"axis {self.path!r} grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class ObservableSpec:
    """One column of a sweep: what to compute from the steady state.

    kinds: ``concurrence`` (two sites), ``purity`` (optional site subset),
    ``population`` (one site, one level), ``trace_distance_to_gibbs``
    (two-qubit states only, needs T).
    """

    kind: str
    sites: tuple[int, ...] | None = None
    level: int = 0
    T: float | None = None
    omega: float = 1.0

    def __post_init__(self):
        if self.sites is not None:
            object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        if self.kind == "concurrence":
            if self.sites is None or len(self.sites) != 2:
                raise ValueError("concurrence needs exactly two sites")
        elif self.kind == "population":
            if self.sites is None or len(self.sites) != 1:
                raise ValueError("population needs exactly one site")
        elif self.kind == "trace_distance_to_gibbs":
            if self.T is None:
                raise ValueError("trace_distance_to_gibbs needs a temperature T")
        elif self.kind != "purity":
            raise ValueError(f"unknown observable kind {self.kind!r}")

    @property
    def column(self) -> str:
        if self.kind == "concurrence":
            return f"concurrence_{self.sites[0]}_{self.sites[1]}"
        if self.kind == "population":
            return f"pop_{self.sites[0]}_{self.level}"
        if self.kind == "trace_distance_to_gibbs":
            return "d_gibbs"
        if self.sites is not None:
            return "purity_" + "_".join(str(s) for s in self.sites)
        return "purity"

    def evaluate(self, rho: DensityMatrix) -> float:
        if self.kind == "concurrence":
            return concurrence(partial_trace(rho, self.sites))
        if self.kind == "population":
            return population(partial_trace(rho, self.sites), self.level)
        if self.kind == "trace_distance_to_gibbs":
            return trace_distance(rho, gibbs_two_qubit(ThermalSpec(T=self.T, omega=self.omega)))
        if self.sites is not None:
            return purity(partial_trace(rho, self.sites))
        return purity(rho)


@dataclass(frozen=True)
class SweepPlan:
    model: ModelSpec
    axes: tuple[Axis, ...]
    observables: tuple[ObservableSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "observables", tuple(self.observables))
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        if not self.observables:
            raise ValueError("a sweep needs at least one observable")
        for axis in self.axes:
            validate_path(self.model, axis.path)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a.grid) for a in self.axes)

    @property
    def header(self) -> list[str]:
        return [a.path for a in self.axes] + [o.column for o in self.observables]


@dataclass
class SweepResult:
    header: list[str]
    rows: list[list[float]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(CSV_FORMAT % v for v in row))
        return "\n".join(lines) + "\n"

    def column(self, name: str) -> np.ndarray:
        idx = self.header.index(name)
        return np.array([row[idx] for row in self.rows])


def solve_spec(spec: ModelSpec) -> tuple[SteadyStateReport, DensityMatrix]:
    """Build, assemble and solve one model; returns the report and the state
    tagged with its factor structure. Raises SteadyStateError if the steady
    state is not unique."""
    space, h, terms = build_model(spec)
    report = steady_state_on(assemble(h, terms), space)
    if not report.unique:
        raise SteadyStateError(f"steady state is not unique for this {spec.model} model")
    return report, report.rho


def _grid_points(axes: tuple[Axis, ...]):
    """Row-major Cartesian product of the axis grids."""
    shape = [len(a.grid) for a in axes]
    total = prod(shape)
    for flat in range(total):
        idx = []
        rem = flat
        for n in reversed(shape):
            idx.append(rem % n)
            rem //= n
        idx.reverse()
        yield flat, tuple(axes[k].grid[i] for k, i in enumerate(idx))


def run_sweep(plan: SweepPlan, workers: int = 1) -> SweepResult:
    """Evaluate the plan on the full grid.

    Grid points are independent; with ``workers > 1`` they are evaluated by a
    thread pool, written into a preallocated table by index, so the result is
    identical for any worker count.
    """

    def eval_point(item) -> tuple[int, list[float]]:
        flat, coords = item
        try:
            spec = plan.model
            for axis, value in zip(plan.axes, coords):
                spec = apply_path(spec, axis.path, value)
            _, rho = solve_spec(spec)
            values = [obs.evaluate(rho) for obs in plan.observables]
        except Exception as exc:
            raise SweepError(f"grid point {dict(zip(plan.header, coords))} failed: {exc}") from exc
        row = list(coords) + values
        if not all(np.isfinite(v) for v in row):
            raise SweepError(f"non-finite output at grid point {dict(zip(plan.header, coords))}")
        return flat, row

    points = list(_grid_points(plan.axes))
    rows: list[list[float] | None] = [None] * len(points)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for flat, row in pool.map(eval_point, points):
                rows[flat] = row
    else:
        for item in points:
            flat, row = eval_point(item)
            rows[flat] = row
    return SweepResult(header=plan.header, rows=rows)  # type: ignore[arg-type]


def phase_grid(count: int = 41, stop: float = 2 * np.pi) -> tuple[float, ...]:
    return tuple(np.linspace(0.0, stop, count))


def phase_sweep_plan(model: ModelSpec, paths: tuple[str, str] = ("x[0].phase", "x[2].phase"),
                     count: int = 41, sites: tuple[int, int] | None = None) -> SweepPlan:
    """The standard two-phase concurrence sweep for either figure model."""
    if sites is None:
        sites = (1, 2) if model.model == "ring3_eff" else (0, 1)
    grid = phase_grid(count)
    return SweepPlan(
        model=model,
        axes=(Axis(paths[0], grid), Axis(paths[1], grid)),
        observables=(ObservableSpec("concurrence", sites=sites),),
    )


def optimize_concurrence(
    model: ModelSpec,
    free: list[str | tuple[str, ...]],
    bounds: list[tuple[float, float]],
    budget: int = 2000,
    sites: tuple[int, int] | None = None,
) -> OptimizeReport:
    """Maximize steady-state concurrence over the given parameter paths.

    Each entry of ``free`` is a path or a tuple of paths receiving one shared
    value (to express constraints such as equal drive magnitudes).
    """
    if len(free) != len(bounds):
        raise ValueError("need one bounds pair per free parameter")
    groups: list[tuple[str, ...]] = [(g,) if isinstance(g, str) else tuple(g) for g in free]
    for group in groups:
        for path in group:
            validate_path(model, path)
    if sites is None:
        sites = (1, 2) if model.model == "ring3_eff" else (0, 1)
    obs = ObservableSpec("concurrence", sites=sites)

    def objective(x: np.ndarray) -> float:
        spec = model
        for group, value in zip(groups, x):
            for path in group:
                spec = apply_path(spec, path, float(value))
        _, rho = solve_spec(spec)
        return obs.evaluate(rho)

    names = ["|".join(g) for g in groups]
    report = multistart_maximize(objective, bounds, budget=budget, param_names=names)
    # re-evaluation must reproduce the reported best
    check = objective(np.array([report.best_params[n] for n in names]))
    if abs(check - report.best_value) > 1e-10:
        raise RuntimeError(f"optimizer bookkeeping error: {check} != {report.best_value}")
    return report


def smooth3(values: np.ndarray) -> np.ndarray:
    """3-point moving average with the endpoints kept."""
    out = np.asarray(values, dtype=float).copy()
    if len(out) >= 3:
        out[1:-1] = (out[:-2] + out[1:-1] + out[2:]) / 3.0
    return out


def count_interior_maxima(values: np.ndarray, smooth: bool = True) -> int:
    """Strict local maxima away from the edges, optionally after smoothing."""
    v = smooth3(values) if smooth else np.asarray(values, dtype=float)
    return int(sum(1 for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]))


def central_difference(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Derivative on a (possibly nonuniform) grid: central interior, one-sided edges."""
    values = np.asarray(values, dtype=float)
    coords = np.asarray(coords, dtype=float)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (coords[2:] - coords[:-2])
    out[0] = (values[1] - values[0]) / (coords[1] - coords[0])
    out[-1] = (values[-1] - values[-2]) / (coords[-1] - coords[-2])
    return out


def signed_x_grid(x_max: float = 10.0, count: int = 101) -> tuple[float, ...]:
    """Default driving-strength grid for the thermalization map.

    Symmetric about zero: the distance is even in the drive amplitude, and the
    two ridges of |∂d/∂x| sit at ±x*. (A nonnegative grid shows a single
    interior peak.)
    """
    return tuple(np.linspace(-x_max, x_max, count))


def thermal_map(
    x_grid,
    t_grid,
    y: float = 15.0,
    z: float = 1.01,
) -> SweepResult:
    """Distance-to-thermal map d(x, T) with its |∂d/∂x| companion column.

    Columns: x, T_R, d, abs_dd_dx, t_in_range. Rows are row-major in (x, T).
    The drive magnitude is |x|, so the map is even in x by construction.
    Temperatures above 0.1 (units of the polariton quantum) are outside the
    model's validity; they are computed anyway and flagged.
    """
    xs = tuple(float(v) for v in x_grid)
    ts = tuple(float(v) for v in t_grid)
    if not xs or not ts:
        raise ValueError("x_grid and t_grid must be nonempty")
    if any(b <= a for a, b in zip(xs, xs[1:])) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("grids must be strictly increasing")
    out_of_range = [t for t in ts if t > T_VALIDITY_MAX]
    if out_of_range:
        warnings.warn(
            f"temperatures {out_of_range} exceed the validity bound {T_VALIDITY_MAX}; "
            "rows are flagged in column t_in_range",
            stacklevel=2,
        )
    d = np.empty((len(xs), len(ts)))
    for j, t in enumerate(ts):
        n_p = thermal_occupation(ThermalSpec(T=t))
        gibbs = gibbs_two_qubit(ThermalSpec(T=t))
        for i, x in enumerate(xs):
            spec = thermal_pair_spec(x=abs(x), n_p=n_p, y=y, z=z)
            _, rho = solve_spec(spec)
            d[i, j] = trace_distance(rho, gibbs)
    dd = np.empty_like(d)
    coords = np.array(xs)
    for j in range(len(ts)):
        dd[:, j] = np.abs(central_difference(d[:, j], coords))
    result = SweepResult(header=["x", "T_R", "d", "abs_dd_dx", "t_in_range"])
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            result.rows.append([x, t, d[i, j], dd[i, j], 1.0 if t <= T_VALIDITY_MAX else 0.0])
    return result


def validate_effective(micro: MicroParams) -> float:
    """Trace distance between the polariton marginal of the full model's steady
    state (reached by time evolution) and the eliminated model's steady state.

    Enforces the weak-coupling regime J ≤ 0.1 κ before doing anything. For the
    single-guide pair the thermal model fixes the drive gauge at real x, so the
    marginal is rotated by e^{iθN} (θ = arg x) into that gauge before comparing.
    """
    if max(micro.J) > WEAK_COUPLING_RATIO * micro.kappa:
        raise ValueError(
            f"J/kappa = {max(micro.J) / micro.kappa:.3f} outside the validity regime "
            f"(<= {WEAK_COUPLING_RATIO})"
        )
    space, h, terms = build_model(ModelSpec("micro", micro))
    liouv = assemble(h, terms)
    rho_full = evolve_to_steady(liouv, space)
    marginal = partial_trace(rho_full, range(micro.n_sites))

    eff = derive_effective(micro)
    if micro.geometry == "pair1":
        theta = cmath.phase(eff.x[0])
        gauged = EffectiveParams(
            n_sites=eff.n_sites, Gamma=eff.Gamma, x=(abs(eff.x[0]),), y=eff.y, z=eff.z, n_p=eff.n_p
        )
        eff_spec = ModelSpec("pair_thermal", gauged)
        u = np.diag(np.exp(1j * theta * np.array([0.0, 1.0, 1.0, 2.0])))
        marginal = DensityMatrix(marginal.space, u.conj().T @ marginal.mat @ u)
    else:
        eff_spec = ModelSpec({"ring3": "ring3_eff", "pair3": "pair_eff"}[micro.geometry], eff)
    _, eff_rho = solve_spec(eff_spec)
    return trace_distance(marginal, eff_rho)


def fwhm(coords: np.ndarray, values: np.ndarray) -> float:
    """Full width at half maximum of the (single) peak of a sampled curve,
    with linear interpolation at the half-crossings."""
    coords = np.asarray(coords, dtype=float)
    values = np.asarray(values, dtype=float)
    half = values.max() / 2.0
    peak = int(np.argmax(values))
    lo = peak
    while lo > 0 and values[lo - 1] >= half:
        lo -= 1
    hi = peak
    while hi < len(values) - 1 and values[hi + 1] >= half:
        hi += 1
    if lo == 0:
        left = coords[0]
    else:
        frac = (half - values[lo - 1]) / (values[lo] - values[lo - 1])
        left = coords[lo - 1] + frac * (coords[lo] - coords[lo - 1])
    if hi == len(values) - 1:
        right = coords[-1]
    else:
        frac = (values[hi] - half) / (values[hi] - values[hi + 1])
        right = coords[hi] + frac * (coords[hi + 1] - coords[hi])
    return float(right - left)


def cross_section_concurrence(model: ModelSpec, count: int = 161,
                              sites: tuple[int, int] | None = None,
                              sweep_path: str = "x[0].phase",
                              fixed_path: str = "x[2].phase",
                              fixed_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence along one phase at the other held fixed (default φ₃ = 0)."""
    if sites is None:
        sites = (1, 2) if model.model == "ring3_eff" else (0, 1)
    obs = ObservableSpec("concurrence", sites=sites)
    phis = np.linspace(0.0, 2 * np.pi, count)
    base = apply_path(model, fixed_path, fixed_value)
    values = np.empty_like(phis)
    for i, phi in enumerate(phis):
        _, rho = solve_spec(apply_path(base, sweep_path, phi))
        values[i] = obs.evaluate(rho)
    return phis, values
