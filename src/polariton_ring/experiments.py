"""Reproductions of the headline results: phase-grid concurrence sweeps,
concurrence optimization, thermalization-distance maps with their
driving-strength derivative, and effective-vs-full model validation."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import DensityMatrix, HilbertSpace, partial_trace
from .models import (
    EFFECTIVE_MODELS,
    MicroParams,
    ModelSpec,
    PathSetter,
    WEAK_COUPLING_RATIO,
    build_model,
    check_grid_points,
    coefficients,
    derive_effective,
    model_pieces,
    model_space,
    thermal_pair_spec,
)
from .observables import (
    concurrence,
    gibbs_two_qubit,
    population,
    purity,
    thermal_occupation,
    trace_distance,
)
from .optimize import OptimizeReport, check_box, drive, multistart_maximize
from .steady import (
    SteadyStateError,
    SteadyStateReport,
    evolve_to_steady,  # unused here: bench/tracing.py wraps experiments.evolve_to_steady by name
    steady_state_on,
    steady_state_restricted,
    trace_zero_system,
)
from .superop import Superoperator, assemble

T_VALIDITY_MAX = 0.1  # reservoir temperatures beyond this leave the model's regime
CSV_FORMAT = "%.12g"


class SweepError(RuntimeError):
    """A grid point or an optimizer point failed; the message names it."""


@dataclass(frozen=True)
class Axis:
    path: str
    grid: tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError(f"axis {self.path!r} has an empty grid")
        if not all(np.isfinite(grid)):
            raise ValueError(f"axis {self.path!r} grid values must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"axis {self.path!r} grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class ObservableSpec:
    """One column of a sweep: what to compute from the steady state.

    kinds: ``concurrence`` (two sites), ``purity`` (optional site subset),
    ``population`` (one site, one level, 0 when not given),
    ``trace_distance_to_gibbs`` (two-qubit states only, the whole state,
    needs a temperature T in units of the polariton quantum and takes no
    sites; its Gibbs state is built here, once). A level on any kind but
    population, or a T on any kind but trace_distance_to_gibbs, is rejected.
    """

    kind: str
    sites: tuple[int, ...] | None = None
    level: int | None = None
    T: float | None = None
    gibbs: DensityMatrix | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.sites is not None:
            object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        if self.kind == "concurrence":
            if self.sites is None or len(self.sites) != 2:
                raise ValueError("concurrence needs exactly two sites")
        elif self.kind == "population":
            if self.sites is None or len(self.sites) != 1:
                raise ValueError("population needs exactly one site")
            if self.level is None:
                object.__setattr__(self, "level", 0)
        elif self.kind == "trace_distance_to_gibbs":
            if self.T is None:
                raise ValueError("trace_distance_to_gibbs needs a temperature T")
            if self.sites is not None:
                raise ValueError("trace_distance_to_gibbs takes no sites: it compares the whole two-qubit state")
            object.__setattr__(self, "gibbs", gibbs_two_qubit(self.T))
        elif self.kind != "purity":
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.level is not None and self.kind != "population":
            raise ValueError(f"{self.kind} takes no level: only population does")
        if self.T is not None and self.kind != "trace_distance_to_gibbs":
            raise ValueError(f"{self.kind} takes no temperature T: only trace_distance_to_gibbs does")

    def check_space(self, space: HilbertSpace) -> None:
        """Raise ValueError unless this observable applies to states on ``space``."""
        dims = space.factor_dims
        if self.sites is not None:
            if len(set(self.sites)) != len(self.sites):
                raise ValueError(f"{self.kind} sites {list(self.sites)} must be distinct")
            if not all(0 <= s < len(dims) for s in self.sites):
                raise ValueError(f"{self.kind} sites {list(self.sites)} out of range for {len(dims)} factors")
        if self.kind == "concurrence" and any(dims[s] != 2 for s in self.sites):
            raise ValueError(f"concurrence needs two qubit factors, sites {list(self.sites)} have dims {dims}")
        if self.kind == "population" and not 0 <= self.level < dims[self.sites[0]]:
            raise ValueError(f"population level {self.level} out of range for a factor of dimension "
                             f"{dims[self.sites[0]]}")
        if self.kind == "trace_distance_to_gibbs" and dims != (2, 2):
            raise ValueError(f"trace_distance_to_gibbs needs a two-qubit model, got factors {dims}")

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

    def evaluate(self, rho: DensityMatrix) -> float | np.ndarray:
        """The column's value: a float for one state, an array with one value
        per state for a stack."""
        if self.kind == "concurrence":
            return concurrence(partial_trace(rho, self.sites))
        if self.kind == "population":
            return population(partial_trace(rho, self.sites), self.level)
        if self.kind == "trace_distance_to_gibbs":
            return trace_distance(rho, self.gibbs)
        if self.sites is not None:
            return purity(partial_trace(rho, self.sites))
        return purity(rho)


def _check_values(model: ModelSpec, paths: tuple[str, ...], values, where: str) -> None:
    """Raise ValueError naming ``{'path': value}`` unless each value, set on all
    ``paths`` at ``model``, is in the model's domain. Every domain is per entry
    and an interval, so this finds each bad point of a grid or of a box."""
    specs = PathSetter(model, paths).specs([(value,) * len(paths) for value in values])
    name = "|".join(paths)
    for value in values:
        try:
            next(specs)
        except ValueError as exc:
            raise ValueError(f"{where} {{{name!r}: {value}}}: {exc}") from exc


def _check_distinct(paths: list[str], owner: str) -> None:
    repeated = sorted({path for path in paths if paths.count(path) > 1})
    if repeated:
        raise ValueError(f"{owner} {repeated} more than once: each path takes one value")


@dataclass(frozen=True)
class SweepPlan:
    """A model, the axes of its grid and the columns to observe. A grid over
    GRID_POINT_BUDGET, a path on two axes or an axis value outside the model's
    domain (checked once, at the base model) raises ValueError before the compile."""

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
        check_grid_points(math.prod(self.shape), "sweep grid")
        _check_distinct([axis.path for axis in self.axes], "axes name")
        for axis in self.axes:
            _check_values(self.model, (axis.path,), axis.grid, "grid value")
        space = model_space(self.model)
        for obs in self.observables:
            obs.check_space(space)

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


def _unique(report: SteadyStateReport, model: str) -> tuple[SteadyStateReport, DensityMatrix]:
    if not report.unique:
        raise SteadyStateError(f"steady state is not unique for this {model} model")
    return report, report.rho


def solve_spec(spec: ModelSpec) -> tuple[SteadyStateReport, DensityMatrix]:
    """Build, assemble and solve one model; returns the report and the state
    tagged with its factor structure. Raises SteadyStateError if the steady
    state is not unique."""
    space, h, terms = build_model(spec)
    return _unique(steady_state_on(assemble(h, terms), space), spec.model)


# Largest entry of the compiled (M, r) minus the trace-zero system of the
# assembled L, relative to max(‖L‖_∞, 1), that the compile's self-check accepts.
COMPILE_TOL = 1e-12
# Largest entry of compiled ρ minus the reference ρ at the base point that
# the self-check accepts.
COMPILE_RHO_TOL = 1e-12


class CompileError(RuntimeError):
    """A compiled model disagrees with the assembled one at its base point:
    a fault of the program, not of the run's configuration."""


class CompiledModel:
    """One effective model as L(θ) = Σ_k c_k(θ)·L_k, for the points of one call.

    Each piece of :func:`models.model_pieces` is assembled once (which checks
    its trace) and kept only as its trace-zero system (M_k, r_k) of
    :func:`steady.trace_zero_system` (which checks its hermiticity), in two
    read-only stacks. A stack of points is then two contractions of their
    coefficient rows, for M and r, and :func:`steady_state_restricted`: per
    point, one LU of M solves and certifies. Only a singular M, or a bound
    that does not certify, has its point's L formed, by the one builder
    ``assemble(*build_model(spec)[1:])``, and handed alone to the unchanged
    :func:`steady_state_on`, so that such a point is solved as
    :func:`solve_spec` solves it.

    The compile checks itself at ``base``: the contracted (M, r) must match
    :func:`trace_zero_system` of ``assemble(*build_model(base)[1:])`` to
    COMPILE_TOL, and, where ``steady_state_on`` finds a unique steady state on
    that assembled L, the compiled solve must reproduce its ρ to
    COMPILE_RHO_TOL; otherwise it raises CompileError.
    """

    def __init__(self, base: ModelSpec):
        pieces = model_pieces(base.model)
        self.model = base.model
        self.space = pieces.space
        d = self.space.dim
        zero_h = np.zeros((d, d), dtype=complex)
        sources = [(h, []) for h in pieces.hams] + [(zero_h, list(g)) for g in pieces.groups]
        n = d * d
        self._m_stack = np.empty((len(sources), (n - 1) ** 2))
        self._r_stack = np.empty((len(sources), n - 1))
        # one piece at a time, so that the K dense pieces are never all held at once
        for k, (h, terms) in enumerate(sources):
            m, self._r_stack[k] = trace_zero_system(assemble(h, terms))
            self._m_stack[k] = m.T.ravel()  # so that a contraction is M in Fortran order, as LAPACK takes it
        for a in (self._m_stack, self._r_stack):
            a.setflags(write=False)
        self._check(base)

    def _check(self, base: ModelSpec) -> None:
        expected = assemble(*build_model(base)[1:])
        want_m, want_r = trace_zero_system(expected)
        c = coefficients(base)[None]
        (m,), (r,) = self.system(c)
        error = max(float(np.abs(m - want_m).max()), float(np.abs(r - want_r).max()))
        if error > COMPILE_TOL * max(expected.norm_inf(), 1.0):
            raise CompileError(f"compiled {base.model} trace-zero system (M, r) differs from the assembled "
                               f"one's by {error:.2e}")
        try:
            reference = steady_state_on(expected, self.space)
        except SteadyStateError:
            return  # no steady state to compare; the point's own solve reports why
        if not reference.unique:
            return
        try:
            rho = self.solve(c, lambda k: base).rho.mat[0]
        except SteadyStateError as exc:
            raise CompileError(f"compiled {base.model} solve fails where the assembled one succeeds: {exc}") from exc
        error = float(np.abs(rho - reference.rho.mat).max())
        if error > COMPILE_RHO_TOL:
            raise CompileError(f"compiled {base.model} steady state differs from the assembled one by {error:.2e}")

    def system(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The trace-zero systems (M, r) at the (B, K) coefficient rows ``c``:
        one matmul each, whose rows are the same BLAS call whatever the stack,
        so that a point's M and r do not depend on the points beside it. A
        point whose coefficients are not finite gets a non-finite M, without a
        numpy warning: its solve falls back and names it."""
        c = c[:, None, :]
        n = self.space.dim**2
        with np.errstate(over="ignore", invalid="ignore"):
            m, r = c @ self._m_stack, c @ self._r_stack
        return m.reshape(len(c), n - 1, n - 1).swapaxes(1, 2), r[:, 0]

    def solve(self, c: np.ndarray, point: Callable[[int], ModelSpec]) -> SteadyStateReport:
        """The unique steady states at the (B, K) coefficient rows ``c``, as
        one report over the stack. ``point(k)`` is the ModelSpec of row k,
        asked only where row k's L must be formed: for a point that falls back
        to :func:`steady_state_on`, or a residual above RESIDUAL_TOL. Raises
        SteadyStateError if a point that falls back has no unique steady
        state."""

        def liouvillian(k: int) -> Superoperator:
            return assemble(*build_model(point(k))[1:])

        def fallback(l: Superoperator) -> SteadyStateReport:
            return _unique(steady_state_on(l, self.space), self.model)[0]

        m, r = self.system(c)
        return steady_state_restricted(self.space, m, r, liouvillian, fallback)


# Points of a sweep evaluated together, in row order; 64 keeps a chunk's
# stacks small (the ring's M stack is 2 MB).
CHUNK = 64


def point_evaluator(base: ModelSpec, groups, observables, label: str):
    """The rows (values, then observables) of a chunk of points of one sweep
    or optimizer call near ``base``: one value per group of paths, taken by
    every path of the group. Paths are parsed once (:class:`models.PathSetter`).
    An effective model is compiled once, and a chunk goes from its values to
    its coefficient rows (:meth:`models.PathSetter.rows`) and is solved as one
    stack; only a point whose L must be formed (a fallback) builds its
    ModelSpec. ``micro`` builds one per point and is solved point by point by
    :func:`solve_spec`. Observables see the chunk's states as one stack. One
    failure rule: if anything fails in a chunk, or a row is not finite, the
    chunk is evaluated again point by point, and the first failing point
    raises SweepError naming it as ``label {group: value, ...}``."""
    names = ["|".join(g) for g in groups]
    setter = PathSetter(base, [path for group in groups for path in group])
    column = [g for g, group in enumerate(groups) for _ in group]  # each path's value column
    if base.model in EFFECTIVE_MODELS:
        compiled = CompiledModel(base)

        def states(values: np.ndarray) -> DensityMatrix:
            return compiled.solve(setter.rows(values), lambda k: setter(values[k])).rho
    else:
        space = model_space(base)

        def states(values: np.ndarray) -> DensityMatrix:
            return DensityMatrix(space, np.array([solve_spec(spec)[1].mat for spec in setter.specs(values)]))

    def rows(points) -> list[list[float]]:
        points = np.asarray(points, dtype=float)
        rho = states(points[:, column])
        out = np.empty((len(points), len(groups) + len(observables)))
        out[:, :len(groups)] = points
        for j, obs in enumerate(observables, len(groups)):
            out[:, j] = obs.evaluate(rho)
        if not np.isfinite(out).all():
            raise FloatingPointError(f"non-finite output {out[~np.isfinite(out).all(axis=1)][0].tolist()}")
        return out.tolist()

    def one(point) -> list[float]:
        try:
            return rows([point])[0]
        except Exception as exc:
            raise SweepError(f"{label} {dict(zip(names, map(float, point)))} failed: {exc}") from exc

    def evaluate(points) -> list[list[float]]:
        if len(points) == 1:
            return [one(points[0])]
        try:
            return rows(points)
        except Exception:
            return [one(point) for point in points]

    return evaluate


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Evaluate the plan on the full grid.

    The model is compiled once for the whole grid, and the grid is walked in
    row order, one chunk of CHUNK points after another.
    """
    evaluate = point_evaluator(plan.model, [(a.path,) for a in plan.axes], plan.observables, "grid point")
    points = itertools.product(*(a.grid for a in plan.axes))
    chunks = iter(lambda: list(itertools.islice(points, CHUNK)), [])
    return SweepResult(header=plan.header, rows=[row for chunk in chunks for row in evaluate(chunk)])


def optimize_concurrence(
    model: ModelSpec,
    free: list[str | tuple[str, ...]],
    bounds: list[tuple[float, float]],
    budget: int = 2000,
    sites: tuple[int, int] | None = None,
) -> OptimizeReport:
    """Maximize steady-state concurrence over the given parameter paths.

    Each entry of ``free`` is a path or a tuple of paths receiving one shared
    value (to express constraints such as equal drive magnitudes); a path may
    appear only once across all groups. The box and the budget
    (:func:`optimize.check_box`) and both ends of each bound, at ``model``,
    are checked before anything is compiled, and Nelder-Mead keeps its points
    inside the box. The model is compiled once for all evaluations. The
    Nelder-Mead starts run in lockstep (:func:`optimize.multistart_maximize`):
    each round is one chunk of up to 9 points, one per live start, so the
    report is the one the starts would give run one after another.
    """
    if len(free) != len(bounds):
        raise ValueError("need one bounds pair per free parameter")
    groups: list[tuple[str, ...]] = [(g,) if isinstance(g, str) else tuple(g) for g in free]
    if not groups or not all(groups):
        raise ValueError("free must name at least one parameter, and each group at least one path")
    _check_distinct([path for group in groups for path in group], "free names")
    check_box(bounds, budget)
    for k, (group, bound) in enumerate(zip(groups, bounds)):
        _check_values(model, group, bound, f"bounds[{k}] endpoint")
    if sites is None:
        sites = (1, 2) if model.model == "ring3_eff" else (0, 1)
    obs = ObservableSpec("concurrence", sites=sites)
    obs.check_space(model_space(model))
    evaluate = point_evaluator(model, groups, (obs,), "parameters")

    def objective(points) -> list[float]:
        return [row[-1] for row in evaluate(points)]

    names = ["|".join(g) for g in groups]
    report = drive(multistart_maximize(bounds, budget=budget, param_names=names), objective)
    # re-evaluation must reproduce the reported best
    check = objective([[report.best_params[n] for n in names]])[0]
    if abs(check - report.best_value) > 1e-10:
        raise RuntimeError(f"optimizer bookkeeping error: {check} != {report.best_value}")
    return report


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


def thermal_map(x_grid, t_grid, y: float = 15.0, z: float = 1.01) -> SweepResult:
    """Distance-to-thermal map d(x, T) with its |∂d/∂x| companion column.

    Columns: x, T_R, d, abs_dd_dx, t_in_range. Rows are row-major in (x, T).
    Each temperature is one :func:`run_sweep` of the pair_thermal model at
    n_p = n(T) over ``x[0].re``, observing the distance to the Gibbs state at
    T; every plan is built before the first solve. The sign of x is a gauge
    (e^{iπN}), so the map is even in x. Temperatures above 0.1 (units of the
    polariton quantum) are outside the model's validity; they are computed
    anyway and flagged.
    """
    xs = Axis("x_grid", x_grid).grid
    ts = Axis("t_grid", t_grid).grid
    check_grid_points(len(xs) * len(ts), "thermal map")
    out_of_range = [t for t in ts if t > T_VALIDITY_MAX]
    if out_of_range:
        warnings.warn(
            f"temperatures {out_of_range} exceed the validity bound {T_VALIDITY_MAX}; "
            "rows are flagged in column t_in_range",
            stacklevel=2,
        )
    plans = [(t, SweepPlan(model=thermal_pair_spec(x=0.0, n_p=thermal_occupation(t), y=y, z=z),
                           axes=(Axis("x[0].re", xs),),
                           observables=(ObservableSpec("trace_distance_to_gibbs", T=t),))) for t in ts]
    columns = []
    for t, plan in plans:
        try:
            columns.append(run_sweep(plan).column("d_gibbs"))
        except SweepError as exc:
            raise SweepError(f"T_R = {t}: {exc}") from exc
    d = np.column_stack(columns)
    dd = np.abs(np.column_stack([central_difference(col, xs) for col in columns]))
    rows = [[x, t, d[i, j], dd[i, j], float(t <= T_VALIDITY_MAX)]
            for i, x in enumerate(xs) for j, t in enumerate(ts)]
    return SweepResult(header=["x", "T_R", "d", "abs_dd_dx", "t_in_range"], rows=rows)


def validate_effective(micro: MicroParams) -> float:
    """Trace distance between the polariton marginal of the full model's steady
    state and the eliminated model's steady state, both from :func:`solve_spec`.

    Enforces the weak-coupling regime J ≤ 0.1 κ and cold guides (n_c = 0: the
    elimination has no thermal-guide form) before doing anything. The
    eliminated model is derived and solved first, since it is cheap and is
    where a parameter without an effective form fails (ValueError, or
    ZeroDivisionError for a zero J).
    """
    if micro.n_c > 0:
        raise ValueError(f"n_c = {micro.n_c}: the eliminated models have no thermal guides, so validate needs n_c = 0")
    if max(micro.J) > WEAK_COUPLING_RATIO * micro.kappa:
        raise ValueError(
            f"J/kappa = {max(micro.J) / micro.kappa:.3f} outside the validity regime "
            f"(<= {WEAK_COUPLING_RATIO})"
        )
    model = {"ring3": "ring3_eff", "pair3": "pair_eff", "pair1": "pair_thermal"}[micro.geometry]
    _, eff_rho = solve_spec(ModelSpec(model, derive_effective(micro)))
    _, rho_full = solve_spec(ModelSpec("micro", micro))
    return trace_distance(partial_trace(rho_full, range(micro.n_sites)), eff_rho)
