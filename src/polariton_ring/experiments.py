"""Reproductions of the headline results: phase-grid concurrence sweeps,
concurrence optimization, thermalization-distance maps with their
driving-strength derivative, and effective-vs-full model validation."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .linalg import DensityMatrix, HilbertSpace, partial_trace
from .models import (
    EFFECTIVE,
    MicroParams,
    ModelSpec,
    PathSetter,
    WEAK_COUPLING_RATIO,
    build_model,
    check_coefficients,
    check_distinct,
    check_grid_points,
    coefficients,
    derive_effective,
    model_pieces,
    model_space,
    thermal_pair_spec,
)
from .observables import (
    check_temperature,
    concurrence,
    gibbs_state,
    population,
    purity,
    thermal_occupation,
    trace_distance,
)
from .optimize import OptimizeReport, check_box, drive, multistart_maximize
from .steady import (
    SteadyStateError,
    SteadyStateReport,
    _certified_unique,
    _dense_system,
    evolve_to_steady,  # unused here: bench/tracing.py wraps experiments.evolve_to_steady by name
    generator_system,
    lstsq_state,
    steady_state_of,
    steady_state_on,
    steady_state_restricted,
)
from .superop import assemble

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

    kinds: ``concurrence`` (two sites), ``purity`` (a nonempty site subset,
    or none for the whole state), ``population`` (one site, one level, 0
    when not given),
    ``trace_distance_to_gibbs`` (all-qubit states only, the whole state
    against the Gibbs state on as many qubits; needs a temperature T in
    units of the polariton quantum and takes no sites). A level on any kind
    but population, or a T on any kind but trace_distance_to_gibbs, is
    rejected.
    """

    kind: str
    sites: tuple[int, ...] | None = None
    level: int | None = None
    T: float | None = None

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
                raise ValueError("trace_distance_to_gibbs takes no sites: it compares the whole state")
            check_temperature(self.T)
        elif self.kind != "purity":
            raise ValueError(f"unknown observable kind {self.kind!r}")
        elif self.sites == ():
            raise ValueError("purity sites must not be empty: omit sites for the whole state")
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
        if self.kind == "trace_distance_to_gibbs" and set(dims) != {2}:
            raise ValueError(f"trace_distance_to_gibbs needs an all-qubit model, got factors {dims}")

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
            return trace_distance(rho, gibbs_state(self.T, rho.space.n_factors))
        return purity(rho if self.sites is None else partial_trace(rho, self.sites))


def _check_values(model: ModelSpec, paths: tuple[str, ...], values, where: str) -> None:
    """Raise ValueError naming ``{'path': value}`` unless each of the ascending
    ``values``, set on all ``paths`` at ``model``, is in the model's domain.
    Every domain a path reaches is an interval in its value (each entry's
    domain is one: Gamma > 0, z >= 1, n_p >= 0, and so on), so the values are
    in it when their two ends are. Only when an end is not are the values
    scanned in order, so that the error names the first bad one of a grid or
    of a box."""
    setter = PathSetter(model, paths)
    name = "|".join(paths)

    def scan(values) -> None:
        specs = setter.specs([(value,) * len(paths) for value in values])
        for value in values:
            try:
                next(specs)
            except ValueError as exc:
                raise ValueError(f"{where} {{{name!r}: {value}}}: {exc}") from exc

    try:
        scan(tuple(values)[::max(len(values) - 1, 1)])  # the first and the last
    except ValueError:
        scan(values)


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
        check_distinct([axis.path for axis in self.axes], "axes name")
        check_distinct([obs.column for obs in self.observables], "observable columns")
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
        template = ",".join([CSV_FORMAT] * len(self.header))
        return "\n".join([",".join(self.header)] + [template % tuple(row) for row in self.rows]) + "\n"

    def column(self, name: str) -> np.ndarray:
        idx = self.header.index(name)
        return np.array([row[idx] for row in self.rows])


def solve_spec(spec: ModelSpec) -> tuple[SteadyStateReport, DensityMatrix]:
    """Build one model and solve it from the nonzeros of its generator
    (:func:`steady.steady_state_of`: no dense Liouvillian is formed); returns
    the report and the state tagged with its factor structure. Raises
    SteadyStateError if the steady state is not unique."""
    space, h, terms = build_model(spec)
    report = steady_state_of(h, terms, space)
    if not report.unique:
        raise SteadyStateError(f"steady state is not unique for this {spec.model} model")
    return report, report.rho


# Largest entry of the compiled (M, r) minus the trace-zero system of the
# assembled L, relative to max(‖L‖_∞, 1), that the compile's self-check accepts.
COMPILE_TOL = 1e-12
# Largest entry of compiled ρ minus the reference ρ at the base point that
# the self-check accepts, unless ε·bound, the first-order forward error of a
# solve at its uniqueness bound, is larger.
COMPILE_RHO_TOL = 1e-12


class CompileError(RuntimeError):
    """A compiled model disagrees with the assembled one at its base point:
    a fault of the program, not of the run's configuration."""


@cache
def piece_systems(model: str) -> tuple[np.ndarray, np.ndarray]:
    """The trace-zero systems (M_k, r_k) of :func:`steady.trace_zero_system`
    of each piece of :func:`models.model_pieces` of an effective model, as
    two read-only stacks: row k of the first is M_k in Fortran order, as
    LAPACK takes it, and row k of the second is r_k. Each piece's system is
    built from the entries of its (h, terms) by :func:`steady.generator_system`
    (which checks its trace), so no piece's dense L is formed. The stacks
    depend on the model alone (its parameters enter only through the
    coefficient rows), so they are built once per process and model: about
    0.6 MB for the three effective models."""
    pieces = model_pieces(model)
    d = pieces.space.dim
    zero_h = np.zeros((d, d), dtype=complex)
    sources = [(h, []) for h in pieces.hams] + [(zero_h, list(g)) for g in pieces.groups]
    n = d * d
    m_stack = np.empty((len(sources), (n - 1) ** 2))
    r_stack = np.empty((len(sources), n - 1))
    for k, (h, terms) in enumerate(sources):
        m, r_stack[k], _ = generator_system(h, terms)
        m_stack[k] = m.T.ravel()
    for a in (m_stack, r_stack):
        a.setflags(write=False)
    return m_stack, r_stack


class CompiledModel:
    """One effective model as L(θ) = Σ_k c_k(θ)·L_k, for the points of one call.

    Its pieces are kept only as their trace-zero systems (M_k, r_k), in the
    two read-only stacks of :func:`piece_systems`. A stack of points is then
    two contractions of their coefficient rows, for M and r, and
    :func:`steady_state_restricted`: per point, one LU of M solves and
    certifies, and one SVD of M decides where the bound does not certify, the
    rule of :func:`steady_state_on`. No point builds a ModelSpec; a point's L
    is assembled from its row only for the scale of a residual above
    RESIDUAL_TOL.

    The compile checks itself at ``base``: the contracted (M, r) must match
    the trace-zero system of
    ``assemble(*build_model(base)[1:])`` to COMPILE_TOL; the compiled solve
    must succeed where ``steady_state_on`` finds a unique steady state on that
    assembled L; and where the compiled bound certifies, its ρ must match, to
    max(COMPILE_RHO_TOL, ε·bound) (ε the float64 machine epsilon), the
    reference that shares neither the restriction nor the LU:
    :func:`steady.lstsq_state`, least squares on the unrestricted system,
    from the L_r that the (M, r) check forms. Otherwise it raises
    CompileError. This is the only least-squares solve left, one per compile.
    """

    def __init__(self, base: ModelSpec):
        self.model = base.model
        self.space = model_pieces(base.model).space
        self._m_stack, self._r_stack = piece_systems(base.model)
        self._check(base)

    def _check(self, base: ModelSpec) -> None:
        expected = assemble(*build_model(base)[1:])
        lr, want_m, want_r, scale = _dense_system(expected)
        c = coefficients(base)[None]
        (m,), (r,) = self.system(c)
        error = max(float(np.abs(m - want_m).max()), float(np.abs(r - want_r).max()))
        if error > COMPILE_TOL * max(scale, 1.0):
            raise CompileError(f"compiled {base.model} trace-zero system (M, r) differs from the assembled "
                               f"one's by {error:.2e}")
        try:
            assembled = steady_state_on(expected, self.space)
        except SteadyStateError:
            return  # no steady state to compare; the point's own solve reports why
        if not assembled.unique:
            return
        try:
            report = self.solve(c)
        except SteadyStateError as exc:
            raise CompileError(f"compiled {base.model} solve fails where the assembled one succeeds: {exc}") from exc
        if not _certified_unique(report.uniqueness_bound[0]):
            return  # M is too ill-conditioned for its state to be compared
        try:
            reference = lstsq_state(lr, want_m, want_r, scale)
        except SteadyStateError:
            return  # the reference fails its own checks: nothing to compare
        error = float(np.abs(report.rho.mat[0] - reference).max())
        if error > max(COMPILE_RHO_TOL, np.finfo(float).eps * report.uniqueness_bound[0]):
            raise CompileError(f"compiled {base.model} steady state differs from the assembled one by {error:.2e}")

    def system(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The trace-zero systems (M, r) at the (B, K) coefficient rows ``c``:
        one matmul each, whose rows are the same BLAS call whatever the stack,
        so that a point's M and r do not depend on the points beside it. A
        product that overflows leaves a non-finite M, without a numpy warning."""
        c = c[:, None, :]
        n = self.space.dim**2
        with np.errstate(over="ignore", invalid="ignore"):
            m, r = c @ self._m_stack, c @ self._r_stack
        return m.reshape(len(c), n - 1, n - 1).swapaxes(1, 2), r[:, 0]

    def solve(self, c: np.ndarray) -> SteadyStateReport:
        """The unique steady states at the (B, K) coefficient rows ``c``, as
        one report over the stack. Raises FloatingPointError, before any
        solve, if a row is not finite (:func:`models.check_coefficients`), and
        SteadyStateError if a point has no unique steady state. Row k's L is
        assembled, from its pieces, only for the scale ‖L‖_∞ of a residual
        above RESIDUAL_TOL; it is the L of :func:`models.build_model` at that
        point, since each row equals its ``coefficients`` bit for bit."""
        check_coefficients(c, self.model)
        pieces = model_pieces(self.model)
        m, r = self.system(c)
        report = steady_state_restricted(self.space, m, r, lambda k: assemble(*pieces.build(c[k])[1:]).norm_inf())
        if not report.unique.all():
            raise SteadyStateError(f"steady state is not unique for this {self.model} model")
        return report


# Points of a sweep evaluated together, in row order. 256 pays a chunk's fixed
# cost (stacked eigvalsh, positivity proof, observables, rows) 4x less often than
# 64, and larger chunks gained nothing; the ring's M stack is then 8 MB.
CHUNK = 256


def point_evaluator(base: ModelSpec, groups, observables, label: str):
    """The rows (values, then observables) of a chunk of points of one sweep
    or optimizer call near ``base``: one value per group of paths, taken by
    every path of the group. Paths are parsed once (:class:`models.PathSetter`).
    An effective model is compiled once, and a chunk goes from its values to
    its coefficient rows (:meth:`models.PathSetter.rows`) and is solved as one
    stack, without a ModelSpec. ``micro`` builds one per point and is solved
    point by point by :func:`solve_spec`. Observables see the chunk's states as one stack. One
    failure rule: if anything fails in a chunk, or a row is not finite, the
    chunk is evaluated again point by point, and the first failing point
    raises SweepError naming it as ``label {group: value, ...}``."""
    names = ["|".join(g) for g in groups]
    setter = PathSetter(base, [path for group in groups for path in group])
    column = [g for g, group in enumerate(groups) for _ in group]  # each path's value column
    if base.model in EFFECTIVE:
        compiled = CompiledModel(base)

        def states(values: np.ndarray) -> DensityMatrix:
            return compiled.solve(setter.rows(values)).rho
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
    check_distinct([path for group in groups for path in group], "free names")
    check_box(bounds, budget)
    for k, (group, bound) in enumerate(zip(groups, bounds)):
        _check_values(model, group, bound, f"bounds[{k}] endpoint")
    if sites is None:
        sites = EFFECTIVE[model.model].concurrence_sites if model.model in EFFECTIVE else (0, 1)
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


def signed_x_grid() -> tuple[float, ...]:
    """Default driving-strength grid for the thermalization map: 101 points
    from −10 to 10.

    Symmetric about zero: the distance is even in the drive amplitude, and the
    two ridges of |∂d/∂x| sit at ±x*. (A nonnegative grid shows a single
    interior peak.)
    """
    return tuple(np.linspace(-10.0, 10.0, 101))


def thermal_map(x_grid, t_grid, y: float = 15.0, z: float = 1.01) -> SweepResult:
    """Distance-to-thermal map d(x, T) with its |∂d/∂x| companion column.

    Columns: x, T_R, d, abs_dd_dx, t_in_range. Rows are row-major in (x, T).
    The x grid needs at least two points, for the derivative.
    Each temperature is one :func:`run_sweep` of the pair_thermal model at
    n_p = n(T) over ``x[0].re``, observing the distance to the Gibbs state at
    T; every plan is built before the first solve, and each sweep's compile
    checks itself at its own base. The sign of x is a gauge
    (e^{iπN}), so the map is even in x. Temperatures above 0.1 (units of the
    polariton quantum) are outside the model's validity; they are computed
    anyway and flagged.
    """
    xs = Axis("x_grid", x_grid).grid
    ts = Axis("t_grid", t_grid).grid
    if len(xs) < 2:
        raise ValueError(f"x_grid has {len(xs)} point; the derivative abs_dd_dx needs at least two")
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


def check_validity_regime(n_c: float, J: tuple[float, ...], kappa: float) -> None:
    """Raise ValueError unless the eliminated models are meant to describe a
    full model with guide occupation ``n_c``, couplings ``J`` and guide decay
    ``kappa``: cold guides (n_c = 0: the elimination has no thermal-guide
    form) and the weak-coupling regime J ≤ 0.1 κ. It takes the fields, not a
    MicroParams, so that a caller can check them before building one."""
    if n_c > 0:
        raise ValueError(f"n_c = {n_c}: the eliminated models have no thermal guides, so validate needs n_c = 0")
    if max(J) > WEAK_COUPLING_RATIO * kappa:
        raise ValueError(f"J/kappa = {max(J) / kappa:.3f} outside the validity regime (<= {WEAK_COUPLING_RATIO})")


def validate_effective(micro: MicroParams) -> float:
    """Trace distance between the polariton marginal of the full model's steady
    state and the eliminated model's steady state, both from :func:`solve_spec`.

    Runs :func:`check_validity_regime` before doing anything. The eliminated
    model is derived and solved first, since it is cheap and is where a
    parameter without an effective form fails (ValueError, ZeroDivisionError
    for a zero J, or FloatingPointError where the form overflows).
    """
    check_validity_regime(micro.n_c, micro.J, micro.kappa)
    _, eff_rho = solve_spec(ModelSpec(micro.geometry.model, derive_effective(micro)))
    _, rho_full = solve_spec(ModelSpec("micro", micro))
    return trace_distance(partial_trace(rho_full, range(micro.n_sites)), eff_rho)
