import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    apply_path,
    bundled_models,
    count_interior_maxima,
    fwhm,
    phase_sweep_plan,
    smooth3,
    system_oracle,
    three_guide_pair_micro,
)
from polariton_ring import experiments, steady, superop
from polariton_ring.experiments import (
    Axis,
    CHUNK,
    CompiledModel,
    CompileError,
    ObservableSpec,
    SweepError,
    SweepPlan,
    central_difference,
    optimize_concurrence,
    point_evaluator,
    run_sweep,
    signed_x_grid,
    solve_spec,
    thermal_map,
    validate_effective,
)
from polariton_ring.linalg import DensityMatrix, partial_trace
from polariton_ring.models import (
    EFFECTIVE,
    ROWS,
    EffectiveParams,
    MicroParams,
    ModelSpec,
    PathSetter,
    build_model,
    coefficients,
    derive_effective,
    fig3_ring_spec,
    fig5_pair_spec,
    model_pieces,
    model_spec_from_json,
    model_spec_to_json,
    model_space,
    thermal_pair_spec,
    validation_micro_spec,
)
from polariton_ring.observables import concurrence, thermal_occupation, trace_distance
from polariton_ring.steady import UNIQUENESS_TOL, SteadyStateError, evolve_to_steady
from polariton_ring.superop import assemble, vec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def coefficient_rows(specs):
    """The (B, K) coefficient rows of the points ``specs``."""
    return np.array([coefficients(spec) for spec in specs])


def solve_points(compiled, specs):
    """``compiled.solve`` at the points ``specs``, each given as its ModelSpec."""
    return compiled.solve(coefficient_rows(specs))


def small_pair_plan(count=3):
    grid = tuple(np.linspace(0.0, 2 * np.pi, count))
    return SweepPlan(
        model=fig5_pair_spec(),
        axes=(Axis("x[0].phase", grid), Axis("x[2].phase", grid)),
        observables=(
            ObservableSpec("concurrence", sites=(0, 1)),
            ObservableSpec("purity"),
            ObservableSpec("population", sites=(0,), level=0),
        ),
    )


def test_single_point_sweep_equals_solve():
    plan = SweepPlan(
        model=fig5_pair_spec(),
        axes=(Axis("x[0].phase", (np.pi,)),),
        observables=(ObservableSpec("concurrence", sites=(0, 1)),),
    )
    result = run_sweep(plan)
    assert len(result.rows) == 1
    spec = apply_path(fig5_pair_spec(), "x[0].phase", np.pi)
    _, rho = solve_spec(spec)
    # both routes take ρ from an LU of (M, r): the sweep's M is contracted from
    # the compiled pieces, solve_spec's is built from the generator's nonzeros
    # (the assembled L's to the bit), and the two states differ by 6e-16 in
    # their last bits
    assert np.abs(solve_points(CompiledModel(spec), [spec]).rho.mat[0] - rho.mat).max() <= 5e-15
    # here ρ has an eigenvalue 4e-9, and the concurrence moves by 3.6e-14 with
    # those bits (2.7e-14 when solve_spec used gelsy): 1e-13 keeps a margin of
    # 2.8; only bit-identical routes agree to 1e-14
    assert result.rows[0][1] == pytest.approx(concurrence(rho), abs=1e-13)


def test_sweep_shape_and_header():
    plan = small_pair_plan()
    result = run_sweep(plan)
    assert result.header == ["x[0].phase", "x[2].phase", "concurrence_0_1", "purity", "pop_0_0"]
    assert len(result.rows) == 9


def test_sweep_deterministic_across_runs():
    plan = small_pair_plan()
    assert run_sweep(plan).to_csv() == run_sweep(plan).to_csv()


def test_ring_sweep_deterministic_across_runs():
    plan = phase_sweep_plan(fig3_ring_spec(), count=4)
    assert run_sweep(plan).to_csv() == run_sweep(plan).to_csv()


def test_sweep_csv_format():
    plan = SweepPlan(
        model=fig5_pair_spec(),
        axes=(Axis("x[0].phase", (0.0, np.pi)),),
        observables=(ObservableSpec("concurrence", sites=(0, 1)),),
    )
    csv = run_sweep(plan).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "x[0].phase,concurrence_0_1"
    assert len(lines) == 3
    # 12 significant digits
    assert "3.14159265359" in lines[2]


def test_csv_rows_match_the_per_cell_format():
    # one row template gives the bytes of formatting and joining cell by cell
    rows = [[0, np.nan, np.inf, -np.inf], [-0.0, 1e-300, -1e-300, 2.0 / 3.0], [np.float64(np.pi), 1, -7, 1e300]]
    want = "\n".join(["a,b,c,d"] + [",".join(experiments.CSV_FORMAT % v for v in row) for row in rows]) + "\n"
    assert experiments.SweepResult(["a", "b", "c", "d"], rows).to_csv() == want


def test_phase_periodicity():
    for spec, sites in ((fig5_pair_spec(), (0, 1)), (fig3_ring_spec(), (1, 2))):
        obs = ObservableSpec("concurrence", sites=sites)
        base = apply_path(spec, "x[2].phase", 0.7)
        _, rho1 = solve_spec(apply_path(base, "x[0].phase", 0.9))
        _, rho2 = solve_spec(apply_path(base, "x[0].phase", 0.9 + 2 * np.pi))
        assert abs(obs.evaluate(rho1) - obs.evaluate(rho2)) <= 1e-10


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("x[0].phase", ())
    with pytest.raises(ValueError):
        Axis("x[0].phase", (1.0, 1.0))
    with pytest.raises(ValueError):
        SweepPlan(
            model=fig5_pair_spec(),
            axes=(Axis("bogus[0]", (0.0, 1.0)),),
            observables=(ObservableSpec("purity"),),
        )


def test_observable_spec_validation():
    with pytest.raises(ValueError):
        ObservableSpec("concurrence", sites=(0,))
    with pytest.raises(ValueError):
        ObservableSpec("population", sites=(0, 1))
    with pytest.raises(ValueError):
        ObservableSpec("trace_distance_to_gibbs")
    with pytest.raises(ValueError):
        ObservableSpec("wiggle")
    # a field the kind ignores; a level of 0 counts as given
    assert ObservableSpec("population", sites=(0,)).level == 0
    with pytest.raises(ValueError, match="purity takes no level"):
        ObservableSpec("purity", level=0)
    with pytest.raises(ValueError, match="trace_distance_to_gibbs takes no level"):
        ObservableSpec("trace_distance_to_gibbs", T=0.05, level=0)
    with pytest.raises(ValueError, match="population takes no temperature T"):
        ObservableSpec("population", sites=(0,), T=0.05)


def test_smooth3_and_peak_count():
    flat = np.zeros(9)
    assert count_interior_maxima(flat) == 0
    humps = np.array([0, 1, 2, 1, 0, 1, 3, 1, 0], dtype=float)
    assert count_interior_maxima(humps, smooth=False) == 2
    assert count_interior_maxima(humps) == 2
    sm = smooth3(np.array([0.0, 3.0, 0.0]))
    assert sm[0] == 0.0 and sm[-1] == 0.0 and sm[1] == 1.0


def test_central_difference_linear_exact():
    xs = np.linspace(0, 1, 11)
    vals = 3.0 * xs + 1.0
    dd = central_difference(vals, xs)
    assert np.abs(dd - 3.0).max() <= 1e-12


def test_fwhm_triangle():
    xs = np.linspace(0, 2, 21)
    vals = np.maximum(0.0, 1.0 - np.abs(xs - 1.0))
    assert fwhm(xs, vals) == pytest.approx(1.0, abs=1e-12)


def test_thermal_map_columns_and_flag():
    with pytest.warns(UserWarning, match="validity"):
        result = thermal_map((-1.0, 0.0, 1.0), (0.05, 0.2))
    assert result.header == ["x", "T_R", "d", "abs_dd_dx", "t_in_range"]
    assert len(result.rows) == 6
    flags = result.column("t_in_range")
    assert set(flags.tolist()) == {0.0, 1.0}
    d = result.column("d")
    # even in x: first and last x rows agree at equal T
    assert d[0] == pytest.approx(d[4], abs=1e-12)


def test_thermal_map_derivative_vs_richardson():
    # central difference at step h against the Richardson estimate from h and h/2
    y, z, T = 15.0, 1.01, 0.05
    from polariton_ring.models import thermal_pair_spec
    from polariton_ring.observables import gibbs_state, thermal_occupation, trace_distance

    n_p = thermal_occupation(T)
    gibbs = gibbs_state(T, 2)

    def d(x):
        _, rho = solve_spec(thermal_pair_spec(x=x, n_p=n_p, y=y, z=z))
        return trace_distance(rho, gibbs)

    h = 0.2
    for x0 in (1.0, 2.5, 4.0):
        dh = (d(x0 + h) - d(x0 - h)) / (2 * h)
        dh2 = (d(x0 + h / 2) - d(x0 - h / 2)) / h
        richardson = (4 * dh2 - dh) / 3
        assert dh == pytest.approx(richardson, rel=0.05)


def test_validate_effective_zero_drive():
    # undriven: both sides settle on the ground state (larger gamma keeps the
    # time evolution short)
    p = validation_micro_spec(j_over_kappa=0.1, gamma_p=0.05).params
    from dataclasses import replace

    quiet = replace(p, alpha=(0.0,))
    assert validate_effective(quiet) <= 1e-8


@pytest.mark.parametrize("micro", [validation_micro_spec(j_over_kappa=0.05).params,
                                   validation_micro_spec(j_over_kappa=0.025).params,
                                   three_guide_pair_micro(0.05)], ids=["pair1-0.05", "pair1-0.025", "pair3-0.05"])
def test_validate_effective_matches_propagation_reference(micro):
    # the full model's state by propagation of the same L, against the linear solve
    space, h, terms = build_model(ModelSpec("micro", micro))
    marginal = partial_trace(evolve_to_steady(assemble(h, terms), space), range(micro.n_sites))
    _, eff_rho = solve_spec(ModelSpec(micro.geometry.model, derive_effective(micro)))
    assert validate_effective(micro) == pytest.approx(trace_distance(marginal, eff_rho), abs=1e-9)


def test_validate_effective_regime_guard():
    with pytest.warns(UserWarning):
        p = MicroParams(
            n_sites=2, J=(0.5,), kappa=1.0, gamma_p=0.01, alpha=(0.1,), phi=(0.0,),
            omega_c=(1.0,), omega_p=(1.0, 1.0), omega_d=1.0,
        )
    with pytest.raises(ValueError, match="regime"):
        validate_effective(p)


def test_optimize_concurrence_collapsed_bounds():
    spec = fig5_pair_spec()  # already at the optimum phases
    report = optimize_concurrence(spec, ["x[1].re"], [(0.0, 0.0)], budget=20)
    _, rho = solve_spec(spec)
    assert report.best_value == pytest.approx(concurrence(rho), abs=1e-12)


def test_optimize_concurrence_shared_paths():
    # one free parameter driving both end-guide hoppings of the ring
    spec = fig3_ring_spec()
    base = apply_path(apply_path(spec, "y[0]", 0.0), "y[2]", 0.0)
    report = optimize_concurrence(
        base, [("y[0]", "y[2]")], [(0.0, 15.0)], budget=120, sites=(1, 2)
    )
    assert report.best_value == pytest.approx(0.417, abs=0.01)
    assert report.best_params["y[0]|y[2]"] == pytest.approx(15.0, abs=0.5)


def test_default_concurrence_sites_come_from_the_model_row():
    # the ring's pair of interest is (1, 2), the pairs' (0, 1)
    assert {m: row.concurrence_sites for m, row in EFFECTIVE.items()} == {
        "ring3_eff": (1, 2), "pair_eff": (0, 1), "pair_thermal": (0, 1)}
    for spec in (fig3_ring_spec(), fig5_pair_spec(), thermal_pair_spec(x=1.0)):
        sites = EFFECTIVE[spec.model].concurrence_sites
        report = optimize_concurrence(spec, ["x[0].re"], [(0.0, 1.0)], budget=5)
        assert report == optimize_concurrence(spec, ["x[0].re"], [(0.0, 1.0)], budget=5, sites=sites)


def test_optimize_pair_phases_only():
    # phases free, everything else at the published operating point
    spec = fig5_pair_spec(phi1=0.0, phi3=0.0)
    report = optimize_concurrence(
        spec, ["x[0].phase", "x[2].phase"], [(0.0, 2 * np.pi), (0.0, 2 * np.pi)], budget=2000
    )
    assert report.best_value == pytest.approx(0.470, abs=0.005)
    diff = (report.best_params["x[0].phase"] - report.best_params["x[2].phase"]) % (2 * np.pi)
    assert diff == pytest.approx(np.pi, abs=0.2)


def test_optimize_ring_finds_operating_point():
    # shared drive magnitude, free phases and shared end-guide hopping: the
    # optimizer should land on opposite phases with concurrence >= 0.40
    base = fig3_ring_spec(phi1=0.0, phi3=0.0)
    for p in ("y[0]", "y[1]", "y[2]"):
        base = apply_path(base, p, 0.0)
    report = optimize_concurrence(
        base,
        [("x[0].abs", "x[2].abs"), "x[0].phase", "x[2].phase", ("y[0]", "y[2]")],
        [(0.5, 3.0), (0.0, 2 * np.pi), (0.0, 2 * np.pi), (-15.0, 15.0)],
        budget=3000,
        sites=(1, 2),
    )
    assert report.best_value >= 0.40
    diff = (report.best_params["x[0].phase"] - report.best_params["x[2].phase"]) % (2 * np.pi)
    assert diff == pytest.approx(np.pi, abs=0.2)


def test_three_guide_pair_matches_micro():
    # eliminated three-guide pair vs the full model, both via the linear
    # solve (solver equivalence is covered elsewhere); antisymmetric end drives
    from polariton_ring.models import ModelSpec, build_model, derive_effective
    from polariton_ring.observables import trace_distance
    from polariton_ring.steady import steady_state_on
    from polariton_ring.superop import assemble
    from polariton_ring.linalg import partial_trace

    p = MicroParams(
        n_sites=2, J=(0.1, 0.1, 0.1), kappa=1.0, gamma_p=0.0,
        alpha=(0.05, 0.0, 0.05), phi=(0.0, 0.0, np.pi),
        omega_c=(1.0, 1.0, 1.0), omega_p=(1.0, 1.0), omega_d=1.0, n_boson=2,
    )
    space, h, terms = build_model(ModelSpec("micro", p))
    marg = partial_trace(steady_state_on(assemble(h, terms), space).rho, [0, 1])
    eff_space, eff_h, eff_terms = build_model(ModelSpec("pair_eff", derive_effective(p)))
    eff = steady_state_on(assemble(eff_h, eff_terms), eff_space)
    assert trace_distance(marg, eff.rho) <= 0.05


def test_optimize_concurrence_validates_paths():
    with pytest.raises(ValueError):
        optimize_concurrence(fig5_pair_spec(), ["q[0]"], [(0, 1)], budget=10)
    with pytest.raises(ValueError):
        optimize_concurrence(fig5_pair_spec(), ["x[0].re"], [(0, 1), (0, 1)], budget=10)


def test_sweep_error_carries_coordinates():
    from polariton_ring.models import thermal_pair_spec

    # a z below 1 for the thermal model: the plan rejects that grid point before any solve
    with pytest.raises(ValueError, match="z\\[0\\]': 0.5"):
        SweepPlan(
            model=thermal_pair_spec(x=1.0),
            axes=(Axis("z[0]", (0.5, 2.0)),),
            observables=(ObservableSpec("purity"),),
        )
    # the undriven, uncoupled thermal pair has a dark state: its solve fails at run time
    plan = SweepPlan(
        model=thermal_pair_spec(x=0.0, y=1.0, z=1.0),
        axes=(Axis("y[0]", (0.0, 1.0)),),
        observables=(ObservableSpec("purity"),),
    )
    with pytest.raises(SweepError, match="y\\[0\\]': 0.0.*not unique"):
        run_sweep(plan)


def test_grid_checked_at_base_model_before_compile(monkeypatch):
    def forbidden(base):
        raise AssertionError("compiled before the grid was checked")

    monkeypatch.setattr(experiments, "CompiledModel", forbidden)
    # a check made point by point as the grid is solved would meet z = 0.5 only
    # after the compile; each axis value is checked once, when the plan is made
    with pytest.raises(ValueError, match="grid value \\{'z\\[0\\]': 0.5\\}: all z must be >= 1"):
        run_sweep(SweepPlan(model=thermal_pair_spec(x=1.0),
                            axes=(Axis("x[0].re", tuple(np.linspace(0.0, 3.0, 31))), Axis("z[0]", (0.5, 1.01))),
                            observables=(ObservableSpec("purity"),)))
    with pytest.raises(ValueError, match="bounds\\[0\\] endpoint \\{'Gamma\\[0\\]\\|y\\[0\\]': -1.0\\}"):
        optimize_concurrence(thermal_pair_spec(x=1.0), [("Gamma[0]", "y[0]")], [(-1.0, 2.0)], budget=5)


def per_value_check(spec, paths, values, where="grid value"):
    """The domain check value by value, in order: each value set on all
    ``paths`` builds its ModelSpec. Returns the message naming the first bad
    value, or None."""
    setter = PathSetter(spec, paths)
    for value in values:
        try:
            setter((value,) * len(paths))
        except ValueError as exc:
            return f"{where} {{{'|'.join(paths)!r}: {value}}}: {exc}"
    return None


def ends_check(spec, paths, values, where="grid value"):
    """The package's domain check of a grid: its message, or None."""
    try:
        experiments._check_values(spec, paths, values, where)
    except ValueError as exc:
        return str(exc)
    return None


def micro_on(row):
    """A weakly coupled full model of one geometry row."""
    n = row.n_guides
    return ModelSpec("micro", MicroParams(n_sites=row.n_sites, J=(0.05,) * n, kappa=1.0, gamma_p=0.005,
                                          alpha=(0.025,) * n, phi=(0.0,) * n, omega_c=(1.0,) * n,
                                          omega_p=(1.0,) * row.n_sites, omega_d=1.0, n_boson=2))


def edge_paths(spec):
    """(path, edge, inclusive) of every addressable float path of ``spec``
    whose domain has an edge."""
    if spec.model == "micro":
        n = len(spec.params.J)
        return ([("kappa", 0.0, False), ("gamma_p", 0.0, True), ("n_c", 0.0, True), ("n_p", 0.0, True)]
                + [(f"{name}[{i}]", 0.0, True) for name in ("J", "alpha") for i in range(n)])
    row = EFFECTIVE[spec.model]
    return ([(f"Gamma[{i}]", 0.0, False) for i in range(row.n_guides)]
            + [(f"z[{i}]", 1.0, True) for i, sites in enumerate(row.guide_sites) if len(sites) == 2]
            + [("n_p", 0.0, True)])


GRID_CHECK_SPECS = ([spec for spec in bundled_models().values() if spec.model in EFFECTIVE]
                    + [micro_on(row) for row in ROWS])


def test_grid_check_specs_cover_every_row():
    assert {spec.model for spec in GRID_CHECK_SPECS} == set(EFFECTIVE) | {"micro"}
    assert {spec.params.geometry.name for spec in GRID_CHECK_SPECS if spec.model == "micro"} == {
        row.name for row in ROWS}


@pytest.mark.parametrize("spec", GRID_CHECK_SPECS, ids=[
    spec.model if spec.model in EFFECTIVE else f"micro-{spec.params.geometry.name}" for spec in GRID_CHECK_SPECS])
def test_grid_check_at_the_ends_matches_the_per_value_scan(spec):
    # every domain a path reaches is an interval in its value, so checking a
    # grid at its two ends gives the per-value scan's verdict and message
    paths = edge_paths(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # micro grids leave the weak-driving regime
        for path, edge, inclusive in paths:
            inside = (edge if inclusive else edge + 0.25, edge + 0.5, edge + 2.0)
            crossing = (edge - 1.0, edge - 0.5, edge, edge + 0.5, edge + 2.0)
            for grid in (inside, crossing, crossing[2:], (edge - 1.0,), (edge + 2.0,)):
                assert ends_check(spec, (path,), grid) == per_value_check(spec, (path,), grid), (path, grid)
            assert f"{{{path!r}: {edge - 1.0}}}" in ends_check(spec, (path,), crossing)
            assert ends_check(spec, (path,), inside) is None, path
        # one value on every edge path at once: the domains' intersection, an interval too
        group = tuple(path for path, _, _ in paths)
        for grid in ((-1.0, 0.0, 0.5, 1.0, 2.0), (0.5, 1.0, 2.0), (1.0, 2.0, 3.0)):
            assert ends_check(spec, group, grid, "bounds[0] endpoint") == per_value_check(
                spec, group, grid, "bounds[0] endpoint"), grid


def test_a_grid_inside_the_domain_builds_two_model_specs(monkeypatch):
    model = fig5_pair_spec()
    built = built_params(monkeypatch)
    plan = SweepPlan(model=model, axes=(Axis("Gamma[1]", tuple(np.linspace(1.0, 100.0, 41))),),
                     observables=(ObservableSpec("purity"),))
    assert len(built) == 2 and plan.shape == (41,)


@pytest.mark.parametrize(
    "free, bounds, budget, message",
    [
        (["y[0]", "y[0]"], [(0.0, 1.0), (2.0, 3.0)], 5, "free names \\['y\\[0\\]'\\] more than once"),
        ([("y[0]", "y[0]")], [(0.0, 1.0)], 5, "free names \\['y\\[0\\]'\\] more than once"),
        (["x[0].re"], [(5.0, -5.0)], 5, "lower bound above upper bound"),
        (["x[0].re"], [(0.0, np.inf)], 5, "must be finite"),
        (["x[0].re"], [(0.0, 1.0)], 0, "budget must be at least 1"),
    ],
    ids=["repeated-across-groups", "repeated-in-group", "reversed", "infinite", "budget-0"],
)
def test_optimizer_box_checked_before_compile(monkeypatch, free, bounds, budget, message):
    def forbidden(base):
        raise AssertionError("compiled before the box was checked")

    monkeypatch.setattr(experiments, "CompiledModel", forbidden)
    with pytest.raises(ValueError, match=message):
        optimize_concurrence(thermal_pair_spec(x=1.0), free, bounds, budget=budget)


def test_phase_sweep_plan_defaults():
    plan = phase_sweep_plan(fig3_ring_spec(), count=5)
    assert plan.shape == (5, 5)
    assert plan.observables[0].sites == (1, 2)
    plan2 = phase_sweep_plan(fig5_pair_spec(), count=5)
    assert plan2.observables[0].sites == (0, 1)


def test_signed_x_grid_symmetric():
    grid = signed_x_grid()
    assert len(grid) == 101
    assert grid[0] == -10.0 and grid[-1] == 10.0
    assert min(abs(v) for v in grid) == 0.0


# --- compiled effective models ---------------------------------------------------


def effective_specs():
    """The bundled effective models plus points that switch on every piece:
    a complex middle drive, middle hoppings, and thermal up-pumping."""
    specs = [s for s in bundled_models().values() if s.model != "micro"]
    ring = apply_path(apply_path(fig3_ring_spec(), "x[1].re", 0.3), "x[1].im", -0.7)
    specs.append(apply_path(apply_path(ring, "y[1]", 2.5), "n_p", 0.3))
    pair = apply_path(apply_path(fig5_pair_spec(), "x[1].re", -1.1), "x[1].im", 0.4)
    specs.append(apply_path(apply_path(pair, "y[1]", 3.0), "n_p", 0.3))
    specs.append(thermal_pair_spec(x=1.5, n_p=0.3))
    return specs


_finite = st.floats(-20.0, 20.0, allow_nan=False)
_rate = st.floats(1e-3, 80.0)
_dressing = st.floats(1.0, 12.0)


@st.composite
def drawn_specs(draw):
    model = draw(st.sampled_from(["ring3_eff", "pair_eff", "pair_thermal"]))
    g = EFFECTIVE[model].n_guides
    params = EffectiveParams(
        Gamma=tuple(draw(_rate) for _ in range(g)),
        x=tuple(complex(draw(_finite), draw(_finite)) for _ in range(g)),
        y=tuple(draw(_finite) for _ in range(g)),
        z=tuple(draw(_dressing) for _ in range(g)),
        n_p=draw(st.floats(0.0, 2.0)),
    )
    return ModelSpec(model, params)


_COMPILED = {spec.model: CompiledModel(spec) for spec in effective_specs()}


def test_compile_rejects_corrupted_coefficient_map(monkeypatch):
    # every coefficient is wired to its own piece: corrupting any one of them
    # makes the base-point check fail
    honest = experiments.coefficients
    for spec in effective_specs()[:3]:
        for k in range(len(honest(spec))):

            def corrupted(s, k=k):
                c = honest(s)
                c[k] += 0.5
                return c

            monkeypatch.setattr(experiments, "coefficients", corrupted)
            with pytest.raises(CompileError, match="compiled"):
                CompiledModel(spec)
            monkeypatch.setattr(experiments, "coefficients", honest)


def system_error(compiled, spec):
    _, want_m, want_r = system_oracle(assemble(*build_model(spec)[1:]).mat)
    (m,), (r,) = compiled.system(coefficient_rows([spec]))
    scale = max(np.abs(want_m).max(), np.abs(want_r).max(), 1.0)
    return max(np.abs(m - want_m).max(), np.abs(r - want_r).max()) / scale


def test_compiled_system_matches_restriction_on_bundled_models():
    for spec in effective_specs():
        assert system_error(CompiledModel(spec), spec) <= 1e-13, spec.model


@given(drawn_specs())
def test_compiled_system_matches_restriction_on_drawn_parameters(spec):
    assert system_error(_COMPILED[spec.model], spec) <= 1e-13


# near-dark: ‖M⁻¹‖_F overflows, so the bound is inf, without a numpy warning
@example(ModelSpec("pair_thermal", EffectiveParams(Gamma=(1.0,), x=(0j,), y=(4.0e-125,), z=(1.0,))))
@given(drawn_specs())
def test_compiled_solve_matches_solve_spec_on_drawn_points(spec):
    try:
        _, want = solve_spec(spec)
    except SteadyStateError:
        assume(False)  # not unique: there is no state to compare
    report = solve_points(_COMPILED[spec.model], [spec])
    # above a bound of about 3e5 both routes' own errors reach 1e-12 (the
    # least-squares one's to 6e-11); test_compiled_solve_is_accurate_where_ill_conditioned
    # measures the compiled route there against an exact reference instead
    assume(report.uniqueness_bound[0] < 1e5)
    assert np.abs(report.rho.mat[0] - want.mat).max() <= 1e-12


@given(drawn_specs())
def test_model_json_roundtrip_on_drawn_specs(spec):
    assert model_spec_from_json(json.loads(json.dumps(model_spec_to_json(spec)))) == spec


def exact_steady_state(liouv):
    """ρ of the least-squares solution of [L; trace]·vec ρ = [0; 1] for the
    float entries of L: four float least-squares corrections of residuals
    formed at 60 digits (ρ stops moving after two)."""
    mp = pytest.importorskip("mpmath")
    d, n = liouv.dim, liouv.dim**2
    a = np.vstack([liouv.mat, np.zeros((1, n))])
    a[n, :: d + 1] = 1.0
    b = np.zeros(n + 1, dtype=complex)
    b[n] = 1.0
    c = np.zeros(n, dtype=complex)
    with mp.workdps(60):
        exact_a, exact_b = mp.matrix(a.tolist()), mp.matrix(b.tolist())
        for _ in range(4):
            residual = np.array((exact_b - exact_a * mp.matrix(c.tolist())).tolist(), dtype=complex).ravel()
            c = c + np.linalg.lstsq(a, residual, rcond=None)[0]
    rho = c.reshape(d, d, order="F")
    return 0.5 * (rho + rho.conj().T) / np.trace(rho).real


def ill_conditioned_specs():
    """Pair and ring points at which one or two qubits relax slowly (Γ = 1e-3),
    which puts the uniqueness bound above 1e6."""
    for drive, y1, z2 in ((15, 0, 1.01), (10, 0, 11), (12, -10, 11), (20, 5, 12), (15, -8, 2), (19, 15, 12)):
        yield ModelSpec("pair_eff", EffectiveParams(
            Gamma=(1e-3, 60.0, 1e-3), x=(complex(-drive, 0.0), complex(drive, -7.0), 1.67),
            y=(0.0, float(y1), 0.0), z=(1.0, 1.0, z2),
        ))
    for gamma, drive, y1 in (((1e-3, 60.0, 1e-3), 0, 0), ((1e-3, 60.0, 1e-3), 10, 0), ((1e-3, 60.0, 1e-3), 15, 5),
                             ((60.0, 1e-3, 1e-3), 10, -5), ((1e-3, 1e-3, 60.0), 12, 8)):
        yield ModelSpec("ring3_eff", EffectiveParams(
            Gamma=gamma, x=(complex(-drive, 0.0), complex(drive, -7.0), 1.67),
            y=(0.0, float(y1), 0.0), z=(1.0, 1.0, 1.0),
        ))


def least_squares_state(liouv):
    """The state of :func:`steady.lstsq_state`, gelsy on the unrestricted
    stacked system [L_r; t]: the compile's self-check reference."""
    return steady.lstsq_state(*steady._dense_system(liouv))


def test_compile_holds_at_ill_conditioned_bases():
    # the compiled state and the least-squares reference each stay within 6e-11
    # of the exact state there (test_compiled_solve_is_accurate_where_ill_conditioned),
    # but differ by up to 5.9e-11 at bounds of 1.9e6-1.1e7: the self-check
    # compares them at ε·bound, the first-order forward error, not at 1e-12.
    # Every bound certifies, so every comparison runs
    for spec in ill_conditioned_specs():
        bound = CompiledModel(spec).solve(coefficient_rows([spec])).uniqueness_bound[0]
        assert 1e6 < bound and steady._certified_unique(bound), spec


@pytest.mark.parametrize("spec", [fig5_pair_spec(), next(ill_conditioned_specs())], ids=["fig5", "ill-conditioned"])
def test_compile_rejects_a_state_beyond_its_tolerance(monkeypatch, spec):
    # a reference moved by twice max(COMPILE_RHO_TOL, ε·bound) in one entry
    # fails the compile, at a bound of 473 (tolerance 1e-12) and of 3.0e6 (6.6e-10)
    bound = _COMPILED[spec.model].solve(coefficient_rows([spec])).uniqueness_bound[0]
    shift = 2 * max(experiments.COMPILE_RHO_TOL, np.finfo(float).eps * bound)
    honest = experiments.lstsq_state

    def moved(*args):
        rho = honest(*args).copy()
        rho[0, 0] += shift
        return rho

    monkeypatch.setattr(experiments, "lstsq_state", moved)
    with pytest.raises(CompileError, match="steady state differs"):
        CompiledModel(spec)


def test_compiled_solve_is_accurate_where_ill_conditioned():
    # there the routes differ by more than 1e-12, so each is measured against
    # the exact state: on each model, the compiled route's worst error must not
    # exceed the least-squares reference's, and the single-point route, an LU
    # of the assembled (M, r), stays within 1e-11 as well
    errors = {"pair_eff": [], "ring3_eff": []}
    for spec in ill_conditioned_specs():
        liouv = assemble(*build_model(spec)[1:])
        exact = exact_steady_state(liouv)
        report = solve_points(_COMPILED[spec.model], [spec])
        _, single = solve_spec(spec)
        assert report.uniqueness_bound[0] > 1e6
        errors[spec.model].append([np.abs(rho - exact).max()
                                   for rho in (report.rho.mat[0], least_squares_state(liouv), single.mat)])
    for model, rows in errors.items():
        compiled, least_squares, single = np.max(rows, axis=0)
        assert compiled <= min(least_squares, 1e-11), model
        assert single <= 1e-11, model


def test_validate_states_are_as_accurate_as_least_squares():
    # validate's states come from the LU of (M, r), no longer from gelsy on the
    # stacked system. Against the 60-digit states of configs/validate.json's
    # four models, both routes' states are within 3e-14 (asserted at 1e-13);
    # the LU one is the closer at three of the four and 1.5x farther at the
    # micro model of J/kappa = 0.025 (2.5e-14 against 1.7e-14). The distance
    # that validate reports is within 5e-15 of the exact one, against 1.5e-14
    # for gelsy's.
    errors = []
    for j in (0.05, 0.025):
        micro = validation_micro_spec(j_over_kappa=j).params
        states = []
        for spec in (ModelSpec(micro.geometry.model, derive_effective(micro)), ModelSpec("micro", micro)):
            liouv = assemble(*build_model(spec)[1:])
            exact = exact_steady_state(liouv)
            lu, gelsy = solve_spec(spec)[1].mat, least_squares_state(liouv)
            assert max(np.abs(lu - exact).max(), np.abs(gelsy - exact).max()) <= 1e-13, (j, spec.model)
            states.append([DensityMatrix(model_space(spec), rho) for rho in (exact, lu, gelsy)])
        d_exact, d_lu, d_gelsy = (trace_distance(partial_trace(full, range(micro.n_sites)), eff)
                                  for eff, full in zip(*states))
        errors.append((abs(d_lu - d_exact), abs(d_gelsy - d_exact)))
    lu, least_squares = np.max(errors, axis=0)
    assert lu <= least_squares


def full_support_specs():
    """Points of the three effective models at which no coefficient vanishes."""
    specs = []
    for spec in effective_specs()[3:]:
        if spec.model == "pair_thermal":
            spec = apply_path(spec, "x[0].phase", 0.7)
        else:
            spec = apply_path(apply_path(spec, "x[0].phase", 1.0), "x[2].phase", 0.4)
        assert np.abs(experiments.coefficients(spec)).min() >= 1e-4, spec.model
        specs.append(spec)
    return specs


@pytest.fixture
def fresh_piece_systems():
    """Clear the per-process cache of :func:`experiments.piece_systems` before
    and after a test that corrupts or counts piece builds, so that every build
    in it is seen and no corrupted stack outlives it."""
    experiments.piece_systems.cache_clear()
    yield
    experiments.piece_systems.cache_clear()


def assert_corrupted_pieces_rejected(monkeypatch, spec):
    """A wrong M_k or r_k, for any one piece k whose coefficient c_k is nonzero
    at ``spec``, fails the compile at ``spec``, even one that moves c_k·M_k or
    c_k·r_k by only 1e-8·(random unit entries): that stays below the residual
    check's 1e-8·‖L‖, but not below the (M, r) check's 1e-12·‖L‖. Each
    corruption builds the pieces again, from an empty cache."""
    honest = experiments.generator_system
    rng = np.random.default_rng(5)
    for k, c_k in enumerate(experiments.coefficients(spec)):
        if c_k == 0:
            continue
        for part in (0, 1):
            calls = []

            def corrupted(h, terms, k=k, part=part, calls=calls, delta=1e-8 / c_k):
                system = list(honest(h, terms))
                if len(calls) == k:
                    system[part] = system[part] + delta * rng.normal(size=system[part].shape)
                calls.append(h)
                return tuple(system)

            monkeypatch.setattr(experiments, "generator_system", corrupted)
            experiments.piece_systems.cache_clear()
            with pytest.raises(CompileError, match="trace-zero system"):
                CompiledModel(spec)
            assert len(calls) > k  # the corrupted piece was built
            monkeypatch.setattr(experiments, "generator_system", honest)


def test_compile_rejects_corrupted_trace_zero_piece(monkeypatch, fresh_piece_systems):
    for spec in full_support_specs():
        assert_corrupted_pieces_rejected(monkeypatch, spec)


def test_compile_rejects_corrupted_trace_zero_piece_where_no_unique_steady_state(monkeypatch, fresh_piece_systems):
    # with z = 1 the undriven pair decays only collectively and has a dark
    # state: the base-point ρ check cannot run, the (M, r) check still does
    dark = thermal_pair_spec(x=0.0, y=0.0, z=1.0)
    assert not steady.steady_state_on(assemble(*build_model(dark)[1:]), model_space(dark)).unique
    assert np.any(experiments.coefficients(dark))  # some piece is checked
    assert_corrupted_pieces_rejected(monkeypatch, dark)


def declining_second_certification(monkeypatch):
    """Make the second certification from here on decline its bound; returns
    the list every bound asked about is appended to."""
    certify = steady._certified_unique
    calls = []

    def decline_second(bound):
        calls.append(bound)
        return len(calls) != 2 and certify(bound)

    monkeypatch.setattr(steady, "_certified_unique", decline_second)
    return calls


def test_compiled_solve_decides_uncertified_points_on_their_own_system(monkeypatch):
    seen, decided = [], []
    original, honest_decided = experiments.steady_state_on, steady._decided

    def spy(liouv, space):
        seen.append(liouv)
        return original(liouv, space)

    compiled = CompiledModel(thermal_pair_spec(x=1.0))
    monkeypatch.setattr(experiments, "steady_state_on", spy)
    monkeypatch.setattr(steady, "_decided", lambda *args: decided.append(args) or honest_decided(*args))
    chunk = [thermal_pair_spec(x=x) for x in (0.5, 1.5, 2.5)]
    certified = solve_points(compiled, chunk)
    assert decided == []
    # singular M in the middle of a chunk: with z = 1 the pair decays only
    # collectively and has a dark state, which its own SVD finds not unique
    dark = thermal_pair_spec(x=0.0, y=0.0, z=1.0)
    with pytest.raises(SteadyStateError, match="not unique"):
        solve_points(compiled, [chunk[0], dark, chunk[2]])
    assert len(decided) == 1 and np.array_equal(decided[0][0], compiled.system(coefficient_rows([dark]))[0][0])
    # invertible M whose bound is declined, in the middle of a chunk: the
    # SVD of that point alone finds it unique, and it keeps its LU's state, so
    # the report is the certified one bit for bit, bound included
    calls = declining_second_certification(monkeypatch)
    report = solve_points(compiled, chunk)
    assert len(calls) == 3 and len(decided) == 2 and report.unique.all()
    assert np.array_equal(report.rho.mat, certified.rho.mat)
    for name in ("residual", "min_eigenvalue", "uniqueness_bound"):
        assert np.array_equal(getattr(report, name), getattr(certified, name)), name
    # no point of the compiled route reaches steady_state_on
    assert seen == []


def test_compiled_uncertified_states_equal_certified_ones(monkeypatch):
    # with certification declined at every point of all three effective
    # models, each point is decided by its SVD and keeps its LU's state: the
    # report is the certified one bit for bit, and each state stays within
    # 5e-15 of solve_spec's (test_single_point_sweep_equals_solve)
    for model, compiled in _COMPILED.items():
        chunk = [spec for spec in effective_specs() if spec.model == model]
        chunk += [apply_path(spec, "x[0].phase", 0.9) for spec in chunk]
        certified = solve_points(compiled, chunk)
        with monkeypatch.context() as patch:
            patch.setattr(steady, "_certified_unique", lambda bound: False)
            report = solve_points(compiled, chunk)
        assert np.array_equal(report.rho.mat, certified.rho.mat), model
        for name in ("residual", "min_eigenvalue", "unique", "uniqueness_bound"):
            assert np.array_equal(getattr(report, name), getattr(certified, name)), (model, name)
        for k, spec in enumerate(chunk):
            assert np.abs(report.rho.mat[k] - solve_spec(spec)[1].mat).max() <= 5e-15, model


@pytest.mark.parametrize("spec", [validation_micro_spec(), fig3_ring_spec()], ids=["micro", "ring3_eff"])
def test_solve_spec_forms_no_dense_liouvillian(monkeypatch, spec):
    # (M, r) and ‖L‖_∞ come from the generator's nonzeros, the assembled L's
    # to the bit, so the report is the dense route's, bit for bit
    space, h, terms = build_model(spec)
    want = steady.steady_state_on(assemble(h, terms), space)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_spec formed a dense Liouvillian")

    monkeypatch.setattr(experiments, "assemble", forbidden)
    monkeypatch.setattr(experiments, "steady_state_on", forbidden)
    monkeypatch.setattr(superop.Superoperator, "__post_init__", forbidden)
    report, rho = solve_spec(spec)
    assert np.array_equal(rho.mat, want.rho.mat)
    for name in ("residual", "min_eigenvalue", "unique", "uniqueness_bound"):
        assert getattr(report, name) == getattr(want, name), name


def test_single_point_solve_does_not_depend_on_the_rate_unit():
    # every coefficient of pair_thermal is Γ times one that does not depend on
    # Γ, so its steady state does not either. Least squares on the stacked
    # [L_r; t] lost L's rows against the trace row at Γ = 1e-300 and reported
    # I/4 as the unique state; the LU of (M, r) keeps them
    want = solve_spec(thermal_pair_spec(x=1.0))[1].mat
    report, rho = solve_spec(apply_path(thermal_pair_spec(x=1.0), "Gamma[0]", 1e-300))
    assert report.unique
    assert np.abs(rho.mat - want).max() <= 1e-13


def test_subnormal_rates_fail_as_not_unique():
    # at Γ = 1e-310 the entries of M are subnormal and its SVD finds it not
    # unique; the minimum-norm solution is then no state (an eigenvalue of
    # −8e-4), and the error says "not unique", not "not completely positive"
    with pytest.raises(SteadyStateError, match="not unique") as caught:
        solve_spec(apply_path(thermal_pair_spec(x=1.0), "Gamma[0]", 1e-310))
    assert "completely positive" in str(caught.value.__cause__)
    # a point that is not unique but whose state passes the checks still
    # comes back as a report with unique False: the dark pair
    dark = thermal_pair_spec(x=0.0, y=0.0, z=1.0)
    report = steady.steady_state_on(assemble(*build_model(dark)[1:]), model_space(dark))
    assert not report.unique and np.isfinite(report.rho.mat).all()


def test_least_squares_runs_once_per_compile_as_its_reference(monkeypatch):
    calls, checks = [], []
    honest_lstsq, honest_check = steady.lstsq_solve, CompiledModel._check

    def check(self, base):
        checks.append(base)
        honest_check(self, base)

    monkeypatch.setattr(steady, "lstsq_solve", lambda *args: calls.append(args) or honest_lstsq(*args))
    monkeypatch.setattr(CompiledModel, "_check", check)
    # a single-point solve takes its state from the LU of (M, r)
    solve_spec(fig3_ring_spec())
    assert calls == [] and checks == []
    run_sweep(small_pair_plan())  # one compile
    thermal_map((-1.0, 0.0, 1.0), (0.02, 0.05))  # one compile per temperature
    assert len(checks) == 3 and len(calls) == 3
    # the dark pair: M is singular, and the SVD reports it not unique, with a
    # finite state and no least-squares solve
    dark = thermal_pair_spec(x=0.0, y=0.0, z=1.0)
    report = steady.steady_state_on(assemble(*build_model(dark)[1:]), model_space(dark))
    assert not report.unique and np.isfinite(report.rho.mat).all()
    assert len(calls) == 3


def test_overflowing_drive_fails_without_numpy_warnings():
    # a drive of 1e200 is finite, but ‖M‖_F and the state's trace are not:
    # both routes reject the point as a SteadyStateError, and numpy stays quiet
    spec = apply_path(fig3_ring_spec(), "x[1].re", 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for solve in (solve_spec, lambda s: solve_points(_COMPILED[s.model], [s])):
            with pytest.raises(SteadyStateError, match="steady state is not finite"):
                solve(spec)


@given(drawn_specs())
def test_compiled_residual_is_the_residual_on_the_assembled_liouvillian(spec):
    # the residual on (M, r) is ‖L vec ρ‖: the Hermitian basis is orthonormal
    # and L maps into the trace-zero subspace
    try:
        report = solve_points(_COMPILED[spec.model], [spec])
    except SteadyStateError:
        assume(False)  # not unique: there is no state to compare
    liouv = assemble(*build_model(spec)[1:])
    want = np.linalg.norm(liouv.mat @ vec(report.rho.mat[0]))
    assert abs(report.residual[0] - want) <= 1e-14 * max(liouv.norm_inf(), 1.0)


def test_compiled_solve_forms_no_liouvillian_for_certified_points(monkeypatch):
    calls = []
    honest = experiments.build_model

    def spy(spec):
        calls.append(spec)
        return honest(spec)

    monkeypatch.setattr(experiments, "build_model", spy)
    base = fig3_ring_spec()
    compiled = CompiledModel(base)
    assert calls == [base]  # the base-point check
    chunk = [apply_path(base, "x[0].phase", phi) for phi in np.linspace(0.0, 2 * np.pi, CHUNK)]
    report = solve_points(compiled, chunk)
    assert (report.uniqueness_bound < 1e-2 / UNIQUENESS_TOL).all()
    assert calls == [base]


def built_params(monkeypatch):
    """The list every EffectiveParams built from here on is appended to."""
    built = []
    honest = EffectiveParams.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        honest(self, *args, **kwargs)

    monkeypatch.setattr(EffectiveParams, "__init__", spy)
    return built


def test_compiled_points_build_no_model_spec(monkeypatch):
    # a chunk goes from its values to its coefficient rows: no point builds a
    # ModelSpec, whether its bound certifies or not
    concurrence01 = (ObservableSpec("concurrence", sites=(0, 1)),)
    sweep = point_evaluator(fig5_pair_spec(), [("x[0].phase",), ("x[2].phase",)], concurrence01, "grid point")
    config = json.loads((CONFIGS / "fig3_optimize.json").read_text())
    groups = [(g,) if isinstance(g, str) else tuple(g) for g in config["free"]]
    batch = point_evaluator(model_spec_from_json(config["model"]), groups,
                            (ObservableSpec("concurrence", sites=(1, 2)),), "parameters")
    chunk = list(itertools.product(np.linspace(0.0, 2 * np.pi, 16), repeat=2))  # one full chunk
    starts = np.random.default_rng(2).uniform(-5.0, 5.0, (9, len(groups)))
    built = built_params(monkeypatch)
    certified = sweep(chunk)
    batch(starts)
    assert len(certified) == CHUNK and built == []
    calls = declining_second_certification(monkeypatch)
    rows = sweep(chunk)
    assert len(calls) == CHUNK and built == []
    assert rows == certified


def test_a_compiled_chunk_checks_its_states_once(monkeypatch):
    # a fig5 chunk's states are validated once, as the solver's one stack: the
    # concurrence of sites (0, 1) reduces the pair state to itself
    sweep = point_evaluator(fig5_pair_spec(), [("x[0].phase",), ("x[2].phase",)],
                            (ObservableSpec("concurrence", sites=(0, 1)),), "grid point")
    checked = []
    honest = DensityMatrix.__post_init__

    def spy(self):
        checked.append(np.shape(self.mat))
        honest(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", spy)
    rows = sweep(list(itertools.product(np.linspace(0.0, 2 * np.pi, 16), repeat=2)))
    assert len(rows) == CHUNK
    assert checked == [(CHUNK, 4, 4)]


def test_optimizer_builds_model_specs_only_for_its_bounds(monkeypatch):
    # one per bound endpoint (the domain checks), none per evaluation
    config = json.loads((CONFIGS / "fig3_optimize.json").read_text())
    model = model_spec_from_json(config["model"])
    built = built_params(monkeypatch)
    report = optimize_concurrence(model, config["free"], config["bounds"], budget=60, sites=(1, 2))
    assert len(built) == 2 * len(config["free"]) and report.evaluations > 9  # rounds of up to 9 points


def test_uniqueness_bound_certifies_bundled_models():
    for spec in bundled_models().values():
        report, _ = solve_spec(spec)
        assert 1.0 <= report.uniqueness_bound < 1e-2 / UNIQUENESS_TOL, spec.model
        if spec.model in _COMPILED:
            # compiled at another point, so this is the one-LU route
            compiled = solve_points(_COMPILED[spec.model], [spec])
            assert compiled.uniqueness_bound[0] == pytest.approx(report.uniqueness_bound, rel=1e-9)


def test_run_sweep_matches_per_point_solve():
    grid = tuple(np.linspace(0.0, 2 * np.pi, 4))
    for spec, observables in (
        (fig3_ring_spec(), (ObservableSpec("concurrence", sites=(1, 2)), ObservableSpec("population", sites=(0,)))),
        (fig5_pair_spec(), (ObservableSpec("concurrence", sites=(0, 1)), ObservableSpec("purity"))),
    ):
        plan = SweepPlan(model=spec, axes=(Axis("x[0].phase", grid), Axis("x[1].re", (-0.5, 0.5))),
                         observables=observables)
        result = run_sweep(plan)
        for row in result.rows:
            point = apply_path(apply_path(spec, "x[0].phase", row[0]), "x[1].re", row[1])
            _, rho = solve_spec(point)
            want = [obs.evaluate(rho) for obs in observables]
            assert np.abs(np.array(row[2:]) - want).max() <= 1e-12


def test_thermal_map_matches_per_point_solve():
    from polariton_ring.observables import gibbs_state, thermal_occupation, trace_distance

    result = thermal_map((-2.0, 0.0, 1.5), (0.02, 0.05))
    for x, t, d in zip(result.column("x"), result.column("T_R"), result.column("d")):
        spec = thermal_pair_spec(x=x, n_p=thermal_occupation(t))
        _, rho = solve_spec(spec)
        assert abs(d - trace_distance(rho, gibbs_state(t, 2))) <= 1e-12


def test_piece_systems_are_built_once_per_model_and_every_compile_checks_itself(monkeypatch, fresh_piece_systems):
    built, checked = [], []
    honest_system, honest_check = experiments.generator_system, CompiledModel._check

    def system(h, terms):
        built.append(h)
        return honest_system(h, terms)

    def check(self, base):
        checked.append((base.model, base.params.n_p))
        honest_check(self, base)

    monkeypatch.setattr(experiments, "generator_system", system)
    monkeypatch.setattr(CompiledModel, "_check", check)
    ts = (0.02, 0.05, 0.08)
    run_sweep(small_pair_plan())
    run_sweep(small_pair_plan())
    thermal_map((-1.0, 0.0, 2.0), ts)
    # one trace-zero system per piece of each model, once per process
    pieces = [model_pieces(model) for model in ("pair_eff", "pair_thermal")]
    assert len(built) == sum(len(p.hams) + len(p.groups) for p in pieces)
    # and a self-check per compile, each temperature's at its own n_p
    assert checked == [("pair_eff", 0.0)] * 2 + [("pair_thermal", thermal_occupation(t)) for t in ts]
    stacks = experiments.piece_systems("pair_thermal")
    assert all(not a.flags.writeable for a in stacks)
    with pytest.raises(ValueError, match="read-only"):
        stacks[0][0, 0] = 1.0
    experiments.piece_systems.cache_clear()
    rebuilt = experiments.piece_systems("pair_thermal")
    assert rebuilt[0] is not stacks[0]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stacks, rebuilt))


def piece_sources(model):
    """The (h, terms) of each piece of a model, in the order of its stacks."""
    pieces = model_pieces(model)
    d = pieces.space.dim
    return [(h, []) for h in pieces.hams] + [(np.zeros((d, d)), list(g)) for g in pieces.groups]


@pytest.mark.parametrize("model", sorted(EFFECTIVE))
def test_piece_systems_match_the_dense_oracle(model):
    # each row against B_rᵀ(U†L_kU)B_r of the assembled piece, U and B_r
    # written out densely
    m_stack, r_stack = experiments.piece_systems(model)
    for k, (h, terms) in enumerate(piece_sources(model)):
        liouv = assemble(h, terms)
        _, want_m, want_r = system_oracle(liouv.mat)
        m = m_stack[k].reshape(want_m.shape).T
        tol = 1e-14 * max(liouv.norm_inf(), 1.0)
        assert max(np.abs(m - want_m).max(), np.abs(r_stack[k] - want_r).max()) <= tol, (model, k)


def test_piece_systems_form_no_dense_liouvillian(monkeypatch, fresh_piece_systems):
    # each piece's system comes from the entries of its (h, terms): the
    # stacks build with assemble and Superoperator forbidden, and equal the
    # stacks of the pieces' assembled L to the bit
    want = {model: [steady.trace_zero_system(assemble(h, terms)) for h, terms in piece_sources(model)]
            for model in sorted(EFFECTIVE)}

    def forbidden(*args, **kwargs):
        raise AssertionError("piece_systems formed a dense Liouvillian")

    monkeypatch.setattr(experiments, "assemble", forbidden)
    monkeypatch.setattr(superop.Superoperator, "__post_init__", forbidden)
    for model, systems in want.items():
        m_stack, r_stack = experiments.piece_systems(model)
        assert m_stack.tobytes() == np.array([m.T.ravel() for m, _ in systems]).tobytes(), model
        assert r_stack.tobytes() == np.array([r for _, r in systems]).tobytes(), model


@pytest.mark.parametrize("ts", [(0.05,), (0.0, 0.03, 0.1)], ids=["one-temperature", "three-temperatures"])
def test_thermal_map_on_shared_stacks_equals_each_temperatures_own_sweep(ts):
    xs = signed_x_grid()  # two chunks per temperature
    d = thermal_map(xs, ts).column("d").reshape(len(xs), len(ts))
    for j, t in enumerate(ts):
        plan = SweepPlan(model=thermal_pair_spec(x=0.0, n_p=thermal_occupation(t)), axes=(Axis("x[0].re", xs),),
                         observables=(ObservableSpec("trace_distance_to_gibbs", T=t),))
        assert np.array_equal(d[:, j], run_sweep(plan).column("d_gibbs")), t


def test_micro_sweep_solves_each_point_directly():
    micro = validation_micro_spec(j_over_kappa=0.1, gamma_p=0.05, n_boson=2)
    plan = SweepPlan(model=micro, axes=(Axis("alpha[0]", (0.0, 0.05)),),
                     observables=(ObservableSpec("concurrence", sites=(0, 1)),))
    result = run_sweep(plan)
    for row in result.rows:
        _, rho = solve_spec(apply_path(micro, "alpha[0]", row[0]))
        assert row[1] == concurrence(partial_trace(rho, (0, 1)))


def test_sweep_compiles_once(monkeypatch):
    calls = []
    original = experiments.build_model

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(experiments, "build_model", counted)
    run_sweep(small_pair_plan())
    thermal_map((0.0, 1.0, 2.0), (0.05,))
    run_sweep(SweepPlan(model=fig3_ring_spec(), axes=(Axis("x[0].phase", (0.0, 1.0)),),
                        observables=(ObservableSpec("purity"),)))
    assert len(calls) == 3


@pytest.mark.parametrize(
    "observable, message",
    [
        (ObservableSpec("concurrence", sites=(0, 5)), "out of range"),
        (ObservableSpec("purity", sites=(1, 1)), "distinct"),
        (ObservableSpec("population", sites=(0,), level=2), "level 2"),
    ],
)
def test_sweep_plan_checks_observables_against_model(observable, message):
    with pytest.raises(ValueError, match=message):
        SweepPlan(model=fig3_ring_spec(), axes=(Axis("x[0].phase", (0.0,)),), observables=(observable,))


def test_gibbs_distance_needs_an_all_qubit_model():
    # every effective model is all qubits; a micro model's guide factors are not
    observable = ObservableSpec("trace_distance_to_gibbs", T=0.05)
    for spec in (fig3_ring_spec(), fig5_pair_spec(), thermal_pair_spec(x=1.0)):
        observable.check_space(experiments.model_space(spec))
    with pytest.raises(ValueError, match="needs an all-qubit model"):
        observable.check_space(experiments.model_space(validation_micro_spec(n_boson=3)))


def test_concurrence_needs_qubit_sites():
    micro = validation_micro_spec(n_boson=3)  # factors (2, 2, 3)
    with pytest.raises(ValueError, match="two qubit factors"):
        ObservableSpec("concurrence", sites=(0, 2)).check_space(experiments.model_space(micro))
    with pytest.raises(ValueError, match="out of range"):
        optimize_concurrence(fig5_pair_spec(), ["x[1].re"], [(0.0, 1.0)], budget=5, sites=(0, 2))


# --- stacked sweep points ----------------------------------------------------------


def stacked_plans():
    """Ring, pair and thermal grids; each is longer than one chunk and not a
    multiple of it, so that the last chunk is a partial one."""
    ring = SweepPlan(model=fig3_ring_spec(),
                     axes=(Axis("x[0].phase", tuple(np.linspace(0.0, 2 * np.pi, 17))),
                           Axis("x[1].re", tuple(np.linspace(-0.5, 0.5, 17)))),
                     observables=(ObservableSpec("concurrence", sites=(1, 2)), ObservableSpec("population", sites=(0,)),
                                  ObservableSpec("purity", sites=(1,))))
    pair = SweepPlan(model=fig5_pair_spec(),
                     axes=(Axis("x[0].phase", tuple(np.linspace(0.0, 2 * np.pi, 19))),
                           Axis("x[2].phase", tuple(np.linspace(0.0, 2 * np.pi, 17)))),
                     observables=(ObservableSpec("concurrence", sites=(0, 1)), ObservableSpec("purity")))
    thermal = SweepPlan(model=thermal_pair_spec(x=0.0, n_p=0.05),
                        axes=(Axis("x[0].re", tuple(np.linspace(-10.0, 10.0, 301))),),
                        observables=(ObservableSpec("trace_distance_to_gibbs", T=0.05),
                                     ObservableSpec("concurrence", sites=(0, 1))))
    return {"ring": ring, "pair": pair, "thermal": thermal}


@pytest.mark.parametrize("name", ["ring", "pair", "thermal"])
def test_chunked_sweep_equals_point_by_point(name):
    plan = stacked_plans()[name]
    points = list(itertools.product(*(a.grid for a in plan.axes)))
    assert len(points) > CHUNK and len(points) % CHUNK != 0
    evaluate = point_evaluator(plan.model, [(a.path,) for a in plan.axes], plan.observables, "grid point")
    # each point as a chunk of one, against the chunks of run_sweep: bit for bit
    assert run_sweep(plan).rows == [evaluate([point])[0] for point in points]


@pytest.mark.parametrize("name", ["ring", "pair", "thermal"])
def test_sweep_rows_do_not_depend_on_the_chunk_size(name, monkeypatch):
    # chunks of one, of an odd 7, of the old 64 and of 256: the same rows, bit
    # for bit
    plan = stacked_plans()[name]
    runs = []
    for size in (1, 7, 64, 256):
        monkeypatch.setattr(experiments, "CHUNK", size)
        runs.append(run_sweep(plan).rows)
    assert all(rows == runs[0] for rows in runs[1:])


def test_failing_point_in_a_chunk_is_named():
    # the dark pair (z = 1: collective decay only) in the middle of a chunk of
    # driven, damped points: the chunk fails, is evaluated point by point, and
    # the first failing point is named
    evaluate = point_evaluator(thermal_pair_spec(x=1.0), [("x[0].re",), ("y[0]",), ("z[0]",)],
                               (ObservableSpec("purity"),), "grid point")
    points = [(x, 15.0, 1.01) for x in np.linspace(-2.0, 2.0, 7)]
    rows = evaluate(points)
    points.insert(4, (0.0, 0.0, 1.0))
    points.append((0.0, 0.0, 1.0))
    with pytest.raises(SweepError, match="grid point \\{'x\\[0\\].re': 0.0, 'y\\[0\\]': 0.0, 'z\\[0\\]': 1.0\\} "
                                         "failed: steady state is not unique"):
        evaluate(points)
    assert evaluate(points[:4]) == rows[:4]

