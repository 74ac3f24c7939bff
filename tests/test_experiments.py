import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import bundled_models, count_interior_maxima, fwhm, phase_sweep_plan, smooth3, three_guide_pair_micro
from polariton_ring import experiments, steady
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
from polariton_ring.linalg import partial_trace
from polariton_ring.models import (
    EffectiveParams,
    MicroParams,
    ModelSpec,
    apply_path,
    build_model,
    coefficients,
    derive_effective,
    fig3_ring_spec,
    fig5_pair_spec,
    model_spec_from_json,
    model_spec_to_json,
    model_space,
    thermal_pair_spec,
    validation_micro_spec,
)
from polariton_ring.observables import concurrence, trace_distance
from polariton_ring.steady import UNIQUENESS_TOL, SteadyStateError, evolve_to_steady
from polariton_ring.superop import assemble, vec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def coefficient_rows(specs):
    """The (B, K) coefficient rows of the points ``specs``."""
    return np.array([coefficients(spec) for spec in specs])


def solve_points(compiled, specs):
    """``compiled.solve`` at the points ``specs``, each given as its ModelSpec."""
    return compiled.solve(coefficient_rows(specs), specs.__getitem__)


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
    _, rho = solve_spec(apply_path(fig5_pair_spec(), "x[0].phase", np.pi))
    # the sweep solves from the compiled LU, solve_spec by least squares. Here ρ
    # has an eigenvalue 4e-9, and the concurrence moves by up to 4e-14 with the
    # last bits of ρ (both states are within 1e-15 of the exact one) or with its
    # own float evaluation, so only bit-identical routes agree to 1e-14
    assert result.rows[0][1] == pytest.approx(concurrence(rho), abs=1e-12)


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
    from polariton_ring.observables import gibbs_two_qubit, thermal_occupation, trace_distance

    n_p = thermal_occupation(T)
    gibbs = gibbs_two_qubit(T)

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
    model = {"pair3": "pair_eff", "pair1": "pair_thermal"}[micro.geometry]
    _, eff_rho = solve_spec(ModelSpec(model, derive_effective(micro)))
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
    grid = signed_x_grid(10.0, 101)
    assert len(grid) == 101
    assert grid[0] == -10.0 and grid[-1] == 10.0
    assert min(abs(v) for v in grid) == 0.0


# --- compiled effective models ---------------------------------------------------


def effective_specs():
    """The bundled effective models plus points that switch on every piece:
    a complex middle drive, middle hoppings, and thermal up-pumping."""
    specs = [s for s in bundled_models().values() if s.model != "micro"]
    ring = apply_path(apply_path(fig3_ring_spec(), "x[1].re", 0.3), "x[1].im", -0.7)
    specs.append(apply_path(ring, "y[1]", 2.5))
    pair = apply_path(apply_path(fig5_pair_spec(), "x[1].re", -1.1), "x[1].im", 0.4)
    specs.append(apply_path(pair, "y[1]", 3.0))
    specs.append(thermal_pair_spec(x=1.5, n_p=0.3))
    return specs


_finite = st.floats(-20.0, 20.0, allow_nan=False)
_rate = st.floats(1e-3, 80.0)
_dressing = st.floats(1.0, 12.0)


@st.composite
def drawn_specs(draw):
    model = draw(st.sampled_from(["ring3_eff", "pair_eff", "pair_thermal"]))
    if model == "pair_thermal":
        params = EffectiveParams(
            n_sites=2, Gamma=(draw(_rate),), x=(complex(draw(_finite), draw(_finite)),), y=(draw(_finite),),
            z=(draw(_dressing),), n_p=draw(st.floats(0.0, 2.0)),
        )
    else:
        params = EffectiveParams(
            n_sites=3 if model == "ring3_eff" else 2,
            Gamma=tuple(draw(_rate) for _ in range(3)),
            x=tuple(complex(draw(_finite), draw(_finite)) for _ in range(3)),
            y=tuple(draw(_finite) for _ in range(3)),
            z=tuple(draw(_dressing) for _ in range(3)),
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


def restriction_oracle(spec):
    """M of steady._real_restriction on the assembled L, and r = −B_rᵀ·L_r·c_I
    with the basis B_r and the coordinates c_I of I/d written out densely."""
    liouv = assemble(*build_model(spec)[1:])
    lr, m, _ = steady._real_restriction(liouv, liouv.norm_inf())
    d = liouv.dim
    n = d * d
    _, _, house = steady._hermitian_basis(d)
    b = np.zeros((n, n - 1))
    b[:d, :d - 1] = house[:, 1:]
    b[d:, d - 1:] = np.eye(n - d)
    c_i = np.zeros(n)
    c_i[:d] = 1.0 / d
    return m, -b.T @ lr @ c_i


def system_error(compiled, spec):
    want_m, want_r = restriction_oracle(spec)
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
@example(ModelSpec("pair_thermal", EffectiveParams(n_sites=2, Gamma=(1.0,), x=(0j,), y=(4.0e-125,), z=(1.0,))))
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
            n_sites=2, Gamma=(1e-3, 60.0, 1e-3), x=(complex(-drive, 0.0), complex(drive, -7.0), 1.67),
            y=(0.0, float(y1), 0.0), z=(1.0, 1.0, z2),
        ))
    for gamma, drive, y1 in (((1e-3, 60.0, 1e-3), 0, 0), ((1e-3, 60.0, 1e-3), 10, 0), ((1e-3, 60.0, 1e-3), 15, 5),
                             ((60.0, 1e-3, 1e-3), 10, -5), ((1e-3, 1e-3, 60.0), 12, 8)):
        yield ModelSpec("ring3_eff", EffectiveParams(
            n_sites=3, Gamma=gamma, x=(complex(-drive, 0.0), complex(drive, -7.0), 1.67),
            y=(0.0, float(y1), 0.0), z=(1.0, 1.0, 1.0),
        ))


def test_compiled_solve_is_accurate_where_ill_conditioned():
    # there the two routes differ by more than 1e-12, so each is measured
    # against the exact state: on each model, the compiled route's worst error
    # must not exceed the least-squares route's
    errors = {"pair_eff": [], "ring3_eff": []}
    for spec in ill_conditioned_specs():
        exact = exact_steady_state(assemble(*build_model(spec)[1:]))
        report = solve_points(_COMPILED[spec.model], [spec])
        _, want = solve_spec(spec)
        assert report.uniqueness_bound[0] > 1e6
        errors[spec.model].append((np.abs(report.rho.mat[0] - exact).max(), np.abs(want.mat - exact).max()))
    for model, pairs in errors.items():
        compiled, least_squares = np.max(pairs, axis=0)
        assert compiled <= min(least_squares, 1e-11), model


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


def assert_corrupted_pieces_rejected(monkeypatch, spec):
    """A wrong M_k or r_k, for any one piece k whose coefficient c_k is nonzero
    at ``spec``, fails the compile at ``spec``, even one that moves c_k·M_k or
    c_k·r_k by only 1e-8·(random unit entries): that stays below the residual
    check's 1e-8·‖L‖, but not below the (M, r) check's 1e-12·‖L‖."""
    honest = experiments.trace_zero_system
    rng = np.random.default_rng(5)
    for k, c_k in enumerate(experiments.coefficients(spec)):
        if c_k == 0:
            continue
        for part in (0, 1):
            calls = []

            def corrupted(liouv, k=k, part=part, calls=calls, delta=1e-8 / c_k):
                system = list(honest(liouv))
                if len(calls) == k:
                    system[part] = system[part] + delta * rng.normal(size=system[part].shape)
                calls.append(liouv)
                return tuple(system)

            monkeypatch.setattr(experiments, "trace_zero_system", corrupted)
            with pytest.raises(CompileError, match="trace-zero system"):
                CompiledModel(spec)
            monkeypatch.setattr(experiments, "trace_zero_system", honest)


def test_compile_rejects_corrupted_trace_zero_piece(monkeypatch):
    for spec in full_support_specs():
        assert_corrupted_pieces_rejected(monkeypatch, spec)


def test_compile_rejects_corrupted_trace_zero_piece_where_no_unique_steady_state(monkeypatch):
    # with z = 1 the undriven pair decays only collectively and has a dark
    # state: the base-point ρ check cannot run, the (M, r) check still does
    dark = thermal_pair_spec(x=0.0, y=0.0, z=1.0)
    assert not steady.steady_state_on(assemble(*build_model(dark)[1:]), model_space(dark)).unique
    assert np.any(experiments.coefficients(dark))  # some piece is checked
    assert_corrupted_pieces_rejected(monkeypatch, dark)


def test_compiled_solve_hands_uncertified_points_to_steady_state_on(monkeypatch):
    seen = []
    original = experiments.steady_state_on

    def spy(liouv, space):
        seen.append(liouv)
        return original(liouv, space)

    def liouvillian(spec):
        return assemble(*build_model(spec)[1:]).mat

    compiled = CompiledModel(thermal_pair_spec(x=1.0))
    monkeypatch.setattr(experiments, "steady_state_on", spy)
    chunk = [thermal_pair_spec(x=x) for x in (0.5, 1.5, 2.5)]
    certified = solve_points(compiled, chunk)
    assert seen == []
    # singular M in the middle of a chunk: with z = 1 the pair decays only
    # collectively and has a dark state; only that point reaches steady_state_on
    dark = thermal_pair_spec(x=0.0, y=0.0, z=1.0)
    with pytest.raises(SteadyStateError, match="not unique"):
        solve_points(compiled, [chunk[0], dark, chunk[2]])
    assert len(seen) == 1 and np.array_equal(seen[0].mat, liouvillian(dark))
    # invertible M whose bound does not certify, in the middle of a chunk: the
    # second certification of the solve (chunk[1]) declines
    certify = steady._certified_unique
    calls = []

    def decline_second(bound):
        calls.append(bound)
        return len(calls) != 2 and certify(bound)

    monkeypatch.setattr(steady, "_certified_unique", decline_second)
    report = solve_points(compiled, chunk)
    assert len(seen) == 2 and np.array_equal(seen[1].mat, liouvillian(chunk[1]))
    # the fallback's report takes that point's place in the stack (its bound is
    # the one steady_state_on formed, the third certification)
    assert len(calls) == 4 and report.uniqueness_bound[1] == calls[2] and report.unique.all()
    assert np.abs(report.rho.mat - certified.rho.mat).max() <= 1e-12
    assert np.array_equal(report.rho.mat[[0, 2]], certified.rho.mat[[0, 2]])


def test_compiled_fallback_states_equal_solve_spec(monkeypatch):
    # with certification declined every point falls back, and is solved on the
    # L of the one builder, as solve_spec solves it: bit for bit
    monkeypatch.setattr(steady, "_certified_unique", lambda bound: False)
    for model, compiled in _COMPILED.items():
        chunk = [spec for spec in effective_specs() if spec.model == model]
        chunk += [apply_path(spec, "x[0].phase", 0.9) for spec in chunk]
        report = solve_points(compiled, chunk)
        for k, spec in enumerate(chunk):
            want, rho = solve_spec(spec)
            assert np.array_equal(report.rho.mat[k], rho.mat), model
            assert report.residual[k] == want.residual and report.uniqueness_bound[k] == want.uniqueness_bound


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
        assume(False)  # not unique: the fallback forms its own residual
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
    # a chunk goes from its values to its coefficient rows: a certified point
    # builds no ModelSpec, a point that falls back builds its own
    concurrence01 = (ObservableSpec("concurrence", sites=(0, 1)),)
    sweep = point_evaluator(fig5_pair_spec(), [("x[0].phase",), ("x[2].phase",)], concurrence01, "grid point")
    config = json.loads((CONFIGS / "fig3_optimize.json").read_text())
    groups = [(g,) if isinstance(g, str) else tuple(g) for g in config["free"]]
    batch = point_evaluator(model_spec_from_json(config["model"]), groups,
                            (ObservableSpec("concurrence", sites=(1, 2)),), "parameters")
    chunk = list(itertools.product(np.linspace(0.0, 2 * np.pi, 8), repeat=2))
    starts = np.random.default_rng(2).uniform(-5.0, 5.0, (9, len(groups)))
    second = apply_path(apply_path(fig5_pair_spec(), "x[0].phase", chunk[1][0]), "x[2].phase", chunk[1][1])
    built = built_params(monkeypatch)
    certified = sweep(chunk)
    batch(starts)
    assert len(certified) == CHUNK and built == []
    certify = steady._certified_unique
    calls = []

    def decline_second(bound):
        calls.append(bound)
        return len(calls) != 2 and certify(bound)

    monkeypatch.setattr(steady, "_certified_unique", decline_second)
    rows = sweep(chunk)
    assert built == [second.params]
    assert np.abs(np.array(rows) - certified).max() <= 1e-12


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
    from polariton_ring.observables import gibbs_two_qubit, thermal_occupation, trace_distance

    result = thermal_map((-2.0, 0.0, 1.5), (0.02, 0.05))
    for x, t, d in zip(result.column("x"), result.column("T_R"), result.column("d")):
        spec = thermal_pair_spec(x=x, n_p=thermal_occupation(t))
        _, rho = solve_spec(spec)
        assert abs(d - trace_distance(rho, gibbs_two_qubit(t))) <= 1e-12


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
        (ObservableSpec("trace_distance_to_gibbs", T=0.05), "two-qubit"),
    ],
)
def test_sweep_plan_checks_observables_against_model(observable, message):
    with pytest.raises(ValueError, match=message):
        SweepPlan(model=fig3_ring_spec(), axes=(Axis("x[0].phase", (0.0,)),), observables=(observable,))


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
                     axes=(Axis("x[0].phase", tuple(np.linspace(0.0, 2 * np.pi, 9))),
                           Axis("x[1].re", tuple(np.linspace(-0.5, 0.5, 8)))),
                     observables=(ObservableSpec("concurrence", sites=(1, 2)), ObservableSpec("population", sites=(0,)),
                                  ObservableSpec("purity", sites=(1,))))
    pair = SweepPlan(model=fig5_pair_spec(),
                     axes=(Axis("x[0].phase", tuple(np.linspace(0.0, 2 * np.pi, 13))),
                           Axis("x[2].phase", tuple(np.linspace(0.0, 2 * np.pi, 11)))),
                     observables=(ObservableSpec("concurrence", sites=(0, 1)), ObservableSpec("purity")))
    thermal = SweepPlan(model=thermal_pair_spec(x=0.0, n_p=0.05),
                        axes=(Axis("x[0].re", tuple(np.linspace(-10.0, 10.0, 101))),),
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

