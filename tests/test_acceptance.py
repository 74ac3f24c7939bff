"""Acceptance suite: every headline claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion check.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import (
    bundled_models,
    fwhm,
    hermiticity_defect,
    interior_maxima,
    phase_grid,
    phase_sweep_plan,
    random_density_mat,
    random_unitary,
    three_guide_pair_micro,
)
from polariton_ring.experiments import (
    Axis,
    ObservableSpec,
    SweepPlan,
    SweepResult,
    central_difference,
    optimize_concurrence,
    point_evaluator,
    run_sweep,
    signed_x_grid,
    solve_spec,
    thermal_map,
    validate_effective,
)
from polariton_ring.linalg import DensityMatrix, HilbertSpace, kron, partial_trace
from polariton_ring.models import (
    apply_path,
    build_model,
    fig3_ring_spec,
    fig5_pair_spec,
    thermal_pair_spec,
    validation_micro_spec,
)
from polariton_ring.observables import concurrence, population, thermal_occupation, trace_distance
from polariton_ring.steady import evolve_to_steady, steady_state_on
from polariton_ring.superop import assemble

CHECKS = []


def check(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status}  {detail}")
    CHECKS.append((label, ok))
    return ok


def wrapped_distance_to_pi(delta):
    """Distance of a phase difference from the nearest odd multiple of pi."""
    return abs(abs((delta + np.pi) % (2 * np.pi) - np.pi) - np.pi)


def maxima_cells(result, tol=1e-9):
    c = result.column(result.header[-1])
    p1 = result.column(result.header[0])
    p3 = result.column(result.header[1])
    top = c.max()
    return [(a, b) for a, b, v in zip(p1, p3, c) if v >= top - tol], top


@pytest.fixture(scope="module")
def fig5_sweep():
    started = time.perf_counter()
    plan = phase_sweep_plan(fig5_pair_spec(), count=41)
    result = run_sweep(plan)
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def fig3_sweep():
    plan = phase_sweep_plan(fig3_ring_spec(), count=41)
    return run_sweep(plan)


def test_criterion_1_fig5_reproduction(fig5_sweep):
    result, elapsed = fig5_sweep
    cells, top = maxima_cells(result)
    cell = 2 * np.pi / 40
    ok = check("1a fig5 max concurrence", abs(top - 0.470) <= 0.01, f"max={top:.4f} target 0.470±0.01")
    ok &= check(
        "1b fig5 maxima on the pi line",
        all(wrapped_distance_to_pi(a - b) <= cell + 1e-12 for a, b in cells),
        f"{len(cells)} maxima",
    )
    ok &= check("1c fig5 runtime", elapsed < 60.0, f"{elapsed:.1f}s < 60s single-threaded")
    assert ok


def test_criterion_2_fig3_reproduction():
    started = time.perf_counter()
    base = fig3_ring_spec(phi1=np.pi, phi3=0.0)
    for path in ("y[0]", "y[1]", "y[2]"):
        base = apply_path(base, path, 0.0)
    report = optimize_concurrence(
        base,
        free=["x[1].re", "x[1].im", ("y[0]", "y[2]"), "y[1]"],
        bounds=[(-5.0, 5.0), (-5.0, 5.0), (-15.0, 15.0), (-15.0, 15.0)],
        budget=1200,
        sites=(1, 2),
    )
    refined = base
    for name, value in report.best_params.items():
        for path in name.split("|"):
            refined = apply_path(refined, path, value)
    _, rho = solve_spec(refined)
    ground = population(partial_trace(rho, [0]), 0)

    sweep = run_sweep(phase_sweep_plan(refined, count=21))
    cells, top = maxima_cells(sweep)
    cell = 2 * np.pi / 20
    elapsed = time.perf_counter() - started

    ok = check(
        "2a fig3 refined concurrence", 0.39 <= report.best_value <= 0.44,
        f"best={report.best_value:.4f} in [0.39, 0.44]",
    )
    ok &= check("2b fig3 site-1 ground population", ground >= 0.95, f"pop={ground:.4f}")
    ok &= check(
        "2c fig3 maxima at phase difference pi",
        all(wrapped_distance_to_pi(a - b) <= cell + 1e-12 for a, b in cells),
        f"{len(cells)} maxima, sweep max {top:.4f}",
    )
    ok &= check("2d fig3 runtime", elapsed < 300.0, f"{elapsed:.1f}s < 300s")
    assert ok


def phi1_cross_section(spec, sites):
    """Concurrence along phi1 over 161 points of [0, 2pi] at phi3 = 0: a one-axis sweep."""
    plan = SweepPlan(model=apply_path(spec, "x[2].phase", 0.0), axes=(Axis("x[0].phase", phase_grid(161)),),
                     observables=(ObservableSpec("concurrence", sites=sites),))
    result = run_sweep(plan)
    return result.column("x[0].phase"), result.column(plan.header[-1])


def test_criterion_3_phase_coherence(fig5_sweep, fig3_sweep):
    # 2pi periodicity in each phase
    ok = True
    for spec, sites in ((fig5_pair_spec(), (0, 1)), (fig3_ring_spec(), (1, 2))):
        worst = 0.0
        for p1_path, p3_path in (("x[0].phase", "x[2].phase"),):
            for phi in (0.9, 2.4):
                base = apply_path(spec, p3_path, 0.7)
                _, r1 = solve_spec(apply_path(base, p1_path, phi))
                _, r2 = solve_spec(apply_path(base, p1_path, phi + 2 * np.pi))
                c1 = concurrence(partial_trace(r1, sites))
                c2 = concurrence(partial_trace(r2, sites))
                worst = max(worst, abs(c1 - c2))
                base2 = apply_path(spec, p1_path, phi)
                _, r3 = solve_spec(apply_path(base2, p3_path, 0.7))
                _, r4 = solve_spec(apply_path(base2, p3_path, 0.7 + 2 * np.pi))
                worst = max(worst, abs(concurrence(partial_trace(r3, sites)) - concurrence(partial_trace(r4, sites))))
        ok &= check(f"3a periodicity {spec.model}", worst <= 1e-10, f"max deviation {worst:.2e}")

    cell = 2 * np.pi / 40
    for name, result in (("fig5", fig5_sweep[0]), ("fig3", fig3_sweep)):
        cells, top = maxima_cells(result)
        ok &= check(
            f"3b maxima line {name}",
            all(wrapped_distance_to_pi(a - b) <= cell + 1e-12 for a, b in cells),
            f"{len(cells)} maxima at C={top:.4f}",
        )

    w_pair = fwhm(*phi1_cross_section(fig5_pair_spec(), (0, 1)))
    w_ring = fwhm(*phi1_cross_section(fig3_ring_spec(), (1, 2)))
    ok &= check(
        "3c pair peak broader than ring",
        w_pair > w_ring,
        f"FWHM pair {w_pair:.3f} > ring {w_ring:.3f}",
    )
    assert ok


def test_criterion_4_thermalization():
    started = time.perf_counter()
    t_grid = (0.01, 0.05, 0.1)
    x_grid = signed_x_grid(10.0, 101)
    result = thermal_map(x_grid, t_grid, y=15.0, z=1.01)
    xs = np.array(x_grid)
    d = result.column("d").reshape(len(xs), len(t_grid))
    dd = result.column("abs_dd_dx").reshape(len(xs), len(t_grid))
    zero_idx = int(np.argmin(np.abs(xs)))

    ok = True
    d_at_zero = d[zero_idx, :].max()
    ok &= check("4a distance vanishes undriven", d_at_zero <= 0.05, f"max_T d(x=0) = {d_at_zero:.2e}")

    pos = xs >= 0
    neg = xs <= 0
    mono = all(np.all(np.diff(d[pos, j]) >= -1e-6) and np.all(np.diff(d[neg, j]) <= 1e-6) for j in range(len(t_grid)))
    ok &= check("4b distance nondecreasing in drive strength", mono, "slack 1e-6, both arms")

    # the paper's ridges sit at x = ±2: one on each side of 0, each within one grid step
    step = xs[1] - xs[0]
    ridges = [xs[interior_maxima(dd[:, j])] for j in range(len(t_grid))]
    placed = all(
        len(r) == 2 and r[0] < 0 < r[1] and abs(r[0] + 2.0) <= step + 1e-12 and abs(r[1] - 2.0) <= step + 1e-12
        for r in ridges
    )
    ok &= check("4c two derivative peaks per temperature, at x = ±2", placed,
                f"ridges {[r.tolist() for r in ridges]}, within {step:.2f}")

    spread = max(
        float(np.abs(d[:, a] - d[:, b]).max()) for a in range(len(t_grid)) for b in range(len(t_grid))
    )
    ok &= check("4d temperature independence", spread <= 0.02, f"max spread {spread:.2e}")

    elapsed = time.perf_counter() - started
    ok &= check("4e thermal runtime", elapsed < 120.0, f"{elapsed:.1f}s < 120s")
    assert ok


def test_criterion_5_effective_validation():
    started = time.perf_counter()
    d1 = validate_effective(validation_micro_spec(j_over_kappa=0.05).params)
    d2 = validate_effective(validation_micro_spec(j_over_kappa=0.025).params)
    elapsed = time.perf_counter() - started
    ok = check("5a micro-vs-effective distance", d1 <= 0.05, f"d={d1:.2e} at J/kappa=0.05")
    ok &= check("5b halving improves by >= 2x", d2 <= d1 / 2, f"d={d2:.2e}, ratio {d1 / d2:.1f}")
    ok &= check("5c validation runtime", elapsed < 300.0, f"{elapsed:.1f}s < 300s")
    assert ok


def test_criterion_5_three_guide_pair_validation():
    # the bare decay reaches each site through the middle guide's z alone
    d1 = validate_effective(three_guide_pair_micro(0.05))
    d2 = validate_effective(three_guide_pair_micro(0.025))
    ok = check("5d three-guide pair micro-vs-effective distance", d1 <= 2e-3, f"d={d1:.2e} at J/kappa=0.05")
    ok &= check("5e three-guide pair halving improves by >= 2x", d2 <= d1 / 2, f"d={d2:.2e}, ratio {d1 / d2:.1f}")
    assert ok


def test_criterion_6_property_suites(rng):
    ok = True
    models = bundled_models()

    worst_tp = worst_herm = 0.0
    for spec in models.values():
        _, h, terms = build_model(spec)
        liouv = assemble(h, terms)
        worst_tp = max(worst_tp, liouv.trace_defect())
        worst_herm = max(worst_herm, hermiticity_defect(liouv, n_probes=20))
    ok &= check("6a trace preservation (all models)", worst_tp <= 1e-10, f"worst defect {worst_tp:.2e}")
    ok &= check("6b hermiticity preservation (all models)", worst_herm <= 1e-10, f"worst {worst_herm:.2e}")

    worst_res = worst_eig = 0.0
    cross = 0.0
    for name, spec in models.items():
        space, h, terms = build_model(spec)
        liouv = assemble(h, terms)
        report = steady_state_on(liouv, space)
        worst_res = max(worst_res, report.residual / max(liouv.norm_inf(), 1.0))
        worst_eig = min(worst_eig, report.min_eigenvalue)
        rho_t = evolve_to_steady(liouv, space)
        cross = max(cross, trace_distance(report.rho, rho_t))
    ok &= check("6c steady-state residuals", worst_res <= 1e-8, f"worst residual/|L| = {worst_res:.2e}")
    ok &= check("6d steady-state positivity", worst_eig >= -1e-8, f"worst eigenvalue {worst_eig:.2e}")
    ok &= check("6e linear solve vs propagation", cross <= 1e-6, f"worst distance {cross:.2e}")

    space2 = HilbertSpace((2, 2))
    worst_bound = 0.0
    worst_lu = 0.0
    for _ in range(1000):
        mat = random_density_mat(rng, 4)
        c = concurrence(DensityMatrix(space2, mat))
        worst_bound = max(worst_bound, max(-c, c - 1.0))
        u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
        c2 = concurrence(DensityMatrix(space2, u @ mat @ u.conj().T))
        worst_lu = max(worst_lu, abs(c - c2))
    ok &= check("6f concurrence bounds (1000 states)", worst_bound <= 1e-12, f"worst excess {worst_bound:.2e}")
    ok &= check("6g local-unitary invariance", worst_lu <= 1e-8, f"worst deviation {worst_lu:.2e}")

    space4 = HilbertSpace((4,))
    metric_ok = True
    for _ in range(200):
        a = DensityMatrix(space4, random_density_mat(rng, 4))
        b = DensityMatrix(space4, random_density_mat(rng, 4))
        c3 = DensityMatrix(space4, random_density_mat(rng, 4))
        dab, dba = trace_distance(a, b), trace_distance(b, a)
        metric_ok &= abs(dab - dba) <= 1e-12
        metric_ok &= trace_distance(a, c3) <= dab + trace_distance(b, c3) + 1e-12
        metric_ok &= trace_distance(a, a) <= 1e-10
    ok &= check("6h trace-distance metric axioms (200 triples)", metric_ok)

    plan = phase_sweep_plan(fig5_pair_spec(), count=9)
    csv1 = run_sweep(plan).to_csv()
    csv2 = run_sweep(plan).to_csv()
    ok &= check("6i two runs of one plan write the same CSV", csv1 == csv2, "bit-identical CSV")
    # 81 points: one full chunk and a partial one, against each point alone
    evaluate = point_evaluator(plan.model, [(a.path,) for a in plan.axes], plan.observables, "grid point")
    points = itertools.product(*(a.grid for a in plan.axes))
    single = SweepResult(plan.header, [evaluate([p])[0] for p in points]).to_csv()
    ok &= check("6j stacked sweep equals point-by-point", csv1 == single, "bit-identical CSV")
    assert ok


def test_criterion_7_lambda_system():
    # The paper's Λ-system analogy: a pair entangles most when its direct
    # coupling is much weaker than its couplings to the third party. In the
    # ring, guide 1 couples sites 1 and 2 directly, and guides 0 and 2 tie each
    # of them to site 0, so C_12 must fall as Γ₁ grows.
    plan = SweepPlan(model=fig3_ring_spec(), axes=(Axis("Gamma[1]", tuple(np.logspace(-4.0, 0.0, 17))),),
                     observables=(ObservableSpec("concurrence", sites=(1, 2)),))
    c = run_sweep(plan).column("concurrence_1_2")
    steps = np.diff(c)
    ok = check("7a ring C_12 strictly decreasing in Gamma[1]", bool(np.all(steps < 0)),
               f"C_12 {c[0]:.4f} at 1e-4 to {c[-1]:.4f} at 1, smallest drop {-steps.max():.1e}")
    assert ok


def test_criterion_7_thermalization_rate_beside_entanglement():
    # The paper's second claim: the rate at which the pair thermalizes with
    # the drive is consistent with its entanglement. On pair_thermal (y = 15,
    # z = 1.01) the ridge of |∂d/∂x| must sit within one step of the shipped
    # thermal-map x grid (0.2) of the peak of C, at every temperature.
    xs = np.round(np.linspace(1.0, 3.0, 201), 10)
    step = float(np.diff(signed_x_grid())[0])
    places = []
    for t in (0.0, 0.01, 0.05, 0.1):
        plan = SweepPlan(model=thermal_pair_spec(x=0.0, n_p=thermal_occupation(t), y=15.0, z=1.01),
                         axes=(Axis("x[0].re", tuple(xs)),),
                         observables=(ObservableSpec("concurrence", sites=(0, 1)),
                                      ObservableSpec("trace_distance_to_gibbs", T=t)))
        result = run_sweep(plan)
        peak = xs[np.argmax(result.column("concurrence_0_1"))]
        ridge = xs[np.argmax(np.abs(central_difference(result.column("d_gibbs"), xs)))]
        places.append((float(peak), float(ridge)))
    worst = max(abs(peak - ridge) for peak, ridge in places)
    ok = check("7b thermalization ridge beside the concurrence peak", worst <= step + 1e-12,
               f"(C peak, ridge) per T {places}, worst distance {worst:.2f} <= {step:.2f}")
    assert ok


def test_zz_summary():
    failed = [label for label, ok in CHECKS if not ok]
    print(f"ACCEPTANCE SUMMARY: {len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed")
    assert not failed, f"failed checks: {failed}"
