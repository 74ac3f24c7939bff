import cmath
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import lockstep_maximize, sequential_maximize
from polariton_ring.experiments import ObservableSpec, optimize_concurrence, point_evaluator
from polariton_ring.models import model_spec_from_json
from polariton_ring.optimize import at_bound, corner_starts, drive, multistart_maximize, nelder_mead

FIG3_OPTIMIZE = json.loads((Path(__file__).resolve().parent.parent / "configs" / "fig3_optimize.json").read_text())


def test_nelder_mead_quadratic_bowl():
    target = np.array([0.3, -0.7])

    def f(x):
        return float(((x - target) ** 2).sum())

    x, fx, evals = drive(nelder_mead(np.array([2.0, 2.0]), [(-3, 3), (-3, 3)], budget=500), f)
    assert np.abs(x - target).max() <= 1e-3
    assert evals <= 500


def test_nelder_mead_respects_bounds():
    def f(x):
        return float(-x[0])  # pushes to the upper bound

    x, fx, _ = drive(nelder_mead(np.array([0.0]), [(-1, 2)], budget=200), f)
    assert x[0] <= 2.0 + 1e-12
    assert x[0] == pytest.approx(2.0, abs=1e-6)


def test_corner_starts_deterministic():
    starts = corner_starts([(-1, 1), (0, 2)])
    again = corner_starts([(-1, 1), (0, 2)])
    assert all(np.array_equal(a, b) for a, b in zip(starts, again))
    # all-low and all-high corners first, center last
    assert np.array_equal(starts[0], [-1, 0])
    assert np.array_equal(starts[1], [1, 2])
    assert np.array_equal(starts[-1], [0, 1])


def test_corner_starts_capped_at_eight():
    starts = corner_starts([(-1, 1)] * 5)
    assert len(starts) == 9  # 8 corners + center


def test_multistart_maximize_peak():
    def f(x):
        return float(np.exp(-((x[0] - 0.5) ** 2 + (x[1] + 0.25) ** 2)))

    report = lockstep_maximize(f, [(-2, 2), (-2, 2)], budget=800, param_names=["a", "b"])
    assert report.best_value == pytest.approx(1.0, abs=1e-4)
    assert report.best_params["a"] == pytest.approx(0.5, abs=0.01)
    assert report.best_params["b"] == pytest.approx(-0.25, abs=0.01)
    assert report.evaluations <= 800
    values = [v for _, v in report.trace]
    assert values == sorted(values)


def test_multistart_collapsed_bounds():
    report = lockstep_maximize(lambda x: float(-x[0] ** 2), [(1.5, 1.5)], budget=50)
    assert report.best_value == pytest.approx(-2.25)
    assert report.best_params["p0"] == 1.5


@pytest.mark.parametrize("bounds", [[(5.0, -5.0)], [(0.0, 1.0), (2.0, 1.9)], [(0.0, float("nan"))],
                                    [(-float("inf"), 1.0)]])
def test_multistart_rejects_bad_bounds(bounds):
    calls = []

    def f(x):
        calls.append(x)
        return 0.0

    with pytest.raises(ValueError, match="bounds"):
        multistart_maximize(bounds, budget=50)  # at the call: no generator, so no point, exists
    with pytest.raises(ValueError, match="bounds"):
        lockstep_maximize(f, bounds, budget=50)
    assert not calls


def test_multistart_budget_one():
    report = lockstep_maximize(lambda x: 1.0, [(0, 1)], budget=1)
    assert report.evaluations == 1


@pytest.mark.parametrize("budget", [1, 4, 8])
def test_multistart_budget_below_starts_runs_the_first_starts(budget):
    bounds = [(-1.0, 1.0), (0.0, 2.0), (-3.0, 3.0), (1.0, 4.0)]
    batches = []

    def evaluate(points):
        batches.append([p.copy() for p in points])
        return [float(np.sin(p).sum()) for p in points]

    report = drive(multistart_maximize(bounds, budget=budget), evaluate)
    assert report.evaluations == budget
    # one round: one evaluation at each of the first `budget` starts
    assert len(batches) == 1
    assert len(batches[0]) == budget
    assert all(np.array_equal(p, s) for p, s in zip(batches[0], corner_starts(bounds)[:budget]))
    assert report == sequential_maximize(lambda x: float(np.sin(x).sum()), bounds, budget)


def test_multistart_rejects_zero_budget():
    with pytest.raises(ValueError):
        multistart_maximize([(0, 1)], budget=0)  # at the call, before any point is yielded


def test_multistart_rejects_a_batch_of_the_wrong_length():
    search = multistart_maximize([(0, 1)], budget=30)
    points = next(search)
    assert len(points) == 3  # two corners and the center
    with pytest.raises(ValueError):
        search.send([0.0] * (len(points) - 1))


def test_multistart_deterministic():
    def f(x):
        return float(np.sin(3 * x[0]) * np.cos(2 * x[1]))

    r1 = lockstep_maximize(f, [(-2, 2), (-2, 2)], budget=600)
    r2 = lockstep_maximize(f, [(-2, 2), (-2, 2)], budget=600)
    assert r1.best_value == r2.best_value
    assert r1.best_params == r2.best_params
    assert r1.evaluations == r2.evaluations


def _wavy2(x):
    return float(np.sin(3 * x[0]) * np.cos(2 * x[1]) - 0.05 * (x ** 2).sum())


def _rastrigin4(x):
    return float(-(10 * len(x) + (x ** 2 - 10 * np.cos(2 * np.pi * x)).sum()))


@pytest.mark.parametrize(
    "func, bounds, budget",
    [
        (_wavy2, [(-2.0, 2.0), (-2.0, 2.0)], 600),
        (_wavy2, [(-2.0, 2.0), (-2.0, 2.0)], 17),
        (_rastrigin4, [(-3.0, 3.0), (-1.0, 2.0), (-2.0, 4.0), (0.5, 3.0)], 1200),
        (_rastrigin4, [(-3.0, 3.0), (-1.0, 2.0), (-2.0, 4.0), (0.5, 3.0)], 100),
        (_rastrigin4, [(-3.0, 3.0), (-1.0, 2.0), (0.0, 0.0), (0.5, 3.0)], 400),
    ],
    ids=["2d", "2d-small-budget", "4d", "4d-small-budget", "4d-collapsed-axis"],
)
def test_lockstep_matches_sequential(func, bounds, budget):
    report = lockstep_maximize(func, bounds, budget)
    assert report == sequential_maximize(func, bounds, budget)
    assert report.evaluations <= budget


@pytest.mark.parametrize("theta", [0.0, 1.0, 2.5], ids=["shipped", "phase-1.0", "phase-2.5"])
def test_lockstep_matches_sequential_on_fig3_optimize(theta):
    # the shipped optimizer config with every drive phase shifted by theta
    model = dict(FIG3_OPTIMIZE["model"])
    model["x"] = [[z.real, z.imag] for z in (complex(*x) * cmath.exp(1j * theta) for x in model["x"])]
    spec = model_spec_from_json(model)
    groups = [(g,) if isinstance(g, str) else tuple(g) for g in FIG3_OPTIMIZE["free"]]
    bounds = [tuple(b) for b in FIG3_OPTIMIZE["bounds"]]
    budget, sites = FIG3_OPTIMIZE["budget"], tuple(FIG3_OPTIMIZE["sites"])
    names = ["|".join(g) for g in groups]

    report = optimize_concurrence(spec, groups, bounds, budget=budget, sites=sites)
    evaluate = point_evaluator(spec, groups, (ObservableSpec("concurrence", sites=sites),), "parameters")
    assert report == sequential_maximize(lambda x: evaluate([x])[0][-1], bounds, budget, names)
    if theta == 0.0:
        assert report.evaluations == 694
        assert report.best_value == 0.4173338219281675


def test_at_bound_names_the_end_each_parameter_sits_on():
    bounds = [(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (2.0, 2.0)]
    assert at_bound({"a": -1.0, "b": 1.0, "c": 0.5, "d": 2.0}, bounds) == {"a": "lo", "b": "hi", "c": None, "d": "lo"}
    # the search clips its points to the box, so a best pushed out of it lands on the bound exactly
    report = lockstep_maximize(lambda x: float(x[1] - x[0] - (x[2] - 0.3) ** 2), [(-2.0, 3.0)] * 3, budget=400)
    assert at_bound(report.best_params, [(-2.0, 3.0)] * 3) == {"p0": "lo", "p1": "hi", "p2": None}
