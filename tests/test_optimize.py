import numpy as np
import pytest

from polariton_ring.optimize import corner_starts, multistart_maximize, nelder_mead


def test_nelder_mead_quadratic_bowl():
    target = np.array([0.3, -0.7])

    def f(x):
        return float(((x - target) ** 2).sum())

    x, fx, evals = nelder_mead(f, np.array([2.0, 2.0]), [(-3, 3), (-3, 3)], budget=500)
    assert np.abs(x - target).max() <= 1e-3
    assert evals <= 500


def test_nelder_mead_respects_bounds():
    def f(x):
        return float(-x[0])  # pushes to the upper bound

    x, fx, _ = nelder_mead(f, np.array([0.0]), [(-1, 2)], budget=200)
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

    report = multistart_maximize(f, [(-2, 2), (-2, 2)], budget=800, param_names=["a", "b"])
    assert report.best_value == pytest.approx(1.0, abs=1e-4)
    assert report.best_params["a"] == pytest.approx(0.5, abs=0.01)
    assert report.best_params["b"] == pytest.approx(-0.25, abs=0.01)
    assert report.evaluations <= 800
    values = [v for _, v in report.trace]
    assert values == sorted(values)


def test_multistart_collapsed_bounds():
    report = multistart_maximize(lambda x: float(-x[0] ** 2), [(1.5, 1.5)], budget=50)
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
        multistart_maximize(f, bounds, budget=50)
    assert not calls


def test_multistart_budget_one():
    report = multistart_maximize(lambda x: 1.0, [(0, 1)], budget=1)
    assert report.evaluations >= 1


def test_multistart_rejects_zero_budget():
    with pytest.raises(ValueError):
        multistart_maximize(lambda x: 0.0, [(0, 1)], budget=0)


def test_multistart_deterministic():
    def f(x):
        return float(np.sin(3 * x[0]) * np.cos(2 * x[1]))

    r1 = multistart_maximize(f, [(-2, 2), (-2, 2)], budget=600)
    r2 = multistart_maximize(f, [(-2, 2), (-2, 2)], budget=600)
    assert r1.best_value == r2.best_value
    assert r1.best_params == r2.best_params
    assert r1.evaluations == r2.evaluations
