import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import run_fresh
from polariton_ring import experiments, steady
from polariton_ring.cli import main, summary_path
from polariton_ring.steady import UNIQUENESS_TOL

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def pair_model_json(phi1=np.pi, phi3=0.0, drive=5.0):
    return {
        "model": "pair_eff",
        "Gamma": [1.0, 76.0, 1.0],
        "x": [
            [drive * np.cos(phi1), drive * np.sin(phi1)],
            [0.0, 0.0],
            [drive * np.cos(phi3), drive * np.sin(phi3)],
        ],
        "y": [0.0, 0.0, 0.0],
        "z": [1.01, 1.01, 1.01],
    }


def test_solve_undriven_ring(tmp_path):
    out = tmp_path / "solve.csv"
    code = main(["solve", "--config", str(CONFIGS / "solve_ring_undriven.json"), "--out", str(out)])
    assert code == 0
    assert out.exists()
    summary = json.loads(summary_path(out).read_text())
    pops = summary["populations"]
    assert pops[0] == pytest.approx(1.0, abs=1e-10)
    assert max(pops[1:]) <= 1e-10
    assert summary["observables"]["concurrence_1_2"] == pytest.approx(0.0, abs=1e-8)
    assert summary["unique"] is True
    assert 1.0 <= summary["uniqueness_bound"] < 1e-2 / UNIQUENESS_TOL
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,population"
    assert len(lines) == 9


def test_solve_records_wall_time_and_version(tmp_path):
    out = tmp_path / "solve.csv"
    cfg = write_config(tmp_path, {"model": pair_model_json()})
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(summary_path(out).read_text())
    assert summary["wall_time_s"] > 0
    assert summary["version"]
    assert summary["command"] == "solve"


def test_malformed_config_exits_2_without_outputs(tmp_path):
    out = tmp_path / "data.csv"
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert not summary_path(out).exists()


def test_unknown_key_rejected(tmp_path):
    out = tmp_path / "data.csv"
    cfg = write_config(tmp_path, {"model": pair_model_json(), "typo": 1})
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_model_key_rejected(tmp_path):
    out = tmp_path / "data.csv"
    model = pair_model_json()
    model["gamma"] = 2.0
    cfg = write_config(tmp_path, {"model": model})
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]) == 2


def test_degenerate_model_exits_1(tmp_path):
    # collective-only decay has a dark state: solver flags non-uniqueness
    model = {
        "model": "pair_thermal",
        "Gamma": [1.0],
        "x": [[0.0, 0.0]],
        "y": [0.0],
        "z": [1.0],
        "n_p": 0.0,
    }
    cfg = write_config(tmp_path, {"model": model})
    out = tmp_path / "data.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_non_unique_sweep_point_exits_1(tmp_path, capsys):
    # the dark-state model of test_degenerate_model_exits_1, reached by a sweep
    model = {"model": "pair_thermal", "Gamma": [1.0], "x": [[0.0, 0.0]], "y": [0.0], "z": [1.0]}
    cfg = write_config(tmp_path, {
        "model": model,
        "axes": [{"path": "y[0]", "grid": [0.0, 1.0]}],
        "observables": [{"kind": "concurrence", "sites": [0, 1]}],
    })
    out = tmp_path / "data.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "grid point {'y[0]': 0.0}" in err and "not unique" in err
    assert not out.exists()
    assert not summary_path(out).exists()


def test_non_unique_thermal_point_exits_1(tmp_path, capsys):
    # y = 0, z = 1 leaves the pair's singlet dark at x = 0
    cfg = write_config(tmp_path, {"x_grid": [0.0, 1.0], "t_grid": [0.05], "y": 0.0, "z": 1.0})
    out = tmp_path / "thermal.csv"
    assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "T_R = 0.05: grid point {'x[0].re': 0.0}" in err and "not unique" in err
    assert not out.exists()
    assert not summary_path(out).exists()


def test_non_unique_optimize_point_exits_1(tmp_path, capsys):
    model = {"model": "pair_thermal", "Gamma": [1.0], "x": [[0.0, 0.0]], "y": [0.0], "z": [1.0]}
    cfg = write_config(tmp_path, {"model": model, "free": ["y[0]"], "bounds": [[0.0, 0.0]], "budget": 10})
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "{'y[0]': 0.0}" in err and "not unique" in err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize(
    "command, config", [("sweep", "fig5_sweep.json"), ("thermal", "thermal_map.json"), ("optimize", "fig3_optimize.json")]
)
def test_compile_self_check_failure_exits_1(tmp_path, capsys, monkeypatch, command, config):
    # a compiled model that disagrees with the assembled one is a program
    # fault, not a config error
    honest = experiments.coefficients
    monkeypatch.setattr(experiments, "coefficients", lambda spec: 1.01 * honest(spec))
    out = tmp_path / "data.csv"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "run failed: compiled" in err and "differs from the assembled one" in err
    assert not out.exists()
    assert not summary_path(out).exists()


def test_thermal_bad_z_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"x_grid": [0.0, 1.0], "t_grid": [0.05], "y": 0.0, "z": 0.5})
    out = tmp_path / "thermal.csv"
    assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("Gamma", [float("nan")]), ("z", [float("inf")])],
)
def test_bad_model_values_exit_2_without_outputs(tmp_path, capsys, field, value):
    model = {"model": "pair_thermal", "Gamma": [1.0], "x": [[1.0, 0.0]], "y": [15.0], "z": [1.01]}
    model[field] = value
    cfg = write_config(tmp_path, {"model": model})
    out = tmp_path / "data.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


def sweep_config(count=3):
    return {
        "model": pair_model_json(),
        "axes": [
            {"path": "x[0].phase", "grid": {"start": 0.0, "stop": 6.283185307179586, "count": count}},
            {"path": "x[2].phase", "grid": {"start": 0.0, "stop": 6.283185307179586, "count": count}},
        ],
        "observables": [{"kind": "concurrence", "sites": [0, 1]}],
    }


def test_sweep_roundtrip_bit_identical(tmp_path):
    cfg = write_config(tmp_path, sweep_config())
    out1 = tmp_path / "a.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    summary = json.loads(summary_path(out1).read_text())
    assert summary["rows"] == 9
    # re-run from the echoed config: bit-identical CSV
    cfg2 = write_config(tmp_path, summary["config"], name="echo.json")
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_workers_flag(tmp_path, capsys):
    # every command runs on one thread: --workers parses, and takes only 1
    cfg = write_config(tmp_path, sweep_config())
    out1 = tmp_path / "w1.csv"
    plain = tmp_path / "plain.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(plain)]) == 0
    assert out1.read_bytes() == plain.read_bytes()
    for workers in ("2", "0"):
        out = tmp_path / f"w{workers}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]) == 2
        assert "--workers must be 1" in capsys.readouterr().err
        assert not out.exists()
        assert not summary_path(out).exists()


def test_sweep_grid_as_list(tmp_path):
    cfg_obj = sweep_config()
    cfg_obj["axes"][0]["grid"] = [0.0, 3.141592653589793]
    cfg = write_config(tmp_path, cfg_obj)
    out = tmp_path / "list.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(summary_path(out).read_text())["rows"] == 6


def test_optimize_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": pair_model_json(phi1=np.pi),
            "free": ["x[1].re"],
            "bounds": [[0.0, 0.0]],
            "budget": 10,
            "sites": [0, 1],
        },
    )
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(summary_path(out).read_text())
    assert summary["best_value"] == pytest.approx(0.470, abs=0.01)
    assert out.read_text().startswith("improvement,")


def test_fig3_optimize_best_sits_on_the_lower_hopping_bounds(tmp_path):
    # C keeps rising past |y| = 15, so the refined ring point is the box's
    # lower edge in both hoppings; the middle drive is inside its box
    out = tmp_path / "fig3_opt.csv"
    assert main(["optimize", "--config", str(CONFIGS / "fig3_optimize.json"), "--out", str(out)]) == 0
    summary = json.loads(summary_path(out).read_text())
    assert summary["at_bound"] == {"x[1].re": None, "x[1].im": None, "y[0]|y[2]": "lo", "y[1]": "lo"}
    assert summary["best_params"]["y[0]|y[2]"] == summary["best_params"]["y[1]"] == -15.0


def test_thermal_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        {"x_grid": {"start": -2.0, "stop": 2.0, "count": 5}, "t_grid": [0.05], "y": 15.0, "z": 1.01},
    )
    out = tmp_path / "thermal.csv"
    assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,T_R,d,abs_dd_dx,t_in_range"
    assert len(lines) == 6
    summary = json.loads(summary_path(out).read_text())
    assert summary["d_min"] >= 0.0


def test_validate_cli_fast(tmp_path):
    micro = {
        "model": "micro",
        "n_sites": 2,
        "J": [0.1],
        "kappa": 1.0,
        "gamma_p": 0.05,
        "alpha": [0.05],
        "phi": [0.0],
        "omega_c": [1.0],
        "omega_p": [1.0, 1.0],
        "omega_d": 1.0,
        "n_boson": 2,
    }
    cfg = write_config(tmp_path, {"micro": micro})
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(summary_path(out).read_text())
    (dist,) = summary["distances"].values()
    assert dist <= 0.05
    assert out.read_text().startswith("j_over_kappa,distance")


@pytest.mark.parametrize("command, config", [("solve", "solve_ring_undriven.json"), ("validate", "validate.json")])
def test_single_point_commands_make_no_least_squares_solve(tmp_path, monkeypatch, command, config):
    # solve and validate take each state from the LU of its trace-zero system;
    # least squares runs only as a compile's reference, and they compile nothing
    calls = []
    honest = steady.lstsq_solve
    monkeypatch.setattr(steady, "lstsq_solve", lambda *args: calls.append(args) or honest(*args))
    assert main([command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == []


SHIPPED_RUNS = [("solve", "solve_ring_undriven"), ("validate", "validate"), ("sweep", "fig5_sweep"),
                ("sweep", "fig3_sweep"), ("thermal", "thermal_map"), ("optimize", "fig3_optimize")]

SCIPY_FOOTPRINT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import polariton_ring
assert scipy_modules() == ["scipy.linalg._flapack"], f"import polariton_ring loads {scipy_modules()}"
from polariton_ring.cli import main
configs, out = sys.argv[1:3]
for command, config in json.loads(sys.argv[3]):
    assert main([command, "--config", f"{configs}/{config}.json", "--out", f"{out}/{config}.csv"]) == 0, config
    assert scipy_modules() == ["scipy.linalg._flapack"], f"{command} --config {config}.json loads {scipy_modules()}"
print("footprint held")
"""


def test_no_command_loads_scipy_linalg(tmp_path):
    # the package takes its LAPACK from scipy's _flapack extension alone; the
    # scipy.linalg package around it would cost every call about 0.18 s of
    # import and 18 MB: in one fresh process, neither the import nor any
    # shipped command may load any other scipy module, scipy.linalg included
    done = run_fresh(SCIPY_FOOTPRINT, str(CONFIGS), str(tmp_path), json.dumps(SHIPPED_RUNS))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "footprint held"


@pytest.mark.parametrize("grid", [[0.0, float("nan")], [float("-inf"), 0.0]])
def test_sweep_non_finite_grid_exits_2(tmp_path, capsys, grid):
    cfg_obj = sweep_config()
    cfg_obj["axes"][0]["grid"] = grid
    cfg = write_config(tmp_path, cfg_obj)
    out = tmp_path / "data.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize("ratio", [0.0, -0.05, float("nan"), float("inf")])
def test_validate_bad_ratio_exits_2(tmp_path, capsys, ratio):
    cfg_obj = json.loads((CONFIGS / "validate.json").read_text())
    cfg_obj["j_over_kappa"] = [0.05, ratio]
    cfg = write_config(tmp_path, cfg_obj)
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "j_over_kappa" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize("bounds", [[[5.0, -5.0]], [[0.0, float("nan")]], [[1.0]], [3.0]])
def test_optimize_bad_bounds_exit_2(tmp_path, capsys, bounds):
    cfg = write_config(tmp_path, {"model": pair_model_json(), "free": ["x[1].re"], "bounds": bounds, "budget": 10})
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    assert "bounds" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize(
    "x_grid",
    [["a"], [0.0, None], {"start": -1.0, "stop": 1.0, "count": "many"}, {"start": -1.0, "stop": 1.0, "count": 2.5},
     {"start": "a", "stop": 1.0, "count": 3}, [], [0.0, float("nan")], [1.0, 0.0]],
)
def test_thermal_bad_grid_exits_2(tmp_path, capsys, x_grid):
    cfg = write_config(tmp_path, {"x_grid": x_grid, "t_grid": [0.05]})
    out = tmp_path / "thermal.csv"
    assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == 2
    assert "x_grid" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize("count", ["3", 2.5, True, float("inf")])
def test_sweep_non_integer_count_exits_2(tmp_path, capsys, count):
    cfg_obj = sweep_config()
    cfg_obj["axes"][0]["grid"]["count"] = count
    cfg = write_config(tmp_path, cfg_obj)
    out = tmp_path / "data.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "count must be an integer" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize("budget", ["many", 10.5, None])
def test_optimize_non_integer_budget_exits_2(tmp_path, capsys, budget):
    cfg = write_config(
        tmp_path, {"model": pair_model_json(), "free": ["x[1].re"], "bounds": [[-1.0, 1.0]], "budget": budget}
    )
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    assert "budget must be an integer" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


def test_non_list_sites_exit_2(tmp_path, capsys):
    solve_cfg = write_config(tmp_path, {"model": pair_model_json(), "observables": [{"kind": "concurrence", "sites": 5}]})
    opt_cfg = write_config(
        tmp_path, {"model": pair_model_json(), "free": ["x[1].re"], "bounds": [[-1.0, 1.0]], "budget": 5, "sites": 5},
        name="opt.json",
    )
    for command, cfg in (("solve", solve_cfg), ("optimize", opt_cfg)):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        assert not summary_path(out).exists()


def test_validate_requires_micro_model(tmp_path):
    cfg = write_config(tmp_path, {"micro": pair_model_json()})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v.csv")]) == 2


def test_bundled_configs_parse(tmp_path):
    # every shipped config must at least decode (run the cheap one end to end)
    for name in ("fig5_sweep.json", "fig3_sweep.json", "fig3_optimize.json",
                 "thermal_map.json", "validate.json", "solve_ring_undriven.json"):
        assert (CONFIGS / name).exists(), name
    out = tmp_path / "ring.csv"
    code = main(["solve", "--config", str(CONFIGS / "solve_ring_undriven.json"), "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize(
    "ratios", [["a"], [None], 0.05, "0.05", {"a": 1}], ids=["string", "null", "scalar", "text", "object"]
)
def test_validate_undecodable_ratios_exit_2(tmp_path, capsys, ratios):
    cfg_obj = json.loads((CONFIGS / "validate.json").read_text())
    cfg_obj["j_over_kappa"] = ratios
    cfg = write_config(tmp_path, cfg_obj)
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "j_over_kappa" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


RING_MODEL = json.loads((CONFIGS / "solve_ring_undriven.json").read_text())["model"]


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if anything reaches a steady-state solve."""
    from polariton_ring import experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("a steady state was solved before the config was checked")

    monkeypatch.setattr(experiments, "steady_state_on", forbidden)
    monkeypatch.setattr(experiments, "steady_state_of", forbidden)


@pytest.mark.parametrize(
    "observable, message",
    [
        ({"kind": "concurrence", "sites": [0, 5]}, "out of range"),
        ({"kind": "purity", "sites": [-1]}, "out of range"),
        ({"kind": "concurrence", "sites": [1, 1]}, "distinct"),
        ({"kind": "population", "sites": [0], "level": 7}, "level 7"),
        ({"kind": "trace_distance_to_gibbs", "T": -0.05}, "temperature must be finite"),
        ({"kind": "population", "sites": [0], "level": 1.5}, "level must be an integer"),
        ({"kind": "concurrence", "sites": [0.5, 1]}, "sites[0] must be an integer"),
        ({"kind": "trace_distance_to_gibbs", "T": 0.05, "sites": [0]}, "takes no sites"),
        # not an object: stands for the whole observables value
        (5, "observables must be a list"),
        # an empty site list is not the whole state: that is an omitted one
        ({"kind": "purity", "sites": []}, "purity sites must not be empty"),
    ],
)
def test_solve_observable_outside_model_exits_2(tmp_path, capsys, no_solve, observable, message):
    observables = [observable] if isinstance(observable, dict) else observable
    cfg = write_config(tmp_path, {"model": RING_MODEL, "observables": observables})
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()
    assert not summary_path(out).exists()


def test_sweep_population_level_outside_qubit_exits_2(tmp_path, capsys, no_solve):
    cfg_obj = sweep_config()
    cfg_obj["observables"] = [{"kind": "population", "sites": [0], "level": 2}]
    cfg = write_config(tmp_path, cfg_obj)
    out = tmp_path / "data.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "level 2" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


def test_optimize_sites_outside_model_exit_2(tmp_path, capsys, no_solve):
    cfg = write_config(
        tmp_path, {"model": pair_model_json(), "free": ["x[1].re"], "bounds": [[-1.0, 1.0]], "budget": 5, "sites": [0, 5]}
    )
    out = tmp_path / "opt.csv"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 2
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize(
    "model, path, grid, message",
    [
        (pair_model_json(), "Gamma[0]", [-1.0, 0.5, 1.0], "{'Gamma[0]': -1.0}: all Gamma must be positive"),
        ({"model": "pair_thermal", "Gamma": [1.0], "x": [[2.0, 0.0]], "y": [15.0], "z": [1.01]},
         "z[0]", [0.5, 1.5], "{'z[0]': 0.5}"),
        # a grid is checked at its ends, so of its two bad values only the first is named
        (pair_model_json(), "Gamma[1]", [-1.0, -0.5, 0.5], "{'Gamma[1]': -1.0}: all Gamma must be positive"),
    ],
)
def test_sweep_grid_outside_model_domain_exits_2(tmp_path, capsys, no_solve, model, path, grid, message):
    cfg = write_config(tmp_path, {"model": model, "axes": [{"path": path, "grid": grid}],
                                  "observables": [{"kind": "purity"}]})
    out = tmp_path / "data.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert "-0.5" not in err
    assert not out.exists()
    assert not summary_path(out).exists()


VALIDATE_CFG = json.loads((CONFIGS / "validate.json").read_text())
THERMAL_CFG = json.loads((CONFIGS / "thermal_map.json").read_text())
OPTIMIZE_CFG = json.loads((CONFIGS / "fig3_optimize.json").read_text())
THERMAL_SOLVE_CFG = {
    "model": {"model": "pair_thermal", "Gamma": [1.0], "x": [[2.0, 0.0]], "y": [15.0], "z": [1.01]},
    "observables": [{"kind": "trace_distance_to_gibbs", "T": 0.05}],
}
THERMAL_SWEEP_CFG = {**THERMAL_SOLVE_CFG, "axes": [{"path": "x[0].re", "grid": [0.0, 1.0]}]}
RING_SOLVE_CFG = json.loads((CONFIGS / "solve_ring_undriven.json").read_text())


def with_value(cfg, keys, value):
    """A deep copy of cfg with the value at the key path replaced."""
    cfg = json.loads(json.dumps(cfg))
    target = cfg
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return cfg


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("sweep", with_value(sweep_config(), ["model", "Gamma"], "111"), "Gamma must be a list"),
        ("validate", with_value(VALIDATE_CFG, ["micro", "n_boson"], 2.5), "n_boson must be an integer"),
        ("validate", with_value(VALIDATE_CFG, ["micro", "n_sites"], 2.9), "n_sites must be an integer"),
        ("optimize", with_value(OPTIMIZE_CFG, ["free"], 5), "free must be a list"),
        ("optimize", with_value(OPTIMIZE_CFG, ["free", 0], [1, 2]), "free[0][0] must be a parameter path"),
        ("thermal", with_value(THERMAL_CFG, ["y"], [1.0]), "y must be a number"),
        ("thermal", with_value(THERMAL_CFG, ["y"], 10**400), "y is out of range"),
        ("optimize", with_value(with_value(OPTIMIZE_CFG, ["free"], []), ["bounds"], []), "free must name"),
        ("optimize", with_value(OPTIMIZE_CFG, ["free", 0], []), "each group at least one path"),
        # grids over the point budget, rejected before anything is allocated for their points
        ("sweep", with_value(sweep_config(), ["axes", 0, "grid", "count"], 1e12),
         "axes[0].grid has 1000000000000 points, over the budget"),
        ("sweep", with_value(with_value(sweep_config(), ["axes", 0, "grid", "count"], 3_000_000),
                             ["axes", 1, "grid", "count"], 41), "axes[0].grid has 3000000 points, over the budget"),
        ("sweep", with_value(with_value(sweep_config(), ["axes", 0, "grid", "count"], 1001),
                             ["axes", 1, "grid", "count"], 1000), "sweep grid has 1001000 points, over the budget"),
        ("thermal", with_value(with_value(THERMAL_CFG, ["x_grid", "count"], 500_001), ["t_grid"], [0.01, 0.05]),
         "thermal map has 1000002 points, over the budget"),
        # temperatures must be finite and >= 0, and are plain numbers in units of the polariton quantum
        ("solve", with_value(THERMAL_SOLVE_CFG, ["observables", 0, "T"], -0.1),
         "observables[0]: temperature must be finite and >= 0, got -0.1"),
        ("solve", with_value(THERMAL_SOLVE_CFG, ["observables", 0, "T"], float("nan")),
         "observables[0]: temperature must be finite and >= 0, got nan"),
        ("solve", with_value(THERMAL_SOLVE_CFG, ["observables", 0, "omega"], -1), "observables[0]: ['omega']"),
        ("sweep", with_value(THERMAL_SWEEP_CFG, ["observables", 0, "T"], -0.1),
         "observables[0]: temperature must be finite and >= 0, got -0.1"),
        # a field that the observable's kind ignores
        ("solve", with_value(THERMAL_SOLVE_CFG, ["observables", 0], {"kind": "purity", "T": -5}),
         "observables[0]: purity takes no temperature T"),
        ("solve", with_value(RING_SOLVE_CFG, ["observables", 0],
                             {"kind": "concurrence", "sites": [1, 2], "level": 1}),
         "observables[0]: concurrence takes no level"),
        # a bound endpoint outside the model's domain, checked at the base model before the compile
        ("optimize", with_value(with_value(OPTIMIZE_CFG, ["free"], ["z[1]"]), ["bounds"], [[0.5, 5.0]]),
         "bounds[0] endpoint {'z[1]': 0.5}: all z must be >= 1"),
        ("optimize", with_value(with_value(OPTIMIZE_CFG, ["free"], ["x[1].re", ["y[1]", "Gamma[1]"]]),
                                ["bounds"], [[-1.0, 1.0], [-2.0, 2.0]]),
         "bounds[1] endpoint {'y[1]|Gamma[1]': -2.0}: all Gamma must be positive"),
        # a path repeated across or within free groups, and a bad box or budget,
        # rejected before the compile
        ("optimize", with_value(with_value(OPTIMIZE_CFG, ["free"], ["y[0]", "y[0]"]), ["bounds"], [[0, 1], [2, 3]]),
         "free names ['y[0]'] more than once"),
        ("optimize", with_value(with_value(OPTIMIZE_CFG, ["free"], [["y[1]", "y[1]"]]), ["bounds"], [[0, 1]]),
         "free names ['y[1]'] more than once"),
        ("optimize", with_value(with_value(OPTIMIZE_CFG, ["free"], ["x[1].re"]), ["bounds"], [[5.0, -5.0]]),
         "bounds[0] = [5.0, -5.0] has lower bound above upper bound"),
        ("optimize", with_value(with_value(OPTIMIZE_CFG, ["free"], ["x[1].re"]), ["bounds"], [[0.0, float("inf")]]),
         "bounds[0] = [0.0, inf] must be finite"),
        ("optimize", with_value(OPTIMIZE_CFG, ["budget"], 0), "budget must be at least 1"),
        # a path on two axes, rejected before the compile
        ("sweep", with_value(THERMAL_SWEEP_CFG, ["axes"], [{"path": "x[0].re", "grid": [0.0, 1.0]},
                                                          {"path": "x[0].re", "grid": [2.0, 3.0]}]),
         "axes name ['x[0].re'] more than once"),
        # an index that is not decimal digits, named with its path
        ("sweep", with_value(THERMAL_SWEEP_CFG, ["axes", 0, "path"], "x[].re"),
         "index must be decimal digits in path 'x[].re'"),
        # one x point has no derivative, rejected before the compile
        ("thermal", {"x_grid": [1.0], "t_grid": [0.05]}, "x_grid has 1 point"),
        ("thermal", with_value(THERMAL_CFG, ["x_grid", "count"], 1), "x_grid has 1 point"),
        # a repeated ratio, rejected before the first solve
        ("validate", with_value(VALIDATE_CFG, ["j_over_kappa"], [0.05, 0.025, 0.05]),
         "j_over_kappa names ['0.05'] more than once"),
        # a ratio outside the weak-coupling regime, rejected before the solves of the ratios ahead of it
        ("validate", with_value(VALIDATE_CFG, ["j_over_kappa"], [0.05, 0.2]),
         "J/kappa = 0.200 outside the validity regime"),
        ("sweep", with_value(THERMAL_SWEEP_CFG, ["observables"], [{"kind": "purity", "sites": []}]),
         "observables[0]: purity sites must not be empty: omit sites for the whole state"),
        ("solve", with_value(THERMAL_SOLVE_CFG, ["observables"], [{"kind": "purity", "sites": []}]),
         "observables[0]: purity sites must not be empty: omit sites for the whole state"),
        # two columns of one name would repeat a CSV header and merge in column_stats, or in
        # solve's summary, where d_gibbs at two temperatures kept only the last
        ("sweep", with_value(THERMAL_SWEEP_CFG, ["observables"], [{"kind": "purity"}, {"kind": "purity"}]),
         "observable columns ['purity'] more than once"),
        ("solve", with_value(THERMAL_SOLVE_CFG, ["observables"], [{"kind": "trace_distance_to_gibbs", "T": 0.01},
                                                                  {"kind": "trace_distance_to_gibbs", "T": 0.05}]),
         "observable columns ['d_gibbs'] more than once"),
    ],
    ids=["sweep-Gamma-string", "validate-n_boson-fraction", "validate-n_sites-fraction", "optimize-free-scalar",
         "optimize-free-numbers", "thermal-y-list", "thermal-y-overflow", "optimize-free-empty",
         "optimize-free-empty-group", "sweep-count-1e12", "sweep-3e6x41", "sweep-1001x1000", "thermal-500001x2",
         "solve-T-negative", "solve-T-nan", "solve-omega", "sweep-T-negative", "solve-purity-T",
         "solve-concurrence-level", "optimize-bound-z-below-1", "optimize-group-bound-Gamma-negative",
         "optimize-free-repeated-across-groups", "optimize-free-repeated-in-group", "optimize-bounds-reversed",
         "optimize-bound-infinite", "optimize-budget-0", "sweep-axis-repeated", "sweep-axis-empty-index",
         "thermal-x-one-point", "thermal-x-count-1", "validate-ratio-repeated", "validate-ratio-outside-regime",
         "sweep-purity-sites-empty", "solve-purity-sites-empty", "sweep-observable-column-repeated",
         "solve-observable-column-repeated"],
)
def test_bad_config_value_exits_2(tmp_path, capsys, no_solve, command, config, message):
    out = tmp_path / "data.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    # one message per fault: a ratio outside the regime is rejected before its model is built, which would warn
    assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == []
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize("command", ["sweep", "optimize"])
@pytest.mark.parametrize("path", ["y[0]", "y[2]", "z[0]", "z[2]"])
def test_inert_pair_eff_path_exits_2(tmp_path, capsys, no_solve, command, path):
    # the end guides of pair_eff couple one site each, so their y and z enter no coefficient
    if command == "sweep":
        cfg = {"model": pair_model_json(), "axes": [{"path": path, "grid": [1.0, 2.0]}],
               "observables": [{"kind": "purity"}]}
    else:
        cfg = {"model": pair_model_json(), "free": [path], "bounds": [[1.0, 2.0]], "budget": 10}
    out = tmp_path / "data.csv"
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"path '{path}' does not enter model pair_eff" in err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("optimize", {**OPTIMIZE_CFG, "free": ["x[1].re"], "bounds": [[-1e200, 1e200]], "budget": 20},
         "run failed: parameters {'x[1].re': -1e+200} failed: "),
        ("sweep", {"model": OPTIMIZE_CFG["model"], "axes": [{"path": "x[1].re", "grid": [-1e200, 1e200]}],
                   "observables": [{"kind": "purity"}]},
         "run failed: grid point {'x[1].re': -1e+200} failed: "),
        # finite parameters whose coefficient Γ₁x₁ overflows
        ("sweep", {"model": with_value(pair_model_json(), ["x", 0], [1e10, 0.0]),
                   "axes": [{"path": "Gamma[0]", "grid": [1.0, 1e300]}], "observables": [{"kind": "purity"}]},
         "run failed: grid point {'Gamma[0]': 1e+300} failed: matrix contains non-finite entries"),
    ],
    ids=["optimize", "sweep", "sweep-coefficient-overflow"],
)
def test_point_failure_exits_1_naming_the_point(tmp_path, capsys, command, config, message):
    # a drive of 1e200 is inside the model's domain, but its Liouvillian is not
    # finite: a failure at a point, reported alike by the optimizer and the
    # sweep, and without a numpy warning
    out = tmp_path / "data.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()
    assert not summary_path(out).exists()


# finite base parameters whose coefficient Γ₁x₁ overflows
OVERFLOWING_MODEL = with_value(with_value(pair_model_json(), ["Gamma", 0], 1e200), ["x", 0], [1e200, 0.0])
# the shipped micro model with a guide detuning ω_c − ω_d of 2e308
OVERFLOWING_MICRO = dict(VALIDATE_CFG["micro"], omega_c=[1e308], omega_d=-1e308)
NON_FINITE = "matrix contains non-finite entries: the "


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("sweep", {"model": OVERFLOWING_MODEL, "axes": [{"path": "x[1].re", "grid": [0.0, 1.0]}],
                   "observables": [{"kind": "purity"}]}, NON_FINITE),
        ("solve", {"model": OVERFLOWING_MODEL}, NON_FINITE),
        ("optimize", {"model": OVERFLOWING_MODEL, "free": ["x[1].re"], "bounds": [[-1.0, 1.0]], "budget": 5},
         NON_FINITE),
        # the decay weight Γ + γ(n_p+1)/2 with γ = 2Γ(z−1) overflows
        ("thermal", {"x_grid": [0.0, 1.0], "t_grid": [0.05], "y": 1e308, "z": 1e308}, NON_FINITE),
        # the micro Hamiltonian's (ω_c − ω_d)·a†a overflows
        ("solve", {"model": OVERFLOWING_MICRO}, NON_FINITE + "micro Hamiltonian or rates overflow"),
        # the guide detuning's square overflows in the eliminated form
        ("validate", {"micro": OVERFLOWING_MICRO}, "the pair1 parameters overflow their eliminated form"),
    ],
    ids=["sweep", "solve", "optimize", "thermal", "solve-micro", "validate-micro"],
)
def test_base_coefficient_overflow_fails_the_run(tmp_path, capsys, command, config, message):
    # the base model itself overflows: every command reports a failed run, as
    # a grid point does, without a traceback or a numpy warning
    out = tmp_path / "data.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 1
    assert "run failed: " + message in capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()
    assert not summary_path(out).exists()


def test_solve_on_a_huge_drive_exits_1(tmp_path, capsys):
    # a drive of 1e200 is inside the model's domain, but the norm ‖M‖_F of its
    # trace-zero system overflows: the single-point solve reports a failed
    # run, as the sweep and the optimizer do, not a traceback
    model = with_value(OPTIMIZE_CFG["model"], ["x", 1], [1e200, 0.0])
    out = tmp_path / "data.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(write_config(tmp_path, {"model": model})), "--out", str(out)]) == 1
    assert "run failed: steady state is not finite" in capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize("model, guide, z", [("ring3_eff", 0, 1e308), ("pair_eff", 1, 1.5e306)])
def test_solve_where_the_bare_decay_overflows_exits_1(tmp_path, capsys, model, guide, z):
    # Gamma z is finite (1e308 and 1.14e308), but the bare decay 2 Gamma (z - 1)
    # behind the upward weight overflows: the coefficients are not finite, as
    # they are on pair_thermal, and the run fails without a warning or a traceback
    base = RING_MODEL if model == "ring3_eff" else pair_model_json()
    cfg = {"model": with_value(base, ["z", guide], z)}
    out = tmp_path / "data.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"run failed: matrix contains non-finite entries: the {model} coefficients overflow" in err
    assert "Traceback" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()
    assert not summary_path(out).exists()


def test_solve_at_subnormal_rates_exits_1_naming_non_uniqueness(tmp_path, capsys):
    # at Gamma = 1e-310 the SVD finds the trace-zero system not unique, and its
    # minimum-norm solution is no state: the run fails as "not unique"
    model = {"model": "pair_thermal", "Gamma": [1e-310], "x": [[1.0, 0.0]], "y": [15.0], "z": [1.01]}
    out = tmp_path / "data.csv"
    assert main(["solve", "--config", str(write_config(tmp_path, {"model": model})), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "run failed: steady state is not unique" in err
    assert "completely positive" not in err and "Traceback" not in err
    assert not out.exists()
    assert not summary_path(out).exists()


@pytest.mark.parametrize(
    "command, config, defaults",
    [
        ("thermal", {"x_grid": [-1.0, 0.0, 1.0], "t_grid": [0.05]}, {"y": 15.0, "z": 1.01}),
        ("optimize", {"model": pair_model_json(), "free": ["x[1].re"], "bounds": [[-1.0, 1.0]]}, {"budget": 2000}),
    ],
    ids=["thermal", "optimize"],
)
def test_unset_keys_run_at_the_library_defaults(tmp_path, command, config, defaults):
    # the CLI passes only the keys a config sets, so a config without them
    # writes what one setting them to the defaults of thermal_map and
    # optimize_concurrence writes, and echoes only what it was given
    outputs = []
    for name, cfg in (("unset", config), ("set", {**config, **defaults})):
        out = tmp_path / f"{name}.csv"
        assert main([command, "--config", str(write_config(tmp_path, cfg, f"{name}.json")), "--out", str(out)]) == 0
        summary = json.loads(summary_path(out).read_text())
        assert set(summary.pop("config")) == set(cfg)
        del summary["wall_time_s"]
        outputs.append((out.read_bytes(), summary))
    assert outputs[0] == outputs[1]


def micro_json(geometry, **changes):
    """A decodable micro model of one geometry at J/kappa = 0.05, with ``changes`` applied."""
    n_sites, n_guides = {"pair1": (2, 1), "pair3": (2, 3), "ring3": (3, 3)}[geometry]
    micro = dict(VALIDATE_CFG["micro"], n_sites=n_sites, J=[0.05] * n_guides, alpha=[0.025] * n_guides,
                 phi=[0.0] * n_guides, omega_c=[1.0] * n_guides, omega_p=[1.0] * n_sites,
                 n_boson=3 if geometry == "pair1" else 2)
    return dict(micro, **changes)


@pytest.mark.parametrize(
    "micro, message",
    [
        (micro_json("pair1", J=[0.0], alpha=[0.0]), "validate needs every J > 0"),
        (micro_json("pair3", J=[0.05, 0.0, 0.05], alpha=[0.025, 0.0, 0.025]), "validate needs every J > 0"),
        (micro_json("pair1", n_c=0.2), "n_c = 0.2"),
    ],
    ids=["zero-J-pair1", "zero-J-pair3", "thermal-guides"],
)
def test_validate_without_eliminated_form_exits_2(tmp_path, capsys, no_solve, micro, message):
    cfg = write_config(tmp_path, dict(VALIDATE_CFG, micro=micro))
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()
    assert not summary_path(out).exists()


def test_validate_three_guide_pair_with_thermal_pumping(tmp_path):
    # n_p > 0 has an eliminated form on every geometry, so it reaches the
    # solve. Measured at J/kappa = 0.05: d = 5.70e-4 at n_p = 0 and 1.11e-3 at
    # n_p = 0.1; the bound is twice the latter. n_boson = 2 is not a converged
    # truncation, so d is the distance at that truncation, not the limit.
    cfg = write_config(tmp_path, dict(VALIDATE_CFG, micro=micro_json("pair3", n_p=0.1), j_over_kappa=[0.05]))
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    (distance,) = json.loads(summary_path(out).read_text())["distances"].values()
    assert 0 < distance <= 2.2e-3


def test_validate_warns_only_for_the_models_it_solves(tmp_path):
    # the base micro is only rescaled: outside the weak-driving regime (J = 0.2
    # kappa), it gives no warning when every solved micro is inside it
    micro = dict(VALIDATE_CFG["micro"], J=[0.2], alpha=[0.1])
    cfg = write_config(tmp_path, dict(VALIDATE_CFG, micro=micro, j_over_kappa=[0.05]))
    out = tmp_path / "val.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == []
    # a solved micro whose alpha exceeds its J warns, once
    cfg = write_config(tmp_path, dict(VALIDATE_CFG, micro=dict(micro, alpha=[0.3]), j_over_kappa=[0.05]))
    with pytest.warns(UserWarning, match="weak-driving regime") as caught:
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(caught) == 1


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("solve", {"model": dict(pair_model_json(), n_p=0.5),
                   "observables": [{"kind": "trace_distance_to_gibbs", "T": 0.1}]}),
        ("solve", {"model": dict(RING_MODEL, n_p=0.1), "observables": [{"kind": "trace_distance_to_gibbs", "T": 0.1}]}),
        ("sweep", {"model": RING_MODEL, "axes": [{"path": "n_p", "grid": [0.0, 1.0, 5.0]}],
                   "observables": [{"kind": "concurrence", "sites": [1, 2]},
                                   {"kind": "trace_distance_to_gibbs", "T": 0.1}]}),
        ("optimize", {"model": RING_MODEL, "free": ["n_p"], "bounds": [[0.0, 1.0]], "budget": 5}),
    ],
    ids=["solve", "solve-ring", "sweep", "optimize"],
)
def test_n_p_on_every_effective_model_exits_0(tmp_path, command, cfg):
    out = tmp_path / "data.csv"
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert out.exists() and summary_path(out).exists()
    if command == "solve":
        d = json.loads(summary_path(out).read_text())["observables"]["d_gibbs"]
        assert isinstance(d, float) and np.isfinite(d)


def test_zero_n_p_stays_valid_without_thermal_pumping(tmp_path):
    out = tmp_path / "data.csv"
    cfg = {"model": RING_MODEL, "axes": [{"path": "n_p", "grid": [0.0]}], "observables": [{"kind": "purity"}]}
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    cfg = {"model": dict(pair_model_json(), n_p=0.0)}
    assert main(["solve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
