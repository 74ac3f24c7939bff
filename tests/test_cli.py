import json
from pathlib import Path

import numpy as np
import pytest

from polariton_ring.cli import main, summary_path

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


@pytest.mark.parametrize(
    "field, value",
    [("Gamma", [float("nan")]), ("z", [float("inf")]), ("x", [[-1.0, 0.0]]), ("x", [[0.0, 1.0]])],
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


def test_sweep_workers_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, sweep_config())
    out1 = tmp_path / "w1.csv"
    out4 = tmp_path / "w4.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
    monkeypatch.setenv("POLARITON_RING_THREADS", "4")
    assert main(["sweep", "--config", str(cfg), "--out", str(out4), "--workers", "1"]) == 0
    assert json.loads(summary_path(out4).read_text())["workers"] == 4
    assert out1.read_bytes() == out4.read_bytes()


def test_workers_env_invalid(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, sweep_config())
    monkeypatch.setenv("POLARITON_RING_THREADS", "lots")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


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
