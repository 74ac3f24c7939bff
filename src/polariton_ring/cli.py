"""Config-driven command line: solve, sweep, optimize, thermal, validate.

Usage:  polariton-ring <command> --config cfg.json --out data.csv [--workers 1]

Each run writes the data CSV plus a ``<out>.summary.json`` with the echoed
configuration, the command's results and wall time; only ``solve`` adds
solver diagnostics (residual, smallest eigenvalue, uniqueness and its bound).
Writes are atomic (temp file plus rename), and a malformed config aborts
before any file is created.
Exit codes: 0 success, 1 solver/validation failure, 2 config error: any value
checked before the first solve, such as a sweep axis value or an optimizer
bound endpoint outside the model's domain. Every command runs on one
thread; ``--workers`` accepts only 1, and any other value exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    CSV_FORMAT,
    Axis,
    ObservableSpec,
    SweepError,
    SweepPlan,
    SweepResult,
    check_validity_regime,
    optimize_concurrence,
    run_sweep,
    signed_x_grid,
    solve_spec,
    thermal_map,
    validate_effective,
)
from .models import (
    ConfigError,
    ModelSpec,
    check_distinct,
    check_grid_points,
    decode_float,
    decode_int,
    decode_list,
    model_space,
    model_spec_from_json,
    model_spec_to_json,
)
from .optimize import at_bound
from .steady import SteadyStateError


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _decode_path(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a parameter path string, got {value!r}")
    return value


def _decode_grid(obj, where: str) -> tuple[float, ...]:
    """A list of numbers or a start/stop/count object; Axis checks the values."""
    if isinstance(obj, list):
        return decode_list(obj, where, decode_float)
    if isinstance(obj, dict):
        _require_keys(obj, {"start", "stop", "count"}, {"start", "stop", "count"}, where)
        count = decode_int(obj["count"], f"{where}.count")
        if count < 1:
            raise ConfigError(f"{where}: count must be >= 1")
        check_grid_points(count, where)
        start, stop = (decode_float(obj[k], f"{where}.{k}") for k in ("start", "stop"))
        return tuple(np.linspace(start, stop, count))
    raise ConfigError(f"{where}: grid must be a list or a start/stop/count object")


def _decode_model(obj, where: str = "model") -> ModelSpec:
    try:
        return model_spec_from_json(obj)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _decode_observable(obj, where: str) -> ObservableSpec:
    _require_keys(obj, {"kind", "sites", "level", "T"}, {"kind"}, where)
    sites = decode_list(obj["sites"], f"{where}.sites", decode_int) if "sites" in obj else None
    level = decode_int(obj["level"], f"{where}.level") if "level" in obj else None
    T = decode_float(obj["T"], f"{where}.T") if "T" in obj else None
    try:
        return ObservableSpec(kind=obj["kind"], sites=sites, level=level, T=T)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _decode_axis(obj, where: str) -> Axis:
    _require_keys(obj, {"path", "grid"}, {"path", "grid"}, where)
    path = _decode_path(obj["path"], f"{where}.path")
    grid = _decode_grid(obj["grid"], f"{where}.grid")
    try:
        return Axis(path=path, grid=grid)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _decode_free(value, where: str) -> str | tuple[str, ...]:
    """A parameter path, or a list of paths that share one value."""
    if isinstance(value, list):
        return decode_list(value, where, _decode_path)
    return _decode_path(value, where)


def _decode_bound(value, where: str) -> tuple[float, float]:
    pair = decode_list(value, where, decode_float)
    if len(pair) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair, got {value!r}")
    return pair


def _decode_sweep_plan(cfg: dict) -> SweepPlan:
    _require_keys(cfg, {"model", "axes", "observables"}, {"model", "axes", "observables"}, "sweep config")
    model = _decode_model(cfg["model"])
    axes = decode_list(cfg["axes"], "axes", _decode_axis)
    observables = decode_list(cfg["observables"], "observables", _decode_observable)
    try:
        return SweepPlan(model=model, axes=axes, observables=observables)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# Each handler returns (csv_text, summary_payload); writing happens in main().


def _cmd_solve(cfg: dict) -> tuple[str, dict]:
    _require_keys(cfg, {"model", "observables"}, {"model"}, "solve config")
    model = _decode_model(cfg["model"])
    observables = decode_list(cfg.get("observables", []), "observables", _decode_observable)
    check_distinct([obs.column for obs in observables], "observable columns")
    for k, obs in enumerate(observables):
        try:
            obs.check_space(model_space(model))
        except ValueError as exc:
            raise ConfigError(f"observables[{k}]: {exc}") from exc
    report, rho = solve_spec(model)
    pops = [float(rho.mat[i, i].real) for i in range(rho.dim)]
    payload = {
        "populations": pops,
        "residual": report.residual,
        "min_eigenvalue": report.min_eigenvalue,
        "unique": report.unique,
        # null when no bound was formed
        "uniqueness_bound": report.uniqueness_bound if np.isfinite(report.uniqueness_bound) else None,
        "observables": {o.column: o.evaluate(rho) for o in observables},
    }
    return SweepResult(["index", "population"], [[i, p] for i, p in enumerate(pops)]).to_csv(), payload


def _cmd_sweep(cfg: dict) -> tuple[str, dict]:
    plan = _decode_sweep_plan(cfg)
    result = run_sweep(plan)
    stats = {}
    for name in plan.header[len(plan.axes):]:
        col = result.column(name)
        stats[name] = {"min": float(col.min()), "max": float(col.max())}
    return result.to_csv(), {"rows": len(result.rows), "columns": result.header, "column_stats": stats}


def _cmd_optimize(cfg: dict) -> tuple[str, dict]:
    _require_keys(
        cfg, {"model", "free", "bounds", "budget", "sites"}, {"model", "free", "bounds"}, "optimize config"
    )
    model = _decode_model(cfg["model"])
    free = decode_list(cfg["free"], "free", _decode_free)
    bounds = decode_list(cfg["bounds"], "bounds", _decode_bound)
    budget = {"budget": decode_int(cfg["budget"], "budget")} if "budget" in cfg else {}  # unset: the default
    sites = decode_list(cfg["sites"], "sites", decode_int) if "sites" in cfg else None
    try:
        report = optimize_concurrence(model, free, bounds, sites=sites, **budget)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    names = list(report.best_params)
    rows = [[k] + [params[n] for n in names] + [value] for k, (params, value) in enumerate(report.trace)]
    result = SweepResult(["improvement"] + names + ["concurrence"], rows)
    payload = {
        "best_params": report.best_params,
        "best_value": report.best_value,
        "evaluations": report.evaluations,
        "at_bound": at_bound(report.best_params, bounds),
    }
    return result.to_csv(), payload


def _cmd_thermal(cfg: dict) -> tuple[str, dict]:
    _require_keys(cfg, {"x_grid", "t_grid", "y", "z"}, {"t_grid"}, "thermal config")
    x_grid = _decode_grid(cfg["x_grid"], "x_grid") if "x_grid" in cfg else signed_x_grid()
    t_grid = _decode_grid(cfg["t_grid"], "t_grid")
    point = {key: decode_float(cfg[key], key) for key in ("y", "z") if key in cfg}  # unset: the defaults
    try:
        result = thermal_map(x_grid, t_grid, **point)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    d_col = result.column("d")
    payload = {"rows": len(result.rows), "d_min": float(d_col.min()), "d_max": float(d_col.max())}
    return result.to_csv(), payload


def _cmd_validate(cfg: dict) -> tuple[str, dict]:
    _require_keys(cfg, {"micro", "j_over_kappa"}, {"micro"}, "validate config")
    model = _decode_model(cfg["micro"], "micro")
    if model.model != "micro":
        raise ConfigError("validate needs a micro model")
    base = model.params
    if min(base.J) == 0:
        raise ConfigError(f"validate needs every J > 0, got J = {list(base.J)}: a guide without coupling "
                          "cannot be eliminated")
    ratios = decode_list(cfg.get("j_over_kappa", []), "j_over_kappa", decode_float) or (max(base.J) / base.kappa,)
    bad = [r for r in ratios if not (np.isfinite(r) and r > 0)]
    if bad:
        raise ConfigError(f"j_over_kappa values must be finite and > 0, got {bad}")
    keys = [CSV_FORMAT % r for r in ratios]  # a ratio's CSV cell and summary key
    check_distinct(keys, "j_over_kappa names")
    scales = [ratio * base.kappa / max(base.J) for ratio in ratios]
    result = SweepResult(["j_over_kappa", "distance"])
    try:
        couplings = [tuple(j * s for j in base.J) for s in scales]
        for J in couplings:  # every ratio, before its model is built and before the first solve
            check_validity_regime(base.n_c, J, base.kappa)
        micros = [replace(base, J=J, alpha=tuple(a * s for a in base.alpha)) for J, s in zip(couplings, scales)]
        for ratio, micro in zip(ratios, micros):
            result.rows.append([ratio, validate_effective(micro)])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return result.to_csv(), {"distances": {key: dist for key, (_, dist) in zip(keys, result.rows)}}


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "thermal": _cmd_thermal,
    "validate": _cmd_validate,
}


def _atomic_write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def summary_path(out: Path) -> Path:
    return out.with_name(out.name + ".summary.json")


def _echo_config(cfg: dict) -> dict:
    echo = dict(cfg)
    for key in ("model", "micro"):
        if key in echo:
            echo[key] = model_spec_to_json(_decode_model(echo[key], key))
    return echo


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polariton-ring",
        description="Steady-state experiments on driven-dissipative cavity arrays",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--workers", type=int, default=1, help="must be 1: every command runs on one thread")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workers != 1:
        print(f"error: --workers must be 1, got {args.workers}", file=sys.stderr)
        return 2

    config_path = Path(args.config)
    try:
        cfg = json.loads(config_path.read_text())
    except FileNotFoundError:
        print(f"error: config file {config_path} not found", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        csv_text, payload = _COMMANDS[args.command](cfg)
        echo = _echo_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SteadyStateError, SweepError, RuntimeError, FloatingPointError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    summary = {
        "command": args.command,
        "version": __version__,
        "config": echo,
        "wall_time_s": time.perf_counter() - started,
        **payload,
    }
    out = Path(args.out)
    try:
        _atomic_write(out, csv_text)
        _atomic_write(summary_path(out), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write outputs at {out}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
