"""Self-test of the benchmark harness. Run from the repository root:

    python3 bench/selftest.py

It checks that
  * the first input of seed 0 reproduces the shipped configs exactly;
  * one pass of every workload, on seed 0 and on seed 7, passes every check
    with no failed operation;
  * each reference value, set deliberately wrong, makes its check fail;
  * a traced run reports every per-layer metric of BENCHMARK.json, with self
    times that add up to the traced run time;
  * an untraced run prints exactly the end-to-end metrics of BENCHMARK.json;
  * the benchmark exits non-zero, printing no result, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
It takes about four minutes on one core.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

# A wrong value for each reference, and the config whose check must then fail.
WRONG_REFERENCE = {
    "ring_max": ("fig3_sweep", 0.5),
    "ring_max_tol": ("fig3_sweep", 1e-6),
    "ring_ground_min": ("fig3_sweep", 0.995),
    "pair_max": ("fig5_sweep", 0.5),
    "pair_max_tol": ("fig5_sweep", 1e-6),
    "ridges": ("thermal_map", 3),
    "ridge_x": ("thermal_map", 3.0),
    "t_spread_max": ("thermal_map", 1e-9),
    "d_undriven_max": ("thermal_map", 1e-6),
    "best_lo": ("fig3_optimize", 0.42),
    "best_hi": ("fig3_optimize", 0.41),
    "micro_d_max": ("validate", 1e-5),
    "halving_gain": ("validate", 10.0),
}
OTHER_SEED = 7


def fail(message: str) -> None:
    raise SystemExit(f"SELFTEST FAIL: {message}")


def run_bench(args: list[str], cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return out.returncode, out.stdout.splitlines()


def check_seed_zero_is_identity(workloads) -> None:
    for path in sorted(run.CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        if workloads.seeded_config(cfg, workloads.phase_offset(0, 0)) != cfg:
            fail(f"seed 0 changes {path.name}")
    print("ok  the first input of seed 0 reproduces every config")


def check_passes_and_wrong_references(workloads) -> None:
    checked = set()
    for seed in (0, OTHER_SEED):
        for name, calls in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=run.ROOT) as tmp:
                runner = run.Runner(calls, seed, Path(tmp))
                with runner.nonunique.installed():
                    result = runner.run_pass()
                if result.failures or result.failed or result.attempted < 1:
                    fail(f"{name} seed {seed}: {result}")
                print(f"ok  {name} seed {seed}: {result.attempted} operations in {result.run_s:.1f} s")
                for call, _, _, out in runner.inputs[0]:
                    summary = json.loads(runner.cli.summary_path(out).read_text())
                    for key, (config, wrong) in WRONG_REFERENCE.items():
                        if config != call.config:
                            continue
                        if not call.check(out, summary, {**workloads.REFERENCE, key: wrong}):
                            fail(f"{name} seed {seed}: wrong {key} = {wrong} passes the {config} check")
                        checked.add(key)
    missing = set(WRONG_REFERENCE) - checked
    if missing:
        fail(f"wrong references never exercised: {sorted(missing)}")
    print(f"ok  {len(checked)} wrong reference values each fail their check")


def check_result_lines(spec: dict) -> None:
    code, lines = run_bench(["--workload", "ring_optimize", "--seed", str(OTHER_SEED), "--seconds", "0", "--trace", "0"])
    result = json.loads(lines[-1])
    if code != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"untraced run: exit {code}, {result}")
    if set(result["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
        fail(f"untraced metrics {sorted(result['metrics'])}")
    print("ok  untraced run prints the end-to-end metrics")

    code, lines = run_bench(["--workload", "pair_maps", "--seed", str(OTHER_SEED), "--seconds", "0", "--trace", "1"])
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    if code != 0 or set(metrics) != {m["name"] for m in spec["per_layer"]}:
        fail(f"traced run: exit {code}, metrics {sorted(metrics)}")
    self_times = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    if not math.isclose(self_times, metrics["trace.run_s"], rel_tol=1e-9):
        fail(f"self times add up to {self_times}, traced run_s is {metrics['trace.run_s']}")
    called = ("models.build_s", "superop.assemble_s", "steady.lstsq_s", "steady.check_s", "observables.observe_s")
    if not all(metrics[k] > 0 for k in called):
        fail(f"a layer pair_maps calls has no time: { {k: metrics[k] for k in called} }")
    print("ok  traced run reports every per-layer metric; self times add up to trace.run_s")


def check_fails_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=run.ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_bench(["--workload", "ring_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        fail(f"run without the program exited {code} with output {lines}")
    print("ok  without the program the benchmark exits non-zero and prints no result")


def main() -> int:
    run.pin_threads()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_seed_zero_is_identity(workloads)
    check_fails_without_program()
    check_result_lines(spec)
    check_passes_and_wrong_references(workloads)
    print("SELFTEST PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
