"""Benchmark of the polariton-ring command line.

Usage, from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is one or more ``polariton_ring.cli.main`` calls on the shipped
configs (``workloads.py``). A pass makes those calls one after the other in
this one process; passes repeat in a closed loop for about ``--seconds``, and
there is always at least one. Every pass is checked against the
paper's headline numbers. BLAS and OpenMP are pinned to one thread and the
CLI runs with ``--workers 1``.

``--trace 0`` reports the end-to-end metrics:
  run_s        median wall time of one pass (the workload's CLI calls),
               at the reference machine speed
  setup_s      median time of ``import polariton_ring`` in a fresh
               interpreter, at the reference machine speed
  peak_rss_mb  peak resident memory of this process
The machine is shared, and its speed changes by up to 2x over seconds to
minutes; CPU time follows wall time, so it is contention for the core, not
scheduling, and no statistic over one run's passes removes a slow stretch
that outlasts the run. So a fixed calibration kernel (``calibrate``) is
timed before and after every pass and after every import sample, and in
slices during every untraced pass (``SpeedSampler``); each measured time is
rescaled by ``CALIBRATION_REF_S`` over the mean slice time around and during
it. The kernel is benchmark code and numpy alone, so a change to the
program scales the rescaled times by the same factor as the wall times. The
wall times themselves are in the environment record.

``--trace 1`` alternates untraced and traced passes. It reports the
per-layer split of the median traced pass (``tracing.py``), whose self times
add up to its ``trace.run_s``, and ``trace.overhead_s``, the median traced
minus the median untraced ``run_s``. The spans of every traced pass are
written to ``.bench_trace/<workload>.seed<n>.json``.

One JSON line records the run environment; the last line of standard output
is the result ``{"correct", "attempted", "failed", "metrics"}``. Operations
are sweep points, optimizer evaluations and validations. An operation fails
if its CLI call raises or exits non-zero, if the call's output fails its
check, or if its steady state is not unique. The exit code is 0 only when
nothing failed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
TRACE_DIR = ROOT / ".bench_trace"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "POLARITON_RING_THREADS",  # the CLI's own override of --workers
)
MIN_SETUP_SAMPLES = 7
# Time of one calibration slice on the reference machine (2 shared cores,
# numpy 2.4.6, OpenBLAS 0.3.31, one thread) at its usual speed: rescaled
# times read as wall times on that machine at that speed.
CALIBRATION_REF_S = 0.030
CALIBRATION_SLICES = 10  # slices in the calibration before and after a pass
# The machine's speed changes within seconds, so a pass is sampled this often.
SLICE_INTERVAL_S = 0.3
SETUP_CODE = "import time; t = time.perf_counter(); import polariton_ring; print(time.perf_counter() - t)"


def pin_threads() -> None:
    """Pin every thread pool to one thread; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))


def measure_setup() -> float:
    """Time of ``import polariton_ring`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


@functools.cache
def _calibration_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    dense = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    # unitary, so that repeated products neither grow nor decay
    unitary = np.linalg.qr(rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144)))[0]
    return small, dense, dense[:, 0].copy(), unitary


def calibrate(slices: int = CALIBRATION_SLICES) -> float:
    """Mean wall time of ``slices`` slices of a fixed mix of the four kinds
    of work the workloads do: interpreted Python, many numpy calls on small
    arrays, dense complex LAPACK solves (least squares and singular values,
    64x64) and the complex matrix-vector products of RK4 (144x144)."""
    import numpy as np

    small, dense, rhs, unitary = _calibration_arrays()
    vector = unitary[:, 0]
    # Untimed warm-up, so that a slice between two steps of the program
    # measures the machine's speed, not which of its arrays the program evicted.
    small @ small
    np.linalg.lstsq(dense, rhs, rcond=None)
    np.linalg.svd(dense, compute_uv=False)
    unitary @ vector
    started = time.perf_counter()
    total = 0
    for i in range(90_000 * slices):
        total += i * i
    for _ in range(1_800 * slices):
        small @ small
    for _ in range(4 * slices):
        np.linalg.lstsq(dense, rhs, rcond=None)
        np.linalg.svd(dense, compute_uv=False)
    for _ in range(2_000 * slices):
        vector = unitary @ vector
    return (time.perf_counter() - started) / slices


class SpeedSampler:
    """Samples the machine's speed during a pass: every ``SLICE_INTERVAL_S``
    of wall time a timer signal runs one calibration slice, between two
    bytecodes of the program. ``spent_s`` is the time the slices took, which
    the pass time leaves out. Installed in untraced passes only, so that no
    slice lands inside a span."""

    def __init__(self):
        self.slices: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.slices.append(calibrate(1))
        self.spent_s += time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S)

    @contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S)
        try:
            yield self
        finally:
            # disarm before the default handler, which would end the process, is back
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class PassResult:
    run_s: float = 0.0
    calibration_s: float = 0.0  # mean slice time before, during and after the pass
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


class Runner:
    """Runs passes of one workload on seeded copies of its configs."""

    def __init__(self, calls, seed: int, workdir: Path):
        from polariton_ring import cli
        from tracing import NonuniqueCounter
        from workloads import PASS_INPUTS, REFERENCE, phase_offset, seeded_config

        self.cli = cli
        self.reference = REFERENCE
        self.nonunique = NonuniqueCounter()
        self.thetas = [phase_offset(seed, k) for k in range(PASS_INPUTS)]
        # inputs[k]: (call, config, config file, output file) per call, on offset thetas[k]
        self.inputs = []
        for k, theta in enumerate(self.thetas):
            entries = []
            for call in calls:
                cfg = seeded_config(json.loads((CONFIGS / f"{call.config}.json").read_text()), theta)
                cfg_path = workdir / f"{call.config}.{k}.json"
                cfg_path.write_text(json.dumps(cfg))
                entries.append((call, cfg, cfg_path, workdir / f"{call.config}.csv"))
            self.inputs.append(entries)

    def run_pass(self, index: int = 0, tracer=None) -> PassResult:
        """One pass over the workload's calls on input ``index`` (mod the
        number of inputs)."""
        result = PassResult()
        for call, cfg, cfg_path, out in self.inputs[index % len(self.inputs)]:
            summary_file = self.cli.summary_path(out)
            for path in (out, summary_file):
                path.unlink(missing_ok=True)
            argv = [call.command, "--config", str(cfg_path), "--out", str(out), "--workers", "1"]
            nonunique_before = self.nonunique.count
            started = time.perf_counter()
            try:
                with tracer.span("cli.main") if tracer else nullcontext():
                    code = self.cli.main(argv)
                problems = [] if code == 0 else [f"exit code {code}"]
            except Exception as exc:  # a crash fails the call's operations; the run goes on
                traceback.print_exc()
                problems = [f"raised {exc!r}"]
            result.run_s += time.perf_counter() - started

            summary = None
            if not problems:
                try:
                    summary = json.loads(summary_file.read_text())
                    problems += call.check(out, summary, self.reference)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
                if tracer:
                    tracer.add("cli.bytes_written", out.stat().st_size + summary_file.stat().st_size)
            ops = call.ops(cfg, summary)
            result.attempted += ops
            result.failed += ops if problems else min(ops, self.nonunique.count - nonunique_before)
            result.failures += [f"{call.command} {call.config}: {p}" for p in problems]
        return result

    def run(self, seconds: float, tracer=None, between=None) -> tuple[list[PassResult], list[PassResult]]:
        """Closed loop of passes for about ``seconds``: a pass starts only if
        it is expected to end less than half a pass past the deadline. With a
        tracer, untraced and traced passes alternate and each kind runs at
        least once. Each kind of pass cycles through the inputs in order.
        ``calibrate`` runs before the first pass and after every pass, and
        untraced passes are sampled by a ``SpeedSampler``;
        ``between(calibration_s)`` is called after every pass, outside the
        timing. Returns (untraced, traced) pass results."""
        modes = (False, True) if tracer else (False,)
        passes: dict[bool, list[PassResult]] = {False: [], True: []}
        started = time.perf_counter()
        calibration_before = calibrate()
        with self.nonunique.installed():
            for k in itertools.count():
                traced = modes[k % len(modes)]
                if traced:
                    tracer.run = len(passes[True])
                sampler = SpeedSampler()
                with tracer.installed() if traced else sampler.installed():
                    result = self.run_pass(len(passes[traced]), tracer if traced else None)
                calibration_after = calibrate()
                result.run_s -= sampler.spent_s
                result.calibration_s = statistics.mean([calibration_before, *sampler.slices, calibration_after])
                calibration_before = calibration_after
                passes[traced].append(result)
                if between:
                    between(calibration_after)
                elapsed = time.perf_counter() - started
                if elapsed + passes[traced][-1].run_s / 2 >= seconds and all(passes[m] for m in modes):
                    break
        return passes[False], passes[True]


def environment(args, thetas: list[float], passes: list[PassResult], setup_samples: list[tuple[float, float]]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "phase_offsets": thetas,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_run_s": [p.run_s for p in passes],
        "pass_calibration_s": [p.calibration_s for p in passes],
        "calibration_ref_s": CALIBRATION_REF_S,
        "setup_s": [t for t, _ in setup_samples],
        "setup_calibration_s": [c for _, c in setup_samples],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workers": 1,
    }


def main(argv: list[str] | None = None) -> int:
    pin_threads()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    calls = WORKLOADS[args.workload]
    needed = [SRC / "polariton_ring" / "cli.py"] + [CONFIGS / f"{c.config}.json" for c in calls]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing program files {missing}; run from a full checkout", file=sys.stderr)
        return 2

    from tracing import Tracer

    # Each import sample is rescaled by the calibration run next to it.
    setup_samples: list[tuple[float, float]] = []
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        runner = Runner(calls, args.seed, Path(tmp))
        if tracer:
            untraced, traced = runner.run(args.seconds, tracer)
        else:
            untraced, traced = runner.run(
                args.seconds, between=lambda calibration_s: setup_samples.append((measure_setup(), calibration_s))
            )

    if tracer:
        kind = "per_layer"
        run_s = [p.run_s for p in traced]
        values = tracer.run_metrics(run_s.index(statistics.median_low(run_s)))
        values["trace.overhead_s"] = statistics.median(run_s) - statistics.median(p.run_s for p in untraced)
        tracer.write(TRACE_DIR / f"{args.workload}.seed{args.seed}.json")
    else:
        kind = "end_to_end"
        while len(setup_samples) < MIN_SETUP_SAMPLES:
            setup_s = measure_setup()
            setup_samples.append((setup_s, calibrate()))
        values = {
            "run_s": statistics.median(p.run_s * CALIBRATION_REF_S / p.calibration_s for p in untraced),
            "setup_s": statistics.median(t * CALIBRATION_REF_S / c for t, c in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    every = untraced + traced
    failures = [f for p in every for f in p.failures]
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    failed = sum(p.failed for p in every)
    ok = not failures and failed == 0
    print(json.dumps({"env": environment(args, runner.thetas, every, setup_samples)}))
    print(json.dumps({"correct": ok, "attempted": sum(p.attempted for p in every), "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
