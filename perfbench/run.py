"""pdae1d benchmark harness.

One run measures one workload in this process:

    python3 perfbench/run.py --workload mms_sweep --seed 1 --seconds 30 --trace 0

It sets up (import, seeded input generation, warm-up), then repeats timed
passes over the workload's fixed list of operations for ``--seconds`` and
checks every operation's output after each pass.  The last line of stdout
is a JSON object {"correct", "attempted", "failed", "metrics"}.

* ``--trace 0`` reports the end-to-end metrics: ``wall_ref_s`` (one pass's
  wall time at a fixed reference speed, see ``reference_wall``),
  ``setup_s`` (median of several set-ups, each in a fresh process) and
  ``peak_rss_mb`` (peak resident memory of this process).  The measured
  ``wall_s`` (median pass wall time) and ``fail_ratio`` are printed above
  the JSON line; the counts of ``fail_ratio`` are ``failed`` /
  ``attempted``.
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics of the traced passes (see tracing.py), with
  ``trace.overhead_s`` = median traced minus median untraced pass wall
  time.
  The last traced pass's spans go to .perfbench/trace/.

``--all`` runs every workload, each in its own process, and prints one
table:

    python3 perfbench/run.py --all --seed 0 --seconds 30 [--trace 1]

The package is imported from ``src/`` of the checkout that holds this
directory; without it the harness exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("scenario_artifacts", "mms_sweep", "property_checks")
# numpy/scipy thread pools are capped at one thread (<= nproc); pocketfft
# uses scipy.fft's default of one worker.  One client, no other threads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 7  # this process plus six fresh ones
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
# wall_ref_s is the pass wall time on a machine where one calibration
# kernel takes exactly this long (about its time on a 2-vCPU Xeon VM).
CALIBRATION_REF_S = 1e-3


def calibration_kernel() -> float:
    """Time a fixed piece of interpreter and small-array numpy work (about 1 ms).

    It runs before every operation of an untraced pass and touches nothing
    of the package, so a change to pdae1d cannot move it; only the speed the
    host gives this process does.  On a shared 2-vCPU virtual machine that
    speed flips between two states every 20-70 ms, and the share of time in
    the slow one (about 1.4x slower) drifts over minutes, moving whole-run
    pass times by up to 1.7x.  The kernel samples the same states as the
    operations around it, so dividing by it cancels most of that drift.
    """
    import numpy as np  # after main() has capped the thread pools

    x = np.linspace(0.0, 1.0, 256)
    start = time.perf_counter()
    total = 0.0
    for i in range(400):
        total += i * 0.5
    y = x
    for _ in range(60):
        y = np.sin(y) * 0.5 + x
        y = np.cumsum(y) / 256.0
    return time.perf_counter() - start


def set_up(workload: str, seed: int, work: Path):
    """Import, seeded inputs and warm-up; returns (module, workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    built = workloads.build(workload, seed, work)
    for warm in built.warm_up:
        warm()
    return workloads, built, time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_passes(workloads, built, seconds: float, min_rounds: int, new_tracer=None, between=None):
    """Repeat rounds of passes for ``seconds`` (at least ``min_rounds``).

    A round is one untraced pass, with the calibration kernel timed before
    each operation (outside the operation's time); with ``new_tracer`` it is
    followed by a traced pass, so both kinds see the same stretches of
    machine load.  ``between``, if given, runs after each round and its time
    is not counted against ``seconds``.  Returns untraced per-operation
    times, calibration times per untraced pass, traced per-operation times,
    per-pass failures and (tracer, artifact bytes) per traced pass.
    """
    plain, calibration, traced, failures, tracers = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < min_rounds or time.perf_counter() < deadline:
        kernel_seconds = []
        op_seconds, failed = workloads.run_pass(
            built, on_operation=lambda i: kernel_seconds.append(calibration_kernel()))
        plain.append(op_seconds)
        calibration.append(kernel_seconds)
        failures.append(failed)
        if new_tracer is not None:
            tracer = new_tracer()
            with tracer.installed():
                op_seconds, failed = workloads.run_pass(
                    built, on_operation=lambda i: setattr(tracer, "op", i))
            traced.append(op_seconds)
            failures.append(failed)
            tracers.append((tracer, built.artifact_bytes()))
        if between is not None:
            start = time.perf_counter()
            between()
            deadline += time.perf_counter() - start
    return plain, calibration, traced, failures, tracers


def pass_walls(times: list[list[float]]) -> list[float]:
    return [sum(op_seconds) for op_seconds in times]


def reference_wall(times: list[list[float]], calibration: list[list[float]]) -> float:
    """Median over passes of the pass wall time at the reference speed.

    Each pass's wall time is divided by the mean time of the calibration
    kernels run between its operations and multiplied by CALIBRATION_REF_S.
    Over ten 30 s runs per workload on a shared 2-vCPU VM, this spread
    3.1-3.4% of its median (interquartile range) where the median pass wall
    time spread 13-23%.
    """
    return statistics.median(
        wall / statistics.fmean(kernels) * CALIBRATION_REF_S
        for wall, kernels in zip(pass_walls(times), calibration)
    )


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_one(args) -> int:
    work = WORK / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.setup_only:
            _, _, seconds = set_up(args.workload, args.seed, work)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    workloads, built, own_setup = set_up(args.workload, args.seed, work)
    env = environment()
    print("# env: " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload}: {len(built.operations)} operations per pass, seed {args.seed}")
    notes = []
    if args.trace:
        import tracing

        plain, _, traced, failures, tracers = timed_passes(
            workloads, built, args.seconds, 2, new_tracer=tracing.Tracer)
        per_pass = [tracing.layer_metrics(t, artifact_bytes) for t, artifact_bytes in tracers]
        for key in tracing.INTEGRITY_COUNTS:
            seen = {values[key] for values in per_pass}
            if len(seen) != 1:
                notes.append(f"{key} differs between traced passes: {sorted(seen)}")
        units = dict(tracing.per_layer_names())
        metrics = {
            name: {"value": statistics.median_low(values[name] for values in per_pass), "unit": units[name]}
            for name in per_pass[0]
        }
        overhead = statistics.median(pass_walls(traced)) - statistics.median(pass_walls(plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        spans_dir = WORK / "trace"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracers[-1][0].write_spans(
            spans_dir / f"{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "env": env,
             "operations": [op.name for op in built.operations]},
        )
        for name, unit in tracing.per_layer_names():
            print(f"{name:<42} {metrics[name]['value']:>16.6g} {unit}")
        slabs = metrics["integrators.picard_slab.calls"]["value"]
        print(f"# integrators.picard_sweeps_per_step is over {slabs} picard_slab calls")
        print(f"# untraced pass walls {[round(w, 4) for w in pass_walls(plain)]}")
        print(f"# traced pass walls {[round(w, 4) for w in pass_walls(traced)]}")
    else:
        # set-ups in fresh processes, spread over the run between passes, so
        # they sample the same stretches of machine load as the passes
        setups = [own_setup]
        spacing = args.seconds / SETUP_SAMPLES
        next_setup = [time.perf_counter() + spacing]

        def one_setup():
            if len(setups) < SETUP_SAMPLES and time.perf_counter() >= next_setup[0]:
                setups.append(child_setup_seconds(args.workload, args.seed))
                next_setup[0] = time.perf_counter() + spacing

        times, calibration, _, failures, _ = timed_passes(
            workloads, built, args.seconds, MIN_PASSES, between=one_setup)
        while len(setups) < SETUP_SAMPLES:
            setups.append(child_setup_seconds(args.workload, args.seed))
        walls = pass_walls(times)
        kernels = [k for pass_kernels in calibration for k in pass_kernels]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_ref_s": {"value": reference_wall(times, calibration), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        low, high = quartiles(walls)
        print(f"wall_ref_s   {metrics['wall_ref_s']['value']:.4f} s   median over {len(walls)} passes of "
              f"pass wall / mean calibration kernel x {CALIBRATION_REF_S * 1e3:g} ms")
        print(f"wall_s       {statistics.median(walls):.4f} s   median pass wall time, quartiles "
              f"{low:.4f} .. {high:.4f}; calibration kernel median {statistics.median(kernels) * 1e3:.4f} ms")
        low, high = quartiles(setups)
        print(f"setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setups)} set-ups, "
              f"quartiles {low:.4f} .. {high:.4f}")
        print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
        print(f"# pass walls {[round(w, 4) for w in walls]}")
    attempted = len(built.operations) * len(failures)
    failed = sum(len(f) for f in failures)
    print(f"fail_ratio   {failed / attempted:.4f} ratio   {failed} failed of {attempted} attempted")
    for index, failed_ops in enumerate(failures):
        for op, problems in failed_ops.items():
            print(f"# FAILED pass {index} {op}: " + "; ".join(problems[:3]))
    for note in notes:
        print(f"# FAILED {note}")
    result = {"correct": failed == 0 and not notes, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    table = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        table[workload] = json.loads(lines[-1])
    width = max(len(w) for w in table)
    for workload, result in table.items():
        print(f"{workload:<{width}}  fail_ratio {result['failed'] / result['attempted']:.4f} ratio "
              f"({result['failed']} failed of {result['attempted']} attempted)")
        for name, metric in result["metrics"].items():
            print(f"{'':<{width}}  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(table))
    return 0 if all(result["correct"] for result in table.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="pdae1d benchmark harness")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pdae1d" / "__init__.py").is_file():
        print(f"error: no pdae1d package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
