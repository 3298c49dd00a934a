"""The benchmark's workloads: seeded inputs, the fixed list of operations, and output checks.

Each workload is a closed loop with one client: the harness runs its
operations one after another, each starting when the previous one has
finished, and checks every output after the timed pass.  Operations reach
the package only through its public functions (and the CLI entry point), and
look them up at call time, so wrappers installed on the module attributes
from outside the package see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from pdae1d import cli, constraint, scenarios, verification
from pdae1d.fields import Field, Grid1D, StatePair

METHODS = ("exp_euler", "imex", "picard")
REFERENCES_PATH = Path(__file__).with_name("references.json")

# Tolerances of the reference comparisons.  Final norms and blow-up times
# are compared relatively at 1e-9, far below any change a defect would cause
# yet above last-digit differences between FFT/LAPACK builds; error_H is a
# difference of nearby numbers, so it gets 1e-6.
NORM_RTOL = 1e-9
ERROR_RTOL = 1e-6
# The custom run is checked against the manufactured solution its seeded
# tables encode; measured relative errors are 3.8e-4 to 5.1e-4 over seeds
# 0-7 (time discretization plus linear interpolation of the source table).
CUSTOM_RTOL = 2e-3

SCENARIO_T_END = 0.05  # decay, mms and custom; growth_probe keeps the CLI default t_end
TEMPORAL_DT_LEVELS = (0.02, 0.01, 0.005)
TEMPORAL_T_END = 0.2
SPATIAL_N_LEVELS = (7, 15, 31, 63)
SPATIAL_DT = 1e-5
SPATIAL_T_END = 0.0025
PROPERTY_SIZES = (16, 64, 256)
PROPERTY_SAMPLES = 50
LIPSCHITZ_SAMPLES = 300
LIPSCHITZ_LEVELS = (0.5, 1.0, 5.0)  # the package's default ball radii C
CHECKS = ("dissipativity", "maximality", "semigroup", "lipschitz")


@dataclass
class Operation:
    """One client request: ``run`` is timed, ``check`` lists what is wrong with its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    operations: list[Operation]
    warm_up: list[Callable[[], object]]
    out_dir: Path

    def reset(self) -> None:
        """Remove the previous pass's artifacts so no check can read stale files."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())


def load_references() -> dict:
    """Reference outputs recorded by record_references.py; a missing one fails its check."""
    if not REFERENCES_PATH.is_file():
        return {"scenario_artifacts": {}, "mms_sweep": {}}
    return json.loads(REFERENCES_PATH.read_text())


def _close(actual: float, expected: float, rtol: float) -> bool:
    return math.isclose(actual, expected, rel_tol=rtol, abs_tol=0.0)


def _quiet(fn: Callable[[], object]) -> Callable[[], object]:
    # the CLI prints one line per run; keep the harness's stdout for results
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return fn()

    return run


# --------------------------------------------------------------------------
# scenario_artifacts
#
# Why: `pdae1d run` at the CLI defaults (n=128, snapshot_every=1, every
# artifact written) is dominated by snapshots and 17-digit artifact
# formatting, so the `scenarios` and `constraint` layers do most of the work
# and the step kernels about a third.  It also covers the blow-up path
# (growth_probe exits 2) and the IC/source table parsers (custom).  t_end is
# cut to 0.05 for the runs that complete, so operations are short and many
# passes fit in a run; growth_probe keeps the default t_end = 1 and blows
# up near t = 0.106.
# --------------------------------------------------------------------------


def _mms_fields(a: float, b: float, t: float, x: np.ndarray):
    """Manufactured pair and the sources that make it exact (d = p = 1).

    Written out here rather than taken from the package so the custom run is
    checked against an independent statement of the solution.
    """
    decay = math.exp(-t)
    u = a * decay * np.sin(np.pi * x)
    v = b * decay * np.sin(2.0 * np.pi * x)
    integral = decay * (
        a * (1.0 - np.cos(np.pi * x)) / np.pi + b * (1.0 - np.cos(2.0 * np.pi * x)) / (2.0 * np.pi)
    )
    f = (np.pi**2 - 1.0) * u + u * integral
    g = (4.0 * np.pi**2 - 1.0) * v - v * integral
    return u, v, f, g


def write_custom_inputs(seed: int, directory: Path, n: int = 128) -> dict:
    """Seeded IC and tabulated source files for the custom run.

    The seed picks the manufactured amplitudes (a, b) and the number of
    source slabs; the files hold the manufactured pair at t = 0 and its
    sources on the full node set, 17 significant digits.
    """
    rng = np.random.default_rng(seed)
    a, b = (float(v) for v in rng.uniform(0.5, 1.5, 2))
    slabs = int(rng.integers(21, 42))
    x = np.arange(n + 2) / (n + 1)
    directory.mkdir(parents=True, exist_ok=True)
    ic_path = directory / "ic.txt"
    source_path = directory / "sources.txt"
    u, v, _, _ = _mms_fields(a, b, 0.0, x)
    u[[0, -1]] = 0.0
    v[[0, -1]] = 0.0
    with open(ic_path, "w") as fh:
        fh.write("# x u v\n")
        for row in zip(x, u, v):
            fh.write(" ".join(format(float(c) + 0.0, ".17g") for c in row) + "\n")
    with open(source_path, "w") as fh:
        fh.write("# t x f g\n")
        for t in np.linspace(0.0, SCENARIO_T_END, slabs):
            _, _, f, g = _mms_fields(a, b, float(t), x)
            for row in zip(np.full_like(x, t), x, f, g):
                fh.write(" ".join(format(float(c) + 0.0, ".17g") for c in row) + "\n")
    return {"a": a, "b": b, "slabs": slabs, "ic": str(ic_path), "sources": str(source_path)}


def _read_data(path: Path) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=2)


def read_summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def observe_scenario(summary: dict) -> dict:
    """The summary numbers a reference pins down."""
    return {
        "exit_code": summary["exit_code"],
        "status": summary["status"]["kind"],
        "blowup_t": summary["status"]["t"],
        "final_time": summary["final_time"],
        "final_norm": summary["final_norm"],
    }


def check_artifacts(code: object, out: Path, expected_code: int) -> tuple[list[str], dict, StatePair]:
    """Checks every scenario run shares; returns problems, observations, final state."""
    problems = []
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}")
    summary = read_summary(out)
    seen = observe_scenario(summary)
    if seen["exit_code"] != code:
        problems.append(f"summary exit_code {seen['exit_code']} differs from returned {code}")
    n = summary["config"]["n_interior"]
    snapshots = summary["timings"]["snapshots"]
    table = _read_data(out / "trajectory.csv")
    if table.shape != (snapshots * (n + 2), 5):
        problems.append(f"trajectory.csv is {table.shape}, expected ({snapshots * (n + 2)}, 5)")
        return problems, seen, None
    left = table[:: n + 2]
    if np.any(left[:, 1] != 0.0) or np.any(left[:, 4] != 0.0):
        problems.append("w(0) is not exactly 0 in every snapshot")
    residuals = _read_data(out / "constraint.csv")
    if residuals.shape[0] != snapshots:
        problems.append(f"constraint.csv has {residuals.shape[0]} rows, expected {snapshots}")
    last = table[-(n + 2):]
    grid = Grid1D(n)
    state = StatePair(Field(grid, last[1:-1, 2]), Field(grid, last[1:-1, 3]))
    if state.norm() != seen["final_norm"]:
        problems.append(
            f"final snapshot norm {state.norm()!r} differs from summary {seen['final_norm']!r}"
        )
    p_u, p_v = summary["config"]["p_u"], summary["config"]["p_v"]
    report = constraint.constraint_residual(state, constraint.reconstruct_w(state, p_u, p_v), p_u, p_v)
    if report.w_at_0 != 0.0 or report.wx_at_0 != 0.0:
        problems.append(f"w_at_0={report.w_at_0!r} wx_at_0={report.wx_at_0!r}, expected exactly 0")
    if residuals.shape[0] == snapshots and not _close(residuals[-1, 2], report.w_at_1, 1e-12):
        problems.append("constraint.csv w_at_1 differs from the recomputed final profile")
    return problems, seen, state


def _reference_check(reference: dict | None, out: Path):
    def check(code: object) -> list[str]:
        if reference is None:
            return ["no reference recorded"]
        problems, seen, _ = check_artifacts(code, out, reference["exit_code"])
        if seen["status"] != reference["status"]:
            problems.append(f"status {seen['status']}, expected {reference['status']}")
        for key in ("blowup_t", "final_time", "final_norm"):
            want, got = reference[key], seen[key]
            if (want is None) != (got is None) or (
                want is not None and not _close(got, want, NORM_RTOL)
            ):
                problems.append(f"{key} {got!r}, reference {want!r}")
        return problems

    return check


def _custom_check(inputs: dict, out: Path):
    def check(code: object) -> list[str]:
        problems, seen, state = check_artifacts(code, out, 0)
        if state is None:
            return problems
        u, v, _, _ = _mms_fields(inputs["a"], inputs["b"], seen["final_time"], state.grid.nodes)
        exact = StatePair(Field(state.grid, u), Field(state.grid, v))
        error = (state - exact).norm() / exact.norm()
        if not error <= CUSTOM_RTOL:
            problems.append(f"relative error {error:.3e} against the manufactured pair > {CUSTOM_RTOL}")
        if not _close(seen["final_time"], SCENARIO_T_END, 1e-12):
            problems.append(f"final_time {seen['final_time']!r}, expected {SCENARIO_T_END}")
        return problems

    return check


def scenario_runs(custom: dict) -> list[tuple[str, list[str]]]:
    """(operation name, CLI argv without --output-dir) in pass order."""
    runs = []
    for scenario in ("decay", "mms", "growth_probe"):
        for method in METHODS:
            argv = ["run", "--scenario", scenario, "--method", method]
            if scenario != "growth_probe":
                argv += ["--t-end", str(SCENARIO_T_END)]
            runs.append((f"{scenario}/{method}", argv))
    custom_argv = ["run", "--scenario", "custom", "--ic-file", custom["ic"],
                   "--source-file", custom["sources"], "--t-end", str(SCENARIO_T_END)]
    runs.append(("custom/exp_euler", custom_argv))
    return runs


def _cli_run(argv: list[str]) -> Callable[[], object]:
    return _quiet(lambda: cli.main(argv))


def scenario_artifacts(seed: int, work: Path) -> Workload:
    custom = write_custom_inputs(seed, work / "inputs")
    refs = load_references()["scenario_artifacts"]
    out_dir = work / "out"
    operations = []
    warm_up = []
    for name, argv in scenario_runs(custom):
        out = out_dir / name
        if name.startswith("custom"):
            check = _custom_check(custom, out)
        else:
            check = _reference_check(refs.get(name), out)
        operations.append(Operation(name, _cli_run(argv + ["--output-dir", str(out)]), check))
        # argparse keeps the last --t-end, so the warm-up runs are two steps long
        warm_argv = argv + ["--t-end", "0.002", "--output-dir", str(work / "warm" / name)]
        warm_up.append(_cli_run(warm_argv))
    return Workload(operations, warm_up, out_dir)


# --------------------------------------------------------------------------
# mms_sweep
#
# Why: manufactured-solution order sweeps snapshot only at the two ends of
# each march, so artifact I/O is close to zero and the `integrators`,
# `spectral` and `nonlinearity` (source evaluation) layers do almost all of
# the work.  Temporal sweeps run at n=255 and n=256 (n+1 = 257 is prime, a
# slow DST-I length), so both sides of any DST-path choice sit in one
# workload; the spatial sweep at small n is dominated by per-step Python and
# Field overhead.  Every operation has to reach its stated accuracy, so the
# pass time is a time-to-solution.  Each operation is one level of a sweep
# (a single-level run_convergence call): short operations let the
# per-operation minimum find the machine's quiet stretches.  The harness
# computes each observed order from consecutive levels of one pass.
# --------------------------------------------------------------------------

# exp_euler and imex are first order in time.  picard's trapezoid slab
# quadrature is second order until the n=255/256 spatial floor (measured
# orders 1.96 and 1.85 over these levels, 1.52 and 0.90 at the next two),
# so it is held to first order from below only; its error_H references pin
# it down exactly.
TEMPORAL_ORDER = {"exp_euler": (0.8, 1.2), "imex": (0.8, 1.2), "picard": (0.8, math.inf)}
SPATIAL_ORDER = (1.8, 2.2)


def sweeps() -> list[tuple[str, scenarios.ScenarioConfig, str, tuple]]:
    """(sweep name, config, level keyword, levels) in pass order."""
    out = []
    for n in (255, 256):
        for method in METHODS:
            cfg = scenarios.ScenarioConfig(scenario="mms", n_interior=n, t_end=TEMPORAL_T_END, method=method)
            out.append((f"temporal/n{n}/{method}", cfg, "dt_levels", TEMPORAL_DT_LEVELS))
    cfg = scenarios.ScenarioConfig(scenario="mms", dt=SPATIAL_DT, t_end=SPATIAL_T_END, method="exp_euler")
    out.append(("spatial/exp_euler", cfg, "n_levels", SPATIAL_N_LEVELS))
    return out


def _level_check(latest: dict, name: str, previous: str | None, bounds: tuple, reference: float | None):
    low, high = bounds

    def check(rows: object) -> list[str]:
        if reference is None:
            return ["no reference recorded"]
        if len(rows) != 1:
            return [f"{len(rows)} rows, expected 1"]
        error = rows[0]["error_H"]
        problems = []
        if not _close(error, reference, ERROR_RTOL):
            problems.append(f"error_H {error!r}, reference {reference!r}")
        if previous is not None:
            before = latest.get(previous)
            if before is None:
                problems.append(f"no result from {previous} to take an order against")
            else:
                order = math.log2(before[0]["error_H"] / error)
                if not low <= order <= high:
                    problems.append(f"order {order:.3f} against {previous} outside [{low}, {high}]")
        return problems

    return check


def mms_sweep(seed: int, work: Path) -> Workload:
    # The sweeps are fixed; the seed drives only the custom tables and the
    # property-check seeds.
    del seed
    refs = load_references()["mms_sweep"]
    out_dir = work / "out"
    latest: dict = {}  # operation name -> rows of the current pass
    operations = []
    warm_up = []
    for sweep, cfg, keyword, levels in sweeps():
        bounds = SPATIAL_ORDER if keyword == "n_levels" else TEMPORAL_ORDER[cfg.method]
        reference = refs.get(sweep, [])
        previous = None
        for index, level in enumerate(levels):
            name = f"{sweep}/{'n' if keyword == 'n_levels' else 'dt'}{level:g}"
            level_cfg = replace(cfg, output_dir=str(out_dir / name))

            def run(name=name, c=level_cfg, kw={keyword: (level,)}):
                latest[name] = None
                latest[name] = scenarios.run_convergence(c, **kw)
                return latest[name]

            ref = reference[index] if index < len(reference) else None
            operations.append(Operation(name, run, _level_check(latest, name, previous, bounds, ref)))
            short = replace(level_cfg, t_end=20 * level_cfg.dt if keyword == "n_levels" else 2 * level,
                            output_dir=str(work / "warm" / name))
            warm_up.append(lambda c=short, kw={keyword: (level,)}: scenarios.run_convergence(c, **kw))
            previous = name
    return Workload(operations, warm_up, out_dir)


# --------------------------------------------------------------------------
# property_checks
#
# Why: the `verification` and `nonlinearity` layers (through
# lipschitz_ratio) and Field construction dominate; no integrator runs and
# no file is written.  It uses `spectral` differently from the marches:
# check_semigroup draws a fresh t for every sample, so a cache keyed on
# (dt, d) gets no hits here and its cost shows.  Sample counts are cut from
# the CLI defaults (1000 and 10000) so a pass fits the run length; Lipschitz
# sampling still takes most of the time, as it does at the defaults.
# --------------------------------------------------------------------------


def property_seeds(seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, len(PROPERTY_SIZES) * len(CHECKS))]


def _property_check(check_name: str, samples: int):
    def check(report: object) -> list[str]:
        problems = []
        if report.name != check_name:
            problems.append(f"report name {report.name!r}, expected {check_name!r}")
        if report.samples != samples:
            problems.append(f"report has {report.samples} samples, expected {samples}")
        if not report.passed:
            problems.append(f"failed: worst {report.worst_value!r} > tolerance {report.tolerance!r}")
        return problems

    return check


def property_checks(seed: int, work: Path) -> Workload:
    seeds = iter(property_seeds(seed))
    operations = []
    warm_up = []
    for n in PROPERTY_SIZES:
        grid = Grid1D(n)
        for check_name in CHECKS:
            fn_name = f"check_{check_name}"
            check_seed = next(seeds)
            if check_name == "lipschitz":
                # one operation per ball radius keeps operations short
                for level in LIPSCHITZ_LEVELS:
                    run = lambda g=grid, sd=check_seed, c=level: verification.check_lipschitz(
                        LIPSCHITZ_SAMPLES, g, seed=sd, C_levels=(c,))
                    operations.append(Operation(f"lipschitz/n{n}/C{level:g}", run,
                                                _property_check(check_name, LIPSCHITZ_SAMPLES)))
            else:
                run = lambda f=fn_name, g=grid, sd=check_seed: getattr(verification, f)(
                    PROPERTY_SAMPLES, g, seed=sd)
                operations.append(Operation(f"{check_name}/n{n}", run,
                                            _property_check(check_name, PROPERTY_SAMPLES)))
            warm_up.append(lambda f=fn_name, g=grid: getattr(verification, f)(2, g, seed=0))
    return Workload(operations, warm_up, work / "out")


WORKLOADS = {
    "scenario_artifacts": scenario_artifacts,
    "mms_sweep": mms_sweep,
    "property_checks": property_checks,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` under ``work``."""
    return WORKLOADS[name](seed, work)


def run_pass(workload: Workload, on_operation: Callable[[int], None] | None = None):
    """One timed pass over the operations, then every output checked.

    Returns (seconds per operation, {operation name: problems} for the
    failed ones).  An operation fails if it raises or its check finds a
    problem; checks run after the pass and are not timed.
    """
    workload.reset()
    outputs = []
    seconds = []
    for index, op in enumerate(workload.operations):
        if on_operation is not None:
            on_operation(index)
        start = time.perf_counter()
        try:
            outputs.append((op.run(), None))
        except Exception as err:  # an operation that raises counts as failed
            outputs.append((None, f"raised {type(err).__name__}: {err}"))
        seconds.append(time.perf_counter() - start)
    failures = {}
    for op, (output, error) in zip(workload.operations, outputs):
        if error is not None:
            failures[op.name] = [error]
            continue
        try:
            problems = op.check(output)
        except Exception as err:  # unreadable output is a failed check
            problems = [f"check raised {type(err).__name__}: {err}"]
        if problems:
            failures[op.name] = problems
    return seconds, failures
