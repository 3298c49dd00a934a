"""Batch front door: scenario configs, manufactured solutions, artifacts.

A scenario is one complete march (initial data, sources, coefficients,
method) plus the files it leaves behind: a trajectory table, a constraint
diagnostic table, and a summary JSON that echoes the fully resolved
configuration so the run can be reproduced from the summary alone.

Artifacts are plain whitespace-separated tables with a '#' header line,
directly plottable with gnuplot, and every float is printed with 17
significant digits so repeated runs are byte-identical.  For the same
reason the summary records step and iteration counts rather than wall
clock.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .constraint import reconstruct_w
from .fields import Field, Grid1D, StatePair
from .integrators import METHODS, SolveConfig, Trajectory, solve
from .nonlinearity import (
    CoefficientSet,
    SourcePair,
    source_time_lipschitz,
    tabulated_sources,
    zero_sources,
)
from .verification import report_to_dict, run_checks

__all__ = [
    "ScenarioConfig",
    "MmsSpec",
    "mms_state",
    "build_mms_sources",
    "mms_source_table",
    "initial_state",
    "scenario_sources",
    "run_scenario",
    "run_convergence",
    "run_verification",
]

SCENARIOS = ("decay", "mms", "growth_probe", "custom")


@dataclass(frozen=True)
class ScenarioConfig:
    """One run's worth of knobs; unknown keys in config files are rejected."""

    scenario: str = "decay"
    n_interior: int = 128
    dt: float = 1e-3
    t_end: float = 1.0
    method: str = "exp_euler"
    d_u: float = 1.0
    d_v: float = 1.0
    p_u: float = 1.0
    p_v: float = 1.0
    ic_file: str | None = None
    source_file: str | None = None
    blowup_threshold: float | None = None
    output_dir: str = "out"
    seed: int = 0
    snapshot_every: int = 1
    mms_a: float = 1.0
    mms_b: float = 1.0
    picard_max_iter: int = 25
    picard_tol: float = 1e-10
    picard_substeps: int = 4

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.scenario == "custom" and self.ic_file is None:
            raise ValueError("custom scenario requires ic_file")
        if self.scenario == "mms" and self.source_file is not None:
            raise ValueError("mms scenario derives its own sources; source_file not allowed")

    def resolved(self) -> "ScenarioConfig":
        """Fill scenario-dependent defaults (currently the blow-up threshold)."""
        if self.blowup_threshold is not None:
            return self
        default = 1e3 if self.scenario == "growth_probe" else 1e6
        return replace(self, blowup_threshold=default)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str) -> "ScenarioConfig":
        with open(path) as fh:
            raw = json.load(fh)
        # a previously written run summary is accepted as a config carrier
        if isinstance(raw, dict) and "config" in raw and "status" in raw:
            raw = raw["config"]
        return cls.from_dict(raw)


@dataclass(frozen=True)
class MmsSpec:
    """Manufactured pair a*exp(-t)*sin(pi x), b*exp(-t)*sin(2 pi x).

    Both components satisfy the Dirichlet conditions exactly, and the
    derived sources vanish at x = 0 and x = 1.  The pair deliberately has
    nonzero double-integral mass, so every manufactured run exercises the
    w(1) compatibility diagnostic.
    """

    a: float = 1.0
    b: float = 1.0


def mms_state(spec: MmsSpec, grid: Grid1D, t: float) -> StatePair:
    decay = np.exp(-t)
    x = grid.nodes
    return StatePair(
        Field(grid, spec.a * decay * np.sin(np.pi * x)),
        Field(grid, spec.b * decay * np.sin(2.0 * np.pi * x)),
    )


def _mms_source_fns(spec: MmsSpec, c: CoefficientSet, x: np.ndarray):
    """(f, g) as functions of t on the nodes x; the spatial profiles are fixed."""
    sin_1 = np.sin(np.pi * x)
    sin_2 = np.sin(2.0 * np.pi * x)
    # closed form of int_0^x (p_u*u + p_v*v) ds for the manufactured pair, over exp(-t)
    mass = (
        c.p_u * spec.a * (1.0 - np.cos(np.pi * x)) / np.pi
        + c.p_v * spec.b * (1.0 - np.cos(2.0 * np.pi * x)) / (2.0 * np.pi)
    )

    # time derivative is -u (resp. -v); second space derivative brings pi^2 factors
    def f(t: float) -> np.ndarray:
        decay = np.exp(-t)
        u = spec.a * decay * sin_1
        return (c.d_u * np.pi**2 - 1.0) * u + u * (decay * mass)

    def g(t: float) -> np.ndarray:
        decay = np.exp(-t)
        v = spec.b * decay * sin_2
        return (4.0 * np.pi**2 * c.d_v - 1.0) * v - v * (decay * mass)

    return f, g


def build_mms_sources(
    spec: MmsSpec, grid: Grid1D, coefficients: CoefficientSet | None = None
) -> SourcePair:
    """Sources that make the manufactured pair an exact solution.

    All derivatives and the running integral are taken in closed form; the
    solver's remaining error against the manufactured pair is then purely
    its own discretization error.
    """
    c = coefficients if coefficients is not None else CoefficientSet()
    f_at, g_at = _mms_source_fns(spec, c, grid.nodes)
    return SourcePair(
        f=lambda t: Field(grid, f_at(t)), g=lambda t: Field(grid, g_at(t)), kind="mms"
    )


def mms_source_table(
    spec: MmsSpec,
    grid: Grid1D,
    times,
    coefficients: CoefficientSet | None = None,
) -> list[tuple[float, float, float, float]]:
    """Rows (t, x, f, g) over all nodes, boundary points included."""
    c = coefficients if coefficients is not None else CoefficientSet()
    f_at, g_at = _mms_source_fns(spec, c, grid.nodes_full)
    rows = []
    for t in times:
        f, g = f_at(float(t)), g_at(float(t))
        for x, fv, gv in zip(grid.nodes_full, f, g):
            rows.append((float(t), float(x), float(fv), float(gv)))
    return rows


def _read_profile(path: str, grid: Grid1D) -> StatePair:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 3:
                raise ValueError(f"{path}: expected 3 columns (x, u, v), got {len(parts)}")
            rows.append([float(p) for p in parts])
    data = np.asarray(rows, dtype=float)
    data = data[np.argsort(data[:, 0])]
    n = grid.n_interior
    if data.shape[0] == n + 2:
        if not np.allclose(data[:, 0], grid.nodes_full, rtol=0.0, atol=1e-12):
            raise ValueError(f"{path}: x values do not align with the grid")
        data = data[1:-1]
    elif data.shape[0] == n:
        if not np.allclose(data[:, 0], grid.nodes, rtol=0.0, atol=1e-12):
            raise ValueError(f"{path}: x values do not align with the grid")
    else:
        raise ValueError(f"{path}: {data.shape[0]} rows; expected {n} interior or {n + 2} full nodes")
    return StatePair(Field(grid, data[:, 1]), Field(grid, data[:, 2]))


def initial_state(cfg: ScenarioConfig, grid: Grid1D) -> StatePair:
    if cfg.ic_file is not None:
        return _read_profile(cfg.ic_file, grid)
    x = grid.nodes
    if cfg.scenario == "decay":
        return StatePair(
            Field(grid, 0.1 * np.sin(np.pi * x)), Field(grid, 0.1 * np.sin(2.0 * np.pi * x))
        )
    if cfg.scenario == "mms":
        return mms_state(MmsSpec(cfg.mms_a, cfg.mms_b), grid, 0.0)
    if cfg.scenario == "growth_probe":
        return StatePair(Field.zeros(grid), Field(grid, 50.0 * np.sin(np.pi * x)))
    raise ValueError("custom scenario requires ic_file")


def scenario_sources(cfg: ScenarioConfig, grid: Grid1D, coefficients: CoefficientSet) -> SourcePair:
    if cfg.scenario == "mms":
        return build_mms_sources(MmsSpec(cfg.mms_a, cfg.mms_b), grid, coefficients)
    if cfg.source_file is not None:
        return tabulated_sources(grid, cfg.source_file)
    return zero_sources(grid)


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")


def _config_echo(cfg: ScenarioConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))


def _write_table(path: str, header: str, rows, config_echo: str | None = None) -> None:
    with open(path, "w") as fh:
        if config_echo is not None:
            fh.write(f"# config: {config_echo}\n")
        fh.write(f"# {header}\n")
        for row in rows:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def _trajectory_rows(grid: Grid1D, traj: Trajectory):
    x_full = grid.nodes_full
    for t, state, w in zip(traj.times, traj.states, traj.w_fields):
        u = state.u.values_full()
        v = state.v.values_full()
        wf = w.values_full()
        for j in range(x_full.shape[0]):
            yield (t, x_full[j], u[j], v[j], wf[j])


def _exit_code(traj: Trajectory) -> int:
    return {"completed": 0, "step_failure": 1, "blowup_detected": 2}[traj.status.kind]


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one scenario and write its artifacts; returns the exit code.

    0 = completed, 1 = step failure or I/O failure, 2 = blow-up detected.
    """
    cfg = cfg.resolved()
    grid = Grid1D(cfg.n_interior)
    coefficients = CoefficientSet(cfg.d_u, cfg.d_v, cfg.p_u, cfg.p_v)
    try:
        state0 = initial_state(cfg, grid)
        sources = scenario_sources(cfg, grid, coefficients)
        solve_cfg = SolveConfig(
            dt=cfg.dt,
            t_end=cfg.t_end,
            method=cfg.method,
            picard_max_iter=cfg.picard_max_iter,
            picard_tol=cfg.picard_tol,
            picard_substeps=cfg.picard_substeps,
            blowup_threshold=cfg.blowup_threshold,
            snapshot_every=cfg.snapshot_every,
        )
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    traj = solve(state0, solve_cfg, sources, coefficients)

    summary = {
        "status": {"kind": traj.status.kind, "t": traj.status.t, "reason": traj.status.reason},
        "exit_code": _exit_code(traj),
        "initial_norm": traj.states[0].norm(),
        "final_norm": traj.states[-1].norm(),
        "final_time": traj.times[-1],
        "timings": {
            "steps": traj.steps_taken,
            "snapshots": len(traj.times),
            "picard_iterations": traj.picard_iterations_total,
        },
        "seed": cfg.seed,
        "config": asdict(cfg),
        "artifacts": {"trajectory": "trajectory.csv", "constraint": "constraint.csv"},
    }
    if sources.kind != "zero":
        probes = np.linspace(0.0, cfg.t_end, 9)
        summary["source_time_lipschitz"] = source_time_lipschitz(sources, probes)
    else:
        summary["source_time_lipschitz"] = None

    try:
        echo = _config_echo(cfg)
        os.makedirs(cfg.output_dir, exist_ok=True)
        _write_table(
            os.path.join(cfg.output_dir, "trajectory.csv"),
            "t x u v w",
            _trajectory_rows(grid, traj),
            config_echo=echo,
        )
        _write_table(
            os.path.join(cfg.output_dir, "constraint.csv"),
            "t residual_l2 w_at_1",
            ((t, r.residual_l2, r.w_at_1) for t, r in zip(traj.times, traj.reports)),
            config_echo=echo,
        )
        if cfg.scenario == "mms":
            spec = MmsSpec(cfg.mms_a, cfg.mms_b)
            rows = (
                (t, (state - mms_state(spec, grid, t)).norm())
                for t, state in zip(traj.times, traj.states)
            )
            _write_table(
                os.path.join(cfg.output_dir, "mms_error.csv"), "t error_H", rows, config_echo=echo
            )
            summary["artifacts"]["mms_error"] = "mms_error.csv"
        with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as err:
        print(f"error writing artifacts under {cfg.output_dir}: {err}", file=sys.stderr)
        return 1
    return summary["exit_code"]


def _terminal_error(cfg: ScenarioConfig, n_interior: int, dt: float) -> float:
    grid = Grid1D(n_interior)
    coefficients = CoefficientSet(cfg.d_u, cfg.d_v, cfg.p_u, cfg.p_v)
    spec = MmsSpec(cfg.mms_a, cfg.mms_b)
    sources = build_mms_sources(spec, grid, coefficients)
    solve_cfg = SolveConfig(
        dt=dt,
        t_end=cfg.t_end,
        method=cfg.method,
        picard_max_iter=cfg.picard_max_iter,
        picard_tol=cfg.picard_tol,
        picard_substeps=cfg.picard_substeps,
        blowup_threshold=1e6,
        snapshot_every=10**9,
    )
    traj = solve(mms_state(spec, grid, 0.0), solve_cfg, sources, coefficients)
    if traj.status.kind != "completed":
        raise RuntimeError(f"manufactured run did not complete: {traj.status}")
    return (traj.states[-1] - mms_state(spec, grid, traj.times[-1])).norm()


def run_convergence(cfg: ScenarioConfig, dt_levels=(), n_levels=()) -> list[dict]:
    """Manufactured-solution order sweeps; returns the table rows.

    ``dt_levels`` refines time on the configured grid (pick the grid fine
    enough that the spatial floor stays below roughly 10% of the temporal
    error at the finest dt); ``n_levels`` refines space at the configured
    dt, which must be small enough to saturate.  observed_order is the
    log2 error ratio against the previous row of the same sweep, NaN on
    the first row.  Writes convergence.csv under the output directory.
    """
    cfg = cfg.resolved()
    if cfg.scenario != "mms":
        raise ValueError("convergence sweeps require the mms scenario")
    rows: list[dict] = []

    def sweep(settings):
        previous = None
        for n_interior, dt in settings:
            error = _terminal_error(cfg, n_interior, dt)
            order = float("nan") if previous is None else float(np.log2(previous / error))
            rows.append(
                {"dt": dt, "n_interior": n_interior, "error_H": error, "observed_order": order}
            )
            previous = error

    sweep((cfg.n_interior, float(dt)) for dt in dt_levels)
    sweep((int(n), cfg.dt) for n in n_levels)

    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_table(
        os.path.join(cfg.output_dir, "convergence.csv"),
        "dt n_interior error_H observed_order",
        ((r["dt"], r["n_interior"], r["error_H"], r["observed_order"]) for r in rows),
        config_echo=_config_echo(cfg),
    )
    return rows


def run_verification(
    grid_sizes=(16, 64, 256),
    seed: int = 0,
    output_path: str | None = None,
    n_samples: int = 1000,
    lipschitz_samples: int = 10000,
) -> tuple[bool, dict]:
    """All property checks at each grid size; consolidated JSON on request."""
    payload: dict = {"seed": seed, "grid_sizes": list(int(n) for n in grid_sizes), "reports": {}}
    all_passed = True
    for index, n in enumerate(grid_sizes):
        reports = run_checks(
            Grid1D(int(n)),
            seed=seed + 100 * index,
            n_samples=n_samples,
            lipschitz_samples=lipschitz_samples,
        )
        payload["reports"][str(int(n))] = [report_to_dict(r) for r in reports]
        all_passed = all_passed and all(r.passed for r in reports)
    payload["all_passed"] = all_passed
    if output_path is not None:
        os.makedirs(os.path.dirname(output_path) or ".", exist_ok=True)
        with open(output_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return all_passed, payload
