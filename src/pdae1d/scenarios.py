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
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

# reconstruct_w stays bound here because perfbench/tracing.py wraps every
# module binding of it
from .constraint import reconstruct_w  # noqa: F401
from .fields import Field, Grid1D, StatePair, _check_finite, _freeze, pair_norm
from .integrators import METHODS, SolveConfig, Trajectory, solve
from .nonlinearity import (
    CoefficientSet,
    SourcePair,
    read_node_table,
    source_time_lipschitz,
    tabulated_sources,
    zero_sources,
)
from .verification import report_to_dict, run_checks

__all__ = [
    "ScenarioConfig",
    "read_config",
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
        _check_finite(self)
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.scenario == "custom" and self.ic_file is None:
            raise ValueError("custom scenario requires ic_file")
        if self.scenario == "mms" and (self.ic_file, self.source_file) != (None, None):
            raise ValueError(
                "mms scenario starts from the manufactured pair and derives its own sources; "
                "ic_file and source_file not allowed"
            )

    def resolved(self) -> "ScenarioConfig":
        """Fill scenario-dependent defaults (currently the blow-up threshold)."""
        if self.blowup_threshold is not None:
            return self
        default = 1e3 if self.scenario == "growth_probe" else 1e6
        return replace(self, blowup_threshold=default)

    def solve_config(self, **overrides) -> SolveConfig:
        """The marching parameters of the resolved config, with ``overrides`` applied."""
        cfg = self.resolved()
        params = {f.name: getattr(cfg, f.name) for f in fields(SolveConfig)}
        return SolveConfig(**{**params, **overrides})

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Config from JSON-like values; unknown keys and mistyped values are rejected.

        An int is accepted for a float field, and None only for a field
        whose default is None.
        """
        unknown = set(raw) - set(CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            kind, nullable = CONFIG_TYPES[key]
            if value is None and nullable:
                continue
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        return cls(**raw)


def _field_type(hint) -> tuple[type, bool]:
    args = typing.get_args(hint)  # (T, NoneType) for a "T | None" field
    return (args[0], True) if args else (hint, False)


# config field name -> (its type, whether None is allowed), in field order
CONFIG_TYPES = {
    name: _field_type(hint) for name, hint in typing.get_type_hints(ScenarioConfig).items()
}


def read_config(path: str) -> dict:
    """Config values from a JSON object, or from a run summary that carries one."""
    with open(path) as fh:
        raw = json.load(fh)
    # a previously written run summary is accepted as a config carrier
    if isinstance(raw, dict) and "config" in raw and "status" in raw:
        raw = raw["config"]
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a config must be a JSON object")
    return raw


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


def _mms_values(spec: MmsSpec, x: np.ndarray, t: float) -> np.ndarray:
    """The manufactured pair at time t on the nodes x, shaped (2, len(x))."""
    decay = np.exp(-t)
    return np.stack((spec.a * decay * np.sin(np.pi * x), spec.b * decay * np.sin(2.0 * np.pi * x)))


# a StatePair because the benchmark builds solve's initial states with it
def mms_state(spec: MmsSpec, grid: Grid1D, t: float) -> StatePair:
    u, v = _mms_values(spec, grid.nodes, t)
    return StatePair(Field(grid, u), Field(grid, v))


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
    return SourcePair(f=lambda t: _freeze(f_at(t)), g=lambda t: _freeze(g_at(t)), kind="mms")


def mms_source_table(
    spec: MmsSpec,
    grid: Grid1D,
    times,
    coefficients: CoefficientSet | None = None,
) -> np.ndarray:
    """Rows (t, x, f, g) over all nodes, both end points included.

    Shaped (len(times) * (n+2), 4): the n+2 rows of each time in turn.
    """
    c = coefficients if coefficients is not None else CoefficientSet()
    x = grid.nodes_full
    f_at, g_at = _mms_source_fns(spec, c, x)
    blocks = [np.column_stack((np.full_like(x, t), x, f_at(t), g_at(t))) for t in map(float, times)]
    return np.reshape(blocks, (-1, 4))


def _read_profile(path: str, grid: Grid1D) -> StatePair:
    _, values = read_node_table(path, grid, ("x", "u", "v"))
    return StatePair(Field(grid, values[0, 0]), Field(grid, values[0, 1]))


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


def _march_inputs(cfg: ScenarioConfig, grid: Grid1D):
    """The initial state, sources and coefficients of a scenario's march on ``grid``."""
    coefficients = CoefficientSet(cfg.d_u, cfg.d_v, cfg.p_u, cfg.p_v)
    return initial_state(cfg, grid), scenario_sources(cfg, grid, coefficients), coefficients


def _config_echo(cfg: ScenarioConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))


def _format_block(block: np.ndarray) -> str:
    """Rows of a 2-D block, each float with 17 significant digits, one line per row.

    Every value prints as ``format(float(x) + 0.0, ".17g")`` would: the
    "+ 0.0" turns -0.0 into 0, so artifacts stay canonical.
    """
    rows, cols = block.shape
    line = " ".join(["%.17g"] * cols) + "\n"
    return (line * rows) % tuple((block + 0.0).ravel().tolist())


def _write_table(path: str, header: str, blocks, config_echo: str | None = None) -> None:
    """A '#'-headed table whose data rows are the 2-D ``blocks``, formatted one at a time."""
    with open(path, "w") as fh:
        if config_echo is not None:
            fh.write(f"# config: {config_echo}\n")
        fh.write(f"# {header}\n")
        for block in blocks:
            fh.write(_format_block(block))


def _strict(value):
    """``value`` with every non-finite float replaced by None."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: str, payload: dict) -> None:
    """Indented, key-sorted JSON that strict parsers read: non-finite floats become null."""
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _trajectory_blocks(grid: Grid1D, traj: Trajectory):
    """One (n+2, 5) block of rows (t, x, u, v, w) per snapshot, ends included."""
    for t, values, w in zip(traj.times, traj.values, traj.w):
        block = np.zeros((grid.n_interior + 2, 5))
        block[:, 0] = t
        block[:, 1] = grid.nodes_full
        block[1:-1, 2:4] = values.T
        block[:, 4] = w
        yield block


def _exit_code(traj: Trajectory) -> int:
    return {"completed": 0, "step_failure": 1, "blowup_detected": 2}[traj.status.kind]


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one scenario and write its artifacts; returns the exit code.

    0 = completed, 1 = step failure or I/O failure, 2 = blow-up detected.
    """
    cfg = cfg.resolved()
    try:
        grid = Grid1D(cfg.n_interior)
        state0, sources, coefficients = _march_inputs(cfg, grid)
        solve_cfg = cfg.solve_config()
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    traj = solve(state0, solve_cfg, sources, coefficients)
    norms = pair_norm(traj.values, grid.h)

    summary = {
        "status": {"kind": traj.status.kind, "t": traj.status.t, "reason": traj.status.reason},
        "exit_code": _exit_code(traj),
        "initial_norm": float(norms[0]),
        "final_norm": float(norms[-1]),
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
            _trajectory_blocks(grid, traj),
            config_echo=echo,
        )
        _write_table(
            os.path.join(cfg.output_dir, "constraint.csv"),
            "t residual_l2 w_at_1",
            [np.column_stack((traj.times, traj.residual_l2, traj.w_at_1))],
            config_echo=echo,
        )
        if cfg.scenario == "mms":
            spec = MmsSpec(cfg.mms_a, cfg.mms_b)
            exact = np.stack([_mms_values(spec, grid.nodes, t) for t in traj.times])
            errors = pair_norm(traj.values - exact, grid.h)
            _write_table(
                os.path.join(cfg.output_dir, "mms_error.csv"),
                "t error_H",
                [np.column_stack((traj.times, errors))],
                config_echo=echo,
            )
            summary["artifacts"]["mms_error"] = "mms_error.csv"
        _write_json(os.path.join(cfg.output_dir, "summary.json"), summary)
    except OSError as err:
        print(f"error writing artifacts under {cfg.output_dir}: {err}", file=sys.stderr)
        return 1
    return summary["exit_code"]


def _terminal_error(cfg: ScenarioConfig, n_interior: int, dt: float) -> float:
    grid = Grid1D(n_interior)
    state0, sources, coefficients = _march_inputs(cfg, grid)
    traj = solve(state0, cfg.solve_config(dt=dt, snapshot_every=10**9), sources, coefficients)
    if traj.status.kind != "completed":
        raise RuntimeError(f"manufactured run did not complete: {traj.status}")
    exact = _mms_values(MmsSpec(cfg.mms_a, cfg.mms_b), grid.nodes, traj.times[-1])
    return pair_norm(traj.values[-1] - exact, grid.h)


def run_convergence(cfg: ScenarioConfig, dt_levels=(), n_levels=()) -> list[dict]:
    """Manufactured-solution order sweeps; returns the table rows.

    ``dt_levels`` refines time on the configured grid (pick the grid fine
    enough that the spatial floor stays below roughly 10% of the temporal
    error at the finest dt); ``n_levels`` refines space at the configured
    dt, which must be small enough to saturate.  observed_order is the
    log2 error ratio against the previous row of the same sweep, NaN on
    the first row.  Every level marches with the resolved blow-up
    threshold; a level that stops early raises RuntimeError.  Writes
    convergence.csv under the output directory.
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

    table = [(r["dt"], r["n_interior"], r["error_H"], r["observed_order"]) for r in rows]
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_table(
        os.path.join(cfg.output_dir, "convergence.csv"),
        "dt n_interior error_H observed_order",
        [np.reshape(table, (-1, 4))],
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
        _write_json(output_path, payload)
    return all_passed, payload
