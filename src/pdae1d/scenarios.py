"""Batch front door: scenario configs, manufactured solutions, artifacts.

A scenario is one complete march (initial data, sources, coefficients,
method) plus the files it leaves behind: a trajectory table, a constraint
diagnostic table, and a summary JSON that echoes the fully resolved
configuration so the run can be reproduced from the summary alone.

``run`` and ``converge`` each declare their tables once, as
``{name: (header, blocks)}``; :func:`_write_tables` writes every entry as
``name.csv``, and a run's summary lists the same entries, so a new
artifact is one more entry.

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
from dataclasses import asdict, dataclass, fields

import numpy as np

# reconstruct_w stays bound here because perfbench/tracing.py wraps every
# module binding of it
from .constraint import reconstruct_w  # noqa: F401
from .fields import Field, Grid1D, StatePair, _check_fields, _field_types, _whole, pair_norm
from .integrators import METHODS, SolveConfig, Trajectory, solve
from .nonlinearity import (
    _DEFAULT_COEFFICIENTS,
    CoefficientSet,
    SourcePair,
    read_node_table,
    source_time_lipschitz,
    tabulated_sources,
    zero_sources,
)
from .verification import run_checks

__all__ = [
    "ScenarioConfig",
    "read_config",
    "MmsSpec",
    "mms_state",
    "build_mms_sources",
    "run_scenario",
    "run_convergence",
    "run_verification",
]

SCENARIOS = ("decay", "mms", "growth_probe", "custom")


@dataclass(frozen=True)
class ScenarioConfig:
    """One run's worth of knobs; unknown keys in config files are rejected.

    A ``blowup_threshold`` of None is the scenario's default: 1e3 for
    growth_probe, 1e6 otherwise.
    """

    scenario: str = "decay"
    n_interior: int = 128
    dt: float = 1e-3
    t_end: float = 1.0
    method: str = SolveConfig.method
    d_u: float = 1.0
    d_v: float = 1.0
    p_u: float = 1.0
    p_v: float = 1.0
    ic_file: str | None = None
    source_file: str | None = None
    blowup_threshold: float | None = None
    output_dir: str = "out"
    seed: int = 0
    snapshot_every: int = SolveConfig.snapshot_every
    mms_a: float = 1.0
    mms_b: float = 1.0
    picard_max_iter: int = SolveConfig.picard_max_iter
    picard_tol: float = SolveConfig.picard_tol
    picard_substeps: int = SolveConfig.picard_substeps

    def __post_init__(self):
        _check_fields(self)
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
        if self.blowup_threshold is None:
            object.__setattr__(self, "blowup_threshold", 1e3 if self.scenario == "growth_probe" else 1e6)

    def solve_config(self, **overrides) -> SolveConfig:
        """The marching parameters of the config, with ``overrides`` applied."""
        params = {f.name: getattr(self, f.name) for f in fields(SolveConfig)}
        return SolveConfig(**{**params, **overrides})

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Config from JSON-like values; unknown keys are rejected, values checked as fields."""
        unknown = set(raw) - set(CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


CONFIG_TYPES = _field_types(ScenarioConfig)


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


def _mms_values(spec: MmsSpec, x: np.ndarray, times) -> np.ndarray:
    """The manufactured pair at each of K times on the nodes x, shaped (K, 2, len(x)).

    Row i has the bits of the pair at ``times[i]`` alone: a decay column
    times a profile row is the product at each time.
    """
    decay = np.exp(-np.asarray(times, dtype=float))[:, None]
    return np.stack((spec.a * decay * np.sin(np.pi * x), spec.b * decay * np.sin(2.0 * np.pi * x)), axis=1)


# a StatePair because the benchmark builds solve's initial states with it
def mms_state(spec: MmsSpec, grid: Grid1D, t: float) -> StatePair:
    u, v = _mms_values(spec, grid.nodes, [t])[0]
    return StatePair(Field(grid, u), Field(grid, v))


def _mms_source_fns(spec: MmsSpec, c: CoefficientSet, x: np.ndarray):
    """(f, g) on the nodes x as functions of a 1-D array of K times.

    Each value is a fresh read-only (K, len(x)) array whose row i has the
    bits of the pair at ``times[i]`` alone.  Everything but the decay
    e^(-t) is built here, once per pair: the spatial profiles, the mass and
    the two diffusion gains.
    """
    a, b = spec.a, spec.b
    sin_1 = np.sin(np.pi * x)
    sin_2 = np.sin(2.0 * np.pi * x)
    # closed form of int_0^x (p_u*u + p_v*v) ds for the manufactured pair, over exp(-t)
    mass = (
        c.p_u * a * (1.0 - np.cos(np.pi * x)) / np.pi
        + c.p_v * b * (1.0 - np.cos(2.0 * np.pi * x)) / (2.0 * np.pi)
    )
    # time derivative is -u (resp. -v); second space derivative brings pi^2 factors
    gain_u = c.d_u * np.pi**2 - 1.0
    gain_v = 4.0 * np.pi**2 * c.d_v - 1.0

    # f = gain_u*u + u*(decay*mass) and g = gain_v*v - v*(decay*mass), each
    # product and sum rounded as written, formed in place on fresh arrays;
    # a decay column times a profile row is the product at each time
    def f(times: np.ndarray) -> np.ndarray:
        decay = np.exp(-times)[:, None]
        u = a * decay * sin_1
        coupling = decay * mass
        coupling *= u
        u *= gain_u
        u += coupling
        u.flags.writeable = False
        return u

    def g(times: np.ndarray) -> np.ndarray:
        decay = np.exp(-times)[:, None]
        v = b * decay * sin_2
        coupling = decay * mass
        coupling *= v
        v *= gain_v
        v -= coupling
        v.flags.writeable = False
        return v

    return f, g


def build_mms_sources(
    spec: MmsSpec, grid: Grid1D, coefficients: CoefficientSet | None = None
) -> SourcePair:
    """Sources that make the manufactured pair an exact solution.

    All derivatives and the running integral are taken in closed form; the
    solver's remaining error against the manufactured pair is then purely
    its own discretization error.
    """
    c = coefficients if coefficients is not None else _DEFAULT_COEFFICIENTS
    f, g = _mms_source_fns(spec, c, grid.nodes)
    return SourcePair(f=f, g=g, kind="mms")


def _march_inputs(cfg: ScenarioConfig, grid: Grid1D):
    """The initial state, sources and coefficients of a scenario's march on ``grid``.

    A profile file is read before a source table, so a bad profile is the
    error reported when both files are bad.
    """
    coefficients = CoefficientSet(cfg.d_u, cfg.d_v, cfg.p_u, cfg.p_v)
    if cfg.scenario == "mms":  # its config holds neither file
        spec = MmsSpec(cfg.mms_a, cfg.mms_b)
        return mms_state(spec, grid, 0.0), build_mms_sources(spec, grid, coefficients), coefficients
    x = grid.nodes
    if cfg.ic_file is not None:  # a custom scenario always has one
        u, v = read_node_table(cfg.ic_file, grid, ("x", "u", "v"))[1][0]
    elif cfg.scenario == "decay":
        u, v = 0.1 * np.sin(np.pi * x), 0.1 * np.sin(2.0 * np.pi * x)
    else:  # growth_probe
        u, v = np.zeros(grid.n_interior), 50.0 * np.sin(np.pi * x)
    sources = zero_sources(grid) if cfg.source_file is None else tabulated_sources(grid, cfg.source_file)
    return StatePair(Field(grid, u), Field(grid, v)), sources, coefficients


def _config_dict(cfg: ScenarioConfig) -> dict:
    # every field is a number, a string or None, so asdict's deep copy buys nothing
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def _config_echo(cfg: ScenarioConfig) -> str:
    return json.dumps(_config_dict(cfg), sort_keys=True, separators=(",", ":"))


def _format_block(block: np.ndarray) -> str:
    """Rows of a 2-D block, each float with 17 significant digits, one line per row.

    Every value prints as ``format(float(x) + 0.0, ".17g")`` would: the
    "+ 0.0" turns -0.0 into 0, so artifacts stay canonical.
    """
    rows, cols = block.shape
    line = " ".join(["%.17g"] * cols) + "\n"
    return (line * rows) % tuple((block + 0.0).ravel().tolist())


def _format_slabs(times, x: np.ndarray, columns: int, blocks):
    """Text of rows ``t x c_1 .. c_columns``, one slab of len(x) rows per time.

    ``blocks`` yields one (len(x), columns) array per time in ``times``.
    Every value prints as in :func:`_format_block`, but each node's x is
    formatted once for all slabs and each t once for its slab: only the
    per-node columns go through ``%.17g`` row by row.
    """
    tail = " %.17g" * columns + "\n"
    rows = ["%.17g" % x_j + tail for x_j in (x + 0.0).tolist()]
    for t, block in zip(times, blocks):
        lead = "%.17g " % (t + 0.0)
        yield (lead + lead.join(rows)) % tuple((block + 0.0).ravel().tolist())


def _write_table(path: str, header: str, blocks, config_echo: str) -> None:
    """The config echo, a '#' header line, then the data rows ``blocks``, one at a time.

    A block is either text already formatted (:func:`_format_slabs`) or a
    2-D array, formatted by :func:`_format_block`.
    """
    with open(path, "w") as fh:
        fh.write(f"# config: {config_echo}\n")
        fh.write(f"# {header}\n")
        for block in blocks:
            fh.write(block if isinstance(block, str) else _format_block(block))


def _write_tables(cfg: ScenarioConfig, tables: dict) -> None:
    """Each entry ``{name: (header, blocks)}`` as ``name.csv`` under the output directory.

    The directory is made first; each file goes through one
    :func:`_write_table` call, path first, with the config echo.
    """
    echo = _config_echo(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    for name, (header, blocks) in tables.items():
        _write_table(os.path.join(cfg.output_dir, f"{name}.csv"), header, blocks, config_echo=echo)


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


def _trajectory_slabs(grid: Grid1D, traj: Trajectory):
    """The text of each snapshot's rows (t, x, u, v, w), ends included."""

    def uvw():
        block = np.zeros((grid.n_interior + 2, 3))  # u and v stay 0 at both ends
        for values, w in zip(traj.values, traj.w):
            block[1:-1, :2] = values.T
            block[:, 2] = w
            yield block

    return _format_slabs(traj.times, grid.nodes_full, 3, uvw())


def _mms_errors(cfg: ScenarioConfig, grid: Grid1D, traj: Trajectory) -> np.ndarray:
    """The pair-norm error of each snapshot of an mms march against the manufactured pair."""
    exact = _mms_values(MmsSpec(cfg.mms_a, cfg.mms_b), grid.nodes, traj.times)
    return pair_norm(traj.values - exact, grid.h)


def _exit_code(traj: Trajectory) -> int:
    return {"completed": 0, "step_failure": 1, "blowup_detected": 2}[traj.status.kind]


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one scenario and write its artifacts; returns the exit code.

    0 = completed, 1 = step failure or I/O failure, 2 = blow-up detected.
    """
    try:
        grid = Grid1D(cfg.n_interior)
        state0, sources, coefficients = _march_inputs(cfg, grid)
        solve_cfg = cfg.solve_config()
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    traj = solve(state0, solve_cfg, sources, coefficients)
    norms = pair_norm(traj.values, grid.h)  # an overflowing norm is inf, written as null
    constraint_rows = np.column_stack((traj.times, traj.residual_l2, traj.w_at_1))
    tables = {
        "trajectory": ("t x u v w", _trajectory_slabs(grid, traj)),
        "constraint": ("t residual_l2 w_at_1", [constraint_rows]),
    }
    if cfg.scenario == "mms":
        tables["mms_error"] = ("t error_H", [np.column_stack((traj.times, _mms_errors(cfg, grid, traj)))])

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
        "config": _config_dict(cfg),
        "artifacts": {name: f"{name}.csv" for name in tables},
        "source_time_lipschitz": None
        if sources.kind == "zero"
        else source_time_lipschitz(sources, np.linspace(0.0, cfg.t_end, 9)),
    }
    try:
        _write_tables(cfg, tables)
        _write_json(os.path.join(cfg.output_dir, "summary.json"), summary)
    except OSError as err:
        print(f"error writing artifacts under {cfg.output_dir}: {err}", file=sys.stderr)
        return 1
    return summary["exit_code"]


def _terminal_error(cfg: ScenarioConfig, grid: Grid1D, config: SolveConfig) -> float:
    state0, sources, coefficients = _march_inputs(cfg, grid)
    traj = solve(state0, config, sources, coefficients)
    if traj.status.kind != "completed":
        raise RuntimeError(f"manufactured run did not complete: {traj.status}")
    return float(_mms_errors(cfg, grid, traj)[-1])


def run_convergence(cfg: ScenarioConfig, dt_levels=(), n_levels=()) -> list[dict]:
    """Manufactured-solution order sweeps; returns the table rows.

    ``dt_levels`` refines time on the configured grid (pick the grid fine
    enough that the spatial floor stays below roughly 10% of the temporal
    error at the finest dt); ``n_levels`` refines space at the configured
    dt, which must be small enough to saturate.  observed_order is the
    log2 error ratio against the previous row of the same sweep, NaN on
    the first row.  Every level marches with the config's blow-up
    threshold; a level that stops early raises RuntimeError, and a sweep
    with no level at all, a level repeated within its sweep, or a level
    whose grid or marching parameters are invalid raises ValueError
    before any march.  Writes convergence.csv under the output
    directory.
    """
    if cfg.scenario != "mms":
        raise ValueError("convergence sweeps require the mms scenario")
    dt_levels = tuple(map(float, dt_levels))
    n_levels = tuple(_whole(n, "an n_interior level") for n in n_levels)
    if not dt_levels and not n_levels:
        raise ValueError("a convergence sweep needs at least one dt or n_interior level")
    for name, levels in (("dt", dt_levels), ("n_interior", n_levels)):
        repeated = [level for i, level in enumerate(levels) if level in levels[:i]]
        if repeated:
            raise ValueError(f"{name} level {repeated[0]} repeats: a sweep's levels must differ")

    def built(settings):
        # each level's grid and marching parameters, so that a bad level fails before any march
        return [(n, dt, Grid1D(n), cfg.solve_config(dt=dt, snapshot_every=10**9)) for n, dt in settings]

    rows: list[dict] = []
    for sweep in (built((cfg.n_interior, dt) for dt in dt_levels), built((n, cfg.dt) for n in n_levels)):
        previous = None
        for n_interior, dt, grid, config in sweep:
            error = _terminal_error(cfg, grid, config)
            order = float("nan") if previous is None else float(np.log2(previous / error))
            rows.append(
                {"dt": dt, "n_interior": n_interior, "error_H": error, "observed_order": order}
            )
            previous = error

    table = np.reshape([(r["dt"], r["n_interior"], r["error_H"], r["observed_order"]) for r in rows], (-1, 4))
    _write_tables(cfg, {"convergence": ("dt n_interior error_H observed_order", [table])})
    return rows


def run_verification(
    grid_sizes,
    seed: int,
    n_samples: int,
    lipschitz_samples: int,
    output_path: str | None = None,
) -> tuple[bool, dict]:
    """All property checks at each grid size; consolidated JSON on request.

    The sizes must be distinct and there must be at least one; otherwise
    ValueError, since reports are keyed by size and no check means no pass.
    A bad size, or a sample count that is not an integer of at least 1,
    raises ValueError before the first check.  The size at position i
    seeds its checks with ``seed + 100 * i``; each report is the
    ``asdict`` of its ``PropertyReport``.
    """
    sizes = [_whole(n, "a grid size") for n in grid_sizes]
    if not sizes:
        raise ValueError("verification needs at least one grid size")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"grid sizes must be distinct, got {sizes}")
    grids = [Grid1D(n) for n in sizes]
    for name, count in (("n_samples", n_samples), ("lipschitz_samples", lipschitz_samples)):
        if _whole(count, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    payload: dict = {"seed": seed, "grid_sizes": sizes, "reports": {}}
    all_passed = True
    for index, (n, grid) in enumerate(zip(sizes, grids)):
        reports = run_checks(grid, seed + 100 * index, n_samples, lipschitz_samples)
        payload["reports"][str(n)] = [asdict(r) for r in reports]
        all_passed = all_passed and all(r.passed for r in reports)
    payload["all_passed"] = all_passed
    if output_path is not None:
        os.makedirs(os.path.dirname(output_path) or ".", exist_ok=True)
        _write_json(output_path, payload)
    return all_passed, payload
