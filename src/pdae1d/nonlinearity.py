"""The reaction operator, source terms, and the local Lipschitz diagnostic.

The non-diffusive part of the dynamics couples the two components through
the running integral I(x) = int_0^x (p_u*u + p_v*v): the first component
loses -u*I and the second gains +v*I, plus time-dependent sources.  The
quadratic term makes the operator only locally Lipschitz, with constant
4*sqrt(3)*C on the ball of radius C in the product norm; ``lipschitz_ratio``
measures the realized quotient so that bound can be checked empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

# cumulative_integral stays bound here because perfbench/tracing.py wraps
# every module binding of it
from .constraint import cumulative_integral  # noqa: F401
from .constraint import running_integral
from .fields import Field, Grid1D, StatePair, pair_norm, row_dot

__all__ = [
    "CoefficientSet",
    "SourcePair",
    "zero_sources",
    "read_node_table",
    "tabulated_sources",
    "eval_reaction",
    "lipschitz_ratio",
    "h1_seminorm",
    "source_time_lipschitz",
]

LIPSCHITZ_BOUND_FACTOR = 4.0 * np.sqrt(3.0)


@dataclass(frozen=True)
class CoefficientSet:
    """Diffusion (d_u, d_v > 0) and impact (p_u, p_v) coefficients, default 1."""

    d_u: float = 1.0
    d_v: float = 1.0
    p_u: float = 1.0
    p_v: float = 1.0

    def __post_init__(self):
        if self.d_u <= 0 or self.d_v <= 0:
            raise ValueError("diffusion coefficients must be positive")


@dataclass(frozen=True)
class SourcePair:
    """Time-parameterized source fields (f, g).

    The callables map t >= 0 to a Field on a fixed grid and must be
    re-entrant: no internal mutable state, safe to evaluate concurrently.
    """

    f: Callable[[float], Field]
    g: Callable[[float], Field]
    kind: str = "custom"


def zero_sources(grid: Grid1D) -> SourcePair:
    zero = Field.zeros(grid)
    return SourcePair(f=lambda t: zero, g=lambda t: zero, kind="zero")


def read_node_table(path: str, grid: Grid1D, columns: tuple[str, ...]):
    """Read a table of nodal values on ``grid``; returns ``(times, values)``.

    ``columns`` names the table's columns: ``("x", ...)`` for one profile,
    ``("t", "x", ...)`` for time slabs.  '#' starts a comment; entries are
    separated by commas or whitespace and must be finite.  Each slab lists
    either the n interior nodes or all n + 2 nodes, in any order, with x
    within 1e-12 of the grid.  ``times`` holds the sorted distinct t (None
    for a profile); ``values`` is shaped (slabs, columns after x, n) and
    holds the interior nodes in grid order.
    """
    rows = []
    with open(path) as fh:
        for line in fh:
            parts = line.split("#", 1)[0].replace(",", " ").split()
            if not parts:
                continue
            if len(parts) != len(columns):
                raise ValueError(
                    f"{path}: expected {len(columns)} columns ({', '.join(columns)}), "
                    f"got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: table entries must be finite")
    keyed = columns[0] != "x"
    times = np.unique(data[:, 0]) if keyed else None
    n = grid.n_interior
    slabs = []
    for t in times if keyed else (None,):
        block = data[data[:, 0] == t, 1:] if keyed else data
        block = block[np.argsort(block[:, 0])]
        where = f" (slab t={t})" if keyed else ""
        full = block.shape[0] == n + 2
        if not full and block.shape[0] != n:
            raise ValueError(
                f"{path}{where}: {block.shape[0]} rows; expected {n} interior or {n + 2} full nodes"
            )
        nodes = grid.nodes_full if full else grid.nodes
        if not np.allclose(block[:, 0], nodes, rtol=0.0, atol=1e-12):
            raise ValueError(f"{path}{where}: x values do not align with the grid")
        slabs.append((block[1:-1] if full else block)[:, 1:].T)
    return times, np.asarray(slabs)


def tabulated_sources(grid: Grid1D, path: str) -> SourcePair:
    """Sources from a table with columns (t, x, f, g), read by :func:`read_node_table`.

    Evaluation interpolates linearly in t and clamps outside the tabulated
    range; values at x = 0 and x = 1, if tabulated, are checked and dropped.
    """
    times, slabs = read_node_table(path, grid, ("t", "x", "f", "g"))

    def interpolate(component, t):
        if t <= times[0]:
            return Field(grid, slabs[0, component])
        if t >= times[-1]:
            return Field(grid, slabs[-1, component])
        i = int(np.searchsorted(times, t, side="right")) - 1
        theta = (t - times[i]) / (times[i + 1] - times[i])
        return Field(grid, (1.0 - theta) * slabs[i, component] + theta * slabs[i + 1, component])

    return SourcePair(
        f=lambda t: interpolate(0, t),
        g=lambda t: interpolate(1, t),
        kind="custom-tabulated",
    )


def _reaction_terms(values: np.ndarray, c: CoefficientSet, ends=None) -> np.ndarray:
    """Source-free reaction (-u*I, +v*I) of nodal pairs shaped (..., 2, n).

    I is the trapezoid running integral of p_u*u + p_v*v, evaluated at the
    interior nodes; ``ends`` holds the pair's values at x = 0 and x = 1,
    shaped (..., 2, 2), and defaults to the Dirichlet zeros.  Leading axes
    are a batch.
    """
    n = values.shape[-1]
    full = np.zeros(values.shape[:-1] + (n + 2,))
    full[..., 1:-1] = values
    if ends is not None:
        full[..., [0, -1]] = ends
    integral = running_integral(c.p_u * full[..., 0, :] + c.p_v * full[..., 1, :], 1.0 / (n + 1))
    out = np.empty(values.shape)
    out[..., 0, :] = -values[..., 0, :] * integral[..., 1:-1]
    out[..., 1, :] = values[..., 1, :] * integral[..., 1:-1]
    return out


def eval_reaction(
    state: StatePair | np.ndarray,
    t: float = 0.0,
    sources: SourcePair | None = None,
    coefficients: CoefficientSet | None = None,
) -> StatePair | np.ndarray:
    """Non-diffusive right-hand side (-u*I + f(t), +v*I + g(t)).

    I is the trapezoid running integral of p_u*u + p_v*v evaluated at the
    interior nodes; a StatePair's boundary pairs enter it as end values.
    ``state`` is a StatePair, or Dirichlet nodal values shaped (..., 2, n)
    as the integrators hold them; the result comes back in the same form.
    """
    c = coefficients if coefficients is not None else CoefficientSet()
    pair = isinstance(state, StatePair)
    if pair:
        values = np.stack((state.u.values, state.v.values))
        out = _reaction_terms(values, c, ends=(state.u.boundary, state.v.boundary))
    else:
        out = _reaction_terms(state, c)
    if sources is not None:
        out[..., 0, :] += sources.f(t).values
        out[..., 1, :] += sources.g(t).values
    if pair:
        return StatePair(Field(state.grid, out[0]), Field(state.grid, out[1]))
    return out


def lipschitz_ratio(
    a: StatePair | np.ndarray,
    b: StatePair | np.ndarray,
    sources: SourcePair | None = None,
    t: float = 0.0,
    coefficients: CoefficientSet | None = None,
):
    """Realized quotient ||R(a) - R(b)|| / ||a - b|| of the reaction operator.

    Sources cancel in the difference, so the result does not depend on them.
    ``a`` and ``b`` are StatePairs, giving a float, or Dirichlet nodal pairs
    shaped (..., 2, n), giving an array of the per-pair quotients.
    """
    if isinstance(a, StatePair):
        norm = StatePair.norm
    else:
        norm = partial(pair_norm, h=1.0 / (a.shape[-1] + 1))
    denom = norm(a - b)
    if np.any(denom == 0.0):
        raise ValueError("states coincide; the quotient is undefined")
    ra = eval_reaction(a, t, sources, coefficients)
    rb = eval_reaction(b, t, sources, coefficients)
    return norm(ra - rb) / denom


def h1_seminorm(f: Field | np.ndarray):
    """Discrete first-derivative seminorm sqrt(h * sum((df/h)^2)).

    Forward differences over every cell including the two boundary gaps,
    using the field's explicit boundary pair (zero for Dirichlet unknowns).
    ``f`` is a Field, giving a float, or Dirichlet nodal values shaped
    (..., n) with zero ends, giving an array of the per-row seminorms.
    """
    if isinstance(f, Field):
        full = f.values_full()
    else:
        full = np.zeros(f.shape[:-1] + (f.shape[-1] + 2,))
        full[..., 1:-1] = f
    diffs = np.diff(full)
    value = np.sqrt(row_dot(diffs, diffs) / (1.0 / (full.shape[-1] - 1)))
    return float(value) if isinstance(f, Field) else value


def source_time_lipschitz(sources: SourcePair, times) -> float:
    """Largest observed ||S(t2) - S(t1)|| / (t2 - t1) over consecutive samples.

    A smoothness diagnostic for source presets and tabulated inputs; no
    solver behavior depends on it.
    """
    ts = np.asarray(list(times), dtype=float)
    if ts.size < 2:
        raise ValueError("need at least two sample times")
    worst = 0.0
    prev_f, prev_g = sources.f(ts[0]), sources.g(ts[0])
    for t_prev, t_next in zip(ts[:-1], ts[1:]):
        if t_next <= t_prev:
            raise ValueError("sample times must be increasing")
        cur_f, cur_g = sources.f(t_next), sources.g(t_next)
        jump = np.hypot((cur_f - prev_f).l2_norm(), (cur_g - prev_g).l2_norm())
        worst = max(worst, jump / (t_next - t_prev))
        prev_f, prev_g = cur_f, cur_g
    return worst
