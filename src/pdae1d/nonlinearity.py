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
from typing import Callable

import numpy as np

# cumulative_integral stays bound here because perfbench/tracing.py wraps
# every module binding of it
from .constraint import cumulative_integral  # noqa: F401
from .constraint import running_integral
from .fields import Field, Grid1D, StatePair

__all__ = [
    "CoefficientSet",
    "SourcePair",
    "zero_sources",
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


def _parse_table(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 4:
                raise ValueError(f"{path}: expected 4 columns (t, x, f, g), got {len(parts)}")
            rows.append([float(p) for p in parts])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def tabulated_sources(grid: Grid1D, path: str) -> SourcePair:
    """Sources from a table with columns (t, x, f, g).

    The x values of every time slab must align exactly with the grid nodes,
    either all nodes including the ends or the interior nodes alone.
    Evaluation interpolates linearly in t and clamps outside the tabulated
    range.
    """
    data = _parse_table(path)
    times = np.unique(data[:, 0])
    n = grid.n_interior
    f_slabs, g_slabs = [], []
    for t in times:
        block = data[data[:, 0] == t]
        order = np.argsort(block[:, 1])
        block = block[order]
        xs = block[:, 1]
        if xs.shape[0] == n + 2:
            target = grid.nodes_full
            sl = slice(1, n + 1)
        elif xs.shape[0] == n:
            target = grid.nodes
            sl = slice(0, n)
        else:
            raise ValueError(
                f"{path}: slab t={t} has {xs.shape[0]} rows; expected {n} interior "
                f"or {n + 2} full nodes"
            )
        if not np.allclose(xs, target, rtol=0.0, atol=1e-12):
            raise ValueError(f"{path}: x values of slab t={t} do not align with the grid")
        fv = block[:, 2][sl] if xs.shape[0] == n + 2 else block[:, 2]
        gv = block[:, 3][sl] if xs.shape[0] == n + 2 else block[:, 3]
        fb = (block[0, 2], block[-1, 2]) if xs.shape[0] == n + 2 else (0.0, 0.0)
        gb = (block[0, 3], block[-1, 3]) if xs.shape[0] == n + 2 else (0.0, 0.0)
        f_slabs.append((fv, fb))
        g_slabs.append((gv, gb))

    def interpolate(slabs, t):
        if t <= times[0]:
            vals, bnd = slabs[0]
            return Field(grid, vals, bnd)
        if t >= times[-1]:
            vals, bnd = slabs[-1]
            return Field(grid, vals, bnd)
        i = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[i], times[i + 1]
        theta = (t - t0) / (t1 - t0)
        v0, b0 = slabs[i]
        v1, b1 = slabs[i + 1]
        vals = (1.0 - theta) * v0 + theta * v1
        bnd = (
            (1.0 - theta) * b0[0] + theta * b1[0],
            (1.0 - theta) * b0[1] + theta * b1[1],
        )
        return Field(grid, vals, bnd)

    return SourcePair(
        f=lambda t: interpolate(f_slabs, t),
        g=lambda t: interpolate(g_slabs, t),
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
    a: StatePair,
    b: StatePair,
    sources: SourcePair | None = None,
    t: float = 0.0,
    coefficients: CoefficientSet | None = None,
) -> float:
    """Realized quotient ||R(a) - R(b)|| / ||a - b|| of the reaction operator.

    Sources cancel in the difference, so the result does not depend on them.
    """
    denom = (a - b).norm()
    if denom == 0.0:
        raise ValueError("states coincide; the quotient is undefined")
    ra = eval_reaction(a, t, sources, coefficients)
    rb = eval_reaction(b, t, sources, coefficients)
    return (ra - rb).norm() / denom


def h1_seminorm(f: Field) -> float:
    """Discrete first-derivative seminorm sqrt(h * sum((df/h)^2)).

    Forward differences over every cell including the two boundary gaps,
    using the field's explicit boundary pair (zero for Dirichlet unknowns).
    """
    diffs = np.diff(f.values_full())
    return float(np.sqrt(np.dot(diffs, diffs) / f.grid.h))


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
