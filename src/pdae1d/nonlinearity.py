"""The reaction operator, source terms, and the local Lipschitz diagnostic.

The non-diffusive part of the dynamics couples the two components through
the running integral I(x) = int_0^x (p_u*u + p_v*v): the first component
loses -u*I and the second gains +v*I, plus time-dependent sources.  The
quadratic term makes the operator only locally Lipschitz: at the default
impact coefficients p_u = p_v = 1 its constant is 4*sqrt(3)*C on the ball of
radius C in the product norm.  ``lipschitz_ratio`` measures the realized
quotient at those coefficients, without sources (they cancel in the
difference), so that bound can be checked empirically.

States are Dirichlet nodal pairs (u, v) shaped (2, n), or stacks of them
shaped (..., 2, n); sources return each component as a read-only float
array of shape (n,).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# cumulative_integral, the same function as running_integral, stays bound
# here because perfbench/tracing.py wraps every module binding of it
from .constraint import cumulative_integral  # noqa: F401
from .constraint import _mass, running_integral
from .fields import Grid1D, _check_fields, _freeze, pair_norm, row_dot

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
        _check_fields(self)
        if self.d_u <= 0 or self.d_v <= 0:
            raise ValueError("diffusion coefficients must be positive")


# perfbench/tracing.py rebuilds a pair as SourcePair(f=, g=, kind=) around
# wrapped callables, which the integrators reach through sources.f/sources.g
@dataclass(frozen=True)
class SourcePair:
    """Time-parameterized sources (f, g) on a fixed grid of n interior nodes.

    Each callable maps t >= 0 to a read-only float array of shape (n,) and
    must be re-entrant: no internal mutable state, safe to evaluate
    concurrently.  ``solve`` checks the shape of both at t = 0.
    """

    f: Callable[[float], np.ndarray]
    g: Callable[[float], np.ndarray]
    kind: str = "custom"


def zero_sources(grid: Grid1D) -> SourcePair:
    zero = _freeze(np.zeros(grid.n_interior))
    return SourcePair(f=lambda t: zero, g=lambda t: zero, kind="zero")


def read_node_table(path: str, grid: Grid1D, columns: tuple[str, ...]):
    """Read a table of nodal values on ``grid``; returns ``(times, values)``.

    ``columns`` names the table's columns: ``("x", ...)`` for one profile,
    ``("t", "x", ...)`` for time slabs.  '#' starts a comment; entries are
    separated by commas or whitespace and must be finite.  Each slab lists
    either the n interior nodes or all n + 2 nodes, in any order, with x
    within 1e-12 of the grid.  A profile that lists all nodes must hold
    values within 1e-12 * max(1, largest interior |value|) of 0 at x = 0 and
    x = 1, the Dirichlet ends; the end rows of a time slab are dropped
    unchecked.  ``times`` holds the sorted distinct t (None for a profile);
    ``values`` is shaped (slabs, columns after x, n) and holds the interior
    nodes in grid order.
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
        if full and not keyed:
            # the slack scales with the interior: A*sin(pi*x) rounds to A*1.2e-16 at x = 1
            slack = 1e-12 * max(1.0, float(np.max(np.abs(block[1:-1, 1:]))))
            if np.any(np.abs(block[[0, -1], 1:]) > slack):
                raise ValueError(f"{path}: values at x = 0 and x = 1 must be 0 (Dirichlet ends)")
        slabs.append((block[1:-1] if full else block)[:, 1:].T)
    return times, np.asarray(slabs)


def tabulated_sources(grid: Grid1D, path: str) -> SourcePair:
    """Sources from a table with columns (t, x, f, g), read by :func:`read_node_table`.

    Evaluation interpolates linearly in t and clamps outside the tabulated
    range.  Values at x = 0 and x = 1, if tabulated, are dropped without a
    check: a source at a Dirichlet node never enters the interior solve.
    """
    times, slabs = read_node_table(path, grid, ("t", "x", "f", "g"))
    _freeze(slabs)

    def interpolate(component, t):
        if t <= times[0]:
            return slabs[0, component]
        if t >= times[-1]:
            return slabs[-1, component]
        i = int(np.searchsorted(times, t, side="right")) - 1
        theta = (t - times[i]) / (times[i + 1] - times[i])
        return _freeze((1.0 - theta) * slabs[i, component] + theta * slabs[i + 1, component])

    return SourcePair(
        f=lambda t: interpolate(0, t),
        g=lambda t: interpolate(1, t),
        kind="custom-tabulated",
    )


def _reaction_terms(values: np.ndarray, c: CoefficientSet) -> np.ndarray:
    """Source-free reaction (-u*I, +v*I) of nodal pairs shaped (..., 2, n).

    I is the trapezoid running integral of p_u*u + p_v*v over the pair with
    its Dirichlet zero ends, evaluated at the interior nodes: the mass from
    ``constraint._mass`` and the integral from ``running_integral``, the
    helpers ``reconstruct_w`` uses.  Leading axes are a batch.
    """
    integral = running_integral(_mass(values, c.p_u, c.p_v), 1.0 / (values.shape[-1] + 1))
    out = np.array(values, dtype=float)
    # negate u before the product: negating u*I would flip the sign of a NaN in I
    u = out[..., 0, :]
    np.negative(u, out=u)
    out *= integral[..., None, 1:-1]
    return out


def eval_reaction(
    values: np.ndarray,
    t: float = 0.0,
    sources: SourcePair | None = None,
    coefficients: CoefficientSet | None = None,
) -> np.ndarray:
    """Non-diffusive right-hand side (-u*I + f(t), +v*I + g(t)).

    I is the trapezoid running integral of p_u*u + p_v*v evaluated at the
    interior nodes.  ``values`` are Dirichlet nodal pairs shaped (..., 2, n);
    the result has the same shape.
    """
    c = coefficients if coefficients is not None else CoefficientSet()
    out = _reaction_terms(values, c)
    if sources is not None:
        u, v = out[..., 0, :], out[..., 1, :]
        u += sources.f(t)
        v += sources.g(t)
    return out


def lipschitz_ratio(a: np.ndarray, b: np.ndarray):
    """Realized quotient ||R(a) - R(b)|| / ||a - b|| of the reaction operator.

    R has the default coefficients (p_u = p_v = 1), for which the bound
    4*sqrt(3)*C holds, and no sources: they cancel in the difference.
    ``a`` and ``b`` are Dirichlet nodal pairs shaped (2, n), giving a float,
    or stacks shaped (..., 2, n), giving an array of the per-pair quotients.
    """
    h = 1.0 / (a.shape[-1] + 1)
    denom = pair_norm(a - b, h)
    if np.any(denom == 0.0):
        raise ValueError("states coincide; the quotient is undefined")
    # one call on the stacked pair: each row reacts as if evaluated alone
    ra, rb = eval_reaction(np.stack((a, b)))
    return pair_norm(ra - rb, h) / denom


def h1_seminorm(f: np.ndarray):
    """Discrete first-derivative seminorm sqrt(h * sum((df/h)^2)).

    Forward differences over every cell including the two end gaps of
    Dirichlet nodal values shaped (..., n) with zero ends; the result holds
    the per-row seminorms over the leading axes.
    """
    full = np.zeros(f.shape[:-1] + (f.shape[-1] + 2,))
    full[..., 1:-1] = f
    diffs = np.diff(full)
    return np.sqrt(row_dot(diffs, diffs) / (1.0 / (full.shape[-1] - 1)))


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
    h = 1.0 / (prev_f.shape[-1] + 1)
    for t_prev, t_next in zip(ts[:-1], ts[1:]):
        if t_next <= t_prev:
            raise ValueError("sample times must be increasing")
        cur_f, cur_g = sources.f(t_next), sources.g(t_next)
        df, dg = cur_f - prev_f, cur_g - prev_g
        # a jump beyond float range is reported as inf, without a warning
        with np.errstate(over="ignore"):
            jump = np.hypot(np.sqrt(h * np.dot(df, df)), np.sqrt(h * np.dot(dg, dg)))
        worst = max(worst, jump / (t_next - t_prev))
        prev_f, prev_g = cur_f, cur_g
    return worst
