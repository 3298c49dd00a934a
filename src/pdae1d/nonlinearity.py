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
shaped (..., 2, n).  A source component maps a 1-D array of K times to a
read-only float array of shape (K, n), one row per time, so a caller that
knows its times in advance evaluates them all in one call:
``_source_values`` stacks the two components to (K, 2, n), and
``eval_reaction`` adds one such (2, n) row, or a stack of them, to R(U),
in a new array.
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


# the coefficients of every call that gives none, built once
_DEFAULT_COEFFICIENTS = CoefficientSet()


# perfbench/tracing.py rebuilds a pair as SourcePair(f=, g=, kind=) around
# wrapped callables, which the integrators reach through sources.f/sources.g
@dataclass(frozen=True)
class SourcePair:
    """Time-parameterized sources (f, g) on a fixed grid of n interior nodes.

    Each callable maps a 1-D float array of K >= 1 times to a read-only
    float array of shape (K, n) whose row i is the value at ``times[i]``,
    and must be re-entrant: no internal mutable state, safe to evaluate
    concurrently.  A row must not depend on the other times of the call.
    ``solve`` checks both at the one time ``np.zeros(1)``.
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    kind: str = "custom"


def _source_values(sources: SourcePair, times: np.ndarray, n: int) -> np.ndarray:
    """The pair at each of ``times`` (a 1-D float array), shaped (K, 2, n).

    One call of f and one of g; either raises ValueError unless it gives a
    float array of shape (K, n).
    """
    shape = (len(times), n)
    out = np.empty((len(times), 2, n))
    for i, name in enumerate(("f", "g")):
        value = getattr(sources, name)(times)
        if not (isinstance(value, np.ndarray) and value.dtype == float and value.shape == shape):
            got = getattr(value, "shape", type(value).__name__)
            raise ValueError(
                f"sources.{name} at {len(times)} time(s) must be a float array of shape {shape}, got {got}"
            )
        out[:, i] = value
    return out


def zero_sources(grid: Grid1D) -> SourcePair:
    zero = np.zeros(grid.n_interior)

    def at(times):
        return np.broadcast_to(zero, (len(times), zero.size))  # a read-only view

    return SourcePair(f=at, g=at, kind="zero")


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
    times = None
    if keyed:
        # the sorted distinct t, as np.unique gives them; np.unique would
        # import numpy.ma (about 15 ms and 1.6 MB in a fresh process, numpy 2.4)
        times = np.sort(data[:, 0])
        times = times[np.concatenate(([True], times[1:] != times[:-1]))]
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
    range; a NaN time gives a NaN row.  Values at x = 0 and x = 1, if
    tabulated, are dropped without a check: a source at a Dirichlet node
    never enters the interior solve.
    """
    times, slabs = read_node_table(path, grid, ("t", "x", "f", "g"))

    def interpolate(component, ts):
        out = np.full((len(ts), slabs.shape[-1]), np.nan)
        before, after = ts <= times[0], ts >= times[-1]
        out[after] = slabs[-1, component]
        out[before] = slabs[0, component]  # written last: a one-slab table gives slab 0
        inside = (ts > times[0]) & (ts < times[-1])  # a NaN time is in none of the three
        s = ts[inside]
        i = np.searchsorted(times, s, side="right") - 1
        theta = ((s - times[i]) / (times[i + 1] - times[i]))[:, None]
        out[inside] = (1.0 - theta) * slabs[i, component] + theta * slabs[i + 1, component]
        return _freeze(out)

    return SourcePair(
        f=lambda ts: interpolate(0, ts),
        g=lambda ts: interpolate(1, ts),
        kind="custom-tabulated",
    )


def _reaction_terms(values: np.ndarray, c: CoefficientSet) -> np.ndarray:
    """Source-free reaction (-u*I, +v*I) of nodal pairs shaped (..., 2, n), in place.

    I is the trapezoid running integral of p_u*u + p_v*v over the pair with
    its Dirichlet zero ends, evaluated at the interior nodes: the mass from
    ``constraint._mass`` and the integral from ``running_integral``, the
    helpers ``reconstruct_w`` uses.  Leading axes are a batch.  ``values``,
    a writable float array the caller owns, is overwritten with the result
    and returned.  Each row of a stack has the bits of a single call where
    no two NaNs meet; where they do, the sign of the NaN may differ.
    """
    h = 1.0 / (values.shape[-1] + 1)
    integral = running_integral(_mass(values, c.p_u, c.p_v), h)
    # negate u before the product: negating u*I would flip the sign of a NaN in I
    u = values[..., 0, :]
    np.negative(u, out=u)
    values *= integral[..., None, 1:-1]
    return values


def eval_reaction(
    values: np.ndarray,
    sources: np.ndarray | None = None,
    coefficients: CoefficientSet | None = None,
) -> np.ndarray:
    """Non-diffusive right-hand side R(U) + S = (-u*I + f, +v*I + g), in a new array.

    I is the trapezoid running integral of p_u*u + p_v*v evaluated at the
    interior nodes.  ``values`` are Dirichlet nodal pairs shaped (..., 2, n),
    or a sequence of such arrays, which ``np.array`` stacks; they are never
    written.  ``sources`` are the source values (f, g) shaped (..., 2, n),
    broadcast against them, or None for none.
    """
    c = coefficients if coefficients is not None else _DEFAULT_COEFFICIENTS
    out = _reaction_terms(np.array(values, dtype=float), c)
    if sources is not None:
        out += sources
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
    ra, rb = eval_reaction((a, b))
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
    if np.any(ts[1:] <= ts[:-1]):
        raise ValueError("sample times must be increasing")
    df, dg = np.diff(sources.f(ts), axis=0), np.diff(sources.g(ts), axis=0)
    h = 1.0 / (df.shape[-1] + 1)
    # a jump beyond float range is reported as inf, without a warning
    with np.errstate(over="ignore"):
        jumps = np.hypot(np.sqrt(h * row_dot(df, df)), np.sqrt(h * row_dot(dg, dg)))
    # fmax, as a running max(worst, rate) from 0, passes over a NaN rate
    return float(np.fmax.reduce(jumps / np.diff(ts), initial=0.0))
