"""Grids, nodal fields, and the two-component state built from them.

Inside the package a state is a plain (2, n) array of nodal values.  A
``Field`` is a validated (grid, values) record of one component and a
``StatePair`` two of them; they are the edge form that callers hand to
``solve``, and ``StatePair.values`` is the one conversion to the array.
Everything here is immutable after construction: arrays are copied in and
frozen, and all operations elsewhere in the package are pure functions, so
values can be shared freely between threads.
"""

from __future__ import annotations

import math
import numbers
import sys
import typing
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = ["Grid1D", "Field", "StatePair", "pair_norm", "row_dot", "sine_mode"]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _whole(value, name: str) -> int:
    """``value`` as an int: an integer, numpy's included; ValueError naming anything else.

    A float, even a whole one, a string or a bool is refused, never truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@cache
def _field_types(cls) -> dict:
    """Each field of dataclass ``cls`` as (its annotated type, whether None fits), in order."""
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)  # (T, NoneType) for a "T | None" field
        types[name] = (args[0], True) if args else (hint, False)
    return types


def _check_fields(config) -> None:
    """Hold each field of a frozen config dataclass to its annotation; ValueError naming it.

    A bool fits no field, None only a ``T | None`` one, and an int a float one.
    """
    for name, (kind, nullable) in _field_types(type(config)).items():
        value = getattr(config, name)
        # the common case first: exactly the annotated type, and finite if a float
        if type(value) is kind and (kind is not float or math.isfinite(value)):
            continue
        if value is None and nullable:
            continue
        where = f"config key {name!r}: {name}"
        if isinstance(value, np.floating) and float(value) == value:
            value = float(value)  # a numpy float that a double holds, long double included
        elif isinstance(value, np.generic):
            value = value.item()  # any other numpy scalar as its Python value
        if kind is int:
            value = _whole(value, where)
        elif type(value) is bool or not isinstance(value, (float, int) if kind is float else kind):
            raise ValueError(f"{where} must be {kind.__name__}, got {value!r}")
        elif kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf or a huge int
            raise ValueError(f"{where} must be a finite number, got {value!r}")
        object.__setattr__(config, name, value)


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior nodes of [0, 1] with Dirichlet end points.

    The spacing is h = 1/(n_interior + 1) and the interior nodes are
    x_j = j*h for j = 1..n_interior; x = 0 and x = 1 carry the Dirichlet
    end values only, never unknowns.
    """

    n_interior: int

    def __post_init__(self):
        n = _whole(self.n_interior, "n_interior")
        if n < 1:
            raise ValueError("n_interior must be a positive integer")
        object.__setattr__(self, "n_interior", n)

    @property
    def h(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Interior nodes x_1 .. x_n, strictly inside (0, 1)."""
        return _freeze(self.h * np.arange(1, self.n_interior + 1))

    @cached_property
    def nodes_full(self) -> np.ndarray:
        """All nodes including x = 0 and x = 1."""
        return _freeze(self.h * np.arange(self.n_interior + 2))


@dataclass(frozen=True, eq=False)
class Field:
    """Real values of one scalar quantity at the interior nodes of ``grid``."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n_interior,):
            raise ValueError(
                f"expected {self.grid.n_interior} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def zeros(cls, grid: Grid1D) -> "Field":
        return cls(grid, np.zeros(grid.n_interior))


@dataclass(frozen=True, eq=False)
class StatePair:
    """The evolving pair (u, v) of Dirichlet unknowns on a shared grid."""

    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("state components live on different grids")

    @property
    def grid(self) -> Grid1D:
        return self.u.grid

    @property
    def values(self) -> np.ndarray:
        """The nodal values as the package's (2, n) array."""
        return np.stack((self.u.values, self.v.values))

    # kept for callers outside the package: the benchmark's artifact checks call it
    def norm(self) -> float:
        """Product-space norm sqrt(||u||^2 + ||v||^2) in the discrete L2 sense."""
        return pair_norm(self.values, self.grid.h)

    # the benchmark's artifact checks subtract states (perfbench/workloads.py)
    def __sub__(self, other: "StatePair") -> "StatePair":
        # array subtraction would broadcast a pair on another grid (n = 1) silently
        if self.grid != other.grid:
            raise ValueError("states live on different grids")
        u, v = self.values - other.values
        return StatePair(Field(self.grid, u), Field(self.grid, v))


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching rows along the last axis, leading axes a batch.

    Each entry equals ``np.dot`` of its two rows bit for bit (plain
    ``np.sum`` or ``np.einsum`` of the product does not).
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _pair_norm(values, h: float) -> float:
    """:func:`pair_norm` of one pair ``(u, v)``, bit for bit, without its ``np.errstate``.

    For callers that already ignore overflow and invalid results, as
    ``solve`` does around its march: entering the guard costs more than the
    norm of a small pair.
    """
    u, v = values
    return math.sqrt(h * (np.dot(u, u) + np.dot(v, v)))


@np.errstate(over="ignore", invalid="ignore")
def pair_norm(values, h: float):
    """:meth:`StatePair.norm` of nodal values ``(u, v)`` on a grid of spacing h.

    ``values`` may also be an array shaped (..., 2, n) with a batch in front;
    the result is then an array of the norms, each equal to the single one.
    A norm that overflows is inf, without a numpy warning: callers classify it.
    """
    if isinstance(values, np.ndarray) and values.ndim > 2:
        u, v = values[..., 0, :], values[..., 1, :]
        return np.sqrt(h * (row_dot(u, u) + row_dot(v, v)))
    return _pair_norm(values, h)


def sine_mode(grid: Grid1D, k: int, amplitude: float = 1.0) -> Field:
    """The k-th Dirichlet sine mode amplitude*sin(k*pi*x) sampled at the nodes."""
    if not 1 <= k <= grid.n_interior:
        raise ValueError(f"mode index must be in 1..{grid.n_interior}")
    return Field(grid, amplitude * np.sin(k * np.pi * grid.nodes))
