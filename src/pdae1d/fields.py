"""Grids, nodal fields, and the two-component state built from them.

Everything here is immutable after construction: arrays are copied in and
frozen, and all operations elsewhere in the package are pure functions, so
values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = ["Grid1D", "Field", "StatePair", "pair_norm", "row_dot", "sine_mode"]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior nodes of [0, 1] with Dirichlet end points.

    The spacing is h = 1/(n_interior + 1) and the interior nodes are
    x_j = j*h for j = 1..n_interior; x = 0 and x = 1 carry boundary data
    only, never unknowns.
    """

    n_interior: int

    def __post_init__(self):
        n = int(self.n_interior)
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
    """Real values of one scalar quantity at the interior nodes.

    Dirichlet unknowns keep the default (0, 0) boundary pair.  Quadrature
    inputs and reconstructed profiles may carry explicit end values in
    ``boundary``; operators that assume a Dirichlet field ignore it.
    """

    grid: Grid1D
    values: np.ndarray
    boundary: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n_interior,):
            raise ValueError(
                f"expected {self.grid.n_interior} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        # "+ 0.0" normalizes -0.0 so serialized artifacts stay canonical
        bl = float(self.boundary[0]) + 0.0
        br = float(self.boundary[1]) + 0.0
        if not (np.isfinite(bl) and np.isfinite(br)):
            raise ValueError("boundary values must be finite")
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "boundary", (bl, br))

    @classmethod
    def zeros(cls, grid: Grid1D) -> "Field":
        return cls(grid, np.zeros(grid.n_interior))

    @classmethod
    def sample(cls, grid: Grid1D, fn: Callable) -> "Field":
        """Evaluate a vectorized callable at the interior nodes."""
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    def values_full(self) -> np.ndarray:
        """Values at all nodes, boundary pair included."""
        return np.concatenate(([self.boundary[0]], self.values, [self.boundary[1]]))

    def l2_norm(self) -> float:
        """Discrete L2 norm, sqrt(h * sum of squares) over interior nodes."""
        return float(np.sqrt(self.grid.h * np.dot(self.values, self.values)))

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(
            self.grid,
            self.values + other.values,
            (self.boundary[0] + other.boundary[0], self.boundary[1] + other.boundary[1]),
        )

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(
            self.grid,
            self.values - other.values,
            (self.boundary[0] - other.boundary[0], self.boundary[1] - other.boundary[1]),
        )

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values, (-self.boundary[0], -self.boundary[1]))

    def __mul__(self, scalar: float) -> "Field":
        c = float(scalar)
        return Field(self.grid, c * self.values, (c * self.boundary[0], c * self.boundary[1]))

    __rmul__ = __mul__


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

    @classmethod
    def zeros(cls, grid: Grid1D) -> "StatePair":
        return cls(Field.zeros(grid), Field.zeros(grid))

    def norm(self) -> float:
        """Product-space norm sqrt(||u||^2 + ||v||^2) in the discrete L2 sense."""
        return pair_norm((self.u.values, self.v.values), self.grid.h)

    def __add__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.u - other.u, self.v - other.v)

    def __mul__(self, scalar: float) -> "StatePair":
        return StatePair(self.u * scalar, self.v * scalar)

    __rmul__ = __mul__


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching rows along the last axis, leading axes a batch.

    Each entry equals ``np.dot`` of its two rows bit for bit (plain
    ``np.sum`` or ``np.einsum`` of the product does not).
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def pair_norm(values, h: float):
    """:meth:`StatePair.norm` of nodal values ``(u, v)`` on a grid of spacing h.

    ``values`` may also be an array shaped (..., 2, n) with a batch in front;
    the result is then an array of the norms, each equal to the single one.
    """
    if isinstance(values, np.ndarray) and values.ndim > 2:
        u, v = values[..., 0, :], values[..., 1, :]
        return np.sqrt(h * (row_dot(u, u) + row_dot(v, v)))
    u, v = values
    return float(np.sqrt(h * (np.dot(u, u) + np.dot(v, v))))


def sine_mode(grid: Grid1D, k: int, amplitude: float = 1.0) -> Field:
    """The k-th Dirichlet sine mode amplitude*sin(k*pi*x) sampled at the nodes."""
    if not 1 <= k <= grid.n_interior:
        raise ValueError(f"mode index must be in 1..{grid.n_interior}")
    return Field(grid, amplitude * np.sin(k * np.pi * grid.nodes))
