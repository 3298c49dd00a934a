"""Recovery of the constrained profile w from the evolving pair.

The third unknown never evolves on its own: its slope is the running
integral w_x(x) = -int_0^x (p_u*u + p_v*v) and the profile itself is the
iterated integral of that slope.  Composite trapezoid quadrature is used
throughout, matching the O(h^2) order of the second-difference Laplacian
and keeping both maps exactly linear in the state.

By construction w(0) = 0 and w_x(0) = 0 exactly; the right-end value w(1)
is generally nonzero (it vanishes only for states whose double integral
happens to cancel) and is reported as a compatibility diagnostic, never
enforced.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .fields import Field, StatePair

__all__ = [
    "ConstraintReport",
    "running_integral",
    "cumulative_integral",
    "compute_wx",
    "reconstruct_w",
    "constraint_residual",
]


@dataclass(frozen=True)
class ConstraintReport:
    """Diagnostics of how well a profile w satisfies w_xx = -(p_u*u + p_v*v)."""

    residual_l2: float
    w_at_0: float
    wx_at_0: float
    w_at_1: float

    def as_dict(self) -> dict:
        return asdict(self)


def running_integral(full: np.ndarray, h: float) -> np.ndarray:
    """Composite-trapezoid running integral along the last axis, exactly 0 at x = 0.

    ``full`` holds the integrand at all n+2 nodes, both ends included; the
    result has the same shape and holds int_0^{x_j} at every node.  Leading
    axes are a batch; each row is summed in the same order as a single one.
    """
    out = np.zeros(full.shape)
    np.cumsum(0.5 * h * (full[..., :-1] + full[..., 1:]), axis=-1, out=out[..., 1:])
    return out


def cumulative_integral(f: Field) -> Field:
    """Composite-trapezoid running integral int_0^{x_j} f, zero at x = 0.

    The integrand's explicit boundary pair participates in the first and
    last trapezoid cells; the result carries (0, full-interval integral)
    as its own boundary pair.  Exact for piecewise-linear integrands.
    """
    acc = running_integral(f.values_full(), f.grid.h)
    return Field(f.grid, acc[1:-1], boundary=(0.0, float(acc[-1])))


def compute_wx(state: StatePair, p_u: float = 1.0, p_v: float = 1.0) -> Field:
    """Slope of the constrained profile: -int_0^x (p_u*u + p_v*v).

    Zero at x = 0 exactly; linear in the state.  Explicit boundary pairs on
    the components (zero for genuine Dirichlet states) feed the end cells of
    the quadrature, keeping it exact through linear integrands.
    """
    integral = cumulative_integral(p_u * state.u + p_v * state.v)
    return Field(state.grid, -integral.values, boundary=(0.0, -integral.boundary[1]))


def reconstruct_w(state: StatePair, p_u: float = 1.0, p_v: float = 1.0) -> Field:
    """Constrained profile as the double running integral of -(p_u*u + p_v*v).

    Pins w(0) = 0 and w_x(0) = 0 exactly; w(1) lands wherever the state's
    mass sends it and is carried in the boundary pair.
    """
    return cumulative_integral(compute_wx(state, p_u, p_v))


def constraint_residual(
    state: StatePair, w: Field, p_u: float = 1.0, p_v: float = 1.0
) -> ConstraintReport:
    """Discrete-L2 residual of w_xx + p_u*u + p_v*v over the interior nodes.

    The second difference at the first/last interior node uses the known
    w(0) = 0 and the computed w(1) from the profile's boundary pair.  The
    reported w_x(0) comes from the integral construction itself, so it is
    exactly zero whenever w was reconstructed from the state.
    """
    if w.grid != state.grid:
        raise ValueError("profile and state live on different grids")
    h2 = state.grid.h**2
    wf = w.values_full()
    second_diff = (wf[:-2] - 2.0 * wf[1:-1] + wf[2:]) / h2
    residual = second_diff + p_u * state.u.values + p_v * state.v.values
    residual_l2 = float(np.sqrt(state.grid.h * np.dot(residual, residual)))
    wx_at_0 = compute_wx(state, p_u, p_v).boundary[0]
    return ConstraintReport(
        residual_l2=residual_l2,
        w_at_0=w.boundary[0],
        wx_at_0=wx_at_0,
        w_at_1=w.boundary[1],
    )
