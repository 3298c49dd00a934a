"""Recovery of the constrained profile w from the evolving pair.

The third unknown never evolves on its own: its slope is the running
integral w_x(x) = -int_0^x (p_u*u + p_v*v) and the profile itself is the
iterated integral of that slope.  Composite trapezoid quadrature is used
throughout, matching the O(h^2) order of the second-difference Laplacian
and keeping both maps exactly linear in the state.

By construction w(0) = 0 and w_x(0) = 0 exactly; the right-end value w(1)
is generally nonzero (it vanishes only for states whose double integral
happens to cancel) and is reported as a compatibility diagnostic, never
enforced.  Profiles are arrays at all n+2 nodes, so both ends are in the
profile itself.  ``_mass``, the one builder of p_u*u + p_v*v, the reaction's
included, adds u + v without the products at the unit weights.  Every function takes nodal pairs shaped (..., 2, n); a
``StatePair`` is converted to its (2, n) values once, at the top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import StatePair, row_dot

__all__ = [
    "ConstraintReport",
    "running_integral",
    "cumulative_integral",
    "reconstruct_w",
    "constraint_residual",
]


@dataclass(frozen=True)
class ConstraintReport:
    """Diagnostics of how well a profile w satisfies w_xx = -(p_u*u + p_v*v).

    Floats for one state; arrays over the leading axes for a stack.
    """

    residual_l2: float
    w_at_0: float
    wx_at_0: float
    w_at_1: float


def running_integral(full: np.ndarray, h: float) -> np.ndarray:
    """Composite-trapezoid running integral along the last axis, exactly 0 at x = 0.

    ``full`` holds the integrand at all n+2 nodes, both ends included; the
    result has the same shape and holds int_0^{x_j} at every node.  Leading
    axes are a batch; each row is summed in the same order as a single one.
    The trapezoids (f_{j-1} + f_j)*(h/2) are summed left to right into a
    new array.
    """
    out = np.zeros(full.shape)
    trapezoids = full[..., :-1] + full[..., 1:]
    trapezoids *= 0.5 * h
    np.add.accumulate(trapezoids, axis=-1, out=out[..., 1:])
    return out


# the benchmark's tracer (perfbench/tracing.py) counts calls through this
# name in constraint, nonlinearity and pdae1d, so it stays bound there
cumulative_integral = running_integral


def _mass(values: np.ndarray, p_u: float, p_v: float) -> np.ndarray:
    """p_u*u + p_v*v of nodal pairs (..., 2, n) at all n+2 nodes, zero at both ends.

    At the default weights p_u = p_v = 1 the products are skipped: 1.0 * x
    is x bit for bit, NaN, -0.0 and subnormals included.
    """
    full = np.zeros(values.shape[:-2] + (values.shape[-1] + 2,))
    u, v = values[..., 0, :], values[..., 1, :]
    if not (p_u == 1.0 and p_v == 1.0):
        u, v = p_u * u, p_v * v
    np.add(u, v, out=full[..., 1:-1])
    return full


def _slope(mass: np.ndarray, h: float) -> np.ndarray:
    """w_x = -int_0^x mass at all nodes, with w_x(0) = 0 exactly."""
    return -running_integral(mass, h)


def reconstruct_w(state: StatePair | np.ndarray, p_u: float = 1.0, p_v: float = 1.0) -> np.ndarray:
    """Constrained profile as the double running integral of -(p_u*u + p_v*v).

    Pins w(0) = 0 and w_x(0) = 0 exactly; w(1) lands wherever the state's
    mass sends it.  ``state`` holds Dirichlet nodal pairs shaped
    (..., 2, n), or is a StatePair, which is converted to its (2, n)
    values; the result is w at all n+2 nodes shaped (..., n+2), w(0) first
    and w(1) last.  Each row of a stack equals the single-state profile
    bit for bit.
    """
    values = state.values if isinstance(state, StatePair) else state
    h = 1.0 / (values.shape[-1] + 1)
    return running_integral(_slope(_mass(values, p_u, p_v), h), h)


def constraint_residual(
    state: StatePair | np.ndarray, w: np.ndarray, p_u: float = 1.0, p_v: float = 1.0
) -> ConstraintReport:
    """Discrete-L2 residual of w_xx + p_u*u + p_v*v over the interior nodes.

    The second difference at the first/last interior node uses the known
    w(0) = 0 and the computed w(1) from the profile's end value.  The
    reported w_x(0) is the slope integral's value at x = 0, which the
    running integral pins to exactly 0, so it needs no second integration.
    ``state`` holds nodal pairs shaped (..., 2, n), or is a StatePair,
    which is converted to its (2, n) values, and ``w`` the profiles at all
    nodes shaped (..., n+2); a profile of another length raises ValueError.
    The report holds floats for one state and arrays over the leading axes
    for a stack, each entry equal to the single-state report bit for bit.
    """
    values = state.values if isinstance(state, StatePair) else state
    n = values.shape[-1]
    if w.shape[-1] != n + 2:
        raise ValueError(f"profile has {w.shape[-1]} nodes, expected {n + 2}")
    h = 1.0 / (n + 1)
    second_diff = (w[..., :-2] - 2.0 * w[..., 1:-1] + w[..., 2:]) / h**2
    residual = second_diff + p_u * values[..., 0, :] + p_v * values[..., 1, :]
    residual_l2 = np.sqrt(h * row_dot(residual, residual))
    # "+ 0.0" copies the ends, so a report does not hold views of the
    # profile, and reports a zero end as 0.0, never -0.0; "[()]" makes the
    # zero slope a scalar for one state, as the other fields are
    w_at_0, w_at_1 = w[..., 0] + 0.0, w[..., -1] + 0.0
    return ConstraintReport(residual_l2, w_at_0, np.zeros(residual_l2.shape)[()], w_at_1)
