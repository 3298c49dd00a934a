"""An independent recovery of the constrained profile w, for tests.

The package integrates w twice with the trapezoid rule; this marches the
second-difference form of w_xx = -(p_u*u + p_v*v) instead, so the two agree
only to O(h^2) and a defect in either shows as an O(1) gap.
"""

import numpy as np


def recurrence_w(values, p_u=1.0, p_v=1.0):
    """w at all n+2 nodes of nodal pairs (..., 2, n) from the recurrence.

    w_{j+1} = 2 w_j - w_{j-1} - h^2 (p_u u_j + p_v v_j), started from
    w(0) = 0 and w_x(0) = 0: the ghost node w_{-1} = w_1 makes the central
    slope at x = 0 vanish, and the Dirichlet mass at x = 0 is 0, so w_1 = 0.
    """
    n = values.shape[-1]
    h = 1.0 / (n + 1)
    mass = p_u * values[..., 0, :] + p_v * values[..., 1, :]
    w = np.zeros(values.shape[:-2] + (n + 2,))
    for j in range(1, n + 1):
        w[..., j + 1] = 2.0 * w[..., j] - w[..., j - 1] - h**2 * mass[..., j - 1]
    return w


def recurrence_gap(values, w, p_u=1.0, p_v=1.0) -> float:
    """Largest |w - recurrence_w| over all nodes and snapshots, relative to h^2."""
    h = 1.0 / (values.shape[-1] + 1)
    return float(np.max(np.abs(w - recurrence_w(values, p_u, p_v)))) / h**2
