"""Sine-basis diagonalization of the discrete Dirichlet Laplacian on [0, 1].

The interior second-difference matrix has the exact eigenpairs
sin(k*pi*x_j) with eigenvalue lambda_k = -(4/h^2) sin^2(k*pi*h/2), so the
heat semigroup, the exponential-integrator weight phi1, and the shifted
resolvent can all be evaluated exactly on the grid through one sine
transform per direction.  Using the discrete eigenvalues (rather than
-(k*pi)^2) keeps the dissipativity, contraction, and integrator checks
mutually consistent at machine precision; the continuum enters only as an
O(h^2) discretization error.

Every operator takes and returns plain arrays: one component shaped
(..., n), or nodal pairs (u, v) shaped (..., 2, n), with any leading axes a
batch whose rows come out bit for bit as if transformed alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dst as _dst
from scipy.linalg import solve_banded

from .fields import Grid1D

__all__ = [
    "laplacian_eigenvalues",
    "to_coeffs",
    "to_values",
    "discrete_laplacian",
    "semigroup_apply",
    "phi1",
    "phi1_apply",
    "solve_shifted",
]


@lru_cache(maxsize=None)
def _eigenvalues(n_interior: int) -> np.ndarray:
    h = 1.0 / (n_interior + 1)
    k = np.arange(1, n_interior + 1)
    lam = -(4.0 / h**2) * np.sin(0.5 * np.pi * k * h) ** 2
    lam.flags.writeable = False
    return lam


def laplacian_eigenvalues(grid: Grid1D) -> np.ndarray:
    """Eigenvalues lambda_k = -(4/h^2) sin^2(k*pi*h/2), k = 1..n_interior.

    All strictly negative and decreasing in k.
    """
    return _eigenvalues(grid.n_interior)


def to_coeffs(values: np.ndarray) -> np.ndarray:
    """Sine coefficients c_k = (2/(n+1)) sum_j f_j sin(k*pi*x_j) along the last axis.

    Leading axes are a batch: one call transforms a whole stack of nodal
    arrays.  Inverse of :func:`to_values`.
    """
    return _dst(values, type=1) / (values.shape[-1] + 1)


def to_values(coeffs: np.ndarray) -> np.ndarray:
    """Nodal values f_j = sum_k c_k sin(k*pi*x_j) along the last axis.

    Batched like :func:`to_coeffs`, of which it is the inverse.
    """
    return 0.5 * _dst(coeffs, type=1)


def discrete_laplacian(f: np.ndarray) -> np.ndarray:
    """Second difference (f_{j-1} - 2 f_j + f_{j+1}) / h^2 with implicit zero ends.

    ``f`` holds Dirichlet nodal values shaped (..., n), f_0 = f_{n+1} = 0;
    the result has the same shape.
    """
    out = -2.0 * f
    out[..., :-1] += f[..., 1:]
    out[..., 1:] += f[..., :-1]
    return out / (1.0 / (f.shape[-1] + 1)) ** 2


def _weigh_modes(values: np.ndarray, weight, t, d_u: float, d_v: float) -> np.ndarray:
    """Scale each component's sine coefficients by weight(d * t * lambda_k).

    ``values`` are nodal pairs shaped (..., 2, n), with t a scalar or an
    array over the leading axes.
    """
    t = np.asarray(t, dtype=float)
    lam = _eigenvalues(values.shape[-1])
    factors = weight(np.stack((d_u * t, d_v * t), axis=-1)[..., None] * lam)
    return to_values(factors * to_coeffs(values))


def semigroup_apply(values: np.ndarray, t, d_u: float = 1.0, d_v: float = 1.0) -> np.ndarray:
    """Evolve both components by the diffusion semigroup for a duration t >= 0.

    Componentwise in the sine basis each coefficient is scaled by
    exp(d * lambda_k * t); the map is a contraction of the product norm.
    ``values`` are nodal pairs shaped (..., 2, n), with t a scalar or an
    array over the leading axes.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("the heat semigroup is defined for t >= 0 only")
    return _weigh_modes(values, np.exp, t, d_u, d_v)


def phi1(z):
    """First exponential-integrator weight (exp(z) - 1)/z.

    Below |z| = 1e-6 the three-term series 1 + z/2 + z^2/6 is used to avoid
    cancellation.  Accepts scalars or arrays.
    """
    arr = np.asarray(z, dtype=float)
    small = np.abs(arr) < 1e-6
    out = np.empty_like(arr)
    zs = arr[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    zb = arr[~small]
    out[~small] = np.expm1(zb) / zb
    return float(out) if np.ndim(z) == 0 else out


def phi1_apply(values: np.ndarray, t: float, d_u: float = 1.0, d_v: float = 1.0) -> np.ndarray:
    """Scale each sine coefficient of nodal pairs (..., 2, n) by phi1(d * lambda_k * t), t > 0."""
    if t <= 0:
        raise ValueError("phi1 weight requires t > 0")
    return _weigh_modes(values, phi1, t, d_u, d_v)


def solve_shifted(g: np.ndarray, lam: float) -> np.ndarray:
    """Solve (lam*I - Laplacian) u = g by tridiagonal elimination, lam > 0.

    The matrix is symmetric positive definite and strictly diagonally
    dominant for lam > 0, so plain elimination is stable.  Its relative
    residual grows with n (about 5e-13 at n = 256) and stays inside the
    1e-12 maximality check up to a few hundred nodes.  ``g`` holds nodal
    values shaped (..., n); a stack is solved as one multi-column
    right-hand side.
    """
    if lam <= 0:
        raise ValueError("shift must be positive (definiteness is lost otherwise)")
    n = g.shape[-1]
    h2 = (1.0 / (n + 1)) ** 2
    ab = np.empty((3, n))
    ab[0, :] = -1.0 / h2
    ab[1, :] = lam + 2.0 / h2
    ab[2, :] = -1.0 / h2
    u = solve_banded((1, 1), ab, g.reshape(-1, n).T, check_finite=False)
    return u.T.reshape(g.shape)
