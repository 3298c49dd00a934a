"""Sine-basis diagonalization of the discrete Dirichlet Laplacian on [0, 1].

The interior second-difference matrix has the exact eigenpairs
sin(k*pi*x_j) with eigenvalue lambda_k = -(4/h^2) sin^2(k*pi*h/2), so the
heat semigroup, the exponential-integrator weight phi1, and the shifted
resolvent can all be evaluated exactly on the grid through one sine
transform per direction.  :func:`_exponents` alone builds the exponents
z_k = d * lambda_k * t of those weights, the integrators' included, and
:func:`_exp` alone takes exp(z) of them.
Using the discrete eigenvalues (rather than -(k*pi)^2) keeps the
dissipativity, contraction, and integrator checks mutually consistent at
machine precision; the continuum enters only as an O(h^2) discretization
error.

Every operator takes and returns plain arrays: one component shaped
(..., n), or nodal pairs (u, v) shaped (..., 2, n), with any leading axes a
batch whose rows come out bit for bit as if transformed alone.

The sine transform (DST-I) has two kernels, chosen from the row length n
alone: a cached dense n x n sine matrix, applied as one matrix-vector
product per row, or numpy's real FFT (pocketfft) of the odd extension.
At the sizes this package runs an FFT call is mostly overhead (n <= 128),
or takes pocketfft's slow path when n+1 has a large prime factor p (a
generic radix-p pass costs about (n+1)*p operations against the matrix's
n^2, so the FFT loses once p > n/3; n = 256 has n+1 = 257 prime).  Above
n ~ 420 the n^2 matrix loses to the FFT whatever n+1 factors into.  See
:func:`_dst` for the rule and the measurements behind it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


def _largest_prime_factor(m: int) -> int:
    p, largest = 2, 1
    while p * p <= m:
        while m % p == 0:
            largest, m = p, m // p
        p += 1
    return max(largest, m)


@lru_cache(maxsize=16)
def _sine_matrix(n: int) -> np.ndarray | None:
    """The frozen DST-I matrix 2 sin(pi*j*k/(n+1)), j, k = 1..n; None where the FFT is faster.

    j*k is reduced mod 2(n+1), one period of the sine, before it is
    scaled, so every angle is below 2*pi and its entry is within about
    1e-15 of the exact value.

    The (n, n) view returned sits in a buffer laid out for the GEMV that
    applies it: its first entry on a 64-byte cache-line boundary and each
    row padded to ceil(n/8)*8 doubles, so every row starts on a line too
    (numpy hands BLAS the padded row stride as its leading dimension).
    OpenBLAS's GEMV ran up to 1.9x slower on a matrix the heap had left off
    a line boundary, and where n is not a multiple of 8 an aligned but
    unpadded matrix read no faster than an unaligned one (a (3, 2, n)
    product 4.0 against 3.5 us padded at n = 63, 14.4 against 10.0 at
    n = 127).  The entries and the product's bits do not depend on the
    layout.  At most 420 x 424 doubles (1.4 MB) per n; built in place,
    so building it takes no more memory than keeping it.
    """
    if not (n <= 128 or (n <= 420 and _largest_prime_factor(n + 1) > n / 3)):
        return None
    width = -(-n // 8) * 8
    buf = np.empty(n * width + 7)
    start = -buf.ctypes.data % 64 // 8
    matrix = buf[start : start + n * width].reshape(n, width)[:, :n]
    j = np.arange(1.0, n + 1)
    np.multiply.outer(j, j, out=matrix)  # whole numbers below 2^53: fmod is exact
    np.fmod(matrix, 2 * (n + 1), out=matrix)
    matrix *= np.pi
    matrix /= n + 1
    np.sin(matrix, out=matrix)
    matrix *= 2.0
    matrix.flags.writeable = False
    return matrix


def _dst(x: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I y_k = 2 sum_j x_j sin(pi*(j+1)*(k+1)/(n+1)) along the last axis.

    The kernel depends on the row length n alone: the dense sine matrix
    where n <= 128, or where n <= 420 and the largest prime factor of n+1
    exceeds n/3; the FFT everywhere else.  The rule never looks at the
    batch: a batch-size rule would let a row of a stack take the other
    kernel than the same row transformed alone, and so differ from it in
    the last bits.  Measured per call in microseconds, pocketfft / dense,
    on 2 shared vCPUs with one BLAS thread (Python 3.11, numpy 2.4, scipy
    1.17, OpenBLAS 0.3.31), the chosen kernel marked *; the dense column
    is on the cache-line-aligned matrix of :func:`_sine_matrix`:

    ====  =========  =============  =============
    n     prime p    (2, n)         (4, 2, n)
    ====  =========  =============  =============
    63    2          7.9 / 2.2*     8.4 / 4.1*
    96    97         11.8 / 2.7*    25.9 / 7.0*
    97    7          7.6 / 2.9*     10.9 / 7.5*
    127   2          7.3 / 3.8*     10.5 / 11.0*
    128   43         8.6 / 3.7*     17.6 / 9.5*
    160   23         8.7* / 4.8     15.4* / 14.2
    255   2          9.2* / 11.9    15.7* / 40.9
    256   257        39.6 / 11.7*   138 / 33.4*
    257   43         12.4* / 10.4   28.5* / 41.9
    300   43         14.2* / 14.4   34.6* / 50.5
    400   401        43.6 / 28.2*   150 / 82.5*
    420   421        49.1 / 28.5*   173 / 98.4*
    440   7          14.3* / 35.9   33.4* / 117
    460   461        44.7* / 36.9   148* / 118
    511   2          12.8* / 95.3   26.6* / 355
    ====  =========  =============  =============

    (p is the largest prime factor of n+1; best of 20 rounds taken in
    turn over every cell.)  The rule was fitted before the matrix was
    aligned, when the dense kernel read 1.2-2x slower: over a scan of
    every n from 1 to 699 at both shapes, the rule's summed time was then
    0.7% above that of the faster kernel at each n, and pocketfft's alone
    8.9% above it.  The aligned kernel now also wins at some n the rule
    gives the FFT (160 and 257 at (2, n)).  The rule is not re-fit: a
    re-fit moves the bits at every n it reassigns, and no n the package
    runs by default would move, since n = 255 stays on the FFT at both
    shapes.

    The pocketfft column is scipy's ``dst(type=1)``; numpy's ``rfft`` of the
    odd extension [0, -x, 0, x reversed] gives its bits at 2-4 us more per
    call (6.5 -> 8.5 us at (2, 255), 15.4 -> 19.5 at (2, 1023)).  The rule is
    not re-fit to that, because a re-fit moves the bits at each n it reassigns.

    The dense product is one matrix-vector product per row (``np.matmul``
    of a stack of 1 x n rows), never one matrix-matrix product of the
    batch: BLAS GEMM sums a row in an order that depends on the batch
    shape, so its rows are not bit-equal to single-row products.  The input
    is made C-contiguous first, because a strided or Fortran-ordered stack
    takes another BLAS path with other bits.  So a row's result depends on
    the row alone: not on the batch, its layout or the BLAS thread count.
    """
    n = x.shape[-1]
    matrix = _sine_matrix(n)
    if matrix is None:
        z = np.zeros(x.shape[:-1] + (2 * (n + 1),))
        np.negative(x, out=z[..., 1 : n + 1])
        z[..., n + 2 :] = x[..., ::-1]
        return np.fft.rfft(z).imag[..., 1 : n + 1]
    return np.matmul(np.ascontiguousarray(x, dtype=float)[..., None, :], matrix)[..., 0, :]


def laplacian_eigenvalues(grid: Grid1D) -> np.ndarray:
    """Eigenvalues lambda_k = -(4/h^2) sin^2(k*pi*h/2), k = 1..n_interior.

    All strictly negative and decreasing in k.
    """
    return _eigenvalues(grid.n_interior)


def to_coeffs(values: np.ndarray) -> np.ndarray:
    """Sine coefficients c_k = (2/(n+1)) sum_j f_j sin(k*pi*x_j) along the last axis.

    Leading axes are a batch: one call transforms a whole stack of nodal
    arrays, and each row comes out bit for bit as if transformed alone:
    the DST-I behind it, a cached dense sine matrix or an FFT, is
    chosen from n alone (see :func:`_dst`).  Inverse of :func:`to_values`.
    """
    return _dst(values) / (values.shape[-1] + 1)


def to_values(coeffs: np.ndarray) -> np.ndarray:
    """Nodal values f_j = sum_k c_k sin(k*pi*x_j) along the last axis.

    Batched like :func:`to_coeffs`, of which it is the inverse.
    """
    return 0.5 * _dst(coeffs)


def discrete_laplacian(f: np.ndarray) -> np.ndarray:
    """Second difference (f_{j-1} - 2 f_j + f_{j+1}) / h^2 with implicit zero ends.

    ``f`` holds Dirichlet nodal values shaped (..., n), f_0 = f_{n+1} = 0;
    the result has the same shape.
    """
    out = -2.0 * f
    out[..., :-1] += f[..., 1:]
    out[..., 1:] += f[..., :-1]
    return out / (1.0 / (f.shape[-1] + 1)) ** 2


def _exponents(n: int, d_u, d_v, t) -> np.ndarray:
    """Exponents z_k = (d * t) * lambda_k of both components, shaped (..., 2, n).

    d_u, d_v and t are scalars or arrays over the leading axes.  Every
    weight on the sine basis, here and in ``integrators``, takes z from here.
    """
    t = np.asarray(t, dtype=float)
    return np.stack((d_u * t, d_v * t), axis=-1)[..., None] * _eigenvalues(n)


# e^z rounds to +0.0 for every z below ln(2^-1075) = -745.1332..., and this
# threshold sits 0.067 below that
_EXP_ZERO_BELOW = -745.2


def _exp(z) -> np.ndarray:
    """``np.exp(z)`` bit for bit, without evaluating exp where z <= -745.2.

    There e^z is exactly +0.0, yet numpy's exp takes its underflow path for
    such z at 7-12x its usual cost per entry (numpy 2.4, AVX-512 x86-64),
    and most exponents of the semigroup check lie there (88% at n = 256).
    Those entries are left as the zeros the result starts from; every other
    entry, NaN included (it fails the comparison), goes through ``np.exp``.
    The result is an array shaped like z, a 0-d one for a scalar.
    """
    z = np.asarray(z, dtype=float)
    return np.exp(z, out=np.zeros(z.shape), where=~(z <= _EXP_ZERO_BELOW))


def _weigh_modes(values: np.ndarray, weight, t, d_u: float, d_v: float) -> np.ndarray:
    """Scale the sine coefficients of nodal pairs (..., 2, n) by weight(z), z from _exponents."""
    return to_values(weight(_exponents(values.shape[-1], d_u, d_v, t)) * to_coeffs(values))


def semigroup_apply(values: np.ndarray, t, d_u: float = 1.0, d_v: float = 1.0) -> np.ndarray:
    """Evolve both components by the diffusion semigroup for a duration t >= 0.

    Componentwise in the sine basis each coefficient is scaled by
    exp(d * lambda_k * t); the map is a contraction of the product norm.
    ``values`` are nodal pairs shaped (..., 2, n), with t a scalar or an
    array over the leading axes.
    """
    if not np.all(np.asarray(t) >= 0):  # a NaN t fails this too
        raise ValueError("the heat semigroup is defined for t >= 0 only")
    return _weigh_modes(values, _exp, t, d_u, d_v)


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
    if not t > 0:  # a NaN t fails this too
        raise ValueError("phi1 weight requires t > 0")
    return _weigh_modes(values, phi1, t, d_u, d_v)


def solve_shifted(g: np.ndarray, lam: float) -> np.ndarray:
    """Solve (lam*I - Laplacian) u = g by tridiagonal elimination, lam > 0.

    The matrix is symmetric positive definite and strictly diagonally
    dominant for lam > 0, so elimination without pivoting is stable.  Its
    residual relative to g grows with n (about 5e-13 at n = 256 and 2.5e-12
    at n = 1023), while its backward error, the residual relative to
    ||lam*I - Laplacian|| ||u|| + ||g||, stays near 1.6e-16: that is what
    the maximality check bounds.  ``g``
    holds nodal values shaped (..., n), each row eliminated on its own in
    LAPACK's order and roundings, so u equals ``scipy.linalg.solve_banded``
    bit for bit: a loop over n, 0.5 ms at n = 256 for 64 rows (LAPACK: 0.17).
    """
    if lam <= 0:
        raise ValueError("shift must be positive (definiteness is lost otherwise)")
    n = g.shape[-1]
    off = -1.0 / (1.0 / (n + 1)) ** 2
    diag = lam - 2.0 * off  # lam + 2/h^2: doubling is exact
    y = np.array(g.reshape(-1, n).T, dtype=float, order="C")
    rows = list(y)  # row i holds node i of every right-hand side
    scratch = np.empty(y.shape[1:])
    pivots = [diag]
    for i in range(1, n):
        m = off / pivots[-1]
        pivots.append(diag - m * off)
        np.subtract(rows[i], np.multiply(rows[i - 1], m, out=scratch), out=rows[i])
    np.divide(rows[-1], pivots[-1], out=rows[-1])
    for i in range(n - 2, -1, -1):
        np.subtract(rows[i], np.multiply(rows[i + 1], off, out=scratch), out=rows[i])
        np.divide(rows[i], pivots[i], out=rows[i])
    return y.T.reshape(g.shape)
