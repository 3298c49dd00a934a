import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.fft import dst as fft_dst
from scipy.linalg import expm, solve_banded

from pdae1d import (
    Grid1D,
    discrete_laplacian,
    laplacian_eigenvalues,
    phi1,
    phi1_apply,
    semigroup_apply,
    sine_mode,
    solve_shifted,
)
from pdae1d import spectral
from pdae1d.fields import pair_norm
from pdae1d.spectral import to_coeffs, to_values


def dense_laplacian(n):
    # independent dense oracle for the interior second-difference matrix
    h = 1.0 / (n + 1)
    a = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    return a / h**2


def dense_projection(values, grid):
    # O(n^2) oracle: c_k = sum_j f_j s_k(x_j) / sum_j s_k(x_j)^2
    n = grid.n_interior
    coeffs = np.empty(n)
    for k in range(1, n + 1):
        sk = np.sin(k * np.pi * grid.nodes)
        coeffs[k - 1] = np.dot(values, sk) / np.dot(sk, sk)
    return coeffs


def random_state(grid, rng):
    return rng.uniform(-1.0, 1.0, (2, grid.n_interior))


class TestDst:
    def test_zero_field_zero_coeffs(self):
        grid = Grid1D(9)
        assert np.all(to_coeffs(np.zeros(grid.n_interior)) == 0.0)

    def test_first_mode_n7(self):
        grid = Grid1D(7)
        coeffs = to_coeffs(sine_mode(grid, 1).values)
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_matches_dense_projection(self):
        grid = Grid1D(23)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(23)
        np.testing.assert_allclose(to_coeffs(f), dense_projection(f, grid), rtol=1e-12, atol=1e-13)

    def test_roundtrip_forward_then_inverse(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-1.0, 1.0, 16)
        back = to_values(to_coeffs(values))
        assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))

    def test_roundtrip_inverse_then_forward(self):
        rng = np.random.default_rng(4)
        coeffs = rng.uniform(-1.0, 1.0, 16)
        back = to_coeffs(to_values(coeffs))
        np.testing.assert_allclose(back, coeffs, rtol=1e-12, atol=1e-14)

    def test_basis_coefficient_synthesizes_mode(self):
        grid = Grid1D(11)
        coeffs = np.zeros(11)
        coeffs[0] = 1.0
        np.testing.assert_allclose(to_values(coeffs), np.sin(np.pi * grid.nodes), rtol=1e-13)

    @pytest.mark.parametrize(
        "n", [7, 16, 63, 96, 97, 127, 128, 255, 256, 257, 440, 441, 1023]
    )
    def test_batched_rows_equal_single_transforms(self, n):
        # semigroup_apply and phi1_apply transform (u, v) as one stack, and the
        # verification checks transform stacks of samples, so a row of a batch
        # must equal the same row transformed alone, bit for bit, on both
        # kernels of the sine transform and whatever the batch's memory layout
        rng = np.random.default_rng(n)
        for shape in [(n,), (2, n), (4, 2, n), (50, 2, n)]:
            stack = rng.standard_normal(shape)
            strided = rng.standard_normal(shape[:-1] + (2 * n,))[..., ::2]
            for batch in (stack, strided, np.asfortranarray(stack)):
                rows = batch.reshape(-1, n)
                for transform in (to_coeffs, to_values):
                    batched = transform(batch).reshape(-1, n)
                    for row in range(rows.shape[0]):
                        alone = np.array(rows[row])
                        assert np.array_equal(batched[row], transform(alone))

    def test_kernel_depends_on_the_row_length_alone(self):
        # dense where n <= 128, or n <= 420 with a prime factor of n+1 above n/3
        dense = [1, 7, 16, 63, 64, 96, 97, 127, 128, 256, 400, 420]
        fast = [255, 257, 300, 421, 440, 441, 460, 1023]
        assert all(spectral._sine_matrix(n) is not None for n in dense)
        assert all(spectral._sine_matrix(n) is None for n in fast)

    @pytest.mark.parametrize("n", [1, 2, 7, 63, 96, 97, 127, 128, 256, 400, 420])
    def test_dense_kernel_agrees_with_pocketfft(self, n):
        matrix = spectral._sine_matrix(n)
        assert matrix is not None and not matrix.flags.writeable
        stack = np.random.default_rng(n).standard_normal((8, 2, n))
        dense, fast = spectral._dst(stack), fft_dst(stack, type=1)
        assert np.max(np.abs(dense - fast)) <= 1e-13 * np.max(np.abs(fast))

    def test_fft_kernel_equals_scipy_dst(self):
        # exact oracle: at every n the FFT kernel serves, scipy's DST-I bit for bit
        sizes = [n for n in range(1, 701) if spectral._sine_matrix(n) is None] + [1023]
        assert 255 in sizes and 256 not in sizes
        rng = np.random.default_rng(11)
        for n in sizes:
            stack = rng.standard_normal((3, 2, n))
            assert np.array_equal(spectral._dst(stack), fft_dst(stack, type=1)), n

    @pytest.mark.parametrize("n", [255, 256])
    def test_roundtrip_across_the_dispatch(self, n):
        # n = 256 runs the dense kernel (n+1 = 257 is prime), n = 255 pocketfft
        rng = np.random.default_rng(n)
        values, coeffs = rng.uniform(-1.0, 1.0, (2, 2, n))
        back = to_values(to_coeffs(values))
        assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))
        np.testing.assert_allclose(to_coeffs(to_values(coeffs)), coeffs, rtol=1e-12, atol=1e-14)

    def test_transforms_do_not_depend_on_the_blas_thread_count(self):
        # two child processes, one and two OpenBLAS threads, hash the same transforms
        script = (
            "import hashlib, numpy as np\n"
            "from pdae1d.spectral import to_coeffs, to_values\n"
            "digest = hashlib.sha256()\n"
            "for n in (7, 63, 128, 255, 256, 400, 1023):\n"
            "    stack = np.random.default_rng(n).standard_normal((50, 2, n))\n"
            "    for out in (to_coeffs(stack), to_values(stack), to_coeffs(stack[0, 0])):\n"
            "        digest.update(out.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        source = os.path.dirname(os.path.dirname(spectral.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            digests.append(done.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestLaplacian:
    def test_zero(self):
        assert np.all(discrete_laplacian(np.zeros(8)) == 0.0)

    def test_eigen_identity_all_modes(self):
        grid = Grid1D(17)
        lam = laplacian_eigenvalues(grid)
        dense = dense_laplacian(17)
        for k in range(1, 18):
            mode = sine_mode(grid, k).values
            applied = discrete_laplacian(mode)
            np.testing.assert_allclose(applied, dense @ mode, rtol=1e-12, atol=1e-9)
            np.testing.assert_allclose(applied, lam[k - 1] * mode, rtol=1e-11, atol=1e-9)

    def test_quadratic_second_difference_exact(self):
        # x(1-x) vanishes at both ends, so the implicit-zero stencil is exact
        grid = Grid1D(13)
        f = grid.nodes * (1.0 - grid.nodes)
        np.testing.assert_allclose(discrete_laplacian(f), -2.0, rtol=1e-11)

    def test_eigenvalues_negative_and_decreasing(self):
        lam = laplacian_eigenvalues(Grid1D(40))
        assert np.all(lam < 0.0)
        assert np.all(np.diff(lam) < 0.0)


class TestSemigroup:
    def test_identity_at_zero(self):
        grid = Grid1D(16)
        rng = np.random.default_rng(5)
        state = random_state(grid, rng)
        out = semigroup_apply(state, 0.0)
        np.testing.assert_allclose(out[0], state[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(out[1], state[1], rtol=0, atol=1e-14)

    def test_single_mode_against_dense_exponential(self):
        grid = Grid1D(12)
        lam = laplacian_eigenvalues(grid)
        state = np.stack((sine_mode(grid, 1).values, np.zeros(12)))
        out = semigroup_apply(state, 0.1)
        np.testing.assert_allclose(out[0], np.exp(0.1 * lam[0]) * state[0], rtol=1e-12)
        assert np.all(out[1] == 0.0)
        oracle = expm(0.1 * dense_laplacian(12)) @ state[0]
        np.testing.assert_allclose(out[0], oracle, rtol=0, atol=1e-10)

    def test_random_state_against_dense_exponential(self):
        grid = Grid1D(16)
        rng = np.random.default_rng(11)
        state = random_state(grid, rng)
        propagator = expm(0.05 * dense_laplacian(16))
        out = semigroup_apply(state, 0.05)
        np.testing.assert_allclose(out[0], propagator @ state[0], atol=1e-10)
        np.testing.assert_allclose(out[1], propagator @ state[1], atol=1e-10)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            semigroup_apply(np.zeros((2, 4)), -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.array([0.1, np.nan])], ids=["scalar", "array"])
    def test_rejects_nan_duration(self, t):
        with pytest.raises(ValueError):
            semigroup_apply(np.zeros((2, 2, 4)), t)

    def test_contraction_random_sample(self):
        grid = Grid1D(32)
        rng = np.random.default_rng(21)
        for _ in range(200):
            state = random_state(grid, rng)
            for t in (0.01, 0.1, 1.0):
                assert pair_norm(semigroup_apply(state, t), grid.h) <= pair_norm(state, grid.h) + 1e-12

    def test_composition_law(self):
        grid = Grid1D(32)
        rng = np.random.default_rng(22)
        for _ in range(50):
            state = random_state(grid, rng)
            t, s = rng.uniform(0.0, 1.0, 2)
            joint = semigroup_apply(state, t + s)
            composed = semigroup_apply(semigroup_apply(state, s), t)
            assert pair_norm(joint - composed, grid.h) <= 1e-12 * pair_norm(state, grid.h)

    def test_per_component_diffusion_scaling(self):
        # d scales the clock: S_d(t) = S_1(d*t) componentwise
        grid = Grid1D(10)
        rng = np.random.default_rng(23)
        state = random_state(grid, rng)
        fast = semigroup_apply(state, 0.2, d_u=2.0, d_v=0.5)
        np.testing.assert_allclose(fast[0], semigroup_apply(state, 0.4)[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(fast[1], semigroup_apply(state, 0.1)[1], rtol=1e-12, atol=1e-15)


class TestPhi1:
    def test_limit_at_zero_is_one(self):
        assert phi1(0.0) == 1.0
        np.testing.assert_allclose(phi1(np.array([1e-9, -1e-9])), 1.0, rtol=1e-9)

    def test_branch_seam_agreement(self):
        # series branch and direct formula coincide on both sides of |z| = 1e-6
        z = np.array([-1.0000001e-6, -0.9999999e-6, 0.9999999e-6, 1.0000001e-6])
        direct = np.expm1(z) / z
        np.testing.assert_allclose(phi1(z), direct, rtol=1e-13)

    def test_unit_negative_argument(self):
        # phi1(-1) = 1 - exp(-1), 50-digit value frozen from mpmath
        np.testing.assert_allclose(
            phi1(-1.0), 0.63212055882855767840447622983853913255, rtol=1e-15
        )

    def test_single_mode_scale(self):
        grid = Grid1D(9)
        lam = laplacian_eigenvalues(grid)
        t = 1.0 / abs(lam[0])  # so that lam_1 * t = -1
        state = np.stack((sine_mode(grid, 1).values, np.zeros(9)))
        out = phi1_apply(state, t)
        np.testing.assert_allclose(
            out[0], 0.63212055882855767840447622983853913255 * state[0], rtol=1e-13
        )

    def test_against_dense_inverse_times_expm(self):
        grid = Grid1D(12)
        rng = np.random.default_rng(31)
        state = random_state(grid, rng)
        t = 0.07
        ta = t * dense_laplacian(12)
        oracle = np.linalg.solve(ta, (expm(ta) - np.eye(12)))
        out = phi1_apply(state, t)
        np.testing.assert_allclose(out[0], oracle @ state[0], atol=1e-10)
        np.testing.assert_allclose(out[1], oracle @ state[1], atol=1e-10)

    def test_rejects_nonpositive_duration(self):
        state = np.zeros((2, 4))
        for t in (0.0, -0.5):
            with pytest.raises(ValueError):
                phi1_apply(state, t)

    def test_rejects_nan_duration(self):
        with pytest.raises(ValueError):
            phi1_apply(np.zeros((2, 4)), np.nan)


class TestSolveShifted:
    def test_zero_rhs(self):
        assert np.all(solve_shifted(np.zeros(6), 1.0) == 0.0)

    def test_sine_mode_eigen_solution(self):
        grid = Grid1D(15)
        lam = laplacian_eigenvalues(grid)
        for k, shift in ((1, 1.0), (3, 2.5), (15, 0.7)):
            g = sine_mode(grid, k).values
            u = solve_shifted(g, shift)
            np.testing.assert_allclose(u, g / (shift - lam[k - 1]), rtol=1e-12)

    def test_random_against_dense_solve(self):
        rng = np.random.default_rng(41)
        g = rng.uniform(-1.0, 1.0, 8)
        matrix = np.eye(8) - dense_laplacian(8)
        oracle = np.linalg.solve(matrix, g)
        np.testing.assert_allclose(solve_shifted(g, 1.0), oracle, rtol=1e-12)

    def test_residual_contract_large_grid(self):
        grid = Grid1D(256)
        rng = np.random.default_rng(42)
        h2 = grid.h**2
        for _ in range(20):
            g = rng.uniform(-1.0, 1.0, 256)
            u = solve_shifted(g, 1.0)
            residual = (1.0 + 2.0 / h2) * u.copy()
            residual[:-1] -= u[1:] / h2
            residual[1:] -= u[:-1] / h2
            residual -= g
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize("shift", [1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256, 1024])
    def test_equals_lapack_banded_solve(self, n, shift):
        # exact oracle: LAPACK's tridiagonal solve through scipy, bit for bit
        h2 = (1.0 / (n + 1)) ** 2
        bands = np.empty((3, n))
        bands[[0, 2]] = -1.0 / h2
        bands[1] = shift + 2.0 / h2
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (5, 2, n))
        for rhs in (stack[0, 0], stack, stack[..., ::-1]):
            expected = solve_banded((1, 1), bands, rhs.reshape(-1, n).T).T.reshape(rhs.shape)
            assert np.array_equal(solve_shifted(rhs, shift), expected)

    def test_rejects_nonpositive_shift(self):
        for shift in (0.0, -1.0):
            with pytest.raises(ValueError):
                solve_shifted(np.zeros(5), shift)

    def test_commutes_with_semigroup(self):
        # shared eigenbasis: resolvent of the drifted field = drifted resolvent
        rng = np.random.default_rng(43)
        g = rng.uniform(-1.0, 1.0, 24)
        t, shift = 0.3, 1.0
        zero = np.zeros(24)
        left = solve_shifted(semigroup_apply(np.stack((g, zero)), t)[0], shift)
        right = semigroup_apply(np.stack((solve_shifted(g, shift), zero)), t)[0]
        assert np.max(np.abs(left - right)) <= 1e-10


class TestStackedOperators:
    """Each operator on an array stack equals the same operator on one row, bit for bit."""

    SIZES = [1, 2, 16, 63, 256]

    @pytest.mark.parametrize("n", SIZES)
    def test_laplacian(self, n):
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (3, 2, n))
        out = discrete_laplacian(stack)
        assert out.shape == stack.shape
        for row in np.ndindex(3, 2):
            assert np.array_equal(out[row], discrete_laplacian(stack[row].copy()))

    @pytest.mark.parametrize("n", SIZES)
    def test_solve_shifted(self, n):
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (3, 2, n))
        for rhs in (stack, stack[..., ::-1]):
            out = solve_shifted(rhs, 2.5)
            assert out.shape == stack.shape
            for row in np.ndindex(3, 2):
                assert np.array_equal(out[row], solve_shifted(rhs[row].copy(), 2.5))

    @pytest.mark.parametrize("n", SIZES)
    def test_semigroup_with_scalar_and_array_t(self, n):
        rng = np.random.default_rng(n)
        stack = rng.uniform(-1.0, 1.0, (4, 2, n))
        times = rng.uniform(0.0, 1.0, 4)
        scalar = semigroup_apply(stack, 0.3, d_u=2.0, d_v=0.5)
        per_sample = semigroup_apply(stack, times, d_u=2.0, d_v=0.5)
        for i in range(4):
            state = stack[i].copy()
            for out, t in ((scalar, 0.3), (per_sample, times[i])):
                single = semigroup_apply(state, float(t), d_u=2.0, d_v=0.5)
                assert np.array_equal(out[i, 0], single[0])
                assert np.array_equal(out[i, 1], single[1])

    def test_array_t_broadcasts_over_leading_axes(self):
        stack = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 2, 8))
        times = np.array([[0.01], [0.1]])
        out = semigroup_apply(stack, times)
        assert out.shape == (2, 3, 2, 8)
        for j, i in np.ndindex(2, 3):
            assert np.array_equal(out[j, i], semigroup_apply(stack[i], float(times[j, 0])))

    def test_array_t_validation(self):
        stack = np.zeros((2, 2, 8))
        with pytest.raises(ValueError):
            semigroup_apply(stack, np.array([0.1, -0.1]))


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestExp:
    """spectral._exp skips exp where e^z is +0.0, and equals np.exp bit for bit."""

    ULP = np.spacing(745.2)
    SPECIALS = np.concatenate((
        [-np.inf, np.inf, np.nan, -np.nan, 0.0, -0.0, 1.0, -1.0, 709.78, 710.0, -708.4, -745.1332191019412],
        -745.2 + np.arange(-5, 6) * ULP,  # a few ulps either side of the threshold
        np.linspace(-745.13, -708.4, 2001),  # the subnormal band of e^z
        np.linspace(-800.0, 1.0, 2001),
    ))

    @np.errstate(over="ignore")  # e^710 overflows to inf
    def test_scalars(self):
        for z in self.SPECIALS:
            got = spectral._exp(z)
            assert got.shape == () and bits(got) == bits(np.exp(z)), z

    @np.errstate(over="ignore")  # e^710 overflows to inf
    def test_one_dimensional_and_strided(self):
        z = self.SPECIALS
        assert np.array_equal(bits(spectral._exp(z)), bits(np.exp(z)))
        assert np.array_equal(bits(spectral._exp(z[::3])), bits(np.exp(z[::3])))
        block = np.random.default_rng(1).permutation(z)[:2000].reshape(40, 50)
        for view in (block.T, block[::-2, 1::3], np.asfortranarray(block)):
            assert np.array_equal(bits(spectral._exp(view)), bits(np.exp(view)))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_semigroup_blocks(self, n):
        # the exponents of one (durations, samples) block of the semigroup check
        t = np.random.default_rng(n).random((5, 12))
        z = spectral._exponents(n, 1.0, 0.3, t)
        assert z.shape == (5, 12, 2, n)
        assert np.array_equal(bits(spectral._exp(z)), bits(np.exp(z)))
        broadcast = np.broadcast_to(z[0], z.shape)  # stride 0 along the first axis
        assert np.array_equal(bits(spectral._exp(broadcast)), bits(np.exp(broadcast)))

    def test_exp_is_positive_zero_below_the_threshold(self):
        # a dense scan: a numpy whose exp stops rounding to +0.0 here fails loudly
        z = np.linspace(-800.0, -745.2, 2_000_001)
        assert not np.any(bits(np.exp(z)))
        assert not np.any(bits(np.exp(-745.2 - np.arange(1000) * self.ULP)))
