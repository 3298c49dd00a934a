import numpy as np
import pytest
from scipy.linalg import expm

from pdae1d import (
    Field,
    Grid1D,
    StatePair,
    discrete_laplacian,
    laplacian_eigenvalues,
    phi1,
    phi1_apply,
    semigroup_apply,
    sine_mode,
    solve_shifted,
)
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
    return StatePair(
        Field(grid, rng.uniform(-1.0, 1.0, grid.n_interior)),
        Field(grid, rng.uniform(-1.0, 1.0, grid.n_interior)),
    )


class TestDst:
    def test_zero_field_zero_coeffs(self):
        grid = Grid1D(9)
        assert np.all(to_coeffs(Field.zeros(grid).values) == 0.0)

    def test_first_mode_n7(self):
        grid = Grid1D(7)
        coeffs = to_coeffs(sine_mode(grid, 1).values)
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_matches_dense_projection(self):
        grid = Grid1D(23)
        rng = np.random.default_rng(7)
        f = Field(grid, rng.standard_normal(23))
        np.testing.assert_allclose(
            to_coeffs(f.values), dense_projection(f.values, grid), rtol=1e-12, atol=1e-13
        )

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

    @pytest.mark.parametrize("n", [7, 16, 127, 128, 256, 1023])
    def test_batched_rows_equal_single_transforms(self, n):
        # semigroup_apply and phi1_apply transform (u, v) as one stack, so a
        # row of a batch must equal the same row transformed alone, bit for bit
        stack = np.random.default_rng(n).standard_normal((2, n))
        for transform in (to_coeffs, to_values):
            batched = transform(stack)
            for row in range(2):
                assert np.array_equal(batched[row], transform(stack[row]))


class TestLaplacian:
    def test_zero(self):
        grid = Grid1D(8)
        assert np.all(discrete_laplacian(Field.zeros(grid)).values == 0.0)

    def test_eigen_identity_all_modes(self):
        grid = Grid1D(17)
        lam = laplacian_eigenvalues(grid)
        dense = dense_laplacian(17)
        for k in range(1, 18):
            mode = sine_mode(grid, k)
            applied = discrete_laplacian(mode).values
            np.testing.assert_allclose(applied, dense @ mode.values, rtol=1e-12, atol=1e-9)
            np.testing.assert_allclose(applied, lam[k - 1] * mode.values, rtol=1e-11, atol=1e-9)

    def test_quadratic_second_difference_exact(self):
        # x(1-x) vanishes at both ends, so the implicit-zero stencil is exact
        grid = Grid1D(13)
        f = Field(grid, grid.nodes * (1.0 - grid.nodes))
        np.testing.assert_allclose(discrete_laplacian(f).values, -2.0, rtol=1e-11)

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
        np.testing.assert_allclose(out.u.values, state.u.values, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.v.values, state.v.values, rtol=0, atol=1e-14)

    def test_single_mode_against_dense_exponential(self):
        grid = Grid1D(12)
        lam = laplacian_eigenvalues(grid)
        state = StatePair(sine_mode(grid, 1), Field.zeros(grid))
        out = semigroup_apply(state, 0.1)
        np.testing.assert_allclose(
            out.u.values, np.exp(0.1 * lam[0]) * state.u.values, rtol=1e-12
        )
        assert np.all(out.v.values == 0.0)
        oracle = expm(0.1 * dense_laplacian(12)) @ state.u.values
        np.testing.assert_allclose(out.u.values, oracle, rtol=0, atol=1e-10)

    def test_random_state_against_dense_exponential(self):
        grid = Grid1D(16)
        rng = np.random.default_rng(11)
        state = random_state(grid, rng)
        propagator = expm(0.05 * dense_laplacian(16))
        out = semigroup_apply(state, 0.05)
        np.testing.assert_allclose(out.u.values, propagator @ state.u.values, atol=1e-10)
        np.testing.assert_allclose(out.v.values, propagator @ state.v.values, atol=1e-10)

    def test_rejects_negative_duration(self):
        state = StatePair.zeros(Grid1D(4))
        with pytest.raises(ValueError):
            semigroup_apply(state, -0.1)

    def test_contraction_random_sample(self):
        grid = Grid1D(32)
        rng = np.random.default_rng(21)
        for _ in range(200):
            state = random_state(grid, rng)
            for t in (0.01, 0.1, 1.0):
                assert semigroup_apply(state, t).norm() <= state.norm() + 1e-12

    def test_composition_law(self):
        grid = Grid1D(32)
        rng = np.random.default_rng(22)
        for _ in range(50):
            state = random_state(grid, rng)
            t, s = rng.uniform(0.0, 1.0, 2)
            joint = semigroup_apply(state, t + s)
            composed = semigroup_apply(semigroup_apply(state, s), t)
            assert (joint - composed).norm() <= 1e-12 * state.norm()

    def test_per_component_diffusion_scaling(self):
        # d scales the clock: S_d(t) = S_1(d*t) componentwise
        grid = Grid1D(10)
        rng = np.random.default_rng(23)
        state = random_state(grid, rng)
        fast = semigroup_apply(state, 0.2, d_u=2.0, d_v=0.5)
        np.testing.assert_allclose(
            fast.u.values, semigroup_apply(state, 0.4).u.values, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            fast.v.values, semigroup_apply(state, 0.1).v.values, rtol=1e-12, atol=1e-15
        )


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
        state = StatePair(sine_mode(grid, 1), Field.zeros(grid))
        out = phi1_apply(state, t)
        np.testing.assert_allclose(
            out.u.values, 0.63212055882855767840447622983853913255 * state.u.values, rtol=1e-13
        )

    def test_against_dense_inverse_times_expm(self):
        grid = Grid1D(12)
        rng = np.random.default_rng(31)
        state = random_state(grid, rng)
        t = 0.07
        ta = t * dense_laplacian(12)
        oracle = np.linalg.solve(ta, (expm(ta) - np.eye(12)))
        out = phi1_apply(state, t)
        np.testing.assert_allclose(out.u.values, oracle @ state.u.values, atol=1e-10)
        np.testing.assert_allclose(out.v.values, oracle @ state.v.values, atol=1e-10)

    def test_rejects_nonpositive_duration(self):
        state = StatePair.zeros(Grid1D(4))
        for t in (0.0, -0.5):
            with pytest.raises(ValueError):
                phi1_apply(state, t)


class TestSolveShifted:
    def test_zero_rhs(self):
        grid = Grid1D(6)
        assert np.all(solve_shifted(Field.zeros(grid), 1.0).values == 0.0)

    def test_sine_mode_eigen_solution(self):
        grid = Grid1D(15)
        lam = laplacian_eigenvalues(grid)
        for k, shift in ((1, 1.0), (3, 2.5), (15, 0.7)):
            g = sine_mode(grid, k)
            u = solve_shifted(g, shift)
            np.testing.assert_allclose(u.values, g.values / (shift - lam[k - 1]), rtol=1e-12)

    def test_random_against_dense_solve(self):
        grid = Grid1D(8)
        rng = np.random.default_rng(41)
        g = Field(grid, rng.uniform(-1.0, 1.0, 8))
        matrix = np.eye(8) - dense_laplacian(8)
        oracle = np.linalg.solve(matrix, g.values)
        np.testing.assert_allclose(solve_shifted(g, 1.0).values, oracle, rtol=1e-12)

    def test_residual_contract_large_grid(self):
        grid = Grid1D(256)
        rng = np.random.default_rng(42)
        h2 = grid.h**2
        for _ in range(20):
            g = Field(grid, rng.uniform(-1.0, 1.0, 256))
            u = solve_shifted(g, 1.0).values
            residual = (1.0 + 2.0 / h2) * u.copy()
            residual[:-1] -= u[1:] / h2
            residual[1:] -= u[:-1] / h2
            residual -= g.values
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(g.values))

    def test_rejects_nonpositive_shift(self):
        grid = Grid1D(5)
        for shift in (0.0, -1.0):
            with pytest.raises(ValueError):
                solve_shifted(Field.zeros(grid), shift)

    def test_commutes_with_semigroup(self):
        # shared eigenbasis: resolvent of the drifted field = drifted resolvent
        grid = Grid1D(24)
        rng = np.random.default_rng(43)
        g = Field(grid, rng.uniform(-1.0, 1.0, 24))
        t, shift = 0.3, 1.0
        zero = Field.zeros(grid)
        left = solve_shifted(semigroup_apply(StatePair(g, zero), t).u, shift)
        right = semigroup_apply(StatePair(solve_shifted(g, shift), zero), t).u
        assert np.max(np.abs(left.values - right.values)) <= 1e-10


class TestStackedOperators:
    """Each operator on an array stack equals the same operator row by row, bit for bit."""

    SIZES = [1, 2, 16, 63, 256]

    @pytest.mark.parametrize("n", SIZES)
    def test_laplacian(self, n):
        grid = Grid1D(n)
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (3, 2, n))
        out = discrete_laplacian(stack)
        assert out.shape == stack.shape
        for row in np.ndindex(3, 2):
            assert np.array_equal(out[row], discrete_laplacian(Field(grid, stack[row])).values)

    @pytest.mark.parametrize("n", SIZES)
    def test_solve_shifted(self, n):
        grid = Grid1D(n)
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (3, 2, n))
        for rhs in (stack, stack[..., ::-1]):
            out = solve_shifted(rhs, 2.5)
            assert out.shape == stack.shape
            for row in np.ndindex(3, 2):
                assert np.array_equal(out[row], solve_shifted(Field(grid, rhs[row]), 2.5).values)

    @pytest.mark.parametrize("n", SIZES)
    def test_semigroup_with_scalar_and_array_t(self, n):
        grid = Grid1D(n)
        rng = np.random.default_rng(n)
        stack = rng.uniform(-1.0, 1.0, (4, 2, n))
        times = rng.uniform(0.0, 1.0, 4)
        scalar = semigroup_apply(stack, 0.3, d_u=2.0, d_v=0.5)
        per_sample = semigroup_apply(stack, times, d_u=2.0, d_v=0.5)
        for i in range(4):
            state = StatePair(Field(grid, stack[i, 0]), Field(grid, stack[i, 1]))
            for out, t in ((scalar, 0.3), (per_sample, times[i])):
                single = semigroup_apply(state, float(t), d_u=2.0, d_v=0.5)
                assert np.array_equal(out[i, 0], single.u.values)
                assert np.array_equal(out[i, 1], single.v.values)

    def test_array_t_broadcasts_over_leading_axes(self):
        stack = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 2, 8))
        times = np.array([[0.01], [0.1]])
        out = semigroup_apply(stack, times)
        assert out.shape == (2, 3, 2, 8)
        for j, i in np.ndindex(2, 3):
            assert np.array_equal(out[j, i], semigroup_apply(stack[i], float(times[j, 0])))

    def test_array_t_validation(self):
        grid = Grid1D(8)
        stack = np.zeros((2, 2, 8))
        with pytest.raises(ValueError):
            semigroup_apply(stack, np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            semigroup_apply(StatePair.zeros(grid), np.array([0.1, 0.2]))
