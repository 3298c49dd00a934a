import numpy as np
import pytest
from constraint_oracle import recurrence_gap

from pdae1d import (
    Field,
    Grid1D,
    StatePair,
    constraint_residual,
    reconstruct_w,
)
from pdae1d import constraint
from pdae1d.constraint import running_integral


def fine_running_integral(fn, x, points=1_000_001):
    # independent quadrature oracle: dense trapezoid on [0, x]
    s = np.linspace(0.0, x, points)
    return np.trapezoid(fn(s), s)


def padded(values, ends=(0.0, 0.0)):
    # nodal values at all n+2 nodes: the interior values between the two end values
    return np.concatenate(([ends[0]], values, [ends[1]]))


def zero_state(grid):
    return StatePair(Field.zeros(grid), Field.zeros(grid))


def sine_state(grid, amplitude=1.0):
    # u + v = amplitude * sin(pi x)
    return StatePair(
        Field(grid, amplitude * np.sin(np.pi * grid.nodes)), Field.zeros(grid)
    )


class TestCumulativeIntegral:
    def test_zero(self):
        grid = Grid1D(10)
        out = running_integral(np.zeros(12), grid.h)
        assert np.all(out[1:-1] == 0.0)
        assert (out[0], out[-1]) == (0.0, 0.0)

    def test_constant_is_exact(self):
        grid = Grid1D(12)
        out = running_integral(np.ones(14), grid.h)
        np.testing.assert_allclose(out[1:-1], grid.nodes, rtol=1e-14)
        np.testing.assert_allclose(out[-1], 1.0, rtol=1e-14)

    def test_sine_against_quadrature_oracle(self):
        grid = Grid1D(127)
        out = running_integral(padded(np.sin(np.pi * grid.nodes)), grid.h)[1:-1]
        for j in (0, 31, 63, 126):
            oracle = fine_running_integral(lambda s: np.sin(np.pi * s), grid.nodes[j])
            assert abs(out[j] - oracle) < 1e-4
            assert abs(oracle - (1.0 - np.cos(np.pi * grid.nodes[j])) / np.pi) < 1e-12

    def test_second_order_refinement(self):
        errors = []
        for n in (31, 63, 127):
            grid = Grid1D(n)
            out = running_integral(padded(np.sin(np.pi * grid.nodes)), grid.h)[1:-1]
            exact = (1.0 - np.cos(np.pi * grid.nodes)) / np.pi
            errors.append(np.max(np.abs(out - exact)))
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        assert all(3.2 <= r <= 4.8 for r in ratios)

    def test_starts_at_zero_exactly(self):
        grid = Grid1D(9)
        rng = np.random.default_rng(1)
        full = padded(rng.uniform(-1.0, 1.0, 9), ends=(0.3, -0.2))
        assert running_integral(full, grid.h)[0] == 0.0

    def test_running_integral_on_a_stack_matches_each_row(self):
        grid = Grid1D(37)
        rng = np.random.default_rng(17)
        full = rng.uniform(-1.0, 1.0, (5, 2, grid.n_interior + 2))
        stacked = running_integral(full, grid.h)
        for s in range(5):
            for k in range(2):
                ref = loop_running_integral(full[s, k], grid.h)
                assert stacked[s, k, 0] == 0.0
                assert np.array_equal(stacked[s, k], ref)
                assert np.array_equal(stacked[s, k], running_integral(full[s, k], grid.h))


def slope(values, p_u=1.0, p_v=1.0):
    # w_x = -int_0^x (p_u*u + p_v*v) at all n+2 nodes, as reconstruct_w integrates it
    h = 1.0 / (values.shape[-1] + 1)
    return constraint._slope(constraint._mass(values, p_u, p_v), h)


class TestComputeWx:
    def test_zero_state(self):
        out = slope(np.zeros((2, 8)))
        assert np.all(out == 0.0)

    def test_sine_closed_form(self):
        grid = Grid1D(127)
        out = slope(np.stack((np.sin(np.pi * grid.nodes), np.zeros(127))))
        exact = -(1.0 - np.cos(np.pi * grid.nodes)) / np.pi
        assert np.max(np.abs(out[1:-1] - exact)) < 1e-4

    def test_scaling_linearity(self):
        rng = np.random.default_rng(2)
        state = rng.uniform(-1.0, 1.0, (2, 33))
        np.testing.assert_allclose(slope(3.5 * state), 3.5 * slope(state), rtol=1e-13)

    def test_impact_weights(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(-1.0, 1.0, 21)
        v = rng.uniform(-1.0, 1.0, 21)
        weighted = slope(np.stack((u, v)), p_u=2.0, p_v=-0.5)
        recombined = slope(np.stack((2.0 * u, -0.5 * v)))
        np.testing.assert_allclose(weighted, recombined, rtol=1e-13, atol=1e-16)


class TestReconstructW:
    def test_zero_state(self):
        grid = Grid1D(8)
        w = reconstruct_w(zero_state(grid))
        assert w.shape == (10,) and np.all(w == 0.0)

    def test_sine_closed_form(self):
        # u + v = sin(pi x): w = -(x/pi - sin(pi x)/pi^2)
        grid = Grid1D(127)
        w = reconstruct_w(sine_state(grid))
        exact = -(grid.nodes / np.pi - np.sin(np.pi * grid.nodes) / np.pi**2)
        assert np.max(np.abs(w[1:-1] - exact)) < 2e-4

    def test_sine_against_nested_quadrature_oracle(self):
        grid = Grid1D(63)
        w = reconstruct_w(sine_state(grid))
        x_probe = grid.nodes[31]
        ys = np.linspace(0.0, x_probe, 2001)
        inner = np.array([fine_running_integral(lambda s: np.sin(np.pi * s), y, 20001) for y in ys])
        oracle = -np.trapezoid(inner, ys)
        assert abs(w[1:-1][31] - oracle) < 2e-4

    def test_constant_state_exact(self):
        # trapezoid is exact through linear integrands: w = -c x^2 / 2; the
        # constant mass is c at all n+2 nodes, ends included
        grid = Grid1D(40)
        c = 0.75
        w = running_integral(constraint._slope(np.full(42, c), grid.h), grid.h)
        np.testing.assert_allclose(w[1:-1], -c * grid.nodes**2 / 2.0, rtol=0, atol=1e-12)

    def test_left_boundary_conditions_exact(self):
        grid = Grid1D(50)
        rng = np.random.default_rng(5)
        for _ in range(25):
            state = StatePair(
                Field(grid, rng.uniform(-1.0, 1.0, 50)), Field(grid, rng.uniform(-1.0, 1.0, 50))
            )
            assert reconstruct_w(state)[0] == 0.0
            assert slope(state.values)[0] == 0.0

    def test_linearity_in_state(self):
        rng = np.random.default_rng(6)
        a, b = rng.uniform(-1, 1, (2, 2, 30))
        combo = reconstruct_w(2.0 * a + (-3.0) * b)
        parts = 2.0 * reconstruct_w(a) + (-3.0) * reconstruct_w(b)
        np.testing.assert_allclose(combo, parts, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n", [63, 127])
    def test_recurrence_oracle_agrees_to_second_order_and_catches_defects(self, n):
        x = Grid1D(n).nodes
        values = np.stack((0.1 * np.sin(np.pi * x), 0.1 * np.sin(2.0 * np.pi * x)))
        p_u, p_v = 2.0, -0.5
        w = reconstruct_w(values, p_u, p_v)
        assert recurrence_gap(values, w, p_u, p_v) <= 1.0
        assert recurrence_gap(values, -w, p_u, p_v) > 100.0  # sign flip
        assert recurrence_gap(values, reconstruct_w(values, p_v, p_u), p_u, p_v) > 100.0  # swap


class TestConstraintResidual:
    def test_zero_state_zero_report(self):
        grid = Grid1D(8)
        state = zero_state(grid)
        report = constraint_residual(state, reconstruct_w(state))
        assert report.residual_l2 == 0.0
        assert report.w_at_0 == 0.0 and report.wx_at_0 == 0.0 and report.w_at_1 == 0.0

    def test_second_order_residual(self):
        residuals = []
        for n in (63, 127):  # h halves between these grids
            grid = Grid1D(n)
            state = sine_state(grid)
            report = constraint_residual(state, reconstruct_w(state))
            residuals.append(report.residual_l2)
        assert 3.2 <= residuals[0] / residuals[1] <= 4.8

    def test_right_end_compatibility_diagnostic(self):
        # double integral of sin(pi x) over the unit square wedge: w(1) = -1/pi
        grid = Grid1D(127)
        state = sine_state(grid)
        report = constraint_residual(state, reconstruct_w(state))
        assert abs(report.w_at_1 - (-0.31830988618379067153776752674502872407)) < 1e-3

    def test_left_end_reported_exactly_zero(self):
        grid = Grid1D(64)
        rng = np.random.default_rng(9)
        state = StatePair(
            Field(grid, rng.uniform(-1.0, 1.0, 64)), Field(grid, rng.uniform(-1.0, 1.0, 64))
        )
        report = constraint_residual(state, reconstruct_w(state))
        assert report.w_at_0 == 0.0
        assert report.wx_at_0 == 0.0

    def test_wrong_length_profile_rejected(self):
        # a profile holds w at all n+2 = 10 nodes; the interior 8 or another grid's are refused
        state = zero_state(Grid1D(8))
        for form, lead in ((state, ()), (state.values, ()), (np.zeros((3, 2, 8)), (3,))):
            for length in (8, 9, 11):
                with pytest.raises(ValueError, match="expected 10"):
                    constraint_residual(form, np.zeros(lead + (length,)))


def loop_running_integral(full, h):
    # per-state reference: the trapezoid sum accumulated one cell at a time
    out = [0.0]
    for a, b in zip(full[:-1], full[1:]):
        out.append(out[-1] + 0.5 * h * (a + b))
    return np.array(out)


def field_path_w(u_full, v_full, p_u, p_v):
    # the per-state path on padded (n+2) arrays: the mass with its end
    # values, integrated twice one cell at a time
    h = 1.0 / (len(u_full) - 1)
    return loop_running_integral(-loop_running_integral(p_u * u_full + p_v * v_full, h), h)


def field_path_residual_l2(values, w, p_u, p_v):
    h = 1.0 / (values.shape[-1] + 1)
    second_diff = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h**2
    residual = second_diff + p_u * values[0] + p_v * values[1]
    return float(np.sqrt(h * np.dot(residual, residual)))


class TestStackedForms:
    @pytest.mark.parametrize("n", [1, 2, 7, 128, 255])
    @pytest.mark.parametrize("p_u, p_v", [(1.0, 1.0), (2.0, -0.5)])
    def test_each_row_equals_the_field_path(self, n, p_u, p_v):
        grid = Grid1D(n)
        rng = np.random.default_rng(n)
        stack = rng.uniform(-1.0, 1.0, (3, 4, 2, n)) * 10.0 ** rng.integers(-3, 4, (3, 4, 1, 1))
        stack[0, 0] = 0.0
        w = reconstruct_w(stack, p_u, p_v)
        report = constraint_residual(stack, w, p_u, p_v)
        assert w.shape == (3, 4, n + 2) and report.residual_l2.shape == (3, 4)
        assert np.all(w[..., 0] == 0.0)
        assert np.all(report.w_at_0 == 0.0) and np.all(report.wx_at_0 == 0.0)
        for index in np.ndindex(3, 4):
            state = StatePair(Field(grid, stack[index][0]), Field(grid, stack[index][1]))
            ref = field_path_w(padded(stack[index][0]), padded(stack[index][1]), p_u, p_v)
            single = reconstruct_w(state, p_u, p_v)
            assert np.array_equal(w[index], ref)
            assert np.array_equal(single, ref)
            assert (single[0], single[-1]) == (ref[0], ref[-1])
            ref_l2 = field_path_residual_l2(stack[index], ref, p_u, p_v)
            single_report = constraint_residual(state, single, p_u, p_v)
            assert report.residual_l2[index] == single_report.residual_l2 == ref_l2
            assert report.w_at_1[index] == single_report.w_at_1 == ref[-1]
            assert single_report.w_at_0 == 0.0 and single_report.wx_at_0 == 0.0

    def test_field_path_with_boundary_pairs(self):
        # nonzero end values reach the integrals only through running_integral
        grid = Grid1D(9)
        rng = np.random.default_rng(4)
        for p_u, p_v in [(1.0, 1.0), (2.0, -0.5)]:
            u = padded(rng.uniform(-1.0, 1.0, 9), ends=(0.3, -0.7))
            v = padded(rng.uniform(-1.0, 1.0, 9), ends=(-0.2, 0.5))
            ref = field_path_w(u, v, p_u, p_v)
            w = running_integral(constraint._slope(p_u * u + p_v * v, grid.h), grid.h)
            assert np.array_equal(w[1:-1], ref[1:-1]) and (w[0], w[-1]) == (ref[0], ref[-1])
