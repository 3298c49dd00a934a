import math
import warnings

import numpy as np
import pytest

from pdae1d import (
    CoefficientSet,
    Field,
    Grid1D,
    MmsSpec,
    SourcePair,
    StatePair,
    build_mms_sources,
    cumulative_integral,
    eval_reaction,
    h1_seminorm,
    lipschitz_ratio,
    sine_mode,
    source_time_lipschitz,
    tabulated_sources,
    zero_sources,
)
from pdae1d.fields import pair_norm

BOUND = 4.0 * np.sqrt(3.0)


def random_state(grid, rng, norm=None):
    state = rng.uniform(-1.0, 1.0, (2, grid.n_interior))
    if norm is not None:
        state = (norm / pair_norm(state, grid.h)) * state
    return state


def mode(grid, k, amplitude=1.0):
    return sine_mode(grid, k, amplitude).values


class TestEvalReaction:
    def test_zero_state_zero_sources(self):
        grid = Grid1D(10)
        out = eval_reaction(np.zeros((2, 10)), 0.0, zero_sources(grid))
        assert np.all(out == 0.0)

    def test_zero_state_passes_sources_through(self):
        grid = Grid1D(12)
        f = mode(grid, 2, 1.7)
        g = mode(grid, 3, -0.4)
        sources = SourcePair(f=lambda t: f, g=lambda t: g)
        out = eval_reaction(np.zeros((2, 12)), 0.5, sources)
        np.testing.assert_array_equal(out[0], f)
        np.testing.assert_array_equal(out[1], g)

    def test_midpoint_value_for_equal_sines(self):
        # u = v = sin(pi x): first component at x = 1/2 is -2/pi
        grid = Grid1D(127)
        state = np.stack((mode(grid, 1), mode(grid, 1)))
        out = eval_reaction(state, 0.0, zero_sources(grid))
        mid = 63  # x = 64/128 = 0.5
        assert grid.nodes[mid] == 0.5
        oracle = -np.sin(np.pi * 0.5) * np.trapezoid(
            2.0 * np.sin(np.pi * np.linspace(0.0, 0.5, 1_000_001)),
            np.linspace(0.0, 0.5, 1_000_001),
        )
        assert abs(oracle - (-0.63661977236758134307553505349005744814)) < 1e-12
        assert abs(out[0, mid] - oracle) < 2e-4

    def test_source_independence(self):
        grid = Grid1D(20)
        rng = np.random.default_rng(12)
        state = random_state(grid, rng)
        f1, g1 = mode(grid, 1, 0.3), mode(grid, 2, -0.7)
        f2, g2 = mode(grid, 4, 1.1), mode(grid, 5, 0.2)
        s1 = SourcePair(f=lambda t: f1, g=lambda t: g1)
        s2 = SourcePair(f=lambda t: f2, g=lambda t: g2)
        diff = eval_reaction(state, 0.0, s1) - eval_reaction(state, 0.0, s2)
        np.testing.assert_allclose(diff[0], f1 - f2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(diff[1], g1 - g2, rtol=0, atol=1e-14)

    def test_sign_structure_for_nonnegative_states(self):
        grid = Grid1D(25)
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = np.stack(
                (np.abs(rng.uniform(0.0, 1.0, 25)), np.abs(rng.uniform(0.0, 1.0, 25)))
            )
            out = eval_reaction(state, 0.0, zero_sources(grid))
            assert np.all(out[0] <= 0.0)
            assert np.all(out[1] >= 0.0)

    def test_stack_of_nodal_pairs_matches_each_pair(self):
        grid = Grid1D(20)
        rng = np.random.default_rng(23)
        c = CoefficientSet(p_u=0.7, p_v=-1.3)
        sources = SourcePair(f=lambda t: mode(grid, 2, t), g=lambda t: mode(grid, 5, -t))
        states = [random_state(grid, rng) for _ in range(3)]
        stack = np.array(states)
        out = eval_reaction(stack, 0.4, sources, c)
        assert out.shape == (3, 2, grid.n_interior)
        for s, row in zip(states, out):
            ref = eval_reaction(s, 0.4, sources, c)
            assert np.array_equal(row[0], ref[0]) and np.array_equal(row[1], ref[1])

    def test_running_integral_is_the_cumulative_integral(self):
        grid = Grid1D(20)
        rng = np.random.default_rng(29)
        c = CoefficientSet(p_u=0.7, p_v=-1.3)
        u, v = random_state(grid, rng)
        out = eval_reaction(np.stack((u, v)), coefficients=c)
        mass = np.concatenate(([0.0], c.p_u * u + c.p_v * v, [0.0]))
        integral = cumulative_integral(mass, grid.h)[1:-1]
        assert np.array_equal(out[0], -u * integral)
        assert np.array_equal(out[1], v * integral)


class TestLipschitzRatio:
    def test_bound_on_unit_ball(self):
        grid = Grid1D(32)
        rng = np.random.default_rng(14)
        for _ in range(500):
            a = random_state(grid, rng, norm=1.0)
            b = random_state(grid, rng, norm=1.0)
            assert lipschitz_ratio(a, b) <= BOUND + 1e-9

    def test_homogeneous_scaling(self):
        grid = Grid1D(24)
        rng = np.random.default_rng(15)
        a = random_state(grid, rng)
        b = random_state(grid, rng)
        base = lipschitz_ratio(a, b)
        np.testing.assert_allclose(lipschitz_ratio(2.5 * a, 2.5 * b), 2.5 * base, rtol=1e-12)

    def test_source_invariance(self):
        grid = Grid1D(24)
        rng = np.random.default_rng(16)
        a = random_state(grid, rng)
        b = random_state(grid, rng)
        f = mode(grid, 1, 4.0)
        with_sources = SourcePair(f=lambda t: f, g=lambda t: f)
        np.testing.assert_allclose(
            lipschitz_ratio(a, b, with_sources, 0.3), lipschitz_ratio(a, b), rtol=1e-12
        )

    def test_zero_vs_state(self):
        grid = Grid1D(30)
        rng = np.random.default_rng(17)
        b = random_state(grid, rng, norm=1.0)
        ratio = lipschitz_ratio(np.zeros((2, 30)), b)
        assert 0.0 < ratio <= BOUND * pair_norm(b, grid.h) + 1e-9

    def test_identical_states_rejected(self):
        state = np.zeros((2, 8))
        with pytest.raises(ValueError):
            lipschitz_ratio(state, state)


class TestH1Seminorm:
    def test_zero(self):
        assert h1_seminorm(np.zeros(9)) == 0.0

    def test_sine_value(self):
        # |sin(pi x)|_1 = pi/sqrt(2), second-order accurate
        grid = Grid1D(127)
        value = h1_seminorm(mode(grid, 1))
        assert abs(value - 2.2214414690791831235079404950303468493) < 1e-3

    def test_matches_laplacian_quadratic_form(self):
        # summation by parts: h*<u, Lap u> = -|u|_1^2 exactly
        from pdae1d import discrete_laplacian

        grid = Grid1D(41)
        rng = np.random.default_rng(18)
        u = rng.uniform(-1.0, 1.0, 41)
        inner = grid.h * np.dot(u, discrete_laplacian(u))
        np.testing.assert_allclose(inner, -h1_seminorm(u) ** 2, rtol=1e-12)


class TestCoefficientSet:
    def test_defaults_are_unit(self):
        c = CoefficientSet()
        assert (c.d_u, c.d_v, c.p_u, c.p_v) == (1.0, 1.0, 1.0, 1.0)

    def test_rejects_nonpositive_diffusion(self):
        with pytest.raises(ValueError):
            CoefficientSet(d_u=0.0)
        with pytest.raises(ValueError):
            CoefficientSet(d_v=-1.0)

    @pytest.mark.parametrize("name", ["d_u", "d_v", "p_u", "p_v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficients(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            CoefficientSet(**{name: value})


class TestTabulatedSources:
    def write_table(self, path, grid, times, fn_f, fn_g, full_nodes=True):
        xs = grid.nodes_full if full_nodes else grid.nodes
        with open(path, "w") as fh:
            fh.write("# t x f g\n")
            for t in times:
                for x in xs:
                    fh.write(f"{float(t)!r},{float(x)!r},{float(fn_f(t, x))!r},{float(fn_g(t, x))!r}\n")

    def test_linear_time_interpolation(self, tmp_path):
        grid = Grid1D(7)
        path = tmp_path / "sources.csv"
        self.write_table(path, grid, (0.0, 1.0), lambda t, x: t * x, lambda t, x: -t)
        sources = tabulated_sources(grid, str(path))
        assert sources.kind == "custom-tabulated"
        midway = sources.f(0.5)
        np.testing.assert_allclose(midway, 0.5 * grid.nodes, rtol=1e-12)
        np.testing.assert_allclose(sources.g(0.25), -0.25, rtol=1e-12)

    def test_clamps_outside_range(self, tmp_path):
        grid = Grid1D(5)
        path = tmp_path / "sources.csv"
        self.write_table(path, grid, (0.0, 1.0), lambda t, x: t, lambda t, x: 0.0)
        sources = tabulated_sources(grid, str(path))
        np.testing.assert_allclose(sources.f(2.0), 1.0)
        np.testing.assert_allclose(sources.f(-1.0), 0.0)

    def test_interior_only_table_accepted(self, tmp_path):
        grid = Grid1D(6)
        path = tmp_path / "sources.csv"
        self.write_table(path, grid, (0.0,), lambda t, x: x, lambda t, x: x, full_nodes=False)
        sources = tabulated_sources(grid, str(path))
        np.testing.assert_allclose(sources.f(0.0), grid.nodes, rtol=1e-12)

    def test_misaligned_nodes_rejected(self, tmp_path):
        grid = Grid1D(6)
        path = tmp_path / "sources.csv"
        with open(path, "w") as fh:
            for x in 0.95 * grid.nodes_full:  # right row count, shifted positions
                fh.write(f"0.0 {x!r} 1.0 1.0\n")
        with pytest.raises(ValueError):
            tabulated_sources(grid, str(path))

    def test_wrong_row_count_rejected(self, tmp_path):
        grid = Grid1D(6)
        path = tmp_path / "sources.csv"
        self.write_table(path, Grid1D(7), (0.0,), lambda t, x: x, lambda t, x: x)
        with pytest.raises(ValueError):
            tabulated_sources(grid, str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entries_rejected_with_the_file_name(self, tmp_path, bad):
        grid = Grid1D(5)
        path = tmp_path / "nonfinite.csv"
        self.write_table(path, grid, (0.0, 1.0), lambda t, x: t * x, lambda t, x: 1.0)
        lines = path.read_text().splitlines()
        t, x, f, g = lines[9].split(",")
        lines[9] = ",".join((t, x, f, bad) if bad == "nan" else (t, x, bad, g))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="nonfinite.csv: table entries must be finite"):
            tabulated_sources(grid, str(path))

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0, 0.5, 1.0\n")
        with pytest.raises(ValueError):
            tabulated_sources(Grid1D(3), str(path))


def test_source_time_lipschitz_linear_rate(tmp_path):
    grid = Grid1D(9)
    amplitude = mode(grid, 1)
    sources = SourcePair(f=lambda t: t * amplitude, g=lambda t: np.zeros(9), kind="custom")
    rate = source_time_lipschitz(sources, np.linspace(0.0, 1.0, 5))
    np.testing.assert_allclose(rate, np.sqrt(grid.h * np.dot(amplitude, amplitude)), rtol=1e-12)


def test_source_time_lipschitz_overflow_is_inf_without_a_warning():
    grid = Grid1D(9)
    huge = np.full(9, 1e308)
    sources = SourcePair(f=lambda t: t * huge, g=lambda t: t * huge, kind="custom")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert source_time_lipschitz(sources, (0.0, 1.0)) == math.inf


def test_source_presets_return_read_only_float_arrays(tmp_path):
    grid = Grid1D(6)
    path = tmp_path / "sources.csv"
    TestTabulatedSources().write_table(path, grid, (0.0, 1.0), lambda t, x: t * x, lambda t, x: t)
    tabulated = tabulated_sources(grid, str(path))
    mms = build_mms_sources(MmsSpec(), grid)
    for sources in (zero_sources(grid), tabulated, mms):
        for t in (-1.0, 0.0, 0.5, 2.0):  # clamped, a slab, interpolated, clamped
            for value in (sources.f(t), sources.g(t)):
                assert value.dtype == float and value.shape == (6,)
                with pytest.raises(ValueError, match="read-only"):
                    value[0] = 1.0


class TestStackedForms:
    """Array stacks give the per-pair results bit for bit."""

    SIZES = [1, 2, 16, 63, 256]

    @pytest.mark.parametrize("n", SIZES)
    def test_lipschitz_ratio(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.uniform(-1.0, 1.0, (2, 5, 2, n))
        c = CoefficientSet(p_u=0.5, p_v=2.0)
        ratios = lipschitz_ratio(a, b, coefficients=c)
        assert ratios.shape == (5,)
        for i in range(5):
            single = lipschitz_ratio(a[i].copy(), b[i].copy(), coefficients=c)
            assert isinstance(single, float) and ratios[i] == single

    def test_lipschitz_ratio_rejects_a_coinciding_pair(self):
        a = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2, 8))
        b = a.copy()
        b[:2] += 0.5
        with pytest.raises(ValueError):
            lipschitz_ratio(a, b)

    @pytest.mark.parametrize("n", SIZES)
    def test_h1_seminorm(self, n):
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (3, 2, n))
        out = h1_seminorm(stack)
        assert out.shape == (3, 2)
        for row in np.ndindex(3, 2):
            assert out[row] == h1_seminorm(stack[row].copy())

    @pytest.mark.parametrize("n", SIZES)
    def test_pair_norm(self, n):
        grid = Grid1D(n)
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (4, 3, 2, n))
        out = pair_norm(stack, grid.h)
        assert out.shape == (4, 3)
        for row in np.ndindex(4, 3):
            state = StatePair(Field(grid, stack[row][0]), Field(grid, stack[row][1]))
            assert out[row] == state.norm()
