import numpy as np
import pytest

from pdae1d import (
    CoefficientSet,
    Field,
    Grid1D,
    SourcePair,
    StatePair,
    cumulative_integral,
    eval_reaction,
    h1_seminorm,
    lipschitz_ratio,
    sine_mode,
    source_time_lipschitz,
    tabulated_sources,
    zero_sources,
)

BOUND = 4.0 * np.sqrt(3.0)


def random_state(grid, rng, norm=None):
    state = StatePair(
        Field(grid, rng.uniform(-1.0, 1.0, grid.n_interior)),
        Field(grid, rng.uniform(-1.0, 1.0, grid.n_interior)),
    )
    if norm is not None:
        state = state * (norm / state.norm())
    return state


class TestEvalReaction:
    def test_zero_state_zero_sources(self):
        grid = Grid1D(10)
        out = eval_reaction(StatePair.zeros(grid), 0.0, zero_sources(grid))
        assert np.all(out.u.values == 0.0) and np.all(out.v.values == 0.0)

    def test_zero_state_passes_sources_through(self):
        grid = Grid1D(12)
        f = sine_mode(grid, 2, 1.7)
        g = sine_mode(grid, 3, -0.4)
        sources = SourcePair(f=lambda t: f, g=lambda t: g)
        out = eval_reaction(StatePair.zeros(grid), 0.5, sources)
        np.testing.assert_array_equal(out.u.values, f.values)
        np.testing.assert_array_equal(out.v.values, g.values)

    def test_midpoint_value_for_equal_sines(self):
        # u = v = sin(pi x): first component at x = 1/2 is -2/pi
        grid = Grid1D(127)
        state = StatePair(sine_mode(grid, 1), sine_mode(grid, 1))
        out = eval_reaction(state, 0.0, zero_sources(grid))
        mid = 63  # x = 64/128 = 0.5
        assert grid.nodes[mid] == 0.5
        oracle = -np.sin(np.pi * 0.5) * np.trapezoid(
            2.0 * np.sin(np.pi * np.linspace(0.0, 0.5, 1_000_001)),
            np.linspace(0.0, 0.5, 1_000_001),
        )
        assert abs(oracle - (-0.63661977236758134307553505349005744814)) < 1e-12
        assert abs(out.u.values[mid] - oracle) < 2e-4

    def test_source_independence(self):
        grid = Grid1D(20)
        rng = np.random.default_rng(12)
        state = random_state(grid, rng)
        f1, g1 = sine_mode(grid, 1, 0.3), sine_mode(grid, 2, -0.7)
        f2, g2 = sine_mode(grid, 4, 1.1), sine_mode(grid, 5, 0.2)
        s1 = SourcePair(f=lambda t: f1, g=lambda t: g1)
        s2 = SourcePair(f=lambda t: f2, g=lambda t: g2)
        diff = eval_reaction(state, 0.0, s1) - eval_reaction(state, 0.0, s2)
        np.testing.assert_allclose(diff.u.values, (f1 - f2).values, rtol=0, atol=1e-14)
        np.testing.assert_allclose(diff.v.values, (g1 - g2).values, rtol=0, atol=1e-14)

    def test_sign_structure_for_nonnegative_states(self):
        grid = Grid1D(25)
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = StatePair(
                Field(grid, np.abs(rng.uniform(0.0, 1.0, 25))),
                Field(grid, np.abs(rng.uniform(0.0, 1.0, 25))),
            )
            out = eval_reaction(state, 0.0, zero_sources(grid))
            assert np.all(out.u.values <= 0.0)
            assert np.all(out.v.values >= 0.0)


    def test_stack_of_nodal_pairs_matches_each_pair(self):
        grid = Grid1D(20)
        rng = np.random.default_rng(23)
        c = CoefficientSet(p_u=0.7, p_v=-1.3)
        sources = SourcePair(f=lambda t: sine_mode(grid, 2, t), g=lambda t: sine_mode(grid, 5, -t))
        states = [random_state(grid, rng) for _ in range(3)]
        stack = np.array([[s.u.values, s.v.values] for s in states])
        out = eval_reaction(stack, 0.4, sources, c)
        assert out.shape == (3, 2, grid.n_interior)
        for s, row in zip(states, out):
            ref = eval_reaction(s, 0.4, sources, c)
            assert np.array_equal(row[0], ref.u.values) and np.array_equal(row[1], ref.v.values)


    def test_boundary_pairs_enter_the_running_integral(self):
        grid = Grid1D(20)
        rng = np.random.default_rng(29)
        c = CoefficientSet(p_u=0.7, p_v=-1.3)
        u = Field(grid, rng.uniform(-1.0, 1.0, grid.n_interior), boundary=(0.4, -2.0))
        v = Field(grid, rng.uniform(-1.0, 1.0, grid.n_interior), boundary=(1.5, 0.25))
        out = eval_reaction(StatePair(u, v), coefficients=c)
        integral = cumulative_integral(c.p_u * u + c.p_v * v).values
        assert np.array_equal(out.u.values, -u.values * integral)
        assert np.array_equal(out.v.values, v.values * integral)


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
        f = sine_mode(grid, 1, 4.0)
        with_sources = SourcePair(f=lambda t: f, g=lambda t: f)
        np.testing.assert_allclose(
            lipschitz_ratio(a, b, with_sources, 0.3), lipschitz_ratio(a, b), rtol=1e-12
        )

    def test_zero_vs_state(self):
        grid = Grid1D(30)
        rng = np.random.default_rng(17)
        b = random_state(grid, rng, norm=1.0)
        ratio = lipschitz_ratio(StatePair.zeros(grid), b)
        assert 0.0 < ratio <= BOUND * b.norm() + 1e-9

    def test_identical_states_rejected(self):
        grid = Grid1D(8)
        state = StatePair.zeros(grid)
        with pytest.raises(ValueError):
            lipschitz_ratio(state, state)


class TestH1Seminorm:
    def test_zero(self):
        assert h1_seminorm(Field.zeros(Grid1D(9))) == 0.0

    def test_sine_value(self):
        # |sin(pi x)|_1 = pi/sqrt(2), second-order accurate
        grid = Grid1D(127)
        value = h1_seminorm(sine_mode(grid, 1))
        assert abs(value - 2.2214414690791831235079404950303468493) < 1e-3

    def test_linear_ramp_with_boundary_override(self):
        grid = Grid1D(19)
        ramp = Field(grid, grid.nodes.copy(), boundary=(0.0, 1.0))
        np.testing.assert_allclose(h1_seminorm(ramp), 1.0, rtol=1e-12)

    def test_matches_laplacian_quadratic_form(self):
        # summation by parts: h*<u, Lap u> = -|u|_1^2 exactly
        from pdae1d import discrete_laplacian

        grid = Grid1D(41)
        rng = np.random.default_rng(18)
        u = Field(grid, rng.uniform(-1.0, 1.0, 41))
        inner = grid.h * np.dot(u.values, discrete_laplacian(u).values)
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
        np.testing.assert_allclose(midway.values, 0.5 * grid.nodes, rtol=1e-12)
        np.testing.assert_allclose(sources.g(0.25).values, -0.25, rtol=1e-12)

    def test_clamps_outside_range(self, tmp_path):
        grid = Grid1D(5)
        path = tmp_path / "sources.csv"
        self.write_table(path, grid, (0.0, 1.0), lambda t, x: t, lambda t, x: 0.0)
        sources = tabulated_sources(grid, str(path))
        np.testing.assert_allclose(sources.f(2.0).values, 1.0)
        np.testing.assert_allclose(sources.f(-1.0).values, 0.0)

    def test_interior_only_table_accepted(self, tmp_path):
        grid = Grid1D(6)
        path = tmp_path / "sources.csv"
        self.write_table(path, grid, (0.0,), lambda t, x: x, lambda t, x: x, full_nodes=False)
        sources = tabulated_sources(grid, str(path))
        np.testing.assert_allclose(sources.f(0.0).values, grid.nodes, rtol=1e-12)
        assert sources.f(0.0).boundary == (0.0, 0.0)

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

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0, 0.5, 1.0\n")
        with pytest.raises(ValueError):
            tabulated_sources(Grid1D(3), str(path))


def test_source_time_lipschitz_linear_rate(tmp_path):
    grid = Grid1D(9)
    amplitude = sine_mode(grid, 1)
    sources = SourcePair(
        f=lambda t: t * amplitude, g=lambda t: Field.zeros(grid), kind="custom"
    )
    rate = source_time_lipschitz(sources, np.linspace(0.0, 1.0, 5))
    np.testing.assert_allclose(rate, amplitude.l2_norm(), rtol=1e-12)
