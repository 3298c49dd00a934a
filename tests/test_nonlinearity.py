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


def held(value):
    """A source component that is ``value`` (n,) at every time: a read-only (K, n) view."""
    return lambda times: np.broadcast_to(value, (len(times),) + value.shape)


def at(sources, t):
    """The (2, n) values of a source pair at the one time t, through one-element calls."""
    times = np.array([t])
    return np.stack((sources.f(times)[0], sources.g(times)[0]))


class TestEvalReaction:
    def test_zero_state_zero_sources(self):
        grid = Grid1D(10)
        out = eval_reaction(np.zeros((2, 10)), at(zero_sources(grid), 0.0))
        assert np.all(out == 0.0)

    def test_zero_state_passes_sources_through(self):
        grid = Grid1D(12)
        f = mode(grid, 2, 1.7)
        g = mode(grid, 3, -0.4)
        sources = SourcePair(f=held(f), g=held(g))
        out = eval_reaction(np.zeros((2, 12)), at(sources, 0.5))
        np.testing.assert_array_equal(out[0], f)
        np.testing.assert_array_equal(out[1], g)

    def test_midpoint_value_for_equal_sines(self):
        # u = v = sin(pi x): first component at x = 1/2 is -2/pi
        grid = Grid1D(127)
        state = np.stack((mode(grid, 1), mode(grid, 1)))
        out = eval_reaction(state, at(zero_sources(grid), 0.0))
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
        s1 = SourcePair(f=held(f1), g=held(g1))
        s2 = SourcePair(f=held(f2), g=held(g2))
        diff = eval_reaction(state, at(s1, 0.0)) - eval_reaction(state, at(s2, 0.0))
        np.testing.assert_allclose(diff[0], f1 - f2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(diff[1], g1 - g2, rtol=0, atol=1e-14)

    def test_sign_structure_for_nonnegative_states(self):
        grid = Grid1D(25)
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = np.stack(
                (np.abs(rng.uniform(0.0, 1.0, 25)), np.abs(rng.uniform(0.0, 1.0, 25)))
            )
            out = eval_reaction(state, at(zero_sources(grid), 0.0))
            assert np.all(out[0] <= 0.0)
            assert np.all(out[1] >= 0.0)

    def test_stack_of_nodal_pairs_matches_each_pair(self):
        grid = Grid1D(20)
        rng = np.random.default_rng(23)
        c = CoefficientSet(p_u=0.7, p_v=-1.3)
        sources = SourcePair(
            f=lambda times: np.stack([mode(grid, 2, t) for t in times]),
            g=lambda times: np.stack([mode(grid, 5, -t) for t in times]),
        )
        states = [random_state(grid, rng) for _ in range(3)]
        stack = np.array(states)
        out = eval_reaction(stack, at(sources, 0.4), c)
        assert out.shape == (3, 2, grid.n_interior)
        for s, row in zip(states, out):
            ref = eval_reaction(s, at(sources, 0.4), c)
            assert np.array_equal(row[0], ref[0]) and np.array_equal(row[1], ref[1])
        # a stack of source values, one (2, n) row per state
        times = (0.1, 0.4, 0.9)
        out = eval_reaction(stack, np.stack([at(sources, t) for t in times]), c)
        for s, t, row in zip(states, times, out):
            assert np.array_equal(row, eval_reaction(s, at(sources, t), c))

    @pytest.mark.parametrize("p", [(1.0, 1.0), (0.7, -1.3)])
    def test_out_gives_the_allocating_call_bit_for_bit(self, p):
        grid = Grid1D(20)
        rng = np.random.default_rng(31)
        c = CoefficientSet(p_u=p[0], p_v=p[1])
        stack = rng.uniform(-1.0, 1.0, (4, 2, grid.n_interior))
        stack[0, 1, 3] = -0.0
        stack[1, 0, 5] = 5e-324
        for sources in (None, rng.uniform(-1.0, 1.0, stack.shape), stack[0]):
            expected = eval_reaction(stack, sources, c)
            into = np.full(stack.shape, np.nan)
            assert eval_reaction(stack, sources, c, out=into) is into
            in_place = stack.copy()
            assert eval_reaction(in_place, sources, c, out=in_place) is in_place
            for got in (into, in_place):
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))

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

    @pytest.mark.parametrize("name", ["d_u", "d_v", "p_u", "p_v"])
    @pytest.mark.parametrize("value", ["1", True])
    def test_rejects_a_string_or_bool_coefficient_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"config key '{name}': {name} must be float, got {value!r}"):
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
        midway = at(sources, 0.5)[0]
        np.testing.assert_allclose(midway, 0.5 * grid.nodes, rtol=1e-12)
        np.testing.assert_allclose(at(sources, 0.25)[1], -0.25, rtol=1e-12)

    def test_clamps_outside_range(self, tmp_path):
        grid = Grid1D(5)
        path = tmp_path / "sources.csv"
        self.write_table(path, grid, (0.0, 1.0), lambda t, x: t, lambda t, x: 0.0)
        sources = tabulated_sources(grid, str(path))
        np.testing.assert_allclose(at(sources, 2.0)[0], 1.0)
        np.testing.assert_allclose(at(sources, -1.0)[0], 0.0)

    def test_interior_only_table_accepted(self, tmp_path):
        grid = Grid1D(6)
        path = tmp_path / "sources.csv"
        self.write_table(path, grid, (0.0,), lambda t, x: x, lambda t, x: x, full_nodes=False)
        sources = tabulated_sources(grid, str(path))
        np.testing.assert_allclose(at(sources, 0.0)[0], grid.nodes, rtol=1e-12)

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
    sources = SourcePair(f=lambda times: times[:, None] * amplitude, g=held(np.zeros(9)), kind="custom")
    rate = source_time_lipschitz(sources, np.linspace(0.0, 1.0, 5))
    np.testing.assert_allclose(rate, np.sqrt(grid.h * np.dot(amplitude, amplitude)), rtol=1e-12)


def test_source_time_lipschitz_overflow_is_inf_without_a_warning():
    grid = Grid1D(9)
    huge = np.full(9, 1e308)
    ramp = lambda times: times[:, None] * huge  # noqa: E731
    sources = SourcePair(f=ramp, g=ramp, kind="custom")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert source_time_lipschitz(sources, (0.0, 1.0)) == math.inf


def test_source_presets_return_read_only_float_arrays(tmp_path):
    grid = Grid1D(6)
    path = tmp_path / "sources.csv"
    TestTabulatedSources().write_table(path, grid, (0.0, 1.0), lambda t, x: t * x, lambda t, x: t)
    tabulated = tabulated_sources(grid, str(path))
    mms = build_mms_sources(MmsSpec(), grid)
    times = np.array([-1.0, 0.0, 0.5, 2.0])  # clamped, a slab, interpolated, clamped
    for sources in (zero_sources(grid), tabulated, mms):
        for k in (1, 4):
            for value in (sources.f(times[:k]), sources.g(times[:k])):
                assert value.dtype == float and value.shape == (k, 6)
                with pytest.raises(ValueError, match="read-only"):
                    value[0, 0] = 1.0


class TestStackedForms:
    """Array stacks give the per-pair results bit for bit."""

    SIZES = [1, 2, 16, 63, 256]

    @pytest.mark.parametrize("n", SIZES)
    def test_lipschitz_ratio(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.uniform(-1.0, 1.0, (2, 5, 2, n))
        ratios = lipschitz_ratio(a, b)
        assert ratios.shape == (5,)
        for i in range(5):
            single = lipschitz_ratio(a[i].copy(), b[i].copy())
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
