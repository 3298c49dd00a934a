import numpy as np
import pytest

from pdae1d import Field, Grid1D, StatePair
from pdae1d.fields import pair_norm


def random_pair(n, seed):
    grid = Grid1D(n)
    u, v = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, n))
    return StatePair(Field(grid, u), Field(grid, v))


class TestField:
    def test_is_a_frozen_grid_and_values_record(self):
        grid = Grid1D(4)
        field = Field(grid, [1, 2, 3, 4])
        assert field.grid == grid and field.values.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            field.values[0] = 0.0

    @pytest.mark.parametrize(
        "values", [np.ones(3), np.ones(5), np.ones((1, 4)), [0.0, np.nan, 0.0, 0.0]]
    )
    def test_wrong_shape_or_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError):
            Field(Grid1D(4), values)


class TestStatePair:
    def test_values_stack_u_over_v(self):
        pair = random_pair(6, 1)
        assert pair.values.shape == (2, 6)
        assert np.array_equal(pair.values[0], pair.u.values)
        assert np.array_equal(pair.values[1], pair.v.values)
        assert pair.norm() == pair_norm(pair.values, pair.grid.h)

    def test_difference_on_one_grid(self):
        a, b = random_pair(6, 2), random_pair(6, 3)
        diff = a - b
        assert diff.grid == a.grid
        assert np.array_equal(diff.values, a.values - b.values)

    @pytest.mark.parametrize("m", [1, 5, 7])
    def test_difference_across_grids_raises(self, m):
        # an n = 1 pair would broadcast against any (2, n) array
        a, b = random_pair(6, 4), random_pair(m, 5)
        for left, right in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="different grids"):
                left - right
