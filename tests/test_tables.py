"""Property tests of the one node-table reader behind IC files and source tables."""

import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdae1d
from pdae1d import Grid1D
from pdae1d.nonlinearity import read_node_table

PROFILE = ("x", "u", "v")
SOURCES = ("t", "x", "f", "g")
SEPARATORS = (" ", "  ", "\t", ",", ", ", " ,")
CORRUPTIONS = ("none", "columns", "misaligned", "duplicate_x", "non_finite", "nonzero_end")
# what a profile may hold at its Dirichlet ends x = 0 and x = 1 at any interior scale:
# zero within 1e-12 * max(1, largest interior |value|)
END_VALUES = (0.0, -0.0, 1e-13, -1e-12, 1e-12)

finite = st.floats(allow_nan=False, allow_infinity=False)


def read(text, grid, columns):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "table.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return read_node_table(path, grid, columns)


@st.composite
def tables(draw):
    """(text, grid, columns, expected times, expected values or None if invalid)."""
    n = draw(st.integers(1, 9))
    grid = Grid1D(n)
    columns = draw(st.sampled_from((PROFILE, SOURCES)))
    keyed = columns is SOURCES
    times = sorted(draw(st.sets(finite, min_size=1, max_size=3))) if keyed else [None]
    slabs, rows = [], []
    for t in times:
        full = draw(st.booleans())
        nodes = grid.nodes_full if full else grid.nodes
        values = draw(st.lists(st.tuples(finite, finite), min_size=len(nodes), max_size=len(nodes)))
        if full and not keyed:
            ends = st.tuples(st.sampled_from(END_VALUES), st.sampled_from(END_VALUES))
            values[0], values[-1] = draw(ends), draw(ends)
        slab = [([t] if keyed else []) + [float(x), a, b] for x, (a, b) in zip(nodes, values)]
        rows.append(slab)
        slabs.append(np.array(values[1:-1] if full else values).T)

    corruption = draw(st.sampled_from(CORRUPTIONS))
    slab = rows[draw(st.integers(0, len(rows) - 1))]
    row = slab[draw(st.integers(0, len(slab) - 1))]
    x_col = 1 if keyed else 0
    if corruption == "columns":
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(finite))
    elif corruption == "misaligned":
        row[x_col] += draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-9, 1e-3))
    elif corruption == "duplicate_x":
        if len(slab) < 2:
            corruption = "none"
        else:
            other = slab[draw(st.integers(0, len(slab) - 1).filter(lambda i: slab[i] is not row))]
            row[x_col] = other[x_col]
    elif corruption == "nonzero_end":
        if keyed or len(slab) == n:
            corruption = "none"  # only a profile listing all nodes has checked ends
        else:
            end = slab[draw(st.sampled_from((0, -1)))]
            sign = draw(st.sampled_from((-1.0, 1.0)))
            end[draw(st.sampled_from((1, 2)))] = value = sign * draw(st.floats(2e-12, 1e300))
            if abs(value) <= 1e-12 * max(1.0, max(abs(v) for r in slab[1:-1] for v in r[1:])):
                corruption = "none"  # inside the slack of a large interior
    elif corruption == "non_finite":
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))

    lines = [row for slab in rows for row in slab]
    lines = draw(st.permutations(lines))
    text_lines = []
    for row in lines:
        sep = draw(st.sampled_from(SEPARATORS))
        line = sep.join(repr(float(v)) for v in row)
        if draw(st.booleans()):
            line += draw(st.sampled_from(("", " ", "\t"))) + "# " + draw(st.text("abc ,#", max_size=8))
        text_lines.append(line)
        for _ in range(draw(st.integers(0, 2))):
            text_lines.append(draw(st.sampled_from(("", "   ", "# comment", "#", "\t# x u, v"))))
    expected = None if corruption != "none" else np.array(slabs)
    return "\n".join(text_lines) + "\n", grid, columns, times, expected


@settings(max_examples=300, deadline=None)
@given(tables())
def test_reader_returns_grid_ordered_values_or_raises_value_error(case):
    text, grid, columns, times, expected = case
    try:
        got_times, values = read(text, grid, columns)
    except ValueError:
        assert expected is None
        return
    assert expected is not None
    assert np.array_equal(values, expected)
    if columns is SOURCES:
        assert np.array_equal(got_times, times)
    else:
        assert got_times is None


@settings(max_examples=200, deadline=None)
@given(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=200),
    st.integers(1, 4),
    st.sampled_from((PROFILE, SOURCES)),
)
def test_arbitrary_text_never_raises_anything_but_value_error(text, n, columns):
    try:
        read(text, Grid1D(n), columns)
    except ValueError:
        pass


def test_profile_ends_must_be_zero_and_source_ends_are_dropped():
    grid = Grid1D(3)
    interior = "".join(f"{x!r} 0.5 -0.5\n" for x in grid.nodes.tolist())
    for u0, v1 in ((0.0, 0.0), (-1e-12, 1e-12)):
        _, values = read(f"0.0 {u0!r} 0.0\n{interior}1.0 0.0 {v1!r}\n", grid, PROFILE)
        assert np.array_equal(values, [[[0.5] * 3, [-0.5] * 3]])
    for u0, v1 in ((1.0, 0.0), (0.0, -1.1e-12), (1e300, 0.0)):
        with pytest.raises(ValueError, match="must be 0"):
            read(f"0.0 {u0!r} 0.0\n{interior}1.0 0.0 {v1!r}\n", grid, PROFILE)
    # the slack scales with the interior: A*sin(pi*x) on all nodes, A*1.2e-16 at x = 1
    for amplitude in (1e4, 1e200):
        u = amplitude * np.sin(np.pi * grid.nodes_full)
        assert u[-1] > 1e-12
        rows = [f"{x!r} {a!r} {-a!r}\n" for x, a in zip(grid.nodes_full.tolist(), u.tolist())]
        _, values = read("".join(rows), grid, PROFILE)
        assert np.array_equal(values, [[u[1:-1], -u[1:-1]]])
        with pytest.raises(ValueError, match="must be 0"):
            read("".join(rows[:-1]) + f"1.0 {2e-12 * amplitude!r} 0.0\n", grid, PROFILE)
    slab = "".join(f"0.0 {x!r} 2.0 {-x!r}\n" for x in grid.nodes_full.tolist())
    _, values = read(slab, grid, SOURCES)
    assert np.array_equal(values, [[[2.0] * 3, -grid.nodes]])


def test_slab_times_are_those_np_unique_gives():
    # the rows of one slab may write its time t = 0 as 0.0 or as -0.0
    grid = Grid1D(3)
    for zeros in ((0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0,) * 3, (0.0, 0.0, -0.0)):
        column = [t for slab in (zeros, (0.5,) * 3, (-1e-300,) * 3) for t in slab]
        rows = zip(column, grid.nodes.tolist() * 3)
        got, values = read("".join(f"{t!r} {x!r} 1.0 {t!r}\n" for t, x in rows), grid, SOURCES)
        expected = np.unique(np.array(column))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert values.shape == (3, 2, 3)


def test_reading_a_table_does_not_import_numpy_ma(tmp_path):
    grid = Grid1D(3)
    path = tmp_path / "sources.txt"
    path.write_text("".join(f"{t!r} {x!r} 1.0 {t!r}\n" for t in (0.0, 0.5) for x in grid.nodes.tolist()))
    script = (
        "import sys\n"
        "from pdae1d import Grid1D\n"
        "from pdae1d.nonlinearity import tabulated_sources\n"
        "import numpy as np\n"
        f"tabulated_sources(Grid1D(3), {str(path)!r}).f(np.array([0.25]))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    source = os.path.dirname(os.path.dirname(pdae1d.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "False"
