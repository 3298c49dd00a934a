"""Smoke test of tools/step_costs.py, the command behind the per-layer step costs."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_costs.py"


def test_prints_one_row_per_size_with_every_cost():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    rows = [line.split("|")[1:-1] for line in out if line.startswith("| ")]
    assert [row[0].split()[0] for row in rows] == ["n", "7", "15", "63", "128", "255", "256"]
    for row in rows[1:]:
        assert len(row) == 7
        assert [len(cell.split()) for cell in row[1:]] == [1, 1, 2, 2, 1, 1]
        assert float(row[3].split()[1].strip("()")) >= 1.0  # Picard sweeps per slab
        # the sources per step of a block, below a Picard slab's share of a block of its four substep times
        per_step, per_slab = (float(value.strip("()")) for value in row[4].split())
        assert 0 < per_step < per_slab
        assert all(float(cell.split()[0]) > 0 for cell in row[1:])

