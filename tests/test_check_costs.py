"""Smoke test of tools/check_costs.py, the command behind the per-check verify costs."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_costs.py"


def test_prints_one_row_per_check_with_every_size_and_a_total():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--repeats", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in out if line.startswith("| ")]
    assert rows[0] == ["check", "n = 16", "n = 64", "n = 256", "total"]
    assert [row[0] for row in rows[1:]] == ["dissipativity", "maximality", "semigroup", "lipschitz"]
    for row in rows[1:]:
        cells = [float(cell) for cell in row[1:]]
        assert all(ms > 0 for ms in cells)
        # with one round the total is the sum of the three printed cells
        assert abs(cells[3] - sum(cells[:3])) <= 0.21  # four roundings to 0.1
