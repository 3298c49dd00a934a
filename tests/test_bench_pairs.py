"""The statistics of tools/bench_pairs.py on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [0.600, 0.610, 0.590, 0.620, 0.605, 0.595, 0.615, 0.600, 0.612, 0.598]


def test_inclusive_quartiles_and_median():
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    got = bench_pairs.spread([4.0, 1.0, 3.0, 2.0])  # order does not matter
    assert got == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_a_gain_in_every_pair_beyond_the_parent_iqr_meets_the_rule():
    change = [p - 0.05 for p in PARENT]
    result = bench_pairs.compare(PARENT, change)
    assert result["pairs_change_lower"] == 10 and result["met"]
    assert result["median_gap"] == pytest.approx(0.05)
    assert result["parent_iqr"] == pytest.approx(0.6115 - 0.5985)  # sorted: 0.598 + 0.25 * 0.002, 0.610 + 0.75 * 0.002
    assert result["relative"] == pytest.approx(-0.05 / 0.6025)


def test_nine_of_ten_is_enough_and_eight_is_not():
    change = [p - 0.05 for p in PARENT]
    change[3] = PARENT[3] + 0.01
    assert bench_pairs.compare(PARENT, change)["met"]
    change[7] = PARENT[7]  # a tie is not a win
    result = bench_pairs.compare(PARENT, change)
    assert result["pairs_change_lower"] == 8 and not result["met"]
    assert result["median_gap"] > result["parent_iqr"]


def test_a_gap_inside_the_parent_iqr_fails_in_every_pair_won():
    change = [p - 0.005 for p in PARENT]
    result = bench_pairs.compare(PARENT, change)
    assert result["pairs_change_lower"] == 10 and not result["met"]
    assert 0 < result["median_gap"] < result["parent_iqr"]


def test_pairs_must_be_complete():
    with pytest.raises(ValueError):
        bench_pairs.compare(PARENT, PARENT[:-1])
    with pytest.raises(ValueError):
        bench_pairs.compare([0.5], [0.4])


def test_a_claim_names_a_workload_it_runs_and_an_end_to_end_metric():
    argv = ["--parent", "a", "--change", "b", "--label", "x", "--first-seed", "1", "--workload", "mms_sweep"]
    assert bench_pairs.parse_args(argv + ["--claim", "mms_sweep:wall_ref_s"]).claim == "mms_sweep:wall_ref_s"
    for claim in ("scenario_artifacts:wall_ref_s", "mms_sweep:spectral.dst.calls"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(argv + ["--claim", claim])
