"""The statistics of tools/bench_pairs.py on synthetic pairs of runs."""

import importlib.util
import json
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


def fake_harness(calls, setup_seconds, traced_seconds=None):
    """A stand-in for ``run_harness``: records each call and answers with synthetic runs."""
    answers = {side: iter(seconds) for side, seconds in setup_seconds.items()}
    traced = {side: iter(seconds) for side, seconds in (traced_seconds or {}).items()}

    def run(checkout, workload, seed, *options):
        side = Path(checkout).name
        calls.append((side, workload, seed, options))
        if options == ("--setup-only",):
            return {"setup_s": next(answers[side])}
        if options[-2:] == ("--trace", "1"):
            metrics = {"spectral.dst.calls.n64": {"value": 40, "unit": "count"},
                       "spectral.dst.self_s.n64": {"value": next(traced[side]), "unit": "s"}}
            return {"correct": True, "failed": 0, "attempted": 10, "metrics": metrics}
        metrics = {m: {"value": 1.0 if side == "parent" else 0.9} for m in bench_pairs.METRICS}
        return {"correct": True, "failed": 0, "attempted": 10, "metrics": metrics}

    return run


def test_setup_runs_alternate_on_the_workload_seeds(monkeypatch):
    calls = []
    setups = {"parent": [0.130, 0.128, 0.135, 0.131, 0.129], "change": [0.120, 0.119, 0.125, 0.118, 0.130]}
    monkeypatch.setattr(bench_pairs, "run_harness", fake_harness(calls, setups))
    checkouts = {"parent": Path("x/parent"), "change": Path("x/change")}
    seeds = bench_pairs.cycled([7, 8], 5)
    out = bench_pairs.run_setups(checkouts, "mms_sweep", seeds, lambda line: None)
    assert [(side, seed) for side, _, seed, _ in calls] == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8), ("parent", 7), ("change", 7),
        ("change", 8), ("parent", 8), ("parent", 7), ("change", 7)]
    assert all(call[1:] == ("mms_sweep", call[2], ("--setup-only",)) for call in calls)
    assert out["seeds"] == [7, 8, 7, 8, 7] and out["first"] == ["parent", "change", "parent", "change", "parent"]
    for side in bench_pairs.SIDES:
        assert out[side] == {"runs": setups[side], **bench_pairs.spread(setups[side])}
    assert out["comparison"] == bench_pairs.compare(setups["parent"], setups["change"])
    assert out["comparison"]["pairs_change_lower"] == 4 and not out["comparison"]["met"]


def test_a_record_holds_the_setup_and_traced_runs_beside_the_pairs(monkeypatch, tmp_path):
    calls = []
    pairs = bench_pairs.SETUP_PAIRS
    setups = {"parent": [0.13 + 0.001 * (i % 3) for i in range(pairs)],
              "change": [0.12 + 0.001 * (i % 3) for i in range(pairs)]}
    traced = {"parent": [0.004, 0.006, 0.005], "change": [0.003, 0.002, 0.0035]}
    monkeypatch.setattr(bench_pairs, "run_harness", fake_harness(calls, setups, traced))
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", "parent", "--change", "change", "--label", "t", "--first-seed", "40",
            "--workload", "property_checks", "--pairs", "2", "--seconds", "2", "--traced"]
    assert bench_pairs.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    workload = record["workloads"]["property_checks"]
    assert workload["seeds"] == [40, 41] and workload["setup_only"]["seeds"] == bench_pairs.cycled([40, 41], pairs)
    assert workload["setup_only"]["comparison"]["pairs_change_lower"] == pairs
    assert workload["setup_only"]["comparison"]["met"]  # gap 0.01 > parent IQR 0.001
    assert workload["comparison"]["wall_ref_s"]["pairs_change_lower"] == 2
    assert record["setup_command"].endswith("--setup-only")
    assert workload["traced"]["seeds"] == bench_pairs.cycled([40, 41], bench_pairs.TRACED_PAIRS) == [40, 41, 40]
    for side in bench_pairs.SIDES:
        runs = workload["traced"][side]["runs"]
        assert [run["metrics"]["spectral.dst.self_s.n64"] for run in runs] == traced[side]
        assert workload["traced"][side]["median"] == {"spectral.dst.calls.n64": 40,
                                                       "spectral.dst.self_s.n64": sorted(traced[side])[1]}
    options = [call[3] for call in calls]
    assert options.count(("--setup-only",)) == 2 * pairs
    assert options.count(("--seconds", "2.0", "--trace", "0")) == 4
    assert options.count(("--seconds", "2.0", "--trace", "1")) == 2 * bench_pairs.TRACED_PAIRS
