"""Self-test of the benchmark harness: each of its checks can fail.

Planted defects are wrappers installed on the package's module attributes
from outside; nothing under src/ is edited.  Run from the repository root:

    python3 -m pytest perfbench/test_selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pdae1d  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pdae1d import integrators, nonlinearity, scenarios, verification  # noqa: E402
from pdae1d.verification import PropertyReport  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = workloads.build(name, SEED, tmp_path_factory.mktemp(name))
        return cache[name]

    return get


def op_names(workload) -> set[str]:
    return {op.name for op in workload.operations}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_clean_pass_has_no_failures(built, name):
    _, failures = workloads.run_pass(built(name))
    assert failures == {}


def doubled_reaction():
    def make(fn):
        return lambda *args, **kwargs: fn(*args, **kwargs) * 2.0

    return tracing.patched(tracing.rebind("eval_reaction", (nonlinearity, integrators, pdae1d), make))


@pytest.mark.parametrize("name", ["mms_sweep", "scenario_artifacts"])
def test_doubled_reaction_fails_every_march_that_uses_it(built, name):
    workload = built(name)
    with doubled_reaction():
        _, failures = workloads.run_pass(workload)
    # picard_slab evaluates the reaction with its own running integral, so
    # this defect cannot reach the picard runs
    assert set(failures) == {op for op in op_names(workload) if "picard" not in op}


@pytest.mark.parametrize("check", workloads.CHECKS)
def test_forced_worst_value_fails_property_checks(built, check):
    def make(fn):
        def forced(*args, **kwargs):
            r = fn(*args, **kwargs)
            return PropertyReport(r.name, r.samples, 2.0 * abs(r.tolerance), r.tolerance, r.seed, r.observed)

        return forced

    workload = built("property_checks")
    with tracing.patched(tracing.rebind(f"check_{check}", (verification, pdae1d), make)):
        _, failures = workloads.run_pass(workload)
    assert set(failures) == {name for name in op_names(workload) if name.startswith(f"{check}/")}
    assert len(failures) == len(workloads.PROPERTY_SIZES) * (3 if check == "lipschitz" else 1)


def test_truncated_artifact_fails_scenario_artifacts(built):
    def make(fn):
        def truncating(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            if path.endswith("trajectory.csv"):
                with open(path) as fh:
                    lines = fh.readlines()
                with open(path, "w") as fh:
                    fh.writelines(lines[:-1])

        return truncating

    workload = built("scenario_artifacts")
    with tracing.patched(tracing.rebind("_write_table", (scenarios,), make)):
        _, failures = workloads.run_pass(workload)
    assert set(failures) == op_names(workload)


def test_raising_operation_counts_as_failed(built):
    def make(fn):
        def broken(*args, **kwargs):
            raise RuntimeError("planted")

        return broken

    workload = built("mms_sweep")
    with tracing.patched(tracing.rebind("solve", (integrators, scenarios, pdae1d), make)):
        _, failures = workloads.run_pass(workload)
    assert set(failures) == op_names(workload)
    assert all("planted" in problems[0] for problems in failures.values())


def test_seed_drives_inputs(tmp_path):
    first = workloads.write_custom_inputs(5, tmp_path / "a")
    again = workloads.write_custom_inputs(5, tmp_path / "b")
    other = workloads.write_custom_inputs(6, tmp_path / "c")
    for key in ("ic", "sources"):
        assert Path(first[key]).read_bytes() == Path(again[key]).read_bytes()
        assert Path(first[key]).read_bytes() != Path(other[key]).read_bytes()
    assert workloads.property_seeds(5) == workloads.property_seeds(5)
    assert workloads.property_seeds(5) != workloads.property_seeds(6)


def run_harness(*args, cwd=HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def test_traced_counts_repeat_across_runs():
    results = []
    for _ in range(2):
        proc = run_harness("--workload", "mms_sweep", "--seed", str(SEED), "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"]
        assert set(result["metrics"]) == {name for name, _ in tracing.per_layer_names()}
    for key in tracing.INTEGRITY_COUNTS:
        values = [result["metrics"][key]["value"] for result in results]
        assert values[0] > 0 and values[0] == values[1], key


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_ref_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_harness("--workload", "mms_sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
