"""Tier-1 guard for the names and forms the benchmark harness relies on.

``perfbench/tracing.py`` puts wrappers on module bindings of pdae1d and
raises if a wrapped name is missing or differs between the modules that
bind it.  This test imports it read-only and checks that the wrappers see
what the per-layer metrics assume: every Picard slab goes through
``integrators.picard_slab``, and exponential Euler and IMEX evaluate the
reaction through ``integrators.eval_reaction`` once per step.  It also
runs ``perfbench/workloads.py``'s artifact check, which rebuilds the last
snapshot as a ``StatePair`` and recomputes its profile and report, on the
artifacts of short runs, and checks that ``trajectory.csv`` is written by
one call of ``scenarios._write_table`` with the path first, where the
benchmark's self-test plants a truncated table, and that a convergence
level builds a ``Field``: the self-test requires a nonzero Field count on
the benchmark's sweeps.
"""

import importlib
import sys
from pathlib import Path

import pytest

import pdae1d
from pdae1d import Grid1D, MmsSpec, ScenarioConfig, SolveConfig, cli, scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_perfbench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


@pytest.fixture
def tracing(monkeypatch):
    return import_perfbench(monkeypatch, "tracing")


@pytest.fixture
def workloads(monkeypatch):
    return import_perfbench(monkeypatch, "workloads")


@pytest.mark.parametrize("method", ["exp_euler", "imex", "picard"])
def test_traced_march_counts(tracing, method):
    grid = Grid1D(15)
    spec = MmsSpec()
    cfg = SolveConfig(dt=0.01, t_end=0.02, method=method)
    tracer = tracing.Tracer()
    # installed() builds every replacement, which raises if a wrapped name is
    # missing or differs between the modules that bind it
    with tracer.installed():
        # looked up on the package at call time, as the benchmark's workloads do
        state0 = pdae1d.mms_state(spec, grid, 0.0)
        traj = pdae1d.solve(state0, cfg, pdae1d.build_mms_sources(spec, grid))
    calls, _ = tracer.span_totals()
    assert traj.status.kind == "completed" and tracer.counts["integrators.steps"] == 2
    if method == "picard":
        assert tracer.counts["integrators.picard_sweeps"] > 0
        assert calls["integrators.picard_slab"] == 2
        assert calls["nonlinearity.eval_reaction"] == 0
    else:
        assert tracer.counts["integrators.picard_sweeps"] == 0
        assert calls["nonlinearity.eval_reaction"] == 2


@pytest.mark.parametrize("scenario, method", [("decay", "exp_euler"), ("mms", "picard")])
def test_artifact_check_passes_and_catches_a_planted_w_at_1(workloads, scenario, method, tmp_path):
    argv = ["run", "--scenario", scenario, "--method", method, "--n-interior", "15"]
    code = cli.main(argv + ["--t-end", "0.01", "--output-dir", str(tmp_path)])
    problems, seen, state = workloads.check_artifacts(code, tmp_path, 0)
    assert problems == [] and seen["status"] == "completed" and state.grid == Grid1D(15)
    path = tmp_path / "constraint.csv"
    lines = path.read_text().splitlines()
    t, residual, w_at_1 = lines[-1].split()
    lines[-1] = f"{t} {residual} {float(w_at_1) * (1.0 + 1e-9)!r}"
    path.write_text("\n".join(lines) + "\n")
    problems, _, _ = workloads.check_artifacts(code, tmp_path, 0)
    assert problems == ["constraint.csv w_at_1 differs from the recomputed final profile"]


@pytest.mark.parametrize("method", ["exp_euler", "picard"])
def test_trajectory_is_written_through_the_write_table_binding(tracing, method, tmp_path):
    written = {}

    def make(fn):
        def recording(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            written[Path(path).name] = Path(path).read_text()

        return recording

    argv = ["run", "--method", method, "--n-interior", "7", "--t-end", "0.02"]
    with tracing.patched(tracing.rebind("_write_table", (scenarios,), make)):
        code = cli.main(argv + ["--output-dir", str(tmp_path)])
    text = (tmp_path / "trajectory.csv").read_text()
    assert code == 0 and written["trajectory.csv"] == text
    assert text.splitlines()[1] == "# t x u v w" and len(text.splitlines()) == 2 + 21 * 9


def test_a_convergence_level_builds_a_field(tracing, tmp_path):
    # the benchmark's mms_sweep makes one-level run_convergence calls, and its
    # self-test requires fields.Field.constructions > 0 on them: the count
    # comes from the initial state, built as a StatePair of two Fields
    cfg = ScenarioConfig(scenario="mms", n_interior=7, dt=0.01, t_end=0.02, output_dir=str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed():
        scenarios.run_convergence(cfg, dt_levels=(0.01,))
    assert tracer.counts["fields.Field.constructions"] > 0
