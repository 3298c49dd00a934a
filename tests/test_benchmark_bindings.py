"""Tier-1 guard for the names and forms the benchmark harness relies on.

``perfbench/tracing.py`` puts wrappers on module bindings of pdae1d and
raises if a wrapped name is missing or differs between the modules that
bind it.  This test imports it read-only and checks that the wrappers see
what the per-layer metrics assume: every Picard slab goes through
``integrators.picard_slab``, and exponential Euler and IMEX evaluate the
reaction through ``integrators.eval_reaction`` once per step.  It also
runs ``perfbench/workloads.py``'s artifact check, which rebuilds the last
snapshot as a ``StatePair`` and recomputes its profile and report, on the
artifacts of short runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

import pdae1d
from pdae1d import Grid1D, MmsSpec, SolveConfig, cli

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
