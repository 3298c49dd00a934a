"""Tier-1 guard for the names the benchmark harness wraps.

``perfbench/tracing.py`` puts wrappers on module bindings of pdae1d and
raises if a wrapped name is missing or differs between the modules that
bind it.  This test imports it read-only and checks that the wrappers see
what the per-layer metrics assume: every Picard slab goes through
``integrators.picard_slab``, and exponential Euler and IMEX evaluate the
reaction through ``integrators.eval_reaction`` once per step.
"""

import importlib
import sys
from pathlib import Path

import pytest

import pdae1d
from pdae1d import Grid1D, MmsSpec, SolveConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


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
