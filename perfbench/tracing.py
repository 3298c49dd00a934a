"""Per-layer tracing of pdae1d from outside the package.

Wrappers are installed on the module attributes the callers actually look
up: the modules import names directly (``from .spectral import
semigroup_apply``), so every binding of a function gets the same wrapper.
Every sine transform is counted through the ``_dst`` binding in
``pdae1d.spectral``, which is also how picard_slab's private transforms are
seen.  Spans (name, start, end, parent span, operation id) are kept in
memory; a span's self time is its duration minus the part its children
cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import pdae1d
from pdae1d import cli, constraint, fields, integrators, nonlinearity, scenarios, spectral, verification
from pdae1d.nonlinearity import SourcePair

# Grid sizes the workloads transform at; DST counts are also split by these.
DST_SIZES = (7, 15, 16, 31, 63, 64, 128, 255, 256)

# span name -> (attribute, every module that binds it)
SPANNED = {
    "spectral.semigroup_apply": ("semigroup_apply", (spectral, integrators, pdae1d)),
    "spectral.phi1_apply": ("phi1_apply", (spectral, integrators, pdae1d)),
    "spectral.solve_shifted": ("solve_shifted", (spectral, integrators, pdae1d)),
    "spectral.discrete_laplacian": ("discrete_laplacian", (spectral, pdae1d)),
    "constraint.reconstruct_w": ("reconstruct_w", (constraint, integrators, scenarios, pdae1d)),
    "constraint.constraint_residual": ("constraint_residual", (constraint, integrators, pdae1d)),
    "nonlinearity.eval_reaction": ("eval_reaction", (nonlinearity, integrators, pdae1d)),
    "nonlinearity.lipschitz_ratio": ("lipschitz_ratio", (nonlinearity, pdae1d)),
    "integrators.solve": ("solve", (integrators, scenarios, pdae1d)),
    "integrators.step_exp_euler": ("step_exp_euler", (integrators, pdae1d)),
    "integrators.step_imex": ("step_imex", (integrators, pdae1d)),
    "integrators.picard_slab": ("picard_slab", (integrators, pdae1d)),
    "verification.check_dissipativity": ("check_dissipativity", (verification, pdae1d)),
    "verification.check_maximality": ("check_maximality", (verification, pdae1d)),
    "verification.check_semigroup": ("check_semigroup", (verification, pdae1d)),
    "verification.check_lipschitz": ("check_lipschitz", (verification, pdae1d)),
    "scenarios.run_scenario": ("run_scenario", (scenarios, cli, pdae1d)),
    "scenarios.run_convergence": ("run_convergence", (scenarios, cli, pdae1d)),
    "cli.main": ("main", (cli,)),
}
SOURCE_FACTORIES = {
    "build_mms_sources": (scenarios, pdae1d),
    "tabulated_sources": (nonlinearity, scenarios, pdae1d),
    "zero_sources": (nonlinearity, integrators, scenarios, pdae1d),
}
# Counts that must repeat exactly between two traced passes or runs.
INTEGRITY_COUNTS = (
    "spectral.dst.calls",
    "fields.Field.constructions",
    "integrators.picard_sweeps",
    "nonlinearity.source_evals",
)


@contextmanager
def patched(replacements: dict):
    """Set ``{(owner, attribute): value}`` for the duration of the block."""
    saved = {key: getattr(*key) for key in replacements}
    try:
        for (owner, attr), value in replacements.items():
            setattr(owner, attr, value)
        yield
    finally:
        for (owner, attr), value in saved.items():
            setattr(owner, attr, value)


def rebind(attr: str, owners, make) -> dict:
    """Replacements putting ``make(original)`` on every binding of one function."""
    original = getattr(owners[0], attr)
    for owner in owners:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is not the function being wrapped")
    wrapper = make(original)
    return {(owner, attr): wrapper for owner in owners}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
        spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def timed(self, name: str, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if after is not None:
                    after(result)
                return result

            return wrapper

        return make

    def counted(self, key: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _dst(self, dst):
        counts = self.counts

        def wrapper(x, *args, **kwargs):
            n = x.shape[-1]
            out = self.call(f"spectral.dst.n{n}", dst, x, *args, **kwargs)
            counts[f"spectral.dst.points.n{n}"] += x.size
            counts[f"spectral.dst.bytes_computed.n{n}"] += x.nbytes + out.nbytes
            return out

        return wrapper

    def _sources(self, factory):
        def wrapper(*args, **kwargs):
            pair = factory(*args, **kwargs)
            f = self.timed("nonlinearity.source")(pair.f)
            g = self.timed("nonlinearity.source")(pair.g)
            return SourcePair(f=f, g=g, kind=pair.kind)

        return wrapper

    def replacements(self) -> dict:
        """Every wrapper, keyed by the (owner, attribute) it replaces."""
        counts = self.counts

        def after_solve(traj):
            counts["integrators.steps"] += traj.steps_taken
            counts["integrators.snapshots"] += len(traj.times)

        def after_picard(result):
            counts["integrators.picard_sweeps"] += result.iterations

        def after_check(report):
            counts["verification.samples"] += report.samples

        after = {"integrators.solve": after_solve, "integrators.picard_slab": after_picard}
        out = {}
        for name, (attr, owners) in SPANNED.items():
            hook = after_check if name.startswith("verification.") else after.get(name)
            out.update(rebind(attr, owners, self.timed(name, hook)))
        for attr, owners in SOURCE_FACTORIES.items():
            make = self._sources
            if attr == "tabulated_sources":
                make = lambda fn: self._sources(self.timed("nonlinearity.tabulated_sources")(fn))
            out.update(rebind(attr, owners, make))
        out.update(rebind("cumulative_integral", (constraint, nonlinearity, pdae1d),
                          self.counted("constraint.cumulative_integral.calls")))
        out.update(rebind("_dst", (spectral,), self._dst))
        out[(fields.Field, "__post_init__")] = self.counted("fields.Field.constructions")(
            fields.Field.__post_init__)
        out[(fields.StatePair, "__post_init__")] = self.counted("fields.StatePair.constructions")(
            fields.StatePair.__post_init__)
        return out

    def installed(self):
        return patched(self.replacements())

    def span_totals(self) -> tuple[Counter, dict]:
        """(calls, self seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = {}
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        return calls, self_s

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _spanned_metric_names() -> list[tuple[str, str]]:
    names = []
    for layer in ("semigroup_apply", "phi1_apply", "solve_shifted", "discrete_laplacian"):
        names += [(f"spectral.{layer}.calls", "count"), (f"spectral.{layer}.self_s", "s")]
    for layer in ("reconstruct_w", "constraint_residual"):
        names += [(f"constraint.{layer}.calls", "count"), (f"constraint.{layer}.self_s", "s")]
    names.append(("constraint.cumulative_integral.calls", "count"))
    for layer in ("eval_reaction", "lipschitz_ratio"):
        names += [(f"nonlinearity.{layer}.calls", "count"), (f"nonlinearity.{layer}.self_s", "s")]
    names += [("nonlinearity.source_evals", "count"), ("nonlinearity.source_s", "s"),
              ("nonlinearity.tabulated_sources.self_s", "s")]
    for layer in ("solve", "step_exp_euler", "step_imex", "picard_slab"):
        names += [(f"integrators.{layer}.calls", "count"), (f"integrators.{layer}.self_s", "s")]
    names += [("integrators.steps", "count"), ("integrators.snapshots", "count"),
              ("integrators.picard_sweeps", "count"), ("integrators.picard_sweeps_per_step", "sweeps/step")]
    for check in ("dissipativity", "maximality", "semigroup", "lipschitz"):
        names.append((f"verification.check_{check}.self_s", "s"))
    names.append(("verification.samples", "count"))
    names += [("scenarios.run_scenario.self_s", "s"), ("scenarios.run_convergence.self_s", "s"),
              ("scenarios.artifact_bytes", "B"), ("scenarios.artifact_mb_per_s", "MB/s"),
              ("cli.main.self_s", "s")]
    return names


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    names = [("fields.Field.constructions", "count"), ("fields.StatePair.constructions", "count")]
    dst = [("calls", "count"), ("points", "count"), ("bytes_computed", "B"), ("self_s", "s")]
    names += [(f"spectral.dst.{what}", unit) for what, unit in dst]
    names += [(f"spectral.dst.{what}.n{n}", unit) for n in DST_SIZES for what, unit in dst]
    names += _spanned_metric_names()
    names.append(("trace.overhead_s", "s"))
    return names


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """Per-layer values of one traced pass (trace.overhead_s is added by the caller)."""
    calls, self_s = tracer.span_totals()
    counts = tracer.counts
    values: dict = {
        "fields.Field.constructions": counts["fields.Field.constructions"],
        "fields.StatePair.constructions": counts["fields.StatePair.constructions"],
        "constraint.cumulative_integral.calls": counts["constraint.cumulative_integral.calls"],
        "nonlinearity.source_evals": calls["nonlinearity.source"],
        "nonlinearity.source_s": self_s.get("nonlinearity.source", 0.0),
        "integrators.steps": counts["integrators.steps"],
        "integrators.snapshots": counts["integrators.snapshots"],
        "integrators.picard_sweeps": counts["integrators.picard_sweeps"],
        "verification.samples": counts["verification.samples"],
        "scenarios.artifact_bytes": artifact_bytes,
    }
    for n in DST_SIZES:
        values[f"spectral.dst.calls.n{n}"] = calls[f"spectral.dst.n{n}"]
        values[f"spectral.dst.points.n{n}"] = counts[f"spectral.dst.points.n{n}"]
        values[f"spectral.dst.bytes_computed.n{n}"] = counts[f"spectral.dst.bytes_computed.n{n}"]
        values[f"spectral.dst.self_s.n{n}"] = self_s.get(f"spectral.dst.n{n}", 0.0)
    dst_names = [name for name in calls if name.startswith("spectral.dst.n")]
    values["spectral.dst.calls"] = sum(calls[name] for name in dst_names)
    values["spectral.dst.self_s"] = sum(self_s[name] for name in dst_names)
    for what in ("points", "bytes_computed"):
        values[f"spectral.dst.{what}"] = sum(
            v for k, v in counts.items() if k.startswith(f"spectral.dst.{what}.n"))
    for name in SPANNED:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    values["nonlinearity.tabulated_sources.self_s"] = self_s.get("nonlinearity.tabulated_sources", 0.0)
    slabs = calls["integrators.picard_slab"]
    values["integrators.picard_sweeps_per_step"] = values["integrators.picard_sweeps"] / slabs if slabs else 0.0
    scenario_self = values["scenarios.run_scenario.self_s"] + values["scenarios.run_convergence.self_s"]
    values["scenarios.artifact_mb_per_s"] = artifact_bytes / 1e6 / scenario_self if scenario_self else 0.0
    wanted = {name for name, _ in per_layer_names()} - {"trace.overhead_s"}
    return {name: values[name] for name in sorted(wanted)}
