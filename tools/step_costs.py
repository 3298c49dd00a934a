"""Per-layer cost of a march: one step of each method, the sources and the reaction.

For n = 7 and 15 (small levels of ``converge``'s n sweep), 63, 128, 255
and 256 (n+1 = 257 is prime, a slow FFT length) it prints one markdown
table:

* the cost of one step of an mms march at dt = 0.005 in microseconds, for
  exp_euler, imex and picard, with Picard's mean sweeps per slab;
* the cost per step of the mms source pair, f and g: a march evaluates
  the ``integrators._step_times`` of a block of
  ``integrators._block_steps`` steps in one call of each, the start times
  of exp_euler and imex steps or the m = 4 substep times of Picard slabs,
  so the figure is one block evaluation of exp_euler's divided by its
  steps, and the figure in parentheses one of Picard's divided by its
  slabs;
* the cost of one source-free reaction evaluation (``_reaction_terms``) on
  a (2, n) pair and on a (4, 2, n) stack, in microseconds;
* the cost of one sine transform (``spectral.to_coeffs``) of a (2, n) pair,
  as a step transforms it, and of a (3, 2, n) stack, as a later Picard sweep
  at m = 4 transforms its moving samples, in microseconds: the dense sine
  matrix at every n here but 255, where the FFT serves.

A step figure is one ``integrators._march`` call over STEPS = 40 steps
from t = 0, under ``np.errstate`` as ``solve`` runs it, divided by STEPS:
each step's classifying norm is in it, and so is the march's set-up (its
weights), about 1% of it.  A source, reaction or transform figure is the mean
over a batch of calls.  Each figure is the best of ``--repeats`` such timings (15
by default), taken round-robin over all figures.  BLAS is held to one
thread, set before numpy is imported, and the package is imported from
this checkout's ``src/``.

    python tools/step_costs.py [--repeats 15]

To compare two checkouts, copy this file into the other one's tools/ and
run the two in turn a few times; the host's speed drifts between runs.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from pdae1d import CoefficientSet, Grid1D, MmsSpec, SolveConfig, build_mms_sources  # noqa: E402
from pdae1d import integrators, mms_state, spectral  # noqa: E402
from pdae1d.nonlinearity import _reaction_terms  # noqa: E402

SIZES = (7, 15, 63, 128, 255, 256)
METHODS = ("exp_euler", "imex", "picard")
DT = 0.005  # the finest dt level of the temporal sweeps in perfbench's mms_sweep
STEPS = 40
CALLS = 200


def march_inputs(n: int):
    grid, spec, c = Grid1D(n), MmsSpec(), CoefficientSet()
    return grid, mms_state(spec, grid, 0.0).values, build_mms_sources(spec, grid, c), c


def march_timer(n: int, method: str):
    """A timer of one mms march: returns (mean seconds per step, Picard's mean sweeps per step).

    The sweeps are None for exp_euler and imex.
    """
    grid, values0, src, c = march_inputs(n)
    # no snapshot but the last, as in a convergence level
    config = SolveConfig(dt=DT, t_end=STEPS * DT, method=method, snapshot_every=STEPS)

    def timer():
        with np.errstate(over="ignore", invalid="ignore"):
            start = time.perf_counter()
            status, steps, sweeps = integrators._march(values0, grid, config, src, c, [], [])
            seconds = time.perf_counter() - start
        assert status.kind == "completed" and steps == STEPS
        return seconds / STEPS, sweeps / STEPS if method == "picard" else None

    return timer


def calls_timer(call):
    """A timer of ``call()``: returns (mean seconds per call, None)."""

    def timer():
        start = time.perf_counter()
        for _ in range(CALLS):
            call()
        return (time.perf_counter() - start) / CALLS, None

    return timer


def sources_timer(n: int, times: np.ndarray, per: int):
    """A timer of one evaluation of the mms source pair, f and g at ``times``, divided by ``per``."""
    src = march_inputs(n)[2]
    timer = calls_timer(lambda: (src.f(times), src.g(times)))
    return lambda: (timer()[0] / per, None)


def reaction_timer(shape: tuple[int, ...]):
    """A timer of ``_reaction_terms`` on a random stack."""
    values = np.random.default_rng(0).standard_normal(shape)
    c = CoefficientSet()
    return calls_timer(lambda: _reaction_terms(values, c))


def transform_timer(shape: tuple[int, ...]):
    """A timer of ``spectral.to_coeffs`` on a random stack."""
    values = np.random.default_rng(0).standard_normal(shape)
    return calls_timer(lambda: spectral.to_coeffs(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="timings per figure; the best is kept")
    args = parser.parse_args(argv)
    timers = {}
    for n in SIZES:
        for method in METHODS:
            timers[n, method] = march_timer(n, method)
        for key, method in (("sources", "exp_euler"), ("slab sources", "picard")):
            block = integrators._block_steps(method, n, 4)
            times = integrators._step_times(method, np.arange(block) * DT, DT, 4).ravel()
            timers[n, key] = sources_timer(n, times, block)
        for shape in ((2, n), (4, 2, n)):
            timers[n, shape] = reaction_timer(shape)
        for shape in ((2, n), (3, 2, n)):
            timers[n, "to_coeffs", shape] = transform_timer(shape)
    # round-robin, so each figure's repeats sample the whole run, not one stretch of it
    best = {key: (float("inf"), None) for key in timers}
    for _ in range(args.repeats):
        for key, timer in timers.items():
            best[key] = min(best[key], timer(), key=lambda pair: pair[0])
    print(f"# python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} CPUs, "
          f"one BLAS thread; best of {args.repeats}, {STEPS} steps at dt = {DT}")
    print("| n | exp_euler | imex | picard (sweeps per slab) | mms f, g per step (per slab) "
          "| reaction (2, n) | reaction (4, 2, n) | to_coeffs (2, n) / (3, 2, n) |")
    print("|---|---|---|---|---|---|---|---|")
    for n in SIZES:
        cells = [f"{n} (257 prime)" if n == 256 else str(n)]
        for key in [(n, method) for method in METHODS] + [(n, "sources"), (n, (2, n)), (n, (4, 2, n))]:
            seconds, sweeps = best[key]
            cells.append(f"{seconds * 1e6:.2f}" if key[1] == "sources" else f"{seconds * 1e6:.1f}")
            if sweeps is not None:
                cells[-1] += f" ({sweeps:.1f})"
            if key[1] == "sources":
                cells[-1] += f" ({best[n, 'slab sources'][0] * 1e6:.1f})"
        cells.append(" / ".join(f"{best[n, 'to_coeffs', shape][0] * 1e6:.1f}" for shape in ((2, n), (3, 2, n))))
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
