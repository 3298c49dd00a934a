"""Per-layer cost of a march: one step of each method, and the reaction.

For n = 63, 128, 255 and 256 (n+1 = 257 is prime, a slow FFT length) it
prints one markdown table:

* the cost of one step of an mms march at dt = 0.005 in microseconds, for
  exp_euler, imex and picard, with Picard's mean sweeps per slab;
* the cost of one source-free reaction evaluation (``_reaction_terms``) on
  a (2, n) pair and on a (4, 2, n) stack, in microseconds.

A step figure is the mean over the STEPS = 40 steps of one march from t = 0; a
reaction figure is the mean over a batch of calls.  Each is the best of
``--repeats`` such timings (15 by default), taken round-robin over all
figures.  BLAS is held to one thread, set before numpy is imported, and
the package is imported from this checkout's ``src/``.

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
from pdae1d import integrators, mms_state  # noqa: E402
from pdae1d.nonlinearity import _reaction_terms  # noqa: E402

SIZES = (63, 128, 255, 256)
METHODS = ("exp_euler", "imex", "picard")
DT = 0.005  # the finest dt level of the temporal sweeps in perfbench's mms_sweep
STEPS = 40
REACTION_CALLS = 200


def march_timer(n: int, method: str):
    """A timer of one mms march: returns (mean seconds per step, Picard's mean sweeps per step).

    The sweeps are None for exp_euler and imex.
    """
    grid, spec, c = Grid1D(n), MmsSpec(), CoefficientSet()
    values0 = mms_state(spec, grid, 0.0).values
    src = build_mms_sources(spec, grid, c)
    config = SolveConfig(dt=DT, t_end=STEPS * DT, method=method)

    def timer():
        step, carry, _ = integrators._stepper(method, values0, DT, config, src, c)
        values, sweeps = values0, 0
        start = time.perf_counter()
        for k in range(STEPS):
            carry, values, used = step(carry, values, k * DT)
            sweeps += used
        return (time.perf_counter() - start) / STEPS, sweeps / STEPS if method == "picard" else None

    return timer


def reaction_timer(shape: tuple[int, ...]):
    """A timer of ``_reaction_terms`` on a random stack: returns (mean seconds per call, None)."""
    values = np.random.default_rng(0).standard_normal(shape)
    c = CoefficientSet()

    def timer():
        start = time.perf_counter()
        for _ in range(REACTION_CALLS):
            _reaction_terms(values, c)
        return (time.perf_counter() - start) / REACTION_CALLS, None

    return timer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="timings per figure; the best is kept")
    args = parser.parse_args(argv)
    timers = {}
    for n in SIZES:
        for method in METHODS:
            timers[n, method] = march_timer(n, method)
        for shape in ((2, n), (4, 2, n)):
            timers[n, shape] = reaction_timer(shape)
    # round-robin, so each figure's repeats sample the whole run, not one stretch of it
    best = {key: (float("inf"), None) for key in timers}
    for _ in range(args.repeats):
        for key, timer in timers.items():
            best[key] = min(best[key], timer(), key=lambda pair: pair[0])
    print(f"# python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} CPUs, "
          f"one BLAS thread; best of {args.repeats}, {STEPS} steps at dt = {DT}")
    print("| n | exp_euler | imex | picard (sweeps per slab) | reaction (2, n) | reaction (4, 2, n) |")
    print("|---|---|---|---|---|---|")
    for n in SIZES:
        cells = [f"{n} (257 prime)" if n == 256 else str(n)]
        for key in [(n, method) for method in METHODS] + [(n, (2, n)), (n, (4, 2, n))]:
            seconds, sweeps = best[key]
            cells.append(f"{seconds * 1e6:.1f}" + ("" if sweeps is None else f" ({sweeps:.1f})"))
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
