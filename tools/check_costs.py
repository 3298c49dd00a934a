"""Per-check cost of ``pdae1d verify`` at its defaults.

It prints one markdown table: the milliseconds each property check takes
in-process at n = 16, 64 and 256, with 1000 samples and 10000 Lipschitz
samples and the seeds ``verify`` gives them, and each check's total over
the three sizes.

Each figure is the median of ``--repeats`` rounds (5 by default), taken
round-robin over all figures; a total is the median of the per-round sums.
BLAS is held to one thread, set before numpy is imported, and the package
is imported from this checkout's ``src/``.

    python tools/check_costs.py [--repeats 5]

To compare two checkouts, copy this file into the other one's tools/ and
run the two in turn a few times; the host's speed drifts between runs.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from pdae1d import Grid1D, verification  # noqa: E402

SIZES = (16, 64, 256)  # verify's default --sizes
SAMPLES = 1000
LIPSCHITZ_SAMPLES = 10000
# in run_checks' order, which fixes each check's seed offset
CHECKS = ("dissipativity", "maximality", "semigroup", "lipschitz")


def check_timer(name: str, index: int, n: int):
    """A timer of one check as ``verify`` runs it at the index-th size: returns seconds."""
    check = getattr(verification, f"check_{name}")
    samples = LIPSCHITZ_SAMPLES if name == "lipschitz" else SAMPLES
    seed = 100 * index + CHECKS.index(name)
    grid = Grid1D(n)

    def timer():
        start = time.perf_counter()
        check(samples, grid, seed)
        return time.perf_counter() - start

    return timer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="rounds per figure; the median is kept")
    args = parser.parse_args(argv)
    timers = {
        (name, n): check_timer(name, index, n) for name in CHECKS for index, n in enumerate(SIZES)
    }
    # round-robin, so each figure's repeats sample the whole run, not one stretch of it
    runs = {key: [] for key in timers}
    for _ in range(args.repeats):
        for key, timer in timers.items():
            runs[key].append(timer())
    print(f"# python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} CPUs, "
          f"one BLAS thread; ms, median of {args.repeats}, {SAMPLES} samples "
          f"({LIPSCHITZ_SAMPLES} Lipschitz)")
    print("| check | " + " | ".join(f"n = {n}" for n in SIZES) + " | total |")
    print("|---" * (len(SIZES) + 2) + "|")
    for name in CHECKS:
        cells = [statistics.median(runs[name, n]) for n in SIZES]
        cells.append(statistics.median(map(sum, zip(*(runs[name, n] for n in SIZES)))))
        print(f"| {name} | " + " | ".join(f"{seconds * 1e3:.1f}" for seconds in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
