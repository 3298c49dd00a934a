"""Per-check cost of ``pdae1d verify`` at its defaults.

It prints one markdown table: the milliseconds each property check takes
in-process at each of verify's default sizes, and each check's total over
the sizes.  A round is one ``scenarios.run_verification`` call with the
values of ``pdae1d verify`` without options, as the CLI parser gives
them, while a timer wraps each ``verification.check_*``; the checks are
restored after the round.

Each figure is the best (the minimum) of ``--repeats`` rounds (5 by
default), the rule of ``tools/step_costs.py``: a slower round only adds
the host's noise.  A total is the minimum of the per-round sums.  BLAS
is held to one thread, set before numpy is imported, and the package is
imported from this checkout's ``src/``.

    python tools/check_costs.py [--repeats 5]

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

from pdae1d import cli, scenarios, verification  # noqa: E402

CHECKS = ("dissipativity", "maximality", "semigroup", "lipschitz")  # run_checks' order


def timed_round(verify: argparse.Namespace) -> dict:
    """Seconds per (check, n) of one in-process verify run with the options ``verify``."""
    seconds = {}

    def timed(name, check):
        def wrapper(n_samples, grid, *args):
            start = time.perf_counter()
            report = check(n_samples, grid, *args)
            seconds[name, grid.n_interior] = time.perf_counter() - start
            return report

        return wrapper

    checks = {name: getattr(verification, f"check_{name}") for name in CHECKS}
    try:
        for name, check in checks.items():
            setattr(verification, f"check_{name}", timed(name, check))
        scenarios.run_verification(verify.sizes, verify.seed, verify.samples, verify.lipschitz_samples)
    finally:
        for name, check in checks.items():
            setattr(verification, f"check_{name}", check)
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="rounds per figure; the best is kept")
    args = parser.parse_args(argv)
    verify = cli.build_parser().parse_args(["verify"])
    rounds = [timed_round(verify) for _ in range(args.repeats)]
    print(f"# python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} CPUs, "
          f"one BLAS thread; ms, best of {args.repeats}, {verify.samples} samples "
          f"({verify.lipschitz_samples} Lipschitz)")
    print("| check | " + " | ".join(f"n = {n}" for n in verify.sizes) + " | total |")
    print("|---" * (len(verify.sizes) + 2) + "|")
    for name in CHECKS:
        cells = [min(r[name, n] for r in rounds) for n in verify.sizes]
        cells.append(min(sum(r[name, n] for n in verify.sizes) for r in rounds))
        print(f"| {name} | " + " | ".join(f"{seconds * 1e3:.1f}" for seconds in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
