"""sha256 of every output of a fixed set of pdae1d commands.

Runs each command of COMMANDS in-process through ``pdae1d.cli.main``, in
one fresh temporary working directory, with relative output paths, so the
``# config:`` echoes and the summaries agree across checkouts.  The
commands cover ``run`` for decay, mms and growth_probe with each method at
n = 64, one mms run at n = 255 (the FFT kernel), Picard and IMEX mms runs
at n = 256 with other impacts, diffusion and amplitude than the defaults,
three small ``converge`` sweeps (two of them ``converge``'s n levels at its
own dt), ``run`` and ``converge`` into an output directory that is an
existing file (exit 1, nothing written), a custom run without sources, a
decay run and a growth_probe run (exit 2) on a profile or source table
the tool writes, ``run --config`` on a run's ``summary.json`` and on a config file
with int-valued float fields that the tool writes first, a small
``verify``, one at n = 4096, one at 1000 samples, whose semigroup blocks
are full at n = 16, 64 and 256, and ``mms-sources``.  Marches of exp_euler and
imex evaluate their sources a block of steps at a time (585 steps at
n = 7, 64 at n = 64, 16 at n = 255 and 256), so the runs at the default
dt, the n = 256 IMEX run with snapshots every 10 steps, the custom run on
a source table the tool writes first (n = 7, 1000 steps, on, between and
after its slabs) and the n = 63 level cross block boundaries.  A Picard
march evaluates the substep times of a block of slabs at a time (146 slabs
at n = 7, 8 at n = 128), so the Picard runs on that table and over 500
slabs of mms at n = 7 cross block boundaries, growth_probe's Picard
run at the default n = 128 blows up inside a block, and its run at n = 63
(16 slabs a block) with at most 7 sweeps a slab ends as a step failure,
no convergence at t = 0.06, in its fourth block, and a custom Picard run on
a source table of f = 1.5e308 sin(pi x), which the tool writes first, ends
as a step failure, a non-finite state at t = 0, after one sweep whose
sine transform of the sources overflows; ``mms-sources`` at
several times, -0 among them, evaluates a vector of times per call.  For each command it prints the
command, its exit code, and ``sha256  name`` lines for its stdout, its
stderr and every file it wrote, in path order.  BLAS is held to one
thread, set before numpy is imported, and the package is imported from
this checkout's ``src/``.  It has no options:

    python tools/artifact_digests.py

Two checkouts produce the same outputs exactly when the two printouts are
identical: copy this file into the other one's tools/, run it in each, and
diff the two printouts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pdae1d import cli  # noqa: E402

COMMANDS = [
    f"run --scenario {scenario} --method {method} --n-interior 64 --output-dir run-{scenario}-{method}"
    for scenario in ("decay", "mms", "growth_probe")
    for method in ("exp_euler", "imex", "picard")
] + [
    "run --scenario mms --n-interior 255 --t-end 0.1 --d-v 0.3 --p-u -0.7 --output-dir run-mms-n255",
] + [
    f"run --scenario mms --method {method} --n-interior 256 --t-end 0.05 --p-u 0.5 --p-v 1.7"
    f" --d-u 0.4 --mms-a 1.3 --output-dir run-mms-n256-{method}"
    for method in ("picard", "imex")
] + [
    "converge --n-interior 31 --dt 1e-3 --t-end 0.1 --dt-levels 0.02,0.01,0.005"
    " --n-levels 7,15 --output-dir converge",
    "converge --dt 1e-4 --t-end 0.01 --dt-levels , --n-levels 7,15,31 --output-dir converge-n",
    "converge --dt 1e-4 --t-end 0.02 --dt-levels , --n-levels 7,63 --output-dir converge-n-blocks",
    "converge --n-interior 7 --dt 1e-3 --t-end 0.01 --dt-levels 0.005 --n-levels , --output-dir custom-ic.txt",
    "run --scenario mms --method imex --n-interior 256 --dt 0.001 --t-end 0.05 --snapshot-every 10"
    " --output-dir run-mms-n256-imex-blocks",
    "run --scenario mms --method picard --n-interior 15 --dt 0.01 --t-end 0.2 --d-v 0.3 --p-u -0.7"
    " --mms-b -0.6 --picard-substeps 6 --output-dir run-mms-picard-slabs",
    "run --scenario custom --ic-file custom-ic.txt --source-file custom-sources.txt --n-interior 7"
    " --output-dir run-custom-n7",
    "run --scenario growth_probe --method picard --output-dir run-growth_probe-picard-n128",
    "run --scenario growth_probe --method picard --n-interior 63 --dt 0.001 --t-end 0.2 --picard-max-iter 7"
    " --output-dir run-picard-no-convergence",
    "run --scenario mms --method picard --n-interior 7 --dt 1e-4 --t-end 0.05 --output-dir run-mms-picard-blocks",
    "run --scenario custom --method picard --ic-file custom-ic.txt --source-file custom-sources.txt"
    " --n-interior 7 --output-dir run-custom-n7-picard",
    "run --scenario custom --method picard --ic-file custom-ic.txt --source-file overflow-sources.txt"
    " --n-interior 7 --dt 0.01 --t-end 0.1 --output-dir run-custom-overflow-picard",
    "run --scenario custom --ic-file custom-ic.txt --n-interior 7 --t-end 0.05 --output-dir run-custom-zero-sources",
    "run --scenario decay --ic-file custom-ic.txt --n-interior 7 --t-end 0.05 --output-dir run-decay-ic",
    "run --scenario growth_probe --source-file custom-sources.txt --n-interior 7"
    " --output-dir run-growth_probe-sources",
    "run --scenario decay --n-interior 7 --t-end 0.01 --output-dir custom-ic.txt",
    "run --config run-mms-picard/summary.json --output-dir rerun-mms-picard",
    "run --config int-floats.json --output-dir run-int-floats",
    "verify --sizes 16,64,256 --samples 50 --lipschitz-samples 200 --output verify/report.json",
    "verify --sizes 4096 --samples 20 --lipschitz-samples 10 --output verify-4096/report.json",
    "verify --sizes 16,64,256 --samples 1000 --lipschitz-samples 300 --output verify-full/report.json",
    "mms-sources --n-interior 16 --times 0,0.25,1 --output mms-sources/table.txt",
    "mms-sources --n-interior 7 --times 0.5",
    "mms-sources --n-interior 63 --times 0,-0,1e-5,0.3,7.25 --d-u 0.4 --p-v 1.7 --mms-b -0.6"
    " --output mms-sources-63/table.txt",
]

NODES_7 = [j / 8 for j in range(9)]
# files written before the first command: a config with float fields given as
# JSON integers, whose "# config:" echo must keep them as written, the initial
# profile (interior nodes) and source slabs (all nodes) of the custom runs, and
# the slabs of a source f whose sine transform overflows
CONFIG_FILES = {
    "int-floats.json": '{"scenario": "decay", "n_interior": 15, "dt": 0.05, "t_end": 1, "d_v": 2}',
    "custom-ic.txt": "".join(f"{x!r} {x * (1 - x)!r} {0.5 * x!r}\n" for x in NODES_7[1:-1]),
    "custom-sources.txt": "".join(
        f"{t!r} {x!r} {t * x * (1 - x)!r} {(1 - t) * x!r}\n" for t in (0.0, 0.25, 0.6) for x in NODES_7
    ),
    "overflow-sources.txt": "".join(
        f"{t!r} {x!r} {1.5e308 * math.sin(math.pi * x)!r} 0.0\n" for t in (0.0, 1.0) for x in NODES_7
    ),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        home = os.getcwd()
        os.chdir(workdir)
        try:
            for name, text in CONFIG_FILES.items():
                Path(name).write_text(text)
            for command in COMMANDS:
                seen = {path for path in Path(".").rglob("*") if path.is_file()}
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(command.split())
                print(f"# pdae1d {command}")
                print(f"exit {code}")
                print(f"{digest(out.getvalue().encode())}  stdout")
                print(f"{digest(err.getvalue().encode())}  stderr")
                written = sorted(p for p in Path(".").rglob("*") if p.is_file() and p not in seen)
                for path in written:
                    print(f"{digest(path.read_bytes())}  {path.as_posix()}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
