"""Alternating parent/change pairs of perfbench runs, written to one BENCH_<label>.json.

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in the parent checkout and once in the change checkout, in
fresh processes, on the pair's own seed.  The parent goes first in
even-numbered pairs (counted from 0) and the change in odd ones, so a drift
in the host's speed falls on both sides alike.  It only shells out to the
harness; it changes nothing in either checkout but the harness's own work
directory.

    python tools/bench_pairs.py --parent ../parent --change . --label picard_slabs \\
        --workload scenario_artifacts --claim scenario_artifacts:wall_ref_s \\
        --pairs 10 --first-seed 3001 --seconds 30 [--traced]

``--workload`` may be repeated; each workload takes the next ``--pairs``
seeds.  For each workload and side the record holds every run's end-to-end
metrics and failed/attempted counts, and per metric the median and the
inclusive quartiles, the pairs in which the change read better, the median
gap (parent median - change median, for a lower-is-better metric) and the
parent's interquartile range.  ``--claim`` names the metric a gain is claimed
on; its verdict follows the rule "better in at least 9 of 10 pairs, and a
median gap above the parent's IQR".

Each workload also gets SETUP_PAIRS alternating pairs of ``perfbench/run.py
--setup-only`` processes, the set-ups behind ``setup_s``, on its seeds in
turn: each run's set-up seconds, per side the median and quartiles, and the
comparison of the pairs.  A run's ``setup_s`` is the median of only seven
set-ups, so a few pairs of runs resolve it poorly; the set-up-only pairs
take seconds.  ``--traced`` adds TRACED_PAIRS alternating pairs of ``--trace
1`` runs per workload, on its first seeds: each run's per-layer metrics and,
per side, their medians, so that a per-layer reading is not one process's.
The record goes to BENCH_<label>.json in the current directory.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_ref_s", "setup_s", "peak_rss_mb")  # all lower-is-better
SIDES = ("parent", "change")
SETUP_PAIRS = 12  # --setup-only pairs per workload
TRACED_PAIRS = 3  # --trace 1 pairs per workload under --traced
RULE = "change lower in at least 9 of 10 pairs, and parent median - change median > parent q3 - q1"


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float]) -> dict:
    """Pairs the change won, the median gap and the parent IQR of a lower-is-better metric.

    ``parent[i]`` and ``change[i]`` are the two runs of pair i.  The claim
    is met when the change is lower in at least nine tenths of the pairs and
    the gap between the medians exceeds the parent's interquartile range.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more complete pairs")
    won = sum(c < p for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    gap = p["median"] - c["median"]
    iqr = p["q3"] - p["q1"]
    return {
        "pairs": len(parent),
        "pairs_change_lower": won,
        "median_gap": gap,
        "parent_iqr": iqr,
        "relative": c["median"] / p["median"] - 1.0,
        "met": won * 10 >= 9 * len(parent) and gap > iqr,
    }


def run_harness(checkout: Path, workload: str, seed: int, *options: str) -> dict:
    """One perfbench run in ``checkout`` with ``options`` after its workload and seed; its final JSON line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *options]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def traced_summary(result: dict) -> dict:
    """A traced run's counts and each per-layer metric's value, without its unit."""
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {key: result[key] for key in ("correct", "failed", "attempted")} | {"metrics": metrics}


def first_sides(pairs: int) -> list[str]:
    """The side that runs first in each pair: the parent in even-numbered pairs, the change in odd ones."""
    return [SIDES[index % 2] for index in range(pairs)]


def alternating_runs(checkouts: dict, workload: str, seeds: list[int], options: tuple[str, ...]):
    """One harness run per side on each seed, in ``first_sides`` order; yields (seed, side, result)."""
    for seed, first in zip(seeds, first_sides(len(seeds))):
        for side in SIDES if first == SIDES[0] else SIDES[::-1]:
            yield seed, side, run_harness(checkouts[side], workload, seed, *options)


def run_pairs(checkouts: dict, workload: str, seeds: list[int], seconds: float, log) -> dict:
    """Alternating pairs on ``seeds``; the per-side runs and counts of one workload."""
    sides = {side: {"runs": {m: [] for m in METRICS}, "failed": [], "attempted": [], "correct": []}
             for side in SIDES}
    for seed, side, result in alternating_runs(checkouts, workload, seeds, ("--seconds", str(seconds), "--trace", "0")):
        record = sides[side]
        for metric in METRICS:
            record["runs"][metric].append(result["metrics"][metric]["value"])
        for key in ("failed", "attempted", "correct"):
            record[key].append(result[key])
        log(f"{workload} seed {seed} {side}: wall_ref_s {result['metrics']['wall_ref_s']['value']:.5f}"
            f" failed {result['failed']}/{result['attempted']}")
    out = {"seeds": seeds, "first": first_sides(len(seeds))}
    for side in SIDES:
        record = sides[side]
        out[side] = {m: {"runs": record["runs"][m], **spread(record["runs"][m])} for m in METRICS}
        out[side].update(failed=record["failed"], attempted=record["attempted"], correct=record["correct"])
    out["comparison"] = {m: compare(sides["parent"]["runs"][m], sides["change"]["runs"][m]) for m in METRICS}
    return out


def cycled(seeds: list[int], count: int) -> list[int]:
    """``count`` seeds taken from ``seeds`` in turn."""
    return [seeds[index % len(seeds)] for index in range(count)]


def run_setups(checkouts: dict, workload: str, seeds: list[int], log) -> dict:
    """Alternating pairs of ``--setup-only`` runs on ``seeds``; each side's set-up seconds and their comparison."""
    runs = {side: [] for side in SIDES}
    for seed, side, result in alternating_runs(checkouts, workload, seeds, ("--setup-only",)):
        runs[side].append(result["setup_s"])
        log(f"{workload} seed {seed} {side}: setup_s {result['setup_s']:.5f}")
    return {"seeds": seeds, "first": first_sides(len(seeds)),
            **{side: {"runs": runs[side], **spread(runs[side])} for side in SIDES},
            "comparison": compare(runs["parent"], runs["change"])}


def run_traced(checkouts: dict, workload: str, seeds: list[int], seconds: float, log) -> dict:
    """Alternating pairs of ``--trace 1`` runs on ``seeds``; each run's per-layer metrics and each side's medians."""
    passes = {side: [] for side in SIDES}
    options = ("--seconds", str(seconds), "--trace", "1")
    for seed, side, result in alternating_runs(checkouts, workload, seeds, options):
        passes[side].append(traced_summary(result))
        log(f"{workload} seed {seed} {side}: traced, failed {result['failed']}/{result['attempted']}")
    out = {"seeds": seeds, "first": first_sides(len(seeds))}
    for side in SIDES:
        names = passes[side][0]["metrics"]
        median = {name: statistics.median(p["metrics"][name] for p in passes[side]) for name in names}
        out[side] = {"runs": passes[side], "median": median}
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="the record is written to BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--claim", help="workload:metric a gain is claimed on")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--traced", action="store_true",
                        help=f"{TRACED_PAIRS} alternating pairs of --trace 1 runs per workload")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workload or metric not in METRICS:
            parser.error(f"--claim must be <one of the workloads>:<one of {', '.join(METRICS)}>")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{args.seconds:g} --trace 0",
        "rule": RULE,
        "order": "the parent runs first in even-numbered pairs (counted from 0), the change in odd ones",
        "statistics": "median and quartiles (inclusive method) over the runs of each side; pairs_change_lower "
                      "counts pairs in which the change read lower; median_gap = parent median - change "
                      "median; relative = change median / parent median - 1",
        "machine": {"python": platform.python_version(), "platform": platform.platform()},
        "setup_command": "python3 perfbench/run.py --workload <w> --seed <s> --setup-only",
        "workloads": {},
    }
    log = lambda line: print(line, file=sys.stderr, flush=True)  # noqa: E731
    seed = args.first_seed
    for workload in args.workload:
        seeds = list(range(seed, seed + args.pairs))
        seed += args.pairs
        record["workloads"][workload] = run_pairs(checkouts, workload, seeds, args.seconds, log)
        record["workloads"][workload]["setup_only"] = run_setups(
            checkouts, workload, cycled(seeds, SETUP_PAIRS), log)
        if args.traced:
            record["workloads"][workload]["traced"] = run_traced(
                checkouts, workload, cycled(seeds, TRACED_PAIRS), args.seconds, log)
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        record["claim"] = {"workload": workload, "metric": metric,
                           **record["workloads"][workload]["comparison"][metric]}
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    log(f"wrote {path}")
    return 0 if all(all(w[side]["correct"]) for w in record["workloads"].values() for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
