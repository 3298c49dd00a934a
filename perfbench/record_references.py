"""Record the reference outputs the benchmark checks against.

Runs every seed-independent operation of scenario_artifacts and mms_sweep
once and writes perfbench/references.json.  Re-record only when a change
is meant to alter these numbers, and say so in the change.

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench" / "references"
    shutil.rmtree(work, ignore_errors=True)
    refs = {"scenario_artifacts": {}, "mms_sweep": {}}
    scenario = workloads.build("scenario_artifacts", 0, work / "scenario")
    scenario.reset()
    for op in scenario.operations:
        if op.name.startswith("custom"):
            continue  # checked against its manufactured solution instead
        op.run()
        summary = workloads.read_summary(scenario.out_dir / op.name)
        refs["scenario_artifacts"][op.name] = workloads.observe_scenario(summary)
    out = work / "mms"
    for name, cfg, keyword, levels in workloads.sweeps():
        cfg = workloads.replace(cfg, output_dir=str(out / name))
        rows = workloads.scenarios.run_convergence(cfg, **{keyword: levels})
        refs["mms_sweep"][name] = [row["error_H"] for row in rows]
    workloads.REFERENCES_PATH.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {workloads.REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
