"""Smoke test of tools/artifact_digests.py, the command behind the byte-identity checks."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"


def test_prints_the_exit_code_and_a_digest_of_every_output():
    out = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    blocks = [block.splitlines() for block in out.split("# pdae1d ")[1:]]
    commands = {block[0].split()[0]: [] for block in blocks}
    for block in blocks:
        command = block[0].split()
        assert re.fullmatch(r"exit [0-2]", block[1])
        names = []
        for line in block[2:]:
            digest, name = line.split("  ")
            assert re.fullmatch("[0-9a-f]{64}", digest)
            names.append(name)
        assert names[:2] == ["stdout", "stderr"]
        commands[command[0]].append((command, block[1], names[2:]))
    assert [len(commands[name]) for name in ("run", "converge", "verify", "mms-sources")] == [26, 4, 3, 3]
    # the runs from a config file take their scenario from it
    from_file = {"rerun-mms-picard": "mms", "run-int-floats": "decay"}
    # an output directory that is an existing file: the write fails and leaves nothing
    failed_write = "custom-ic.txt"
    for command, code, files in commands["run"]:
        out_dir = command[-1]
        if out_dir == failed_write:
            assert (code, files) == ("exit 1", [])
            continue
        scenario = from_file[out_dir] if "--config" in command else command[command.index("--scenario") + 1]
        if out_dir in ("run-picard-no-convergence", "run-custom-overflow-picard"):  # a step failure
            assert code == "exit 1"
        else:
            assert code == ("exit 2" if scenario == "growth_probe" else "exit 0")
        tables = ["constraint.csv", "mms_error.csv", "summary.json", "trajectory.csv"]
        if scenario != "mms":
            tables.remove("mms_error.csv")
        assert files == [f"{out_dir}/{table}" for table in tables]
    for command, code, files in commands["converge"]:
        if command[-1] == failed_write:
            assert (code, files) == ("exit 1", [])
        else:
            assert (code, files) == ("exit 0", [f"{command[-1]}/convergence.csv"])
    for command, code, files in commands["verify"]:
        assert (code, files) == ("exit 0", [command[-1]])
    assert [files for _, _, files in commands["mms-sources"]] == [
        ["mms-sources/table.txt"], [], ["mms-sources-63/table.txt"]
    ]
