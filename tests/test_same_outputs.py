"""scripts/same_outputs.py: a tree against itself reads the same, and a changed job is listed."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SCRIPT = os.path.join(ROOT, "scripts", "same_outputs.py")

spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_a_tree_against_itself_has_no_differences():
    # each side writes the sweep tables to its own directory and times its
    # own sweeps, so only the masks make the two sides equal
    cmd = [sys.executable, SCRIPT, ROOT, ROOT, "--workloads", "sweep", "scan", "--seeds", "1", "--limit", "3"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "6 jobs, 0 differences\n", "")


def test_masks_and_differences():
    text = '{"monoid": "Z/6", "elapsed": 0.0123}\nelapsed: 4.5e-05s\n/tmp/t1/table000.json'
    assert same_outputs.masked(text, "/tmp/t1") == (
        '{"monoid": "Z/6", "elapsed": <elapsed>}\nelapsed: <elapsed>s\n<tables>/table000.json'
    )
    old = [["scan", 1, 0, "cutoff-scan", 0, "a"], ["scan", 1, 1, "rb-check", 1, "b"], ["arith", 1, 0, "mul", 0, "c"]]
    new = [["scan", 1, 0, "cutoff-scan", 0, "a"], ["scan", 1, 1, "rb-check", 0, "b"], ["arith", 1, 0, "mul", 0, "d"]]
    assert same_outputs.differences(old, new) == [
        "scan seed 1 job 1: exit 1 -> 0: rb-check",
        "arith seed 1 job 0: stdout differs: mul",
    ]
    assert same_outputs.differences(old, new[:1]) == ["job count 3 -> 1"]
    assert same_outputs.differences(old, old) == []
