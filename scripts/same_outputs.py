"""Check that two source trees give the same exit code and stdout on every bench job.

    python scripts/same_outputs.py OLD_TREE NEW_TREE [--workloads sweep scan arith]
                                   [--seeds 1 2 3] [--limit N]

Each tree is a source checkout with `src/` and `bench/`. For each tree one
child process loads that tree's `bench/run.py`, builds the job lists of the
workloads at the seeds with `bench/jobs.py`, and runs each job through
`run.call`, which calls the tree's own `gpsrb.cli.main`. The two trees share
no process, so neither can see the other's modules. --limit keeps the first
N jobs of each list.

Two parts of an output differ from run to run and are masked before the
comparison: the `elapsed` time of theorem-verify, and the temporary
directory the sweep's tables are written to. Every job whose exit code or
stdout differs is listed on stdout, and the exit code is 1 when any does.
The script reads `bench/` and writes nothing there.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

ELAPSED = re.compile(r'("elapsed": |elapsed: )[0-9.e+-]+')


def masked(text: str, tables: str) -> str:
    return ELAPSED.sub(r"\1<elapsed>", text.replace(tables, "<tables>"))


def emit(tree: str, workloads: list[str], seeds: list[int], limit: int | None) -> None:
    """In the child: one JSON line [workload, seed, index, argv, exit code, stdout] per job."""
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "bench"))
    import run  # the tree's bench/run.py; its setup imports gpsrb from the tree's src/

    for workload in workloads:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tables:
                cli, jobs = run.setup(workload, seed, tables)
                for index, job in enumerate(jobs[:limit]):
                    rc, out, _ = run.call(cli, job)
                    argv = masked(" ".join(job.argv), tables)
                    print(json.dumps([workload, seed, index, argv, rc, masked(out, tables)]))


def outputs(tree: str, args) -> list:
    """The masked job results of one tree, from a child process of its own."""
    cmd = [sys.executable, os.path.abspath(__file__), "--emit", tree, tree]
    cmd += ["--workloads", *args.workloads, "--seeds", *map(str, args.seeds)]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    child = subprocess.run(cmd, capture_output=True, text=True)
    if child.returncode:
        sys.exit(f"same_outputs: the jobs of {tree} did not run:\n{child.stderr}")
    return [json.loads(line) for line in child.stdout.splitlines()]


def differences(old: list, new: list) -> list[str]:
    """One line per job whose argv, exit code or stdout differs, and one for unequal job counts."""
    lines = []
    for (workload, seed, index, argv, rc, out), (_, _, _, new_argv, new_rc, new_out) in zip(old, new):
        where = f"{workload} seed {seed} job {index}"
        if argv != new_argv:
            lines.append(f"{where}: argv {argv!r} -> {new_argv!r}")
        elif rc != new_rc:
            lines.append(f"{where}: exit {rc!r} -> {new_rc!r}: {argv}")
        elif out != new_out:
            lines.append(f"{where}: stdout differs: {argv}")
    if len(old) != len(new):
        lines.append(f"job count {len(old)} -> {len(new)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workloads", nargs="+", default=["sweep", "scan", "arith"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--limit", type=int, default=None, help="first N jobs of each job list")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.old, args.workloads, args.seeds, args.limit)
        return 0
    old, new = outputs(args.old, args), outputs(args.new, args)
    lines = differences(old, new)
    for line in lines:
        print(line)
    print(f"{len(old)} jobs, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
