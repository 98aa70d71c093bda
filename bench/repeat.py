"""Repeat the benchmark over seeds and report each metric's spread against its bound.

    python3 bench/repeat.py --workloads sweep,scan,arith --seeds 1-10 [--trace 1] [--out FILE]

Runs `bench/run.py` once per (workload, seed), one at a time, with the
settings in BENCHMARK.json. For each end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the quartile spread as a share
of the median next to the metric's bound. --out writes every run's result
and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,scan,arith")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, summary = [], {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            note = f"bound {bound}" if bound is not None else ""
            print(f"  {workload:6s} {name:34s} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  spread {s['spread']:.4f} {note}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
