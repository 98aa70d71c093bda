"""gpsrb benchmark: seeded CLI jobs through `gpsrb.cli.main`, checked by an oracle.

    python3 bench/run.py --workload sweep|scan|arith --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/`. One client, closed loop: each job is one in-process call of
`gpsrb.cli.main(argv)` with stdout captured, and the next job starts when the
previous one has returned. Jobs are taken in order from the workload's seeded
job list (see `jobs.py`), wrapping around, until the calls have used `--seconds`
seconds of host-speed-corrected time (below). Every output is checked by
`oracle.py` between calls, outside the timed region.

--trace 0 prints the end-to-end metrics. setup_s is the median over several
fresh processes of the time from the first line of this script until the
first job can start (import gpsrb.cli, generate and write the inputs).

Job times are corrected for the host's speed. On a shared machine the speed
of one core swings by a third within seconds, and a run's plain wall times
by as much, which would hide any change smaller than that. So a fixed
reference computation (`reference_kernel`) is timed before every job, and a
job's time is reported as its wall time scaled by REF_NOMINAL_S over the mean
of the reference times just before and just after it: the time the job would
take on a host where the reference takes REF_NOMINAL_S. jobs_per_s, job_p50_ms
and job_p90_ms use these times, and so does the run's time budget, so a run
covers about the same jobs on a fast or a slow host. The plain wall-clock figures
are printed on stderr. Each setup_s sample is corrected the same way, by the
reference timed in its own process right after set-up.

--trace 1 runs a fixed prefix of the job list twice, first plain and then with
span wrappers installed (see `spans.py`), and prints the per-layer metrics of
the traced pass, totalled over that prefix, so counts repeat exactly for a
given seed. trace.overhead_ratio is traced time over plain time for the same
jobs, both corrected for host speed; the per-layer times are plain wall clock.
The raw spans go to .bench_work/spans-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object; a readable table goes to stderr.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")

SETUP_SAMPLES = 5  # this process plus four fresh probe processes
REF_NOMINAL_S = 0.001  # about the reference kernel's time on an idle core of the first host
# A timed run also stops after this multiple of --seconds of wall time, so a
# slow host, or a much faster program whose outputs all still get checked,
# cannot stretch a run past the time its caller allows.
WALL_FACTOR = 1.7
# Jobs in the --trace 1 prefix: about 8 s of untraced calls per workload at
# the first baseline, so a traced run stays well inside its time limit.
TRACE_JOBS = {"sweep": 40, "scan": 64, "arith": 80}

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


def setup(workload: str, seed: int, workdir: str):
    """Import the program and generate the job list; returns (cli module, jobs)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "gpsrb")):
        raise BenchError(f"no package sources under {src}")
    sys.path.insert(0, src)
    import gpsrb.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError(f"imported gpsrb from {cli.__file__}, not from {src}")
    import jobs

    return cli, jobs.make_jobs(workload, seed, workdir)


def call(cli, job):
    """One job: returns (exit code or crash text, stdout, seconds inside cli.main)."""
    saved = {name: os.environ.get(name) for name, _ in job.env}
    os.environ.update(dict(job.env))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(list(job.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed job, not a failed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return rc, out.getvalue(), elapsed


@dataclass(frozen=True)
class _Boxed:
    """An immutable boxed integer, like the program's scalar wrappers."""

    value: int

    def __add__(self, other: "_Boxed") -> "_Boxed":
        return _Boxed(self.value + other.value)

    def __mul__(self, other: "_Boxed") -> "_Boxed":
        return _Boxed(self.value * other.value)


def reference_kernel() -> float:
    """Seconds taken by a fixed computation shaped like the program's inner loop.

    Small dict convolutions of boxed coefficients: the same mix of calls,
    allocations and hashing the program spends its time on, so a slowdown of
    the host slows both alike. It never changes with the program.
    """
    start = time.perf_counter()
    for _ in range(6):
        f = {i: _Boxed(i + 1) for i in range(12)}
        g = {2 * i: _Boxed(i - 3) for i in range(12)}
        acc: dict = {}
        for u, a in f.items():
            for v, b in g.items():
                s = u + v
                p = a * b
                acc[s] = acc[s] + p if s in acc else p
    return time.perf_counter() - start


class Loop:
    """Runs jobs in list order and checks each output against the oracle.

    times holds each job's wall time and scaled its time corrected for host speed.
    """

    def __init__(self, cli, job_list):
        import oracle

        self.cli = cli
        self.jobs = job_list
        self.oracle = oracle
        self.expected: dict[int, object] = {}
        self.passed: dict[int, tuple] = {}  # index -> (exit code, output digest) the oracle accepted
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0

    def run(self, count: int | None = None, seconds: float | None = None) -> None:
        """Run `count` jobs, or jobs until `seconds` of corrected call time."""
        busy = 0.0
        i = 0
        wall_end = time.perf_counter() + WALL_FACTOR * (seconds or 0)
        before = reference_kernel()
        while (count is not None and i < count) or (
            count is None and busy < seconds and time.perf_counter() < wall_end
        ):
            index = i % len(self.jobs)
            job = self.jobs[index]
            rc, out, elapsed = call(self.cli, job)
            after = reference_kernel()
            self.times.append(elapsed)
            self.scaled.append(elapsed * 2 * REF_NOMINAL_S / (before + after))
            busy += self.scaled[-1]
            before = after
            self.check(index, job, rc, out)
            i += 1

    def check(self, index: int, job, rc, out: str) -> None:
        seen = (rc, hashlib.blake2b(out.encode()).digest())
        if self.passed.get(index) == seen:
            return
        if index not in self.expected:
            self.expected[index] = self.oracle.expected_for(job)
        reason = self.oracle.check(job, rc, out, self.expected[index])
        if reason is None:
            self.passed[index] = seen
            return
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED job {index} ({job.kind}): {reason}", file=sys.stderr)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh process running this script with --setup-probe."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def job_stats(times: list[float]) -> dict:
    p90 = statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_p90_ms": p90 * 1e3,
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "scan", "arith"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import resource
    import shutil
    import tempfile

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        cli, job_list = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        setup_s *= REF_NOMINAL_S / min(reference_kernel() for _ in range(3))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        loop = Loop(cli, job_list)
        if args.trace:
            import spans

            count = TRACE_JOBS[args.workload]
            loop.run(count=count)
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                loop.run(count=count)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
            overhead = sum(loop.scaled[count:]) / sum(loop.scaled[:count])
            values = spans.layer_values(tracer, overhead)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            if tracer.absent:
                print(f"absent entry points: {', '.join(tracer.absent)}", file=sys.stderr)
            for label, prefixes in (("projectors.* + series.*", ("projectors.", "series.")),
                                    ("series.mul + laurent.mul + parsing.*",
                                     ("series.mul", "laurent.mul", "parsing."))):
                share = spans.self_share(tracer, prefixes)
                print(f"self-time share of {label}: {share:.3f}", file=sys.stderr)
        else:
            loop.run(seconds=args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            samples = [setup_s] + [setup_probe(args.workload, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
            values = {**job_stats(loop.scaled), "peak_rss_mb": rss_mb,
                      "setup_s": statistics.median(samples)}
            units = dict(END_TO_END)
            wall = ", ".join(f"{k} {v:.4f}" for k, v in job_stats(loop.times).items())
            print(f"plain wall clock: {wall}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.times)
    print(f"{args.workload} seed {args.seed}: {attempted} jobs, {loop.failed} failed "
          f"(failed_jobs_ratio {loop.failed / attempted:.4f})", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:34s} {value:14.4f} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
