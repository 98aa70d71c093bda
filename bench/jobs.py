"""Seeded job lists for the three benchmark workloads.

A job is one `gpsrb` command line plus the generated data its oracle needs.
The program only ever sees the command line and the table files written
here; the oracle in `oracle.py` works from `Job.data`, never from the
program's own parser or tables.

Each workload has a fixed menu of job classes (what kind of command, how big,
over which ring) with a fixed count per class, and the sizes and the order of
the jobs do not depend on the seed. The seed picks the content: table
relabellings, coefficients, exponent positions, threshold offsets and the
laurent-demo seed. Fixing the menu keeps the work of a run nearly the same
from seed to seed, so throughput and percentiles are steady across seeds while
the inputs differ.

Sizes within a class come in a low-discrepancy order, and the classes are
interleaved by stride, so any prefix of the list holds each class and each
size range in about its share of the whole list: a run that stops part way
through the list still sees the whole mix.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("sweep", "scan", "arith")


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple
    data: dict = field(default_factory=dict)
    env: tuple = ()  # (name, value) pairs set around the call


def interleave(classes: list[list[Job]]) -> list[Job]:
    """Merge job classes so each one is spread evenly over the result."""
    keyed = []
    for ci, jobs in enumerate(classes):
        k = len(jobs)
        for i, job in enumerate(jobs):
            keyed.append(((2 * i + 1) / (2 * k), ci, i, job))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def van_der_corput(i: int, base: int) -> float:
    x, scale = 0.0, 1.0
    while i:
        i, digit = divmod(i, base)
        scale /= base
        x += digit * scale
    return x


def spread(lo: int, hi: int, k: int, base: int = 2) -> list[int]:
    """k integers covering lo..hi evenly, ordered so every prefix covers it too.

    Two lists made with different bases pair their sizes without correlation.
    """
    vals = [lo + round(i * (hi - lo) / (k - 1)) for i in range(k)] if k > 1 else [(lo + hi) // 2]
    by_point = sorted(range(k), key=lambda i: van_der_corput(i, base))
    out = [0] * k
    for rank, i in enumerate(by_point):
        out[i] = vals[rank]
    return out


# ---------------------------------------------------------------- sweep


def cyclic(n: int) -> tuple[str, list[list[int]]]:
    return f"Z/{n}", [[(i + j) % n for j in range(n)] for i in range(n)]


def min_cap(m: int) -> tuple[str, list[list[int]]]:
    n = m + 1
    return f"min-cap({m})", [[min(i + j, m) for j in range(n)] for i in range(n)]


def direct_product(a, b) -> tuple[str, list[list[int]]]:
    (na, ta), (nb, tb) = a, b
    p, q = len(ta), len(tb)
    n = p * q
    add = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            add[x][y] = ta[x // q][y // q] * q + tb[x % q][y % q]
    return f"{na}x{nb}", add


# (n, count per list, families of that size). Sizes 10-12 hold no min-cap(m)
# table: its sweep cost swings several-fold with the labelling, and at that
# size a few such jobs would move a whole run's throughput and percentiles.
SWEEP_MENU = (
    (6, 30, (lambda: cyclic(6), lambda: min_cap(5), lambda: direct_product(cyclic(2), cyclic(3)),
             lambda: direct_product(min_cap(1), cyclic(3)))),
    (7, 30, (lambda: cyclic(7), lambda: min_cap(6))),
    (8, 42, (lambda: cyclic(8), lambda: min_cap(7), lambda: direct_product(cyclic(2), cyclic(4)),
             lambda: direct_product(cyclic(2), min_cap(3)))),
    (9, 24, (lambda: cyclic(9), lambda: min_cap(8), lambda: direct_product(cyclic(3), cyclic(3)),
             lambda: direct_product(cyclic(3), min_cap(2)))),
    (10, 18, (lambda: cyclic(10), lambda: direct_product(cyclic(2), cyclic(5)))),
    (11, 2, (lambda: cyclic(11),)),
    (12, 1, (lambda: direct_product(cyclic(3), min_cap(3)),)),
)


def relabel(add: list[list[int]], perm: list[int]) -> tuple[int, list[list[int]]]:
    """Table of the same monoid with element i renamed perm[i]; returns (neutral, add)."""
    n = len(add)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[add[i][j]]
    return perm[0], out


def table_json(name: str, neutral: int, add: list[list[int]]) -> dict:
    n = len(add)
    # leq must hold JSON booleans: load_table rejects 1/0. Trivial order.
    leq = [[i == j for j in range(n)] for i in range(n)]
    return {"name": name, "n": n, "neutral": neutral, "add": add, "leq": leq}


def sweep_jobs(rng: random.Random, workdir: str) -> list[Job]:
    classes = []
    serial = 0
    for n, count, families in SWEEP_MENU:
        jobs = []
        for i in range(count):
            name, add = families[i % len(families)]()
            # The neutral element keeps label 0, as in the shipped tables; the
            # seed relabels the rest. Where the neutral element sits in the
            # label order sets most of the sweep's cost (pairs with it never
            # break closure), so a seeded neutral label would make the work
            # of a run swing by a factor of four from seed to seed.
            others = list(range(1, n))
            rng.shuffle(others)
            neutral, add = relabel(add, [0] + others)
            table = table_json(name, neutral, add)
            path = os.path.join(workdir, f"table{serial:03d}.json")
            serial += 1
            with open(path, "w") as fh:
                json.dump(table, fh)
            jobs.append(Job(f"sweep-n{n}", ("theorem-verify", "--table", path, "--json"), {"table": table}))
        classes.append(jobs)
    return interleave(classes)


# ---------------------------------------------------------------- scan


def scan_jobs(rng: random.Random) -> list[Job]:
    classes = []

    # cutoff-scan on Z: window radius and threshold-range width set the cost
    for label, count, (r_lo, r_hi), (w_lo, w_hi) in (
        ("cutoff-z-small", 40, (8, 12), (3, 7)),
        ("cutoff-z-large", 18, (14, 20), (7, 11)),
    ):
        jobs = []
        for radius, width in zip(spread(r_lo, r_hi, count), spread(w_lo, w_hi, count, 3)):
            start = rng.randint(-width, 2)
            w_range = (start, start + width - 1)
            jobs.append(Job(label, ("cutoff-scan", "--w-range", f"{w_range[0]}..{w_range[1]}",
                                    "--window", f"{-radius}..{radius}", "--json"),
                            {"monoid": "Z", "w_range": w_range, "radius": radius}))
        classes.append(jobs)

    # cutoff-scan on Z^2: a 1x1 or 2x2 box of thresholds over a box window
    for order in ("product", "lex"):
        jobs = []
        for radius, w_range in [(2, (-1, 0)), (2, (0, 1)), (2, (0, 0)), (3, (0, 0))] * 3:
            shift = rng.choice((-1, 0, 1)) if w_range[0] == w_range[1] else 0
            w_range = (w_range[0] + shift, w_range[1] + shift)
            jobs.append(Job(f"cutoff-z2{order}", ("cutoff-scan", "--monoid", f"Z^2:{order}",
                                                  "--w-range", f"{w_range[0]}..{w_range[1]}",
                                                  "--window", f"{-radius}..{radius}", "--json"),
                            {"monoid": f"Z^2:{order}", "w_range": w_range, "radius": radius}))
        classes.append(jobs)

    # full-window rb-check on Z, decompositions that pass and that fail
    for label, decomps, count in (
        ("rb-check-pass", ("negatives", "nonnegatives", "below(0)"), 24),
        ("rb-check-fail", ("odds", "evens"), 12),
    ):
        jobs = [
            Job(label, ("rb-check", "--decomp", decomps[i % len(decomps)],
                        "--window", f"{-radius}..{radius}", "--ring", ("Q", "Z")[i % 2], "--json"),
                {"decomp": decomps[i % len(decomps)], "radius": radius})
            for i, radius in enumerate(spread(8, 20, count, 3))
        ]
        classes.append(jobs)

    # seeded pole-part walkthrough over Q and Z/m
    jobs = []
    for i, count in enumerate(spread(100, 300, 24, 3)):
        ring = "Q" if i % 2 == 0 else f"Z/{(7, 12, 101)[i // 2 % 3]}"
        demo_seed = rng.randrange(1 << 30)
        jobs.append(Job("laurent-demo", ("laurent-demo", "--count", str(count), "--ring", ring, "--json"),
                        {"ring": ring, "count": count, "seed": demo_seed},
                        env=(("GPS_RB_SEED", str(demo_seed)),)))
    classes.append(jobs)
    return interleave(classes)


# ---------------------------------------------------------------- arith


def fmt_exp(k) -> str:
    return f"({','.join(map(str, k))})" if isinstance(k, tuple) else str(k)


def expr(terms: dict, tail: int | None = None) -> str:
    """Expression text for {exp: coeff}; negatives written as `a - c*e^k`."""
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*e^{fmt_exp(k)}" for k, c in terms.items())
    if tail is not None:
        text = f"{text} + O(e^{tail})"
    text = text.lstrip(" +")
    return "-" + text[2:] if text.startswith("- ") else text


def rand_coeffs(rng: random.Random, ring: str, k: int) -> list:
    """k nonzero coefficients of either sign; plain integers except over Q."""
    top = 20 if ring == "Q" else int(ring[2:]) - 1 if ring.startswith("Z/") else 999
    values = rng.choices([*range(-top, 0), *range(1, top + 1)], k=k)
    if ring == "Q":
        return [Fraction(c, d) for c, d in zip(values, rng.choices(range(1, 10), k=k))]
    return values


def dense_terms(rng: random.Random, ring: str, size: int, lo: int) -> dict:
    return dict(zip(range(lo, lo + size), rand_coeffs(rng, ring, size)))


def sparse_terms(rng: random.Random, ring: str, size: int, exps) -> dict:
    return dict(zip(rng.sample(exps, size), rand_coeffs(rng, ring, size)))


def arith_job(kind: str, op: str, f: dict, g: dict, ring: str, json_out: bool,
              monoid: str = "Z", laurent: tuple | None = None) -> Job:
    """laurent is (f_trunc, g_trunc) with None for an exact operand."""
    f_tail, g_tail = laurent if laurent else (None, None)
    argv = [op, expr(f, f_tail), expr(g, g_tail), "--ring", ring, "--monoid", monoid]
    if laurent:
        argv.append("--laurent")
    if json_out:
        argv.append("--json")
    data = {"op": op, "f": f, "g": g, "ring": ring, "monoid": monoid, "json": json_out,
            "laurent": laurent}
    return Job(kind, tuple(argv), data)


def json_slot(i: int) -> bool:
    # spread() alternates low and high sizes, so pair slots up before alternating
    return i // 2 % 2 == 0


def arith_jobs(rng: random.Random) -> list[Job]:
    classes = []

    for ring, count in (("Z", 30), ("Z/101", 16)):
        jobs = []
        for i, (size_f, size_g) in enumerate(zip(spread(100, 600, count), spread(60, 300, count, 3))):
            f = dense_terms(rng, ring, size_f, rng.randint(-50, 50))
            g = dense_terms(rng, ring, size_g, rng.randint(-50, 50))
            jobs.append(arith_job(f"mul-dense-{ring}", "mul", f, g, ring, json_slot(i)))
        classes.append(jobs)

    span = range(-5000, 5001)
    jobs = []
    for i, (size_f, size_g) in enumerate(zip(spread(50, 300, 20), spread(30, 160, 20, 3))):
        f, g = sparse_terms(rng, "Q", size_f, span), sparse_terms(rng, "Q", size_g, span)
        jobs.append(arith_job("mul-sparse-Q", "mul", f, g, "Q", json_slot(i)))
    classes.append(jobs)

    box = [(a, b) for a in range(-20, 21) for b in range(-20, 21)]
    jobs = []
    for i, (size_f, size_g) in enumerate(zip(spread(30, 150, 16), spread(20, 100, 16, 3))):
        ring = ("Z", "Q")[i // 4 % 2]
        f, g = sparse_terms(rng, ring, size_f, box), sparse_terms(rng, ring, size_g, box)
        jobs.append(arith_job("mul-sparse-Z2", "mul", f, g, ring, json_slot(i), monoid="Z^2:product"))
    classes.append(jobs)

    jobs = []
    for i, (size_f, size_g) in enumerate(zip(spread(100, 300, 20), spread(50, 200, 20, 3))):
        ring = ("Z", "Q")[i // 4 % 2]
        lo_f, lo_g = rng.randint(-20, 0), rng.randint(-20, 0)
        f = dense_terms(rng, ring, size_f, lo_f)
        g = dense_terms(rng, ring, size_g, lo_g)
        tails = (lo_f + size_f, None if i % 4 == 3 else lo_g + size_g)
        jobs.append(arith_job("mul-laurent-dense", "mul", f, g, ring, json_slot(i), laurent=tails))
    classes.append(jobs)

    for kind, count, (lo_size, hi_size) in (("add", 16, (100, 600)), ("add-laurent", 8, (100, 300))):
        jobs = []
        for i, size in enumerate(spread(lo_size, hi_size, count)):
            ring = ("Z", "Q", "Z/101")[i // 2 % 3]
            lo = rng.randint(-50, 50)
            f = dense_terms(rng, ring, size, lo)
            g = sparse_terms(rng, ring, size // 2, range(lo - size, lo + 2 * size))
            top = max(max(f), max(g)) + 1
            tails = (top, top + 5) if kind == "add-laurent" else None
            jobs.append(arith_job(kind, "add", f, g, ring, json_slot(i), laurent=tails))
        classes.append(jobs)

    # Laurent products with one sparse high exponent: the dense window of the
    # truncated-Laurent representation makes these cost time and memory in
    # proportion to the exponent, not to the number of terms.
    jobs = []
    for _ in range(2):
        k = rng.randint(95_000, 100_000)
        f = {0: 1, k: rand_coeffs(rng, "Z", 1)[0]}
        g = {0: rand_coeffs(rng, "Z", 1)[0]}
        jobs.append(arith_job("mul-laurent-high", "mul", f, g, "Z", False, laurent=(None, k + 20_000)))
    merged = interleave(classes)
    # fixed early slots, so every run includes both and peak memory is comparable
    merged.insert(1, jobs[0])
    merged.insert(len(merged) // 4, jobs[1])
    return merged


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """The job list of a workload; sweep writes its table files into workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return sweep_jobs(rng, workdir)
    if workload == "scan":
        return scan_jobs(rng)
    if workload == "arith":
        return arith_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")
