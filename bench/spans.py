"""Span tracing of `gpsrb` layers from outside the package.

`install` wraps the public entry points of each module (the ENTRY_POINTS
table) and rebinds every module-level name in any `gpsrb.*` module that is
the same object, since modules import each other's functions by name.
Each span records its name, start, end, parent and the job it belongs to.
Self time is a span's duration minus the time its child spans cover; with
one thread, children nest inside their parent and do not overlap.

Parse and render spans are leaves: the series arithmetic the parser does to
build a value counts as parsing, and spans nested in a leaf are not recorded.
Likewise `Series.__sub__` is one "series.add" span covering its negation.

An entry point that no longer exists is listed in `Tracer.absent` instead
of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

KEEP_SPANS = 50_000  # raw spans kept for the span file; aggregates cover all


class Tracer:
    def __init__(self, clock=time.perf_counter_ns, keep: int = KEEP_SPANS):
        self.clock = clock
        self.keep = keep
        self.job = 0
        self.stack: list[list] = []  # [span id, name, start, child time, leaf]
        self.next_id = 1
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (job, id, parent, name, start, end)
        self.absent: list[str] = []
        self._restore: list = []

    def enter(self, name: str, leaf: bool = False) -> list:
        frame = [self.next_id, name, 0, 0, leaf]
        self.next_id += 1
        self.stack.append(frame)
        frame[2] = self.clock()
        return frame

    def exit(self, frame: list) -> int:
        """Close the innermost span; returns its duration in ns."""
        end = self.clock()
        span_id, name, start, child, _ = frame
        self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        else:
            parent = None
        if len(self.spans) < self.keep:
            self.spans.append((self.job, span_id, parent, name, start, end))
        return duration

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for job, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": job, "id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time of each span: its duration minus the union of its children's intervals.

    spans are (job, id, parent, name, start, end) tuples, as the tracer keeps them.
    """
    children = defaultdict(list)
    for _, span_id, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for _, span_id, _, _, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children[span_id]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = end - start - covered
    return out


# ---------------------------------------------------------------- counters
# Each hook runs after its span has closed; like the rest of the wrapper, its
# cost shows in no layer's self time.


def _size(x) -> int:
    """Number of stored terms of a series value, 0 for anything else."""
    items = getattr(x, "items", None)
    if items is None:
        return 0
    view = items()
    try:
        return len(view)
    except TypeError:
        return sum(1 for _ in view)


def _ring_key(ring) -> str:
    text = str(ring)
    return {"Z": "ZZ", "Q": "QQ"}.get(text, "Zm" if text.startswith("Z/") else text)


def _series_mul(tr: Tracer, duration: int, args, result) -> None:
    if len(args) < 2 or not hasattr(args[1], "items"):
        return  # scalar multiple, not a product
    pairs = _size(args[0]) * _size(args[1])
    tr.counts["series.coeff_pairs"] += pairs
    tr.counts["series.out_terms"] += _size(result)
    key = _ring_key(getattr(args[0], "ring", "?"))
    tr.counts[f"series.pairs.{key}"] += pairs
    tr.counts[f"series.mul_ns.{key}"] += duration


def _laurent_mul(tr: Tracer, duration: int, args, result) -> None:
    stored = getattr(result, "coeffs", None)
    tr.counts["laurent.stored_coeffs"] += len(stored) if stored is not None else _size(result)
    tr.counts["laurent.nonzero_coeffs"] += _size(result)


def _parse(tr: Tracer, duration: int, args, result) -> None:
    tr.counts["parsing.terms_parsed"] += _size(result)


def _window(tr: Tracer, duration: int, args, result) -> None:
    if not tr.stack or tr.stack[-1][1] != "monoids.window":
        tr.counts["monoids.window_elems"] += len(result)


def _rb_defect(tr: Tracer, duration: int, args, result) -> None:
    is_zero = getattr(result, "is_zero", None)
    if is_zero is not None and not is_zero():
        tr.counts["projectors.defect_nonzero"] += 1
    if any(frame[1] == "oracles.sweep" for frame in tr.stack):
        tr.counts["oracles.defect_evals"] += 1


def _sweep(tr: Tracer, duration: int, args, result) -> None:
    tr.counts["oracles.masks"] += getattr(result, "decompositions_total", 0)


# (module, attribute or Class.attribute, span name, leaf, hook)
ENTRY_POINTS = (
    ("gpsrb.cli", "main", "cli.main", False, None),
    ("gpsrb.parsing", "parse_series", "parsing.parse", True, _parse),
    ("gpsrb.parsing", "render_series", "parsing.render", True, None),
    ("gpsrb.parsing", "render_laurent", "parsing.render", True, None),
    ("gpsrb.monoids", "load_table", "monoids.load_table", False, None),
    ("gpsrb.monoids", "default_window", "monoids.window", False, _window),
    ("gpsrb.monoids", "int_window", "monoids.window", False, _window),
    ("gpsrb.monoids", "vector_window", "monoids.window", False, _window),
    ("gpsrb.series", "Series.__mul__", "series.mul", False, _series_mul),
    ("gpsrb.series", "Series.__add__", "series.add", False, None),
    ("gpsrb.series", "indicator", "series.indicator", False, None),
    ("gpsrb.series", "Series.__sub__", "series.add", True, None),
    ("gpsrb.laurent", "TruncatedLaurent.__mul__", "laurent.mul", False, _laurent_mul),
    ("gpsrb.laurent", "pole_part", "laurent.pole_part", False, None),
    ("gpsrb.laurent", "tl_rb_defect", "laurent.rb_defect", False, None),
    ("gpsrb.projectors", "Projector.__call__", "projectors.apply", False, None),
    ("gpsrb.projectors", "rb_defect", "projectors.rb_defect", False, _rb_defect),
    ("gpsrb.projectors", "closed_under_addition", "projectors.closure", False, None),
    ("gpsrb.projectors", "cutoff_violation_pairs", "projectors.obstruction", False, None),
    ("gpsrb.projectors", "indicator_pair_scan", "projectors.pair_scan", False, None),
    ("gpsrb.oracles", "verify_theorem_decomposition", "oracles.sweep", False, _sweep),
    ("gpsrb.oracles", "scan_cutoffs", "oracles.scan", False, None),
)


def _wrap(tr: Tracer, fn, name: str, leaf: bool, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = tr.stack
        if stack and stack[-1][4]:
            return fn(*args, **kwargs)
        outer = tr.clock()
        frame = tr.enter(name, leaf)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tr.exit(frame)
        if hook is not None:
            hook(tr, duration, args, result)
        if stack:
            # the wrapper's own cost counts as covered by this span, so the
            # caller's self time holds none of the tracing overhead
            stack[-1][3] += tr.clock() - outer - duration
        return result

    return traced


def install(tr: Tracer) -> None:
    """Wrap every entry point that exists; record the missing ones in tr.absent."""
    for mod_name, attr, name, leaf, hook in ENTRY_POINTS:
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            tr.absent.append(f"{mod_name}.{attr}")
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if not isinstance(cls, type) or meth not in vars(cls):
                tr.absent.append(f"{mod_name}.{attr}")
                continue
            for klass in [cls, *_subclasses(cls)]:
                if meth in vars(klass):
                    original = vars(klass)[meth]
                    tr._restore.append((klass, meth, original))
                    setattr(klass, meth, _wrap(tr, original, name, leaf, hook))
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            tr.absent.append(f"{mod_name}.{attr}")
            continue
        wrapper = _wrap(tr, original, name, leaf, hook)
        for mod in list(sys.modules.values()):
            mod_name_here = getattr(mod, "__name__", "")
            if mod_name_here != "gpsrb" and not mod_name_here.startswith("gpsrb."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    tr._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# ---------------------------------------------------------------- per-layer metrics
# (name, unit, better). The table under each layer names the end-to-end metric
# it should move and the workload where that should show.
PER_LAYER = (
    ("cli.self_ms", "ms", "lower"),  # job_p50_ms on scan
    ("parsing.parse_ms", "ms", "lower"),  # job_p50_ms on arith
    ("parsing.terms_parsed", "count", "lower"),
    ("parsing.render_ms", "ms", "lower"),
    ("monoids.load_table_ms", "ms", "lower"),  # setup_s, job_p50_ms on sweep
    ("monoids.window_elems", "count", "lower"),
    ("series.mul_calls", "count", "lower"),  # jobs_per_s on arith (large products), sweep (per call)
    ("series.mul_ms", "ms", "lower"),
    ("series.coeff_pairs", "count", "lower"),
    ("series.fill_ratio", "ratio", "higher"),
    ("series.add_calls", "count", "lower"),
    ("series.add_ms", "ms", "lower"),
    ("series.ns_per_coeff_pair.ZZ", "ns", "lower"),  # scalars: jobs_per_s on arith, sweep
    ("series.ns_per_coeff_pair.QQ", "ns", "lower"),
    ("series.ns_per_coeff_pair.Zm", "ns", "lower"),
    ("laurent.mul_calls", "count", "lower"),  # peak_rss_mb, jobs_per_s on arith; job_p50_ms on scan
    ("laurent.mul_ms", "ms", "lower"),
    ("laurent.stored_coeffs", "count", "lower"),
    ("laurent.nonzero_ratio", "ratio", "higher"),
    ("laurent.pole_part_ms", "ms", "lower"),
    ("laurent.rb_defect_calls", "count", "lower"),
    ("projectors.apply_calls", "count", "lower"),  # jobs_per_s on sweep, scan
    ("projectors.apply_ms", "ms", "lower"),
    ("projectors.rb_defect_calls", "count", "lower"),
    ("projectors.rb_defect_self_ms", "ms", "lower"),
    ("projectors.defect_nonzero_ratio", "ratio", "higher"),
    ("projectors.closure_calls", "count", "lower"),
    ("projectors.closure_ms", "ms", "lower"),
    ("projectors.obstruction_ms", "ms", "lower"),
    ("projectors.pair_scan_self_ms", "ms", "lower"),
    ("oracles.masks", "count", "lower"),  # jobs_per_s, job_p90_ms on sweep; no move on arith
    ("oracles.defect_evals_per_mask", "ratio", "lower"),
    ("oracles.sweep_self_ms", "ms", "lower"),
    ("oracles.scan_self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),  # traced wall / untraced wall, same jobs
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tr: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric from the tracer's aggregates; 0 where a layer was not reached."""
    ms = lambda ns: ns / 1e6  # noqa: E731
    c, calls = tr.counts, tr.calls
    values = {
        "cli.self_ms": ms(tr.self_ns["cli.main"]),
        "parsing.parse_ms": ms(tr.total_ns["parsing.parse"]),
        "parsing.terms_parsed": c["parsing.terms_parsed"],
        "parsing.render_ms": ms(tr.total_ns["parsing.render"]),
        "monoids.load_table_ms": ms(tr.total_ns["monoids.load_table"]),
        "monoids.window_elems": c["monoids.window_elems"],
        "series.mul_calls": calls["series.mul"],
        "series.mul_ms": ms(tr.self_ns["series.mul"]),
        "series.coeff_pairs": c["series.coeff_pairs"],
        "series.fill_ratio": _ratio(c["series.out_terms"], c["series.coeff_pairs"]),
        "series.add_calls": calls["series.add"],
        "series.add_ms": ms(tr.self_ns["series.add"]),
        "laurent.mul_calls": calls["laurent.mul"],
        "laurent.mul_ms": ms(tr.self_ns["laurent.mul"]),
        "laurent.stored_coeffs": c["laurent.stored_coeffs"],
        "laurent.nonzero_ratio": _ratio(c["laurent.nonzero_coeffs"], c["laurent.stored_coeffs"]),
        "laurent.pole_part_ms": ms(tr.self_ns["laurent.pole_part"]),
        "laurent.rb_defect_calls": calls["laurent.rb_defect"],
        "projectors.apply_calls": calls["projectors.apply"],
        "projectors.apply_ms": ms(tr.self_ns["projectors.apply"]),
        "projectors.rb_defect_calls": calls["projectors.rb_defect"],
        "projectors.rb_defect_self_ms": ms(tr.self_ns["projectors.rb_defect"]),
        "projectors.defect_nonzero_ratio": _ratio(c["projectors.defect_nonzero"],
                                                  calls["projectors.rb_defect"]),
        "projectors.closure_calls": calls["projectors.closure"],
        "projectors.closure_ms": ms(tr.self_ns["projectors.closure"]),
        "projectors.obstruction_ms": ms(tr.self_ns["projectors.obstruction"]),
        "projectors.pair_scan_self_ms": ms(tr.self_ns["projectors.pair_scan"]),
        "oracles.masks": c["oracles.masks"],
        "oracles.defect_evals_per_mask": _ratio(c["oracles.defect_evals"], c["oracles.masks"]),
        "oracles.sweep_self_ms": ms(tr.self_ns["oracles.sweep"]),
        "oracles.scan_self_ms": ms(tr.self_ns["oracles.scan"]),
        "trace.overhead_ratio": overhead_ratio,
    }
    for key in ("ZZ", "QQ", "Zm"):
        values[f"series.ns_per_coeff_pair.{key}"] = _ratio(c[f"series.mul_ns.{key}"],
                                                          c[f"series.pairs.{key}"])
    return values


def self_share(tr: Tracer, prefixes: tuple[str, ...]) -> float:
    """Share of traced job time spent as self time in spans whose names start with a prefix.

    Traced job time here is the sum of all self times: the time of `cli.main`
    spans less the tracer's own cost.
    """
    covered = sum(ns for name, ns in tr.self_ns.items() if name.startswith(prefixes))
    return _ratio(covered, sum(tr.self_ns.values()))
