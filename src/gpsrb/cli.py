"""Command-line front end.

Subcommands: add/mul for series arithmetic, rb-check for the weight -1
identity on a decomposition, cutoff-scan for classifying cutoff thresholds,
theorem-verify for the exhaustive finite-monoid sweep, laurent-demo for a
seeded end-to-end run of the pole-part projector.

Exit codes: 0 all checks passed (window-limited passes are flagged in the
output), 1 a counterexample was found, 2 usage or input error (including an
rb-check or cutoff-scan run above PAIR_BUDGET single-term pairs, products of
parsed series above parsing.PRODUCT_BUDGET coefficient pairs in all, a Laurent
--json window above LAURENT_JSON_BUDGET coefficients, Z^d with d above MAX_DIM,
a table file above monoids.MAX_TABLE_SIZE elements, theorem-verify --max-size
above MAX_SWEEP_SIZE or full scans above oracles.SCAN_PAIR_BUDGET single-term
pairs, or laurent-demo --count above MAX_DEMO_COUNT), 3 internal fault: the
structural and semantic routes of cutoff-scan or theorem-verify disagreed
(theorem-verify still prints its report first), or an unexpected exception
escaped (its traceback goes to stderr); either means a bug. The env var
GPS_RB_SEED fixes the demo RNG seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction
from typing import Sequence

from .laurent import TruncatedLaurent, make_laurent, pole_part
from .monoids import (
    BadElement,
    BadTable,
    IntLine,
    IntVector,
    MonoidMismatch,
    OrderedMonoid,
    _is_int,
    load_table,
)
from .oracles import (
    DEFAULT_MAX_SIZE,
    RouteDisagreement,
    TooLarge,
    scan_cutoffs,
    verify_theorem_decomposition,
)
from .outcomes import CheckOutcome
from .parsing import (
    ParseError,
    ProductBudget,
    check_var,
    parse_series,
    render_laurent,
    render_series,
)
from .projectors import (
    Projector,
    closed_under_addition,
    defect_terms,
    indicator_pair_scan,
    rb_defect,
)
from .scalars import QQ, Ring, ZZ, Zmod
from .series import Series


class UsageError(ValueError):
    pass


# single-term pairs one rb-check or cutoff-scan run may examine: 13.5x the
# largest benchmark job (cutoff-scan on Z, 11 thresholds x 41^2 = 18,491 pairs);
# a run at the budget takes 0.32-1.8 s (one core of a shared 2-vCPU x86 host,
# Python 3.11)
PAIR_BUDGET = 250_000

# coefficients a Laurent --json result may list: its "coeffs" window is the one
# output still dense in the exponent; a window at the budget takes 0.6 s and a
# peak RSS of 97 MB (one core of a shared 2-vCPU x86 host, Python 3.11)
LAURENT_JSON_BUDGET = 1_000_000

# largest d of Z^d, checked before any d-tuple is built: 2^8 = 256 is the
# largest box with two points per axis under PAIR_BUDGET; on Z^8 a run at the
# pair budget takes 0.24-1.9 s, and a product of half PRODUCT_BUDGET with all
# sums distinct 5.1 s at 437 MB, against 4.2 s at 336 MB on Z^2 (same host)
MAX_DIM = 8

# largest theorem-verify --max-size, checked before the table is read: the
# sweep holds n + 2 mask sets of 2^n bits, about 3 MB at n = 20, where Z/20
# sweeps in 0.11 s and raises the peak RSS by 5.6 MB (same host); the time
# of its full scans is bounded by oracles.SCAN_PAIR_BUDGET
MAX_SWEEP_SIZE = 20

# pairs one laurent-demo may show, checked before the first is built: at the
# cap a run takes 1.9-3.2 s at a peak RSS of 17-18 MB, or 67-71 MB with
# --json, which keeps every pair until the one document is written (same host)
MAX_DEMO_COUNT = 10_000


def parse_monoid_spec(spec: str) -> OrderedMonoid:
    """"Z", "N", "Z^d:product", "Z^d:lex", or "table:<path>"."""
    if spec == "Z":
        return IntLine()
    if spec == "N":
        return IntLine(nonneg=True)
    if spec.startswith("Z^"):
        body = spec[2:]
        if ":" not in body:
            raise UsageError(f"vector monoid spec needs an order suffix: {spec!r}")
        d_text, order = body.split(":", 1)
        try:
            d = int(d_text)
        except ValueError:
            raise UsageError(f"bad dimension in {spec!r}") from None
        if not 1 <= d <= MAX_DIM:
            raise UsageError(f"dimension must be in 1..{MAX_DIM} in {spec!r}")
        if order in ("product", "lex"):
            return IntVector(d, lex=order == "lex")
        raise UsageError(f"unknown vector order {order!r} (want product or lex)")
    if spec.startswith("table:"):
        return load_table(spec[len("table:") :])
    raise UsageError(f"unknown monoid spec {spec!r}")


def parse_ring_spec(spec: str) -> Ring:
    if spec == "Z":
        return ZZ
    if spec == "Q":
        return QQ
    if spec.startswith("Z/"):
        try:
            m = int(spec[2:])
        except ValueError:
            raise UsageError(f"bad modulus in {spec!r}") from None
        try:
            return Zmod(m)
        except ValueError as exc:  # modulus below 2
            raise UsageError(str(exc)) from None
    raise UsageError(f"unknown ring spec {spec!r} (want Z, Q, or Z/m)")


def parse_range(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise UsageError(f"range must look like a..b, got {text!r}")
    lo_text, hi_text = text.split("..", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(f"range bounds must be integers: {text!r}") from None
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def parse_window_spec(
    monoid: OrderedMonoid, text: str | None, thresholds: tuple[int, int] | None = None
) -> list:
    """Window elements from "a..b"; vectors get the box [a,b]^d, tables their carrier.

    TooLarge comes first when |thresholds| x |window|^2 single-term pairs
    exceed the budget; the sizes come from the bounds alone, so an
    oversized box is never built.
    """
    bounds = monoid.default_bounds() if text is None else parse_range(text)
    size = monoid.window_size(*bounds)
    count = 1 if thresholds is None else monoid.window_size(*thresholds)
    pairs = count * size * size
    if pairs > PAIR_BUDGET:
        raise TooLarge(
            f"{count} threshold(s) x {size}^2 window elements = "
            f"{pairs} single-term pairs, above the budget of {PAIR_BUDGET}"
        )
    return monoid.window(*bounds)


_PLAIN_VOCAB = ("negatives", "nonnegatives", "positives", "nonpositives", "evens", "odds")


def parse_decomposition(monoid: OrderedMonoid, spec: str) -> Projector:
    """Named vocabulary, below(w)/notbelow(w), mask:<int>, or a JSON file path.

    The kept part is the set the argument names; its complement is the killed part.
    "nonnegatives" is literally not-negative (s not< 0), which on a partial
    order also catches elements incomparable with 0.
    """
    zero = monoid.zero()
    if spec in _PLAIN_VOCAB:
        if spec in ("evens", "odds") and not monoid.int_exponents:
            raise UsageError(f"{spec!r} needs an integer line monoid")
        keeps = {
            "negatives": lambda s: monoid.lt(s, zero),
            "nonnegatives": lambda s: not monoid.lt(s, zero),
            "positives": lambda s: monoid.lt(zero, s),
            "nonpositives": lambda s: not monoid.lt(zero, s),
            "evens": lambda s: s % 2 == 0,
            "odds": lambda s: s % 2 == 1,
        }[spec]
        return Projector(monoid, keeps, spec)
    if spec.startswith("below(") and spec.endswith(")"):
        w = monoid.parse_elem(spec[len("below(") : -1])
        return Projector.cutoff(monoid, w)
    if spec.startswith("notbelow(") and spec.endswith(")"):
        w = monoid.parse_elem(spec[len("notbelow(") : -1])
        return Projector.cutoff(monoid, w).complement()
    try:
        if spec.startswith("mask:"):
            return Projector.from_mask(monoid, int(spec[len("mask:") :], 0))
        if spec.endswith(".json") and os.path.exists(spec):
            return _decomposition_from_json(monoid, spec)
    except ValueError as exc:  # not an integer, a bad mask or index, or an infinite carrier
        raise UsageError(str(exc)) from None
    raise UsageError(
        f"unknown decomposition {spec!r}; choose from {', '.join(_PLAIN_VOCAB)}, "
        "below(w), notbelow(w), mask:<int>, or a .json file"
    )


def _decomposition_from_json(monoid: OrderedMonoid, spec: str) -> Projector:
    """{"mask": <int>} or {"kept": [<element index>, ...]} from a decomposition file."""
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or digit count
        raise UsageError(f"cannot read decomposition file {spec}: {exc}") from None
    if not isinstance(data, dict) or not ("mask" in data or "kept" in data):
        raise UsageError(
            f"decomposition file {spec} needs a JSON object with a 'mask' or 'kept' key"
        )
    if "mask" in data:
        return Projector.from_mask(monoid, data["mask"], label=spec)
    kept = data["kept"]
    if not (isinstance(kept, list) and all(_is_int(k) for k in kept)):
        raise UsageError(f"decomposition file {spec}: 'kept' must be a list of element indices")
    Projector.from_mask(monoid, 0)  # refuses an infinite carrier before any bit is set
    for k in kept:
        monoid.check_elem(k)
    return Projector.from_mask(monoid, sum(1 << k for k in set(kept)), label=spec)


def _outcome_text(oc: CheckOutcome) -> str:
    bits = [oc.verdict]
    if oc.witness is not None:
        bits.append(f"witness {json.dumps(oc.witness)}")
    if oc.window is not None:
        bits.append(f"[{oc.window}]")
    return "  ".join(bits)


def _parse(
    args, text: str, monoid: OrderedMonoid, ring: Ring, budget: ProductBudget, laurent: bool = False
):
    try:
        check_var(args.var)
    except ValueError as exc:  # not one name, or the tail marker
        raise UsageError(str(exc)) from None
    return parse_series(text, monoid, ring, var=args.var, laurent=laurent, budget=budget)


def _charge_product(budget: ProductBudget, f, g) -> None:
    refusal = budget.charge(f, g)
    if refusal:
        raise UsageError(refusal)


def _printable(fmt, *args):
    try:
        return fmt(*args)
    except ValueError as exc:  # an integer past the interpreter's digit limit for str()
        raise UsageError(str(exc)) from None


def cmd_arith(args) -> int:
    monoid = parse_monoid_spec(args.monoid)
    ring = parse_ring_spec(args.ring)
    if args.laurent and monoid != IntLine():
        raise UsageError("--laurent needs --monoid Z")
    budget = ProductBudget()  # one for the products of both expressions and the final one
    f = _parse(args, args.expr1, monoid, ring, budget, args.laurent)
    g = _parse(args, args.expr2, monoid, ring, budget, args.laurent)
    if args.command == "mul":
        _charge_product(budget, f, g)
        out = f * g
    else:
        out = f + g
    if args.json and args.laurent and out.trunc - out.ord > LAURENT_JSON_BUDGET:
        raise UsageError(
            f"--json would list the {out.trunc - out.ord} coefficients of [{out.ord}, {out.trunc}), "
            f"above the budget of {LAURENT_JSON_BUDGET}; without --json the result prints sparse"
        )
    render = render_laurent if args.laurent else render_series
    print(json.dumps(_printable(out.to_json)) if args.json else _printable(render, out, args.var))
    return 0


def cmd_rb_check(args) -> int:
    monoid = parse_monoid_spec(args.monoid)
    ring = parse_ring_spec(args.ring)
    window = parse_window_spec(monoid, args.window)
    P = parse_decomposition(monoid, args.decomp)
    if (args.f is None) != (args.g is None):
        raise UsageError("--f and --g go together")
    if args.f is not None:
        budget = ProductBudget()
        f = _parse(args, args.f, monoid, ring, budget)
        g = _parse(args, args.g, monoid, ring, budget)
        for _ in range(4):  # rb_defect forms four products of at most |f| x |g| pairs
            _charge_product(budget, f, g)
        d = rb_defect(P, f, g)
        if args.json:
            print(json.dumps({"decomposition": P.label, "defect": _printable(d.to_json)}))
        else:
            print(f"decomposition: {P.label} on {monoid}")
            print(f"defect: {_printable(render_series, d, args.var)}")
        return 0 if d.is_zero() else 1

    kept = closed_under_addition(monoid, P.kept(window), window)
    killed = closed_under_addition(monoid, P.killed(window), window)
    scan = indicator_pair_scan(P, window, ring)
    if args.json:
        print(
            json.dumps(
                {
                    "decomposition": P.label,
                    "monoid": str(monoid),
                    "kept_closed": kept.to_json(),
                    "killed_closed": killed.to_json(),
                    "defect_scan": scan.to_json(),
                }
            )
        )
    else:
        print(f"decomposition: {P.label} on {monoid}")
        print(f"kept part closed under addition:   {_outcome_text(kept)}")
        print(f"killed part closed under addition: {_outcome_text(killed)}")
        print(f"defect scan on single-term pairs:  {_outcome_text(scan)}")
    return 0 if scan else 1


def cmd_cutoff_scan(args) -> int:
    monoid = parse_monoid_spec(args.monoid)
    ring = parse_ring_spec(args.ring)
    w_lo, w_hi = parse_range(args.w_range)
    window = parse_window_spec(monoid, args.window, (w_lo, w_hi))
    results = scan_cutoffs(monoid, monoid.window(w_lo, w_hi), window, ring)
    rep = monoid.elem_repr
    if args.json:
        print(
            json.dumps(
                {
                    "monoid": str(monoid),
                    "window": args.window,
                    "results": [{"w": rep(w), **oc.to_json()} for w, oc in results],
                }
            )
        )
    else:
        print(f"cutoff scan on {monoid}, thresholds {w_lo}..{w_hi}, {len(window)} window elements")
        for w, oc in results:
            if oc.verdict == "fail":
                drop_in = oc.witness["drop_in"]
                escape = oc.witness["escape"]
                detail = []
                if drop_in:
                    detail.append(f"{len(drop_in)} drop-in pairs, first {tuple(drop_in[0])}")
                if escape:
                    detail.append(f"{len(escape)} escape pairs, first {tuple(escape[0])}")
                print(f"  w={rep(w)}: fail  ({'; '.join(detail)})")
            else:
                print(f"  w={rep(w)}: {oc.verdict}")
        good = [rep(w) for w, oc in results if oc]
        print(f"identity holds on window for w in: {{{', '.join(good)}}}")
    return 0 if all(oc for _, oc in results) else 1


def cmd_theorem_verify(args) -> int:
    if args.max_size > MAX_SWEEP_SIZE:
        raise UsageError(f"--max-size must be at most {MAX_SWEEP_SIZE}, got {args.max_size}")
    table = load_table(args.table)
    ring = parse_ring_spec(args.ring)
    report = verify_theorem_decomposition(table, ring, max_size=args.max_size)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(f"monoid: {report.monoid} ({report.size} elements)")
        print(f"decompositions: {report.decompositions_total}")
        masks = ", ".join(f"{m:#x}" for m in report.rb_masks)
        print(f"identity holds for {report.rb_count} decompositions (kept masks: {masks})")
        if report.mismatches:
            for mask, direction in report.mismatches:
                print(f"MISMATCH mask {mask:#x}: {direction}")
        print(f"mismatches: {len(report.mismatches)}")
        print(f"elapsed: {report.elapsed:.3f}s")
    if report.mismatches:
        (mask, direction), count = report.mismatches[0], len(report.mismatches)
        raise RouteDisagreement(
            f"routes disagree on {count} decompositions, first mask {mask:#x}: {direction}"
        )
    return 0


def _random_laurent(rng: random.Random, ring: Ring) -> TruncatedLaurent:
    # pole window reaches -3 at worst and validity extends to at least 4, so
    # every product stays known past exponent 0 and pole_part never starves
    lo = rng.randint(-3, 0)
    hi = rng.randint(4, 6)
    coeffs = []
    for _ in range(lo, hi):
        if rng.random() < 0.3:
            coeffs.append(ring.zero())
        elif ring is QQ:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        else:
            coeffs.append(ring.from_int(rng.randint(-9, 9)))
    exact = rng.random() < 0.3  # drawn last: a seed fixes its pairs by this order
    return make_laurent(ring, zip(range(lo, hi), coeffs), None if exact else hi)


def cmd_laurent_demo(args) -> int:
    ring = parse_ring_spec(args.ring)
    seed_text = os.environ.get("GPS_RB_SEED", "0")
    try:
        seed = int(seed_text)
    except ValueError:
        raise UsageError(f"GPS_RB_SEED must be an integer, got {seed_text!r}") from None
    if not 1 <= args.count <= MAX_DEMO_COUNT:
        raise UsageError(f"--count must be in 1..{MAX_DEMO_COUNT}, got {args.count}")
    rng = random.Random(seed)
    # only --json, one document, needs every pair at once; the text output
    # prints each pair as it is made
    pairs = []
    if not args.json:
        print(f"seed: {seed}")
    all_zero = True
    for k in range(1, args.count + 1):
        f = _random_laurent(rng, ring)
        g = _random_laurent(rng, ring)
        t1, t2, t3, t4 = defect_terms(pole_part, f, g)
        terms = {
            "pole(f)*pole(g)": t1,
            "pole(f*pole(g))": t2,
            "pole(pole(f)*g)": t3,
            "pole(f*g)": t4,
        }
        defect = t1 - t2 - t3 + t4
        all_zero = all_zero and defect.is_zero()
        if args.json:
            pairs.append(
                {
                    "f": f.to_json(),
                    "g": g.to_json(),
                    "terms": {label: v.to_json() for label, v in terms.items()},
                    "defect": defect.to_json(),
                }
            )
            continue
        print(f"pair {k}:")
        print(f"  f = {render_laurent(f)}")
        print(f"  g = {render_laurent(g)}")
        for label, value in terms.items():
            print(f"  {label:17s} = {render_laurent(value)}")
        print(f"  defect            = {render_laurent(defect)}")
    if args.json:
        print(json.dumps({"seed": seed, "pairs": pairs, "all_defects_zero": all_zero}))
    else:
        print(f"all defects zero: {'yes' if all_zero else 'NO'}")
    return 0 if all_zero else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    Building it costs about 30x a parse (argparse reads the terminal size on
    every add_argument), and parse_args leaves the parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="gpsrb",
        description="Series over ordered monoids and their coefficient-killing projectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, laurent_flag: bool = False):
        p.add_argument("--monoid", default="Z", help="Z, N, Z^d:product, Z^d:lex, table:<path>")
        p.add_argument("--ring", default="Q", help="Z, Q, or Z/m")
        p.add_argument("--var", default="e", help="variable name in expressions")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if laurent_flag:
            p.add_argument("--laurent", action="store_true", help="truncation-aware arithmetic")

    for name in ("add", "mul"):
        p = sub.add_parser(name, help=f"{name} two series expressions")
        p.add_argument("expr1")
        p.add_argument("expr2")
        common(p, laurent_flag=True)
        p.set_defaults(run=cmd_arith)

    p = sub.add_parser("rb-check", help="test the weight -1 identity for a decomposition")
    p.add_argument("--decomp", required=True, help="vocabulary name, below(w), mask:<int>, or file")
    p.add_argument("--window", default=None, help="a..b")
    p.add_argument("--f", default=None, help="explicit series (with --g)")
    p.add_argument("--g", default=None)
    common(p)
    p.set_defaults(run=cmd_rb_check)

    p = sub.add_parser("cutoff-scan", help="classify cutoff thresholds over a window")
    p.add_argument("--w-range", required=True, dest="w_range", help="a..b")
    p.add_argument("--window", default=None, help="a..b")
    common(p)
    p.set_defaults(run=cmd_cutoff_scan)

    p = sub.add_parser("theorem-verify", help="exhaustive decomposition sweep on a finite table")
    p.add_argument("--table", required=True, help="JSON table file")
    p.add_argument(
        "--max-size", type=int, default=DEFAULT_MAX_SIZE, dest="max_size",
        help=f"largest table to sweep, at most {MAX_SWEEP_SIZE}",
    )
    p.add_argument("--ring", default="Z")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_theorem_verify)

    p = sub.add_parser("laurent-demo", help="seeded pole-part projector walkthrough")
    p.add_argument("--ring", default="Q")
    p.add_argument("--count", type=int, default=3, help=f"pairs to show, 1..{MAX_DEMO_COUNT}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_laurent_demo)
    return parser


_DASH_VALUE_FLAGS = ("--window", "--w-range", "--f", "--g")


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    """Glue values onto flags whose values may start with '-' (ranges, series)."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(argv))
    try:
        return args.run(args)
    except (
        UsageError,
        ParseError,
        BadElement,
        BadTable,
        MonoidMismatch,
        TooLarge,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RouteDisagreement as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, never a counterexample: not exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        import traceback  # only here: it costs every start-up a few ms

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
