"""Command-line front end.

Subcommands: add/mul for series arithmetic, rb-check for the weight -1
identity on a decomposition, cutoff-scan for classifying cutoff thresholds,
theorem-verify for the exhaustive finite-monoid sweep, laurent-demo for a
seeded end-to-end run of the pole-part projector.

Exit codes: 0 all checks passed (window-limited passes are flagged in the
output), 1 a counterexample was found, 2 usage or input error (including an
rb-check or cutoff-scan run above PAIR_BUDGET single-term pairs, or a Laurent
--json window above LAURENT_JSON_BUDGET coefficients), 3 internal
fault: the structural and semantic routes of cutoff-scan disagreed, or an
unexpected exception escaped (its traceback goes to stderr); either means a
bug. The env var GPS_RB_SEED fixes the demo RNG seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import traceback
from fractions import Fraction
from typing import Sequence

from .laurent import TruncatedLaurent, pole_part, tl_rb_defect
from .monoids import (
    BadElement,
    BadTable,
    FiniteTable,
    IntLine,
    IntVector,
    MonoidMismatch,
    OrderedMonoid,
    _is_int,
    load_table,
)
from .oracles import (
    DEFAULT_MAX_SIZE,
    NotTotalOrder,
    RouteDisagreement,
    TooLarge,
    scan_cutoffs,
    verify_theorem_decomposition,
)
from .outcomes import CheckOutcome
from .parsing import ParseError, parse_series, render_laurent, render_series
from .projectors import (
    Complement,
    CutoffProjector,
    Decomposition,
    DecompositionProjector,
    indicator_pair_scan,
    is_subsemigroup,
    rb_defect,
)
from .scalars import QQ, Ring, ZZ, Zmod
from .series import Series


class UsageError(ValueError):
    pass


# single-term pairs one rb-check or cutoff-scan run may examine: 13.5x the
# largest benchmark job (cutoff-scan on Z, 11 thresholds x 41^2 = 18,491 pairs)
PAIR_BUDGET = 250_000

# coefficients a Laurent --json result may list: its "coeffs" window is the one
# output still dense in the exponent; a window at the budget takes 0.6 s and a
# peak RSS of 97 MB (one core of a shared 2-vCPU x86 host, Python 3.11)
LAURENT_JSON_BUDGET = 1_000_000


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
        if d < 1:
            raise UsageError(f"dimension must be >= 1 in {spec!r}")
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


def parse_window_spec(monoid: OrderedMonoid, text: str | None) -> list:
    """Window elements from "a..b"; vectors get the box [a,b]^d, tables their carrier."""
    if text is None:
        return monoid.default_window()
    return monoid.window(*parse_range(text))


def check_pair_budget(monoid: OrderedMonoid, window: str | None, w_range: str | None = None) -> None:
    """Raise TooLarge when |thresholds| x |window|^2 single-term pairs exceed the budget.

    The sizes come from the bounds alone, so an oversized box is never built.
    """
    bounds = monoid.default_bounds() if window is None else parse_range(window)
    size = monoid.window_size(*bounds)
    thresholds = 1 if w_range is None else monoid.window_size(*parse_range(w_range))
    pairs = thresholds * size * size
    if pairs > PAIR_BUDGET:
        raise TooLarge(
            f"{thresholds} threshold(s) x {size}^2 window elements = "
            f"{pairs} single-term pairs, above the budget of {PAIR_BUDGET}"
        )


_PLAIN_VOCAB = ("negatives", "nonnegatives", "positives", "nonpositives", "evens", "odds")


def parse_decomposition(monoid: OrderedMonoid, spec: str) -> Decomposition:
    """Named vocabulary, below(w)/notbelow(w), mask:<int>, or a JSON file path.

    The kept part is the set the argument names; its complement is the killed part.
    "nonnegatives" is literally not-negative (s not< 0), which on a partial
    order also catches elements incomparable with 0.
    """
    zero = monoid.zero()
    if spec in _PLAIN_VOCAB:
        if spec in ("evens", "odds") and not isinstance(monoid, IntLine):
            raise UsageError(f"{spec!r} needs an integer line monoid")
        member = {
            "negatives": lambda s: monoid.lt(s, zero),
            "nonnegatives": lambda s: not monoid.lt(s, zero),
            "positives": lambda s: monoid.lt(zero, s),
            "nonpositives": lambda s: not monoid.lt(zero, s),
            "evens": lambda s: s % 2 == 0,
            "odds": lambda s: s % 2 == 1,
        }[spec]
        return Decomposition(monoid, member, spec)
    if spec.startswith("below(") and spec.endswith(")"):
        w = monoid.parse_elem(spec[len("below(") : -1])
        return CutoffProjector(monoid, w).decomposition()
    if spec.startswith("notbelow(") and spec.endswith(")"):
        w = monoid.parse_elem(spec[len("notbelow(") : -1])
        return Complement(CutoffProjector(monoid, w)).decomposition()
    if spec.startswith("mask:"):
        if not isinstance(monoid, FiniteTable):
            raise UsageError("mask decompositions need a finite table monoid")
        try:
            return Decomposition.from_mask(monoid, int(spec[len("mask:") :], 0))
        except ValueError as exc:  # not an integer, or out of range
            raise UsageError(str(exc)) from None
    if spec.endswith(".json") and os.path.exists(spec):
        if not isinstance(monoid, FiniteTable):
            raise UsageError("file decompositions need a finite table monoid")
        try:
            with open(spec) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or digit count
            raise UsageError(f"cannot read decomposition file {spec}: {exc}") from None
        return _decomposition_from_json(monoid, data, spec)
    raise UsageError(
        f"unknown decomposition {spec!r}; choose from {', '.join(_PLAIN_VOCAB)}, "
        "below(w), notbelow(w), mask:<int>, or a .json file"
    )


def _decomposition_from_json(table: FiniteTable, data, spec: str) -> Decomposition:
    """{"mask": <int>} or {"kept": [<element index>, ...]} from a decomposition file."""
    if not isinstance(data, dict) or not ("mask" in data or "kept" in data):
        raise UsageError(
            f"decomposition file {spec} needs a JSON object with a 'mask' or 'kept' key"
        )
    if "mask" in data:
        mask = data["mask"]
        if not (_is_int(mask) and 0 <= mask < 1 << table.n):
            raise UsageError(
                f"decomposition file {spec}: 'mask' must be an integer in 0..{(1 << table.n) - 1}"
            )
        return Decomposition.from_mask(table, mask, label=spec)
    kept = data["kept"]
    if not (isinstance(kept, list) and all(_is_int(k) for k in kept)):
        raise UsageError(f"decomposition file {spec}: 'kept' must be a list of element indices")
    for k in kept:
        table.check_elem(k)
    kept_set = set(kept)
    return Decomposition(table, lambda s: s in kept_set, label=spec)


def _outcome_text(oc: CheckOutcome) -> str:
    bits = [oc.verdict]
    if oc.witness is not None:
        bits.append(f"witness {json.dumps(oc.witness)}")
    if oc.window is not None:
        bits.append(f"[{oc.window}]")
    return "  ".join(bits)


def _parse(args, text: str, monoid: OrderedMonoid, ring: Ring, laurent: bool = False):
    if args.var == "O":
        raise UsageError('variable name "O" collides with the tail marker')
    return parse_series(text, monoid, ring, var=args.var, laurent=laurent)


def _printable(fmt, *args):
    try:
        return fmt(*args)
    except ValueError as exc:  # an integer past the interpreter's digit limit for str()
        raise UsageError(str(exc)) from None


def cmd_arith(args, op: str) -> int:
    monoid = parse_monoid_spec(args.monoid)
    ring = parse_ring_spec(args.ring)
    if args.laurent and monoid != IntLine():
        raise UsageError("--laurent needs --monoid Z")
    f = _parse(args, args.expr1, monoid, ring, args.laurent)
    g = _parse(args, args.expr2, monoid, ring, args.laurent)
    out = f * g if op == "mul" else f + g
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
    check_pair_budget(monoid, args.window)
    window = parse_window_spec(monoid, args.window)
    split = parse_decomposition(monoid, args.decomp)
    P = DecompositionProjector(split)
    if (args.f is None) != (args.g is None):
        raise UsageError("--f and --g go together")
    if args.f is not None:
        f = _parse(args, args.f, monoid, ring)
        g = _parse(args, args.g, monoid, ring)
        d = rb_defect(P, f, g)
        if args.json:
            print(json.dumps({"decomposition": split.label, "defect": _printable(d.to_json)}))
        else:
            print(f"decomposition: {split.label} on {monoid}")
            print(f"defect: {_printable(render_series, d, args.var)}")
        return 0 if d.is_zero() else 1

    kept = is_subsemigroup(split, "kept", window)
    killed = is_subsemigroup(split, "killed", window)
    scan = indicator_pair_scan(split, window, ring)
    if args.json:
        print(
            json.dumps(
                {
                    "decomposition": split.label,
                    "monoid": str(monoid),
                    "kept_closed": kept.to_json(),
                    "killed_closed": killed.to_json(),
                    "defect_scan": scan.to_json(),
                }
            )
        )
    else:
        print(f"decomposition: {split.label} on {monoid}")
        print(f"kept part closed under addition:   {_outcome_text(kept)}")
        print(f"killed part closed under addition: {_outcome_text(killed)}")
        print(f"defect scan on single-term pairs:  {_outcome_text(scan)}")
    return 0 if scan else 1


def cmd_cutoff_scan(args) -> int:
    monoid = parse_monoid_spec(args.monoid)
    ring = parse_ring_spec(args.ring)
    check_pair_budget(monoid, args.window, args.w_range)
    window = parse_window_spec(monoid, args.window)
    w_lo, w_hi = parse_range(args.w_range)
    w_set = parse_window_spec(monoid, args.w_range)
    results = scan_cutoffs(monoid, w_set, window, ring)
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
    return 0 if not report.mismatches else 1


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
    return TruncatedLaurent(ring, lo, coeffs, exact=rng.random() < 0.3, trunc=hi)


def cmd_laurent_demo(args) -> int:
    ring = parse_ring_spec(args.ring)
    seed_text = os.environ.get("GPS_RB_SEED", "0")
    try:
        seed = int(seed_text)
    except ValueError:
        raise UsageError(f"GPS_RB_SEED must be an integer, got {seed_text!r}") from None
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    rng = random.Random(seed)
    records = []
    all_zero = True
    for k in range(args.count):
        f = _random_laurent(rng, ring)
        g = _random_laurent(rng, ring)
        pf, pg = pole_part(f), pole_part(g)
        terms = {
            "pole(f)*pole(g)": pf * pg,
            "pole(f*pole(g))": pole_part(f * pg),
            "pole(pole(f)*g)": pole_part(pf * g),
            "pole(f*g)": pole_part(f * g),
        }
        defect = tl_rb_defect(f, g)
        all_zero = all_zero and defect.is_zero()
        records.append((f, g, terms, defect))
    if args.json:
        out = [
            {
                "f": f.to_json(),
                "g": g.to_json(),
                "terms": {k: v.to_json() for k, v in terms.items()},
                "defect": defect.to_json(),
            }
            for f, g, terms, defect in records
        ]
        print(json.dumps({"seed": seed, "pairs": out, "all_defects_zero": all_zero}))
    else:
        print(f"seed: {seed}")
        for k, (f, g, terms, defect) in enumerate(records, 1):
            print(f"pair {k}:")
            print(f"  f = {render_laurent(f)}")
            print(f"  g = {render_laurent(g)}")
            for label, value in terms.items():
                print(f"  {label:17s} = {render_laurent(value)}")
            print(f"  defect            = {render_laurent(defect)}")
        print(f"all defects zero: {'yes' if all_zero else 'NO'}")
    return 0 if all_zero else 1


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("rb-check", help="test the weight -1 identity for a decomposition")
    p.add_argument("--decomp", required=True, help="vocabulary name, below(w), mask:<int>, or file")
    p.add_argument("--window", default=None, help="a..b")
    p.add_argument("--f", default=None, help="explicit series (with --g)")
    p.add_argument("--g", default=None)
    common(p)

    p = sub.add_parser("cutoff-scan", help="classify cutoff thresholds over a window")
    p.add_argument("--w-range", required=True, dest="w_range", help="a..b")
    p.add_argument("--window", default=None, help="a..b")
    common(p)

    p = sub.add_parser("theorem-verify", help="exhaustive decomposition sweep on a finite table")
    p.add_argument("--table", required=True, help="JSON table file")
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE, dest="max_size")
    p.add_argument("--ring", default="Z")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("laurent-demo", help="seeded pole-part projector walkthrough")
    p.add_argument("--ring", default="Q")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--json", action="store_true")
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
        if args.command == "add":
            return cmd_arith(args, "add")
        if args.command == "mul":
            return cmd_arith(args, "mul")
        if args.command == "rb-check":
            return cmd_rb_check(args)
        if args.command == "cutoff-scan":
            return cmd_cutoff_scan(args)
        if args.command == "theorem-verify":
            return cmd_theorem_verify(args)
        if args.command == "laurent-demo":
            return cmd_laurent_demo(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (
        UsageError,
        ParseError,
        BadElement,
        BadTable,
        MonoidMismatch,
        TooLarge,
        NotTotalOrder,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RouteDisagreement as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, never a counterexample: not exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
