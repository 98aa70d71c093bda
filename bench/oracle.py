"""Independent checks of every job's exit code and output.

Nothing here calls into `gpsrb`: expected answers come from the generated job
data and from small re-implementations (bitset closure, plain dict
convolution, a truncated-Laurent rule of its own). `check` returns None for a
correct job and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------- coefficients


class Coeffs:
    """Arithmetic of one coefficient ring: Z, Q or Z/m."""

    def __init__(self, spec: str):
        self.modulus = int(spec[2:]) if spec.startswith("Z/") else None
        self.rational = spec == "Q"

    def norm(self, c):
        if self.modulus is not None:
            return int(c) % self.modulus
        return Fraction(c) if self.rational else int(c)

    def parse(self, text: str):
        text = text.strip()
        if " mod " in text:
            residue, modulus = text.split(" mod ")
            if int(modulus) != self.modulus:
                raise ValueError(f"modulus {modulus} in {text!r}")
            text = residue
        value = Fraction(text)
        if not self.rational and value.denominator != 1:
            raise ValueError(f"non-integer coefficient {text!r}")
        return self.norm(value if self.rational else value.numerator)


def clean(terms: dict, ring: Coeffs) -> dict:
    out = {}
    for k, c in terms.items():
        c = ring.norm(c)
        if c:
            out[k] = c
    return out


def convolve(f: dict, g: dict, ring: Coeffs, add=lambda a, b: a + b) -> dict:
    acc: dict = {}
    for u, a in f.items():
        for v, b in g.items():
            s = add(u, v)
            acc[s] = acc.get(s, 0) + a * b
    return clean(acc, ring)


def pointwise(f: dict, g: dict, ring: Coeffs, sign: int = 1) -> dict:
    acc = dict(f)
    for k, c in g.items():
        acc[k] = acc.get(k, 0) + sign * c
    return clean(acc, ring)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------- truncated Laurent
# A value is (terms, trunc): trunc None means exact, otherwise coefficients at
# exponents >= trunc are unknown.


def lt_ord(x) -> int:
    terms, trunc = x
    return min(terms) if terms else trunc


def lt_mul(f, g, ring: Coeffs):
    (ft, fu), (gt, gu) = f, g
    if (fu is None and not ft) or (gu is None and not gt):
        return {}, None
    bounds = []
    if fu is not None:
        bounds.append(fu + lt_ord(g))
    if gu is not None:
        bounds.append(gu + lt_ord(f))
    trunc = min(bounds) if bounds else None
    terms = convolve(ft, gt, ring)
    if trunc is not None:
        terms = {k: c for k, c in terms.items() if k < trunc}
    return terms, trunc


def lt_add(f, g, ring: Coeffs, sign: int = 1):
    bounds = [t for t in (f[1], g[1]) if t is not None]
    trunc = min(bounds) if bounds else None
    terms = pointwise(f[0], g[0], ring, sign)
    if trunc is not None:
        terms = {k: c for k, c in terms.items() if k < trunc}
    return terms, trunc


def lt_pole(f):
    terms, trunc = f
    if trunc is not None and trunc < 0:
        raise ValueError("pole part of a value known only below x^0")
    return {k: c for k, c in terms.items() if k < 0}, None


def lt_from_json(data: dict, ring: Coeffs):
    terms = {}
    for i, text in enumerate(data["coeffs"]):
        c = ring.parse(text)
        if c:
            terms[data["ord"] + i] = c
    return terms, (None if data["exact"] else data["trunc"])


# ---------------------------------------------------------------- rendered text

_TERM = re.compile(r"^(?:(?P<c>\d+(?:/\d+)?)(?:\*(?P<e1>e\^\S+))?|(?P<e2>e\^\S+))$")


def parse_exp(text: str, vector: bool):
    if vector:
        return tuple(int(x) for x in text.strip("()").split(","))
    return int(text)


def parse_rendered(text: str, ring: Coeffs, vector: bool):
    """(terms, trunc) from a rendered series, `c*e^k` terms and an optional `O(e^t)` tail."""
    text = text.strip()
    trunc = None
    tail = re.search(r"(?:^| \+ )O\(e\^(-?\d+)\)$", text)
    if tail:
        trunc = int(tail.group(1))
        text = text[: tail.start()]
    if text in ("", "0"):
        return {}, trunc
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    terms = {}
    for s, piece in zip(signs, pieces[0::2]):
        m = _TERM.match(piece)
        if not m:
            raise ValueError(f"cannot read term {piece!r}")
        coeff = Fraction(m.group("c")) if m.group("c") else Fraction(1)
        exp = m.group("e1") or m.group("e2")
        key = parse_exp(exp[2:], vector) if exp else ((0, 0) if vector else 0)
        if key in terms:
            raise ValueError(f"exponent {key} printed twice")
        terms[key] = s * coeff
    ring_terms = {}
    for k, c in terms.items():
        if not ring.rational and c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c}")
        ring_terms[k] = c if ring.rational else c.numerator
    return clean(ring_terms, ring), trunc


# ---------------------------------------------------------------- sweep


def closed_masks(add: list[list[int]]) -> list[bool]:
    """closed[S]: is the bitmask subset S closed under the table's addition?

    For each u the image u + S is assembled from 6-bit chunks of S through
    precomputed lookup tables, so each subset costs a few lookups per element.
    """
    n = len(add)
    chunks = (n + 5) // 6
    shift = []
    for u in range(n):
        per_chunk = []
        for ci in range(chunks):
            table = [0] * 64
            for bits in range(1, 64):
                low = bits & -bits
                v = ci * 6 + low.bit_length() - 1
                table[bits] = table[bits ^ low] | ((1 << add[u][v]) if v < n else 0)
            per_chunk.append(table)
        shift.append(per_chunk)
    closed = [True] * (1 << n)
    for s in range(1, 1 << n):
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            tabs = shift[low.bit_length() - 1]
            image = 0
            for ci in range(chunks):
                image |= tabs[ci][(s >> (6 * ci)) & 63]
            if image & ~s:
                closed[s] = False
                break
    return closed


def expect_sweep(table: dict) -> list[int]:
    """Kept-part masks whose projector satisfies the identity: both parts closed."""
    closed = closed_masks(table["add"])
    full = (1 << table["n"]) - 1
    return [s for s in range(1 << table["n"]) if closed[s] and closed[full ^ s]]


def check_sweep(job, rc, out, expected):
    table = job.data["table"]
    rep = json.loads(out)
    if rc != 0:
        return f"exit {rc}, want 0"
    if rep["size"] != table["n"] or rep["decompositions_total"] != 1 << table["n"]:
        return "wrong size or decomposition count"
    if list(rep["rb_masks"]) != expected or rep["rb_count"] != len(expected):
        return f"rb_masks {rep['rb_masks']} want {expected}"
    if rep["mismatches"]:
        return f"mismatches {rep['mismatches']}"
    return None


# ---------------------------------------------------------------- scan

_ORDERS = {
    "Z": lambda u, w: u < w,
    "Z^2:product": lambda u, w: u != w and all(a <= b for a, b in zip(u, w)),
    "Z^2:lex": lambda u, w: u < w,
}


def box(lo: int, hi: int, monoid: str) -> list:
    if monoid == "Z":
        return list(range(lo, hi + 1))
    return list(product(range(lo, hi + 1), repeat=2))


def rep_elem(x) -> str:
    return f"({','.join(str(c) for c in x)})" if isinstance(x, tuple) else str(x)


def obstruction_pairs(monoid: str, w, window: list) -> tuple[list, list]:
    """(drop_in, escape) pairs for the cutoff at w, as rendered pairs."""
    lt = _ORDERS[monoid]
    add = vec_add if monoid != "Z" else (lambda a, b: a + b)
    drop_in, escape = [], []
    for u in window:
        for v in window:
            ub, vb, sb = lt(u, w), lt(v, w), lt(add(u, v), w)
            if ub and vb and not sb:
                escape.append([rep_elem(u), rep_elem(v)])
            elif not ub and not vb and sb:
                drop_in.append([rep_elem(u), rep_elem(v)])
    return drop_in, escape


def expect_cutoff(data: dict) -> dict:
    monoid, (a, b), r = data["monoid"], data["w_range"], data["radius"]
    window = box(-r, r, monoid)
    expected = {}
    for w in box(a, b, monoid):
        drop_in, escape = obstruction_pairs(monoid, w, window)
        expected[rep_elem(w)] = (sorted(drop_in), sorted(escape))
    if monoid == "Z":
        # on Z the identity holds for exactly the thresholds 0 and 1
        passing = {w for w, (d, e) in expected.items() if not d and not e}
        assert passing == {str(w) for w in (0, 1) if a <= w <= b}, passing
    return expected


def check_cutoff(job, rc, out, expected):
    results = json.loads(out)["results"]
    if len(results) != len(expected):
        return f"{len(results)} thresholds, want {len(expected)}"
    all_pass = True
    for res in results:
        want = expected.get(res["w"])
        if want is None:
            return f"unexpected threshold {res['w']}"
        drop_in, escape = want
        if drop_in or escape:
            all_pass = False
            wit = res.get("witness") or {}
            if res["verdict"] != "fail":
                return f"w={res['w']}: {res['verdict']}, want fail"
            if sorted(wit.get("drop_in", [])) != drop_in or sorted(wit.get("escape", [])) != escape:
                return f"w={res['w']}: wrong obstruction pairs"
        elif res["verdict"] != "pass-on-window":
            return f"w={res['w']}: {res['verdict']}, want pass-on-window"
    want_rc = 0 if all_pass else 1
    return None if rc == want_rc else f"exit {rc}, want {want_rc}"


_MEMBER = {
    "negatives": lambda s: s < 0,
    "below(0)": lambda s: s < 0,
    "nonnegatives": lambda s: s >= 0,
    "odds": lambda s: s % 2 == 1,
    "evens": lambda s: s % 2 == 0,
}


def check_rb(job, rc, out, _expected):
    member = _MEMBER[job.data["decomp"]]
    r = job.data["radius"]
    window = range(-r, r + 1)
    rep = json.loads(out)

    def closure(part_flag: bool, oc: dict, name: str):
        part = [s for s in window if member(s) == part_flag]
        broken = any(member(u + v) != part_flag and -r <= u + v <= r for u in part for v in part)
        if not broken:
            return None if oc["verdict"] == "pass-on-window" else f"{name}: {oc['verdict']}"
        if oc["verdict"] != "fail":
            return f"{name}: {oc['verdict']}, want fail"
        w = oc["witness"]
        u, v, s = int(w["u"]), int(w["v"]), int(w["u+v"])
        ok = member(u) == member(v) == part_flag and s == u + v and -r <= s <= r and member(s) != part_flag
        return None if ok else f"{name}: bad witness {w}"

    def crosses(u, v):
        return member(u) == member(v) != member(u + v)

    why = closure(True, rep["kept_closed"], "kept") or closure(False, rep["killed_closed"], "killed")
    if why:
        return why
    scan = rep["defect_scan"]
    failing = any(crosses(u, v) for u in window for v in window)
    if failing:
        if scan["verdict"] != "fail":
            return f"defect scan {scan['verdict']}, want fail"
        w = scan["witness"]
        u, v = int(w["u"]), int(w["v"])
        if not crosses(u, v) or w["defect"] != [{"exp": str(u + v), "coeff": "1"}]:
            return f"bad defect witness {w}"
    elif scan["verdict"] != "pass-on-window":
        return f"defect scan {scan['verdict']}, want pass-on-window"
    want_rc = 1 if failing else 0
    return None if rc == want_rc else f"exit {rc}, want {want_rc}"


def check_demo(job, rc, out, _expected):
    if rc != 0:
        return f"exit {rc}, want 0"
    rep = json.loads(out)
    if rep["seed"] != job.data["seed"] or len(rep["pairs"]) != job.data["count"]:
        return "wrong seed or pair count"
    if rep["all_defects_zero"] is not True:
        return "all_defects_zero is not true"
    ring = Coeffs(job.data["ring"])
    for i, pair in enumerate(rep["pairs"]):
        f, g = lt_from_json(pair["f"], ring), lt_from_json(pair["g"], ring)
        pf, pg = lt_pole(f), lt_pole(g)
        want = {
            "pole(f)*pole(g)": lt_mul(pf, pg, ring),
            "pole(f*pole(g))": lt_pole(lt_mul(f, pg, ring)),
            "pole(pole(f)*g)": lt_pole(lt_mul(pf, g, ring)),
            "pole(f*g)": lt_pole(lt_mul(f, g, ring)),
        }
        for label, value in want.items():
            if lt_from_json(pair["terms"][label], ring) != value:
                return f"pair {i}: {label} differs"
        t1, t2, t3, t4 = want.values()
        defect = lt_add(lt_add(lt_add(t1, t2, ring, -1), t3, ring, -1), t4, ring)
        if defect != ({}, None) or lt_from_json(pair["defect"], ring) != ({}, None):
            return f"pair {i}: defect is not zero"
    return None


# ---------------------------------------------------------------- arith


def expect_arith(data: dict):
    ring = Coeffs(data["ring"])
    f, g = clean(data["f"], ring), clean(data["g"], ring)
    if data["laurent"]:
        fv, gv = (f, data["laurent"][0]), (g, data["laurent"][1])
        return lt_mul(fv, gv, ring) if data["op"] == "mul" else lt_add(fv, gv, ring)
    add = vec_add if data["monoid"] != "Z" else (lambda a, b: a + b)
    terms = convolve(f, g, ring, add) if data["op"] == "mul" else pointwise(f, g, ring)
    return terms, None


def check_arith(job, rc, out, expected):
    if rc != 0:
        return f"exit {rc}, want 0"
    data = job.data
    ring = Coeffs(data["ring"])
    vector = data["monoid"] != "Z"
    if not data["json"]:
        got = parse_rendered(out, ring, vector)
    elif data["laurent"]:
        got = lt_from_json(json.loads(out), ring)
    else:
        terms = {}
        for t in json.loads(out)["terms"]:
            terms[parse_exp(t["exp"], vector)] = ring.parse(t["coeff"])
        got = (clean(terms, ring), None)
    if got != expected:
        return f"result differs from the reference ({len(got[0])} terms, want {len(expected[0])})"
    return None


# ---------------------------------------------------------------- dispatch


def expected_for(job):
    """The reference answer of a job; cache it per job, it can be costly."""
    if job.argv[0] == "theorem-verify":
        return expect_sweep(job.data["table"])
    if job.argv[0] == "cutoff-scan":
        return expect_cutoff(job.data)
    if job.argv[0] in ("mul", "add"):
        return expect_arith(job.data)
    return None


_CHECKS = {
    "theorem-verify": check_sweep,
    "cutoff-scan": check_cutoff,
    "rb-check": check_rb,
    "laurent-demo": check_demo,
    "mul": check_arith,
    "add": check_arith,
}


def check(job, rc, out: str, expected) -> str | None:
    """None when exit code and output are right, else the reason they are not."""
    if not isinstance(rc, int):
        return f"crashed: {rc}"
    try:
        return _CHECKS[job.argv[0]](job, rc, out, expected)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
