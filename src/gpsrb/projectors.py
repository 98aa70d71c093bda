"""Coefficient-killing projectors on series and the weight -1 defect functional.

A Projector(monoid, keeps, label) splits the monoid carrier into a kept part
{s : keeps(s)} and a killed part, its complement, and zeroes every
coefficient whose exponent falls in the killed part. Projector.cutoff keeps
the exponents strictly below a threshold, Projector.from_mask a bitmask of a
finite carrier, and complement() swaps the two parts. A cutoff on Z or N
carries its threshold as `bound`, and rb_defect multiplies only the pairs
that land below it. The central question downstream is when such an
operator P satisfies the weight -1 identity

    P(f) P(g) = P(f P(g)) + P(P(f) g) - P(f g)

for all series f, g. The defect functional rb_defect(P, f, g) returns the
difference of the two sides for a Projector P, as one signed term map; the
pole-part defect of Laurent values is laurent.tl_rb_defect. The identity
holds exactly when the defect vanishes identically, and for these projectors
that happens exactly when both the kept part and the killed part are closed
under addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .monoids import FiniteTable, OrderedMonoid, _is_int
from .outcomes import CheckOutcome, outcome_fail, outcome_on_window, outcome_pass
from .scalars import ZZ, Ring
from .series import Series, _convolve, indicator


@dataclass(frozen=True)
class Projector:
    """Linear operator on series that keeps the exponents s with keeps(s), kills the rest.

    The kept subset of the carrier determines the projector; the killed
    subset is its complement. Only a cutoff on int exponents carries a bound.
    """

    monoid: OrderedMonoid
    keeps: Callable[[object], bool]
    label: str = "custom"
    bound: int | None = None

    def __post_init__(self):
        w = self.bound
        if w is not None and not (self.monoid.int_exponents and _is_int(w) and self.keeps == w.__gt__):
            raise ValueError(f"bound {w!r} is not the threshold of a cutoff on {self.monoid}")

    def __call__(self, f: Series) -> Series:
        self._check(f)
        return f._kept(self.keeps)

    def _check(self, f: Series) -> None:
        if f.monoid is not self.monoid and f.monoid != self.monoid:
            raise TypeError(f"projector on {self.monoid} applied to series over {f.monoid}")

    def kept(self, window: Iterable) -> list:
        return [s for s in window if self.keeps(s)]

    def killed(self, window: Iterable) -> list:
        return [s for s in window if not self.keeps(s)]

    def complement(self) -> "Projector":
        """id - P: keeps exactly what this projector kills."""
        keeps = self.keeps
        return Projector(self.monoid, lambda s: not keeps(s), f"not({self.label})")

    @staticmethod
    def cutoff(monoid: OrderedMonoid, w) -> "Projector":
        """Keep exponents strictly below the threshold w, kill the rest.

        "Not below w" is evaluated literally as not(s < w); under a partial
        order that is weaker than w <= s, and the two must not be conflated.
        On int exponents keeps is the C method w.__gt__ and the projector
        carries w as its bound; complement() drops the bound.
        """
        monoid.check_elem(w)
        label = f"below({monoid.elem_repr(w)})"
        if monoid.int_exponents:
            return Projector(monoid, w.__gt__, label, w)
        lt = monoid.lt
        return Projector(monoid, lambda s: lt(s, w), label)

    @staticmethod
    def from_mask(monoid: FiniteTable, mask: int, label: str | None = None) -> "Projector":
        """Kept part of a finite carrier given as a bitmask over element indices.

        ValueError when the carrier is not finite, the mask not an int, or a
        bit lies past the carrier.
        """
        if not isinstance(monoid, FiniteTable):
            raise ValueError("bitmask decompositions need a finite carrier")
        if not _is_int(mask):
            raise ValueError(f"mask {mask!r} is not an integer")
        if mask < 0 or mask >> monoid.n:
            raise ValueError(f"mask {mask:#x} out of range for n={monoid.n}")
        if label is None:
            label = f"mask:{mask:#x}"
        return Projector(monoid, lambda s: bool(mask >> s & 1), label)


def defect_terms(P: Callable, f, g) -> tuple:
    """P(f)P(g), P(f P(g)), P(P(f) g) and P(f g), each computed independently.

    P is any projector callable on values with +, - and *: a Projector on
    Series, or laurent.pole_part on TruncatedLaurent values. This is the test
    oracle of rb_defect and of tl_rb_defect, which form the same four terms
    by bounded products; no command calls it.
    """
    pf, pg = P(f), P(g)
    return pf * pg, P(f * pg), P(pf * g), P(f * g)


def rb_defect(P: Projector, f: Series, g: Series) -> Series:
    """P(f)P(g) - P(f P(g)) - P(P(f) g) + P(f g), the signed sum of defect_terms.

    One signed term map: the four products of the numerators
    (series._convolve) over the one denominator of f g, the exponents P
    kills dropped from the last three, reduced mod m once and brought to
    lowest terms by one _raw; a bounded cutoff forms those three from the
    pairs that land below its bound only, and P(f)P(g) whole. P must be a
    Projector (TypeError otherwise); the pole-part defect of Laurent values
    is laurent.tl_rb_defect.
    """
    if not isinstance(P, Projector):
        raise TypeError(f"rb_defect takes a Projector, not {P!r}")
    P._check(f)
    P._check(g)
    f._check_peer(g)
    monoid, keeps, m, F, G = P.monoid, P.keeps, f.ring.modulus, f._terms, g._terms
    pF = {s: c for s, c in F.items() if keeps(s)}
    pG = {s: c for s, c in G.items() if keeps(s)}
    acc = _convolve(monoid, pF, pG, m)
    get = acc.get
    for sign, x, y in ((-1, F, pG), (-1, pF, G), (1, F, G)):
        for s, c in _convolve(monoid, x, y, m, P.bound).items():
            if keeps(s):
                acc[s] = get(s, 0) + sign * c
    acc = {s: r for s, c in acc.items() if (r := c % m if m else c)}
    return Series._raw(monoid, f.ring, acc, f._den * g._den)


def closed_under_addition(monoid: OrderedMonoid, subset: Iterable, window: Iterable) -> CheckOutcome:
    """Is the subset closed under addition, as far as the window can see?

    Closure is only tested where it is observable: a sum landing outside the
    window says nothing. A conclusive pass needs the whole carrier, so only
    finite monoids scanned in full earn a plain "pass"; a violation is
    conclusive anywhere.
    """
    elems = list(window)
    part = set(subset)
    window_set = set(elems)
    desc = f"{len(part)} of {len(elems)} window elements"
    for u in part:
        for v in part:
            s = monoid.add(u, v)
            if s in window_set and s not in part:
                rep = monoid.elem_repr
                return outcome_fail({"u": rep(u), "v": rep(v), "u+v": rep(s)}, desc)
    return outcome_pass(desc) if monoid.covers(window_set) else outcome_on_window(desc)


# Digits of one packed rb_defect call in nonzero_defect_pairs: a block of
# max(1, BLOCK_DIGITS // n) rows of an n-element window (README, "The defect
# scan").
BLOCK_DIGITS = 256


def nonzero_defect_pairs(P: Projector, window: Iterable, ring: Ring) -> Iterator[tuple[Any, Any]]:
    """Yield (u, v) for each window pair whose single-term defect is nonzero over ring.

    Pairs come in window order, u outer and v inner, so the first item is
    the first failing pair a nested scan would meet.

    One rb_defect call decides a whole block of rows u_0, u_1, ... of an
    n-element window. P keeps or kills each term, so each of the four terms
    of D(e_u, e_v) is 0 or +-e_{u+v}, and every coefficient of it lies in
    [-2, 2]. The defect is bilinear, so over Z with F = sum_i 8^(n i) e_{u_i}
    and G = sum_j 8^j e_{v_j} the pair (i, j) lands only at u_i + v_j, in
    digit n i + j, and every coefficient of D(F, G) is a base-8 number whose
    balanced digit n i + j is the coefficient of D(e_{u_i}, e_{v_j}), even
    when several pairs share one sum. Reduction mod m is a ring map, so a
    digit reduced mod m is the Z/m coefficient; Q contains Z. A block holds
    max(1, BLOCK_DIGITS // n) rows, which caps the digits of one call.
    """
    elems = list(window)
    if len(set(elems)) != len(elems):
        dup = next(s for i, s in enumerate(elems) if s in elems[:i])
        raise ValueError(f"window repeats {P.monoid.elem_repr(dup)}")
    monoid, m, n = P.monoid, ring.modulus, len(elems)
    rows = max(1, BLOCK_DIGITS // max(n, 1))
    right = Series._raw(monoid, ZZ, {v: 1 << 3 * j for j, v in enumerate(elems)})  # 8^j
    for start in range(0, n, rows):
        block = elems[start : start + rows]
        left = Series._raw(monoid, ZZ, {u: 1 << 3 * n * i for i, u in enumerate(block)})  # 8^(n i)
        hits = []
        for c in rb_defect(P, left, right)._terms.values():
            while c:
                # digit k occupies bits 3k..3k+2; the lowest set bit of c
                # lies in its lowest nonzero digit
                k = ((c & -c).bit_length() - 1) // 3
                digit = (c >> 3 * k) % 8
                if digit > 3:
                    digit -= 8
                c -= digit << 3 * k
                if digit % m if m else digit:
                    hits.append(k)
        hits.sort()
        for k in hits:
            i, j = divmod(k, n)
            yield block[i], elems[j]


def indicator_pair_scan(P: Projector, window: Iterable, ring: Ring) -> CheckOutcome:
    """Evaluate the defect on every pair of single-term series from the window.

    This is the semantic test of the weight -1 identity. Single-term series
    span everything, and the defect is bilinear, so a clean scan over a full
    finite carrier is conclusive; over a window of an infinite carrier it
    certifies the window only.
    """
    elems = list(window)
    monoid = P.monoid
    desc = f"{len(elems)}^2 single-term pairs"
    first = next(nonzero_defect_pairs(P, elems, ring), None)
    if first is not None:
        u, v = first
        d = rb_defect(P, indicator(monoid, u, ring), indicator(monoid, v, ring))
        rep = monoid.elem_repr
        return outcome_fail({"u": rep(u), "v": rep(v), "defect": d.to_json()["terms"]}, desc)
    return outcome_pass(desc) if monoid.covers(elems) else outcome_on_window(desc)


def cutoff_violation_pairs(monoid: OrderedMonoid, w, window: Iterable) -> tuple[list, list]:
    """The two obstruction sets for the cutoff-at-w projector, over window pairs.

    Returns (drop_in, escape):
      drop_in = pairs (u, v) with u not< w and v not< w but u + v < w
                (the killed part fails to be closed);
      escape  = pairs (u, v) with u < w and v < w but u + v not< w
                (the kept part fails to be closed).
    Both empty on the window means no indicator pair from the window breaks
    the identity; each listed pair is a conclusive counterexample.
    """
    monoid.check_elem(w)
    lt, add = monoid.lt, monoid.add
    kept, killed = [], []
    for v in window:
        (kept if lt(v, w) else killed).append(v)
    # a pair with one element on each side can never be an obstruction
    escape = [(u, v) for u in kept for v in kept if not lt(add(u, v), w)]
    drop_in = [(u, v) for u in killed for v in killed if lt(add(u, v), w)]
    drop_in.sort()
    escape.sort()
    return drop_in, escape
