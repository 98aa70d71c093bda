"""Coefficient-killing projectors on series and the weight -1 defect functional.

A Projector(monoid, keeps, label) splits the monoid carrier into a kept part
{s : keeps(s)} and a killed part, its complement, and zeroes every
coefficient whose exponent falls in the killed part. Projector.cutoff keeps
the exponents strictly below a threshold, Projector.from_mask a bitmask of a
finite carrier, and complement() swaps the two parts. A cutoff on a
totally ordered carrier, Z, N or Z^d:lex, carries its threshold as `bound`,
and rb_defect forms only the pairs of its products that cross it. The
central question downstream is when
such an operator P satisfies the weight -1 identity

    P(f) P(g) = P(f P(g)) + P(P(f) g) - P(f g)

for all series f, g. The defect functional rb_defect(P, f, g) returns the
difference of the two sides for a Projector P. With Q = 1 - P it equals

    Q(P(f) P(g)) + P(Q(f) Q(g)),

the products inside the kept part that land in the killed part plus the
products inside the killed part that land in the kept part, so it vanishes
identically exactly when both parts are closed under addition; the
pole-part defect of Laurent values is laurent.tl_rb_defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .monoids import BadElement, FiniteTable, OrderedMonoid, _is_int
from .outcomes import CheckOutcome
from .scalars import ZZ, Ring
from .series import Series, _convolve, indicator


@dataclass(frozen=True)
class Projector:
    """Linear operator on series that keeps the exponents s with keeps(s), kills the rest.

    The kept subset of the carrier determines the projector; the killed
    subset is its complement. A cutoff on a carrier with total_order (Z, N,
    Z^d:lex) carries its threshold w as bound, with keeps = w.__gt__; any
    other bound is a ValueError, so the product order and tables carry none.
    """

    monoid: OrderedMonoid
    keeps: Callable[[object], bool]
    label: str = "custom"
    bound: object = None

    def __post_init__(self):
        w = self.bound
        if w is None:
            return
        try:
            self.monoid.check_elem(w)
        except BadElement:
            ok = False
        else:
            # a method-wrapper compares its object by identity, so the keeps
            # of a bound equal in value but held apart is matched by its owner
            owner = getattr(self.keeps, "__self__", None)
            ok = (
                self.monoid.total_order
                and type(owner) is type(w)
                and owner == w
                and self.keeps == owner.__gt__
            )
        if not ok:
            raise ValueError(f"bound {w!r} is not the threshold of a cutoff on {self.monoid}")

    def __call__(self, f: Series) -> Series:
        self._check(f)
        return f._kept(self.keeps)

    def _check(self, f: Series) -> None:
        if f.monoid is not self.monoid and f.monoid != self.monoid:
            raise TypeError(f"projector on {self.monoid} applied to series over {f.monoid}")

    def complement(self) -> "Projector":
        """id - P: keeps exactly what this projector kills."""
        keeps = self.keeps
        return Projector(self.monoid, lambda s: not keeps(s), f"not({self.label})")

    @staticmethod
    def cutoff(monoid: OrderedMonoid, w) -> "Projector":
        """Keep exponents strictly below the threshold w, kill the rest.

        "Not below w" is evaluated literally as not(s < w); under a partial
        order that is weaker than w <= s, and the two must not be conflated.
        On a total order (Z, N, Z^d:lex) keeps is the C method w.__gt__ and
        the projector carries w as its bound; complement() drops the bound.
        """
        monoid.check_elem(w)
        label = f"below({monoid.elem_repr(w)})"
        if monoid.total_order:
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
    oracle of rb_defect, which forms the same signed sum from two projected
    products, and of tl_rb_defect, which forms the four terms by bounded
    products; no command calls it.
    """
    pf, pg = P(f), P(g)
    return pf * pg, P(f * pg), P(pf * g), P(f * g)


def rb_defect(P: Projector, f: Series, g: Series) -> Series:
    """P(f)P(g) - P(f P(g)) - P(P(f) g) + P(f g), the signed sum of defect_terms.

    With Q = 1 - P, linearity and P^2 = P reduce the four terms to
    Q(Pf Pg) + P(Qf Qg): two products of the numerators (series._convolve)
    over the one denominator of f g, the first keeping the sums P kills and
    the second the sums P keeps, so their supports are disjoint and nothing
    cancels. Each operand is split once by keeps, and a product with an
    empty factor is not formed. A cutoff that carries its bound w forms only
    the pairs that cross it: Pf Pg from the pairs that reach w, Qf Qg from
    those that land below it, each factor trimmed first (`_convolve`). P
    must be a Projector (TypeError otherwise); the pole-part defect of
    Laurent values is laurent.tl_rb_defect.
    """
    if not isinstance(P, Projector):
        raise TypeError(f"rb_defect takes a Projector, not {P!r}")
    P._check(f)
    P._check(g)
    f._check_peer(g)
    monoid, keeps, w, m = P.monoid, P.keeps, P.bound, f.ring.modulus
    pF, qF, pG, qG = {}, {}, {}, {}
    for s, c in f._terms.items():
        (pF if keeps(s) else qF)[s] = c
    for s, c in g._terms.items():
        (pG if keeps(s) else qG)[s] = c
    acc = {}
    if pF and pG:
        acc = {s: c for s, c in _convolve(monoid, pF, pG, m, at_least=w).items() if not keeps(s)}
    if qF and qG:
        acc.update([(s, c) for s, c in _convolve(monoid, qF, qG, m, below=w).items() if keeps(s)])
    return Series._raw(monoid, f.ring, acc, f._den * g._den)


def closed_under_addition(P: Projector, window: Iterable) -> tuple[CheckOutcome, CheckOutcome]:
    """Is each part of P, kept and killed, closed under addition on the window's pairs?

    Returns (kept, killed) from the escape and drop-in pairs of
    cutoff_violation_pairs, which see every sum, as the defect scan does. A
    failing line's witness is the first pair (sorted: window order for the
    CLI's windows) whose sum lies in the window, else the first pair. Only a
    finite carrier scanned in full earns a plain "pass"; a violation is
    conclusive anywhere.
    """
    monoid, rep = P.monoid, P.monoid.elem_repr
    elems = list(window)
    window_set = set(elems)
    drop_in, escape = cutoff_violation_pairs(P, elems)
    n_kept = sum(1 for s in elems if P.keeps(s))

    def closed(pairs: list, count: int) -> CheckOutcome:
        desc = f"{count} of {len(elems)} window elements"
        if not pairs:
            return CheckOutcome.clean(monoid, elems, desc)
        u, v = next((p for p in pairs if monoid.add(*p) in window_set), pairs[0])
        return CheckOutcome("fail", {"u": rep(u), "v": rep(v), "u+v": rep(monoid.add(u, v))}, desc)

    return closed(escape, n_kept), closed(drop_in, len(elems) - n_kept)


# Digits of one packed rb_defect call in nonzero_defect_pairs: a block of
# max(1, BLOCK_DIGITS // n) rows of an n-element window (README, "The defect
# scan").
BLOCK_DIGITS = 256


def nonzero_defect_pairs(P: Projector, window: Iterable, ring: Ring) -> Iterator[tuple[Any, Any]]:
    """Yield (u, v) for each window pair whose single-term defect is nonzero over ring.

    Pairs come in window order, u outer and v inner, so the first item is
    the first failing pair a nested scan would meet.

    One rb_defect call decides a whole block of rows u_0, u_1, ... of an
    n-element window. P keeps or kills each term, so D(e_u, e_v) =
    Q(P(e_u) P(e_v)) + P(Q(e_u) Q(e_v)) is 0 or e_{u+v}: with k_s = 1 when
    P keeps s, its coefficient is (k_u - k_{u+v})(k_v - k_{u+v}), 1 exactly
    when u and v lie on one side and u + v on the other. The decoding
    accepts every coefficient in [-2, 2], the bound of the four terms of the
    identity, so the digits of a faulty kernel, one that is off the closed
    form, still decode. The defect is bilinear, so over Z with
    F = sum_i 8^(n i) e_{u_i} and G = sum_j 8^j e_{v_j} the pair (i, j)
    lands only at u_i + v_j, in digit n i + j, and every coefficient of
    D(F, G) is a base-8 number whose balanced digit n i + j is the
    coefficient of D(e_{u_i}, e_{v_j}), even when several pairs share one
    sum. Reduction mod m is a ring map, so a digit reduced mod m is the Z/m
    coefficient; Q contains Z. A block holds max(1, BLOCK_DIGITS // n) rows,
    which caps the digits of one call.
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
        return CheckOutcome("fail", {"u": rep(u), "v": rep(v), "defect": d.to_json()["terms"]}, desc)
    return CheckOutcome.clean(monoid, elems, desc)


def cutoff_violation_pairs(P: Projector, window: Iterable) -> tuple[list, list]:
    """The two obstruction sets of any projector P over window pairs, sums anywhere.

    Returns (drop_in, escape):
      drop_in = pairs (u, v) with u and v killed but u + v kept
                (the killed part fails to be closed);
      escape  = pairs (u, v) with u and v kept but u + v killed
                (the kept part fails to be closed).
    Both empty on the window means no indicator pair from the window breaks
    the identity; each listed pair is a conclusive counterexample. cutoff-scan
    lists both sets, and rb-check's closure lines read them.
    """
    keeps, add = P.keeps, P.monoid.add
    kept, killed = [], []
    for v in window:
        (kept if keeps(v) else killed).append(v)
    # a pair with one element on each side can never be an obstruction
    escape = [(u, v) for u in kept for v in kept if not keeps(add(u, v))]
    drop_in = [(u, v) for u in killed for v in killed if keeps(add(u, v))]
    return sorted(drop_in), sorted(escape)
