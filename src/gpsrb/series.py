"""Finitely supported series over an ordered monoid with exact coefficients.

A series is a map from monoid elements to nonzero coefficients, stored as
the bare values of its ring (see scalars.py); addition is pointwise and
multiplication is convolution,

    (f * g)(s) = sum of f(u) * g(v) over all u + v = s.

Finite supports keep every convolution sum finite without any condition on
the monoid order, so the full ring structure is available even when the
order is only partial.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .monoids import MonoidMismatch, OrderedMonoid
from .scalars import Ring, RingMismatch


class Series:
    """Immutable finitely supported series; zero coefficients are never stored."""

    __slots__ = ("monoid", "ring", "_terms")

    def __init__(self, monoid: OrderedMonoid, ring: Ring, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        contains, m = ring.contains, ring.modulus
        acc: dict = {}
        for s, c in items:
            monoid.check_elem(s)
            if not contains(c):
                raise TypeError(f"coefficient {c!r} is not in {ring}")
            if s in acc:
                c += acc[s]
                if m:
                    c %= m
            if c:
                acc[s] = c
            else:
                acc.pop(s, None)
        _set_monoid(self, monoid)
        _set_ring(self, ring)
        _set_terms(self, acc)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def _raw(monoid: OrderedMonoid, ring: Ring, terms: dict) -> "Series":
        """Trusted constructor: terms already checked and zero-free."""
        out = object.__new__(Series)
        # the slots' own setters: half the cost of object.__setattr__, and
        # every product, sum and projection builds its result here
        _set_monoid(out, monoid)
        _set_ring(out, ring)
        _set_terms(out, terms)
        return out

    @staticmethod
    def _merged(monoid: OrderedMonoid, ring: Ring, items: list) -> "Series":
        """Trusted constructor from checked (exponent, coefficient) terms; zeros drop out.

        Distinct exponents, the usual case, make one dict build at C speed.
        An exponent that repeats goes through the public constructor, which
        adds its coefficients up in order (and checks the terms again).
        """
        acc = dict(items)
        if len(acc) < len(items):
            return Series(monoid, ring, items)
        if not all(acc.values()):
            acc = {s: c for s, c in acc.items() if c}
        return Series._raw(monoid, ring, acc)

    def coeff(self, s):
        self.monoid.check_elem(s)
        return self._terms.get(s, self.ring.zero())

    def support(self) -> list:
        return sorted(self._terms)

    def items(self):
        return self._terms.items()

    def sorted_items(self) -> list:
        """The (exponent, coefficient) terms by increasing exponent, as printed.

        Exponents sort as Python values (ints, or tuples of ints), which on
        a partial order is a display order, not the monoid's.
        """
        terms = self._terms
        return [(s, terms[s]) for s in sorted(terms)]

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _check_peer(self, other: "Series") -> None:
        if self.monoid is not other.monoid and self.monoid != other.monoid:
            raise MonoidMismatch(f"series over {self.monoid} vs {other.monoid}")
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"series over {self.ring} vs {other.ring}")

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._check_peer(other)
        m = self.ring.modulus
        acc = dict(self._terms)
        for s, c in other._terms.items():
            if s in acc:
                c += acc[s]
                if m:
                    c %= m
                if not c:
                    del acc[s]
                    continue
            acc[s] = c
        return Series._raw(self.monoid, self.ring, acc)

    def __neg__(self) -> "Series":
        m = self.ring.modulus
        terms = self._terms.items()
        neg = {s: m - c for s, c in terms} if m else {s: -c for s, c in terms}
        return Series._raw(self.monoid, self.ring, neg)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._check_peer(other)
        m = self.ring.modulus
        acc = dict(self._terms)
        for s, c in other._terms.items():
            if s in acc:
                c = acc[s] - c
                if m:
                    c %= m
                if not c:
                    del acc[s]
                    continue
                acc[s] = c
            else:
                acc[s] = m - c if m else -c
        return Series._raw(self.monoid, self.ring, acc)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        return self.mul(other)

    def mul(self, other: "Series", below: int | None = None) -> "Series":
        """The convolution product, on one of two exact paths.

        Over Q, when both factors have two or more terms, each factor is
        first cleared to integer numerators with one lcm of its
        denominators, and each output term is one Fraction over the product
        of the two. The product then runs as one packed big-int product
        (`_packed`) when the monoid has int exponents, the smaller factor
        has at least PACK_MIN_TERMS terms and the pairs cover the product's
        exponent span at least PACK_DENSITY times over, once more for every
        16 bytes of slot (`slot_bytes`); every other product runs the dict
        loop, which adds each pair product into a map keyed by the exponent
        sum.

        With integer exponents, below drops every exponent >= below: each
        factor is first trimmed to the terms that can land below it.
        """
        self._check_peer(other)
        monoid, ring = self.monoid, self.ring
        f, g = self._terms, other._terms
        if below is not None and f and g:
            f_lo, g_lo = min(f), min(g)
            f = {u: c for u, c in f.items() if u < below - g_lo}
            g = {v: c for v, c in g.items() if v < below - f_lo}
        m, d, nb = ring.modulus, None, 0
        if len(f) > 1 and len(g) > 1:
            # with a one-term factor each pair is its own output term, so
            # neither clearing denominators nor packing could save anything
            if ring.fractional:
                df = lcm(*(c.denominator for c in f.values()))
                dg = lcm(*(c.denominator for c in g.values()))
                f = {u: c.numerator * (df // c.denominator) for u, c in f.items()}
                g = {v: c.numerator * (dg // c.denominator) for v, c in g.items()}
                d = df * dg
            nb = slot_bytes(monoid, f, g, m)
        if nb:
            acc = _packed(f, g, m, below, nb)
        else:
            add, pairs = monoid.add, g.items()
            if below is not None:
                pairs = sorted(pairs)
                keys = [v for v, _ in pairs]
            acc = {}
            for u, cu in f.items():
                for v, cv in pairs if below is None else pairs[: bisect_left(keys, below - u)]:
                    s = add(u, v)
                    if s in acc:
                        acc[s] += cu * cv
                    else:
                        acc[s] = cu * cv
            if m:
                acc = {s: r for s, c in acc.items() if (r := c % m)}
            elif len(acc) < len(f) * len(g):
                # over Z and Q a product of nonzero terms is nonzero, so a
                # zero sum needs two pairs landing on the same exponent
                acc = {s: c for s, c in acc.items() if c}
        if d is not None:
            acc = {s: Fraction(c, d) for s, c in acc.items()}
        return Series._raw(monoid, ring, acc)

    def below(self, bound: int) -> "Series":
        """The terms at integer exponents < bound."""
        return Series._raw(self.monoid, self.ring, {s: c for s, c in self._terms.items() if s < bound})

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Series":
        if not self.ring.contains(c):
            raise TypeError(f"scalar {c!r} is not in {self.ring}")
        m = self.ring.modulus
        terms = self._terms.items()
        if m:
            acc = {s: r for s, v in terms if (r := c * v % m)}
        else:
            acc = {s: c * v for s, v in terms} if c else {}
        return Series._raw(self.monoid, self.ring, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.monoid == other.monoid
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.monoid, self.ring, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rep, fmt = self.monoid.elem_repr, self.ring.fmt
        return " + ".join([f"{fmt(c)} @ {rep(s)}" for s, c in self.sorted_items()])

    def __repr__(self) -> str:
        return f"Series({self.monoid}, {self.ring}, {self!s})"

    def to_json(self) -> dict:
        rep, fmt, terms = self.monoid.elem_repr, self.ring.fmt, self._terms
        return {
            "monoid": str(self.monoid),
            "ring": str(self.ring),
            "terms": [{"exp": rep(s), "coeff": fmt(terms[s])} for s in sorted(terms)],
        }


_set_monoid, _set_ring, _set_terms = (Series.__dict__[name].__set__ for name in Series.__slots__)


# The packed product beats the dict loop once the smaller factor has this
# many terms and the pairs cover the product's exponent span this many times
# over, once more for every 16 bytes of slot (README, "Packed products").
PACK_MIN_TERMS = 12
PACK_DENSITY = 4


def slot_bytes(monoid: OrderedMonoid, f: dict, g: dict, m: int | None) -> int:
    """The slot size of the packed product of two term maps, 0 for the dict loop.

    Every output coefficient is a sum of at most min(|f|, |g|) pair products,
    so its size is at most bound = max|f| * max|g| * min(|f|, |g|); a slot of
    whole bytes holds bound, plus a sign bit over Z.
    """
    n = min(len(f), len(g))
    if not monoid.int_exponents or n < PACK_MIN_TERMS:
        return 0
    bound = max(map(abs, f.values())) * max(map(abs, g.values())) * n
    nb = (bound.bit_length() + (not m) + 7) // 8
    span = max(f) - min(f) + max(g) - min(g) + 1
    return nb if PACK_DENSITY * (1 + nb // 16) * span <= len(f) * len(g) else 0


def _biased(nb: int, n: int) -> int:
    """Half the range of an nb-byte slot, in each of n slots."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _pack(terms: dict, lo: int, nb: int, signed: bool) -> int:
    """sum of c * 2^(8 nb (s - lo)) over the terms, joined from nb-byte slots.

    Signed coefficients go into the slots biased by half the slot range, and
    the bias comes off the joined integer in one subtraction.
    """
    half = 1 << (8 * nb - 1) if signed else 0
    slots = [half] * (max(terms) - lo + 1)
    for s, c in terms.items():
        slots[s - lo] = c + half
    packed = int.from_bytes(b"".join([c.to_bytes(nb, "little") for c in slots]), "little")
    return packed - _biased(nb, len(slots)) if signed else packed


def _packed(f: dict, g: dict, m: int | None, below: int | None, nb: int) -> dict:
    """Kronecker substitution: one big-int product, decoded slot by slot.

    Each factor becomes one integer with coefficient c of x^s in the nb-byte
    slot s - min; slots of slot_bytes never carry into each other. Over Z a
    bias of half the slot range in every slot makes each slot a nonnegative
    digit, so all digits come out of one to_bytes with no shift of the big
    product; over Z/m the residues are nonnegative already, and each digit
    is reduced mod m once.
    """
    f_lo, g_lo = min(f), min(g)
    signed = not m
    width = max(f) - f_lo + max(g) - g_lo + 1
    h = _pack(f, f_lo, nb, signed) * _pack(g, g_lo, nb, signed)
    if signed:
        h += _biased(nb, width)
    base = f_lo + g_lo
    n = width if below is None else min(width, below - base)
    buf = h.to_bytes(nb * width, "little")
    digits = [int.from_bytes(buf[i : i + nb], "little") for i in range(0, nb * n, nb)]
    if m:
        return {base + i: r for i, c in enumerate(digits) if (r := c % m)}
    half = 1 << (8 * nb - 1)
    return {base + i: c - half for i, c in enumerate(digits) if c != half}


def zero_series(monoid: OrderedMonoid, ring: Ring) -> Series:
    return Series._raw(monoid, ring, {})


def indicator(monoid: OrderedMonoid, w, ring: Ring) -> Series:
    """The series with coefficient 1 at w and 0 elsewhere."""
    monoid.check_elem(w)
    return Series._raw(monoid, ring, {w: ring.one()})
