"""Finitely supported series over an ordered monoid with exact coefficients.

A series is a map from monoid elements to nonzero coefficients; addition is
pointwise and multiplication is convolution,

    (f * g)(s) = sum of f(u) * g(v) over all u + v = s.

Finite supports keep every convolution sum finite without any condition on
the monoid order, so the full ring structure is available even when the
order is only partial.

Every series stores its coefficients as int numerators over one positive
denominator, `_den`. Over Z and Z/m the denominator is 1 and the numerators
are the values themselves (residues 0..m-1 over Z/m). Over Q the pair is
kept in lowest terms, gcd(_den, all numerators) == 1, so equal series store
equal data and compare and hash on it. Every kernel (products, sums,
scaling, projections, printing) works on the numerators and builds no
`Fraction`; the public constructor, `coeff`, `items` and `sorted_items`
take and give the ring's values (see scalars.py), a `Fraction` over Q.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Mapping

from .monoids import MonoidMismatch, OrderedMonoid
from .scalars import Ring, RingMismatch


class Series:
    """Immutable finitely supported series; zero coefficients are never stored."""

    __slots__ = ("monoid", "ring", "_terms", "_den")

    def __init__(self, monoid: OrderedMonoid, ring: Ring, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        contains = ring.contains
        parts = []
        for s, c in items:
            monoid.check_elem(s)
            if not contains(c):
                raise TypeError(f"coefficient {c!r} is not in {ring}")
            # an int is its own numerator over 1, a Fraction is in lowest terms
            parts.append((((s, c.numerator),), c.denominator))
        out = Series._merged(monoid, ring, parts)
        _set_monoid(self, monoid)
        _set_ring(self, ring)
        _set_terms(self, out._terms)
        _set_den(self, out._den)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def _raw(monoid: OrderedMonoid, ring: Ring, terms: dict, den: int = 1) -> "Series":
        """Trusted constructor: zero-free numerators of the ring over den > 0.

        The pair is brought to lowest terms here, with one gcd over all the
        numerators, so every kernel may return an unreduced one.
        """
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {s: c // g for s, c in terms.items()}
        out = _new(Series)
        # the slots' own setters: half the cost of object.__setattr__, and
        # every product, sum and projection builds its result here
        _set_monoid(out, monoid)
        _set_ring(out, ring)
        _set_terms(out, terms)
        _set_den(out, den)
        return out

    @staticmethod
    def _merged(monoid: OrderedMonoid, ring: Ring, parts: list) -> "Series":
        """Trusted constructor: the sum of parts, each a pair (terms, den); zeros drop out.

        The terms of a part are checked (exponent, numerator) pairs over its
        den > 0, as `ring.ratio` gives a literal or `_part` a series; each
        part is scaled once to the lcm of the dens. Distinct exponents, the
        usual case, make one dict build at C speed. The numerators of an
        exponent that repeats are added up in order.
        """
        den = lcm(*[d for _, d in parts])
        if den == 1:
            items = [t for terms, _ in parts for t in terms]
        else:
            items = [(s, c * k) for terms, d in parts for k in (den // d,) for s, c in terms]
        acc = dict(items)
        if len(acc) < len(items):
            acc = {}
            for s, c in items:
                acc[s] = acc[s] + c if s in acc else c
            m = ring.modulus
            if m:
                acc = {s: c % m for s, c in acc.items()}
        if not all(acc.values()):
            acc = {s: c for s, c in acc.items() if c}
        return Series._raw(monoid, ring, acc, den)

    def _part(self) -> tuple:
        """The stored (exponent, numerator) terms and their denominator, a part for `_merged`."""
        return self._terms.items(), self._den

    def _kept(self, keeps) -> "Series":
        """The terms at the exponents s with keeps(s)."""
        return Series._raw(self.monoid, self.ring, {s: c for s, c in self._terms.items() if keeps(s)}, self._den)

    def coeff(self, s):
        self.monoid.check_elem(s)
        return self.ring.value(self._terms.get(s, 0), self._den)

    def support(self) -> list:
        return sorted(self._terms)

    def items(self) -> list:
        """The (exponent, coefficient) terms, as values of the ring."""
        value, den = self.ring.value, self._den
        return [(s, value(c, den)) for s, c in self._terms.items()]

    def sorted_items(self) -> list:
        """The (exponent, coefficient) terms by increasing exponent, as printed.

        Exponents sort as Python values (ints, or tuples of ints), which on
        a partial order is a display order, not the monoid's.
        """
        terms, value, den = self._terms, self.ring.value, self._den
        return [(s, value(terms[s], den)) for s in sorted(terms)]

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
        f, g, den = self._terms, other._terms, self._den
        if den != other._den:
            d, e = den, other._den
            den = lcm(d, e)
            if den != d:
                f = {s: c * (den // d) for s, c in f.items()}
            if den != e:
                g = {s: c * (den // e) for s, c in g.items()}
        m = self.ring.modulus
        acc = dict(f)
        for s, c in g.items():
            if s in acc:
                c += acc[s]
                if m:
                    c %= m
                if not c:
                    del acc[s]
                    continue
            acc[s] = c
        return Series._raw(self.monoid, self.ring, acc, den)

    def __neg__(self) -> "Series":
        m = self.ring.modulus
        terms = self._terms.items()
        neg = {s: m - c for s, c in terms} if m else {s: -c for s, c in terms}
        return Series._raw(self.monoid, self.ring, neg, self._den)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        return self.mul(other)

    def mul(self, other: "Series", below: int | None = None) -> "Series":
        """The product of the numerators (`_convolve`), over the product of the denominators.

        Over Q the result is brought to lowest terms once, by `_raw`. With
        integer exponents, below drops every exponent >= below.
        """
        self._check_peer(other)
        acc = _convolve(self.monoid, self._terms, other._terms, self.ring.modulus, below)
        return Series._raw(self.monoid, self.ring, acc, self._den * other._den)

    def below(self, bound: int) -> "Series":
        """The terms at integer exponents < bound."""
        # filtered here, not through _kept: a predicate call per term made
        # this projection of the Laurent path about 1.5 times slower
        kept = {s: c for s, c in self._terms.items() if s < bound}
        return Series._raw(self.monoid, self.ring, kept, self._den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Series":
        if not self.ring.contains(c):
            raise TypeError(f"scalar {c!r} is not in {self.ring}")
        m = self.ring.modulus
        terms = self._terms.items()
        if m:
            return Series._raw(self.monoid, self.ring, {s: r for s, v in terms if (r := c * v % m)})
        # an int is its own numerator over 1, a Fraction is in lowest terms
        num = c.numerator
        acc = {s: num * v for s, v in terms} if num else {}
        return Series._raw(self.monoid, self.ring, acc, self._den * c.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.monoid == other.monoid
            and self.ring == other.ring
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.monoid, self.ring, self._den, frozenset(self._terms.items())))

    def coeff_texts(self, keys: list, fmt=str) -> list[str]:
        """The printed text of the coefficient at each of keys (0 where none is stored).

        Over den 1 a numerator is its value and prints as fmt does it. Over
        Q each term takes one gcd and prints as the Fraction it stands for
        would: the integer when the reduced denominator is 1, else n/d.
        """
        den = self._den
        values = map(self._terms.get, keys, repeat(0))
        if den == 1:
            return list(map(fmt, values))
        return [str(c // g) if (g := gcd(c, den)) == den else f"{c // g}/{den // g}" for c in values]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rep, keys = self.monoid.elem_repr, sorted(self._terms)
        texts = self.coeff_texts(keys, self.ring.fmt)
        return " + ".join([f"{text} @ {rep(s)}" for s, text in zip(keys, texts)])

    def __repr__(self) -> str:
        return f"Series({self.monoid}, {self.ring}, {self!s})"

    def to_json(self) -> dict:
        rep, keys = self.monoid.elem_repr, sorted(self._terms)
        texts = self.coeff_texts(keys, self.ring.fmt)
        return {
            "monoid": str(self.monoid),
            "ring": str(self.ring),
            "terms": [{"exp": rep(s), "coeff": text} for s, text in zip(keys, texts)],
        }


_new = object.__new__
_set_monoid, _set_ring, _set_terms, _set_den = (Series.__dict__[name].__set__ for name in Series.__slots__)


# The packed product beats the dict loop once the smaller factor has this
# many terms and the pairs cover the product's exponent span this many times
# over, once more for every 16 bytes of slot (README, "Packed products").
PACK_MIN_TERMS = 12
PACK_DENSITY = 4


def _convolve(monoid: OrderedMonoid, f: dict, g: dict, m: int | None, below: int | None = None) -> dict:
    """The convolution of two numerator maps, reduced mod m when m is set; zeros dropped.

    The integer product runs as one packed big-int product (`_packed`)
    when the monoid has int exponents, the smaller factor has at least
    PACK_MIN_TERMS terms and the pairs cover the product's exponent span at
    least PACK_DENSITY times over, once more for every 16 bytes of slot
    (`slot_bytes`); every other product runs the dict loop, which adds each
    pair product into a map keyed by the exponent sum (`u + v` inline on int
    exponents, `monoid.add` on any other monoid).

    With integer exponents, below drops every exponent >= below: each
    factor is first trimmed to the terms that can land below it.
    """
    if below is not None and f and g:
        f_lo, g_lo = min(f), min(g)
        f = {u: c for u, c in f.items() if u < below - g_lo}
        g = {v: c for v, c in g.items() if v < below - f_lo}
    # with a one-term factor each pair is its own output term, so packing
    # could save nothing
    nb = slot_bytes(monoid, f, g, m) if len(f) > 1 and len(g) > 1 else 0
    if nb:
        return _packed(f, g, m, below, nb)
    pairs = g.items()
    if below is not None:
        pairs = sorted(pairs)
        keys = [v for v, _ in pairs]
    acc = {}
    if monoid.int_exponents:
        # the same loop with the sum inline, which costs half of a
        # bound-method call per pair
        for u, cu in f.items():
            for v, cv in pairs if below is None else pairs[: bisect_left(keys, below - u)]:
                s = u + v
                if s in acc:
                    acc[s] += cu * cv
                else:
                    acc[s] = cu * cv
    else:
        add = monoid.add
        for u, cu in f.items():
            for v, cv in pairs if below is None else pairs[: bisect_left(keys, below - u)]:
                s = add(u, v)
                if s in acc:
                    acc[s] += cu * cv
                else:
                    acc[s] = cu * cv
    if m:
        return {s: r for s, c in acc.items() if (r := c % m)}
    if len(acc) < len(f) * len(g):
        # over Z and Q a product of nonzero terms is nonzero, so a zero sum
        # needs two pairs landing on the same exponent
        return {s: c for s, c in acc.items() if c}
    return acc


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
    return Series._raw(monoid, ring, {w: 1})
