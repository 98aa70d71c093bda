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
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def _raw(monoid: OrderedMonoid, ring: Ring, terms: dict) -> "Series":
        """Trusted constructor: terms already checked and zero-free."""
        out = object.__new__(Series)
        object.__setattr__(out, "monoid", monoid)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "_terms", terms)
        return out

    def coeff(self, s):
        self.monoid.check_elem(s)
        return self._terms.get(s, self.ring.zero())

    def support(self) -> list:
        return sorted(self._terms, key=self.monoid.sort_key)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def _check_peer(self, other: "Series") -> None:
        if self.monoid is not other.monoid and self.monoid != other.monoid:
            raise MonoidMismatch(f"series over {self.monoid} vs {other.monoid}")
        if self.ring != other.ring:
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
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        self._check_peer(other)
        add = self.monoid.add
        g = other._terms.items()
        acc: dict = {}
        for u, cu in self._terms.items():
            for v, cv in g:
                s = add(u, v)
                if s in acc:
                    acc[s] += cu * cv
                else:
                    acc[s] = cu * cv
        m = self.ring.modulus
        if m:
            acc = {s: r for s, c in acc.items() if (r := c % m)}
        elif len(acc) < len(self._terms) * len(other._terms):
            # over Z and Q a product of nonzero terms is nonzero, so a zero
            # sum needs two pairs landing on the same exponent
            acc = {s: c for s, c in acc.items() if c}
        return Series._raw(self.monoid, self.ring, acc)

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
        parts = [f"{fmt(c)} @ {rep(s)}" for s, c in sorted(self._terms.items(), key=lambda kv: self.monoid.sort_key(kv[0]))]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Series({self.monoid}, {self.ring}, {self!s})"

    def to_json(self) -> dict:
        rep, fmt = self.monoid.elem_repr, self.ring.fmt
        return {
            "monoid": str(self.monoid),
            "ring": str(self.ring),
            "terms": [
                {"exp": rep(s), "coeff": fmt(c)}
                for s, c in sorted(self._terms.items(), key=lambda kv: self.monoid.sort_key(kv[0]))
            ],
        }


def zero_series(monoid: OrderedMonoid, ring: Ring) -> Series:
    return Series._raw(monoid, ring, {})


def one_series(monoid: OrderedMonoid, ring: Ring) -> Series:
    return indicator(monoid, monoid.zero(), ring)


def indicator(monoid: OrderedMonoid, w, ring: Ring) -> Series:
    """The series with coefficient 1 at w and 0 elsewhere."""
    monoid.check_elem(w)
    return Series._raw(monoid, ring, {w: ring.one()})


def series_eq(f: Series, g: Series) -> bool:
    """Exact equality; raises on mismatched monoids rather than returning False."""
    f._check_peer(g)
    return f._terms == g._terms
