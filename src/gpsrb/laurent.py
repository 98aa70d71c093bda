"""Laurent series in one variable, truncated, with order-of-validity tracking.

A value is a finitely supported `Series` over (Z, +) plus a tail bound.
Exact values (tail None) are Laurent polynomials: every coefficient the
series does not store is zero. Inexact values carry an unknown tail at
exponents >= trunc (the tail bound), and their series stores only terms
below it. Only nonzero coefficients are stored, so memory grows with the
number of terms, not with the exponents.

The window [ord, trunc) on which a value is fully determined is derived,
not stored: ord is the lowest exponent with a nonzero coefficient, or trunc
when there is none, and an exact value's trunc is one past its highest
exponent (the exact zero has the window [0, 0)). Every operation propagates
the window on which its result is still fully determined:

    (f + g).trunc = min(f.trunc, g.trunc)
    (f * g).trunc = min(f.trunc + g.ord, g.trunc + f.ord)

with exact operands dropped from each min. Reading a coefficient in the
unknown tail raises InsufficientPrecision instead of guessing zero.

Projection onto the pole part (keep strictly negative exponents) always
yields an exact value, since the finitely many negative-exponent
coefficients are either stored or provably zero.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .monoids import IntLine
from .scalars import Ring
from .series import Series, zero_series

_LINE = IntLine()


class InsufficientPrecision(ArithmeticError):
    """Raised when an operation needs coefficients beyond the known window."""


class TruncatedLaurent:
    """Immutable truncated Laurent series over an exact coefficient ring."""

    __slots__ = ("series", "tail")

    def __init__(
        self,
        ring: Ring,
        ord: int,
        coeffs: Iterable,
        exact: bool = True,
        trunc: int | None = None,
    ):
        cs = list(coeffs)
        series = Series(_LINE, ring, zip(range(ord, ord + len(cs)), cs))
        if trunc is not None and trunc != ord + len(cs):
            raise ValueError(f"window [{ord}, {trunc}) does not fit {len(cs)} coefficients")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "tail", None if exact else ord + len(cs))

    @staticmethod
    def _raw(series: Series, tail: int | None) -> "TruncatedLaurent":
        """Trusted constructor: series over Z with no term at or past tail."""
        out = object.__new__(TruncatedLaurent)
        object.__setattr__(out, "series", series)
        object.__setattr__(out, "tail", tail)
        return out

    @staticmethod
    def from_series(series: Series, tail: int | None = None) -> "TruncatedLaurent":
        """The value a series over Z determines below tail (exact when tail is None)."""
        return TruncatedLaurent._raw(series if tail is None else series.below(tail), tail)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedLaurent is immutable")

    @property
    def ring(self) -> Ring:
        return self.series.ring

    @property
    def exact(self) -> bool:
        return self.tail is None

    @property
    def ord(self) -> int:
        terms = self.series._terms
        if terms:
            return min(terms)
        return 0 if self.tail is None else self.tail

    @property
    def trunc(self) -> int:
        if self.tail is not None:
            return self.tail
        terms = self.series._terms
        return max(terms) + 1 if terms else 0

    @property
    def coeffs(self) -> tuple:
        """The dense window [ord, trunc), zeros included, built on each access."""
        return tuple(self._window()[1])

    def _window(self) -> tuple[int, list]:
        """ord, and the coefficients of [ord, trunc) with the zeros filled in."""
        lo = self.ord
        window = [self.ring.zero()] * (self.trunc - lo)
        for n, c in self.series.items():
            window[n - lo] = c
        return lo, window

    def coeff(self, n: int):
        if self.tail is not None and n >= self.tail:
            raise InsufficientPrecision(f"coefficient of x^{n} lies beyond O(x^{self.tail})")
        return self.series.coeff(n)

    def is_zero(self) -> bool:
        """True only for the exact zero; an all-zero window with a tail is unknown."""
        return self.tail is None and self.series.is_zero()

    def known_zero_on_window(self) -> bool:
        return self.series.is_zero()

    def items(self) -> list:
        """The nonzero terms, (exponent, coefficient) by increasing exponent."""
        return sorted(self.series.items())

    def __add__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        tails = [t.tail for t in (self, other) if t.tail is not None]
        return TruncatedLaurent.from_series(self.series + other.series, min(tails, default=None))

    def __neg__(self) -> "TruncatedLaurent":
        return TruncatedLaurent._raw(-self.series, self.tail)

    def __sub__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedLaurent):
            return self.scale(other)
        bounds = []  # stays empty when either factor is the exact zero, which annihilates a tail
        if not (self.is_zero() or other.is_zero()):
            if self.tail is not None:
                bounds.append(self.tail + other.ord)
            if other.tail is not None:
                bounds.append(other.tail + self.ord)
        tail = min(bounds) if bounds else None
        return TruncatedLaurent._raw(self.series.mul(other.series, below=tail), tail)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "TruncatedLaurent":
        return TruncatedLaurent._raw(self.series.scale(c), self.tail)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return self.series == other.series and self.tail == other.tail

    def __hash__(self):
        return hash((self.series, self.tail))

    def __repr__(self) -> str:
        return f"TruncatedLaurent({self.ring}, {dict(self.items())}, trunc={self.tail})"

    def to_json(self) -> dict:
        lo, window = self._window()
        ring = self.ring
        return {
            "ring": str(ring),
            "ord": lo,
            "coeffs": [ring.fmt(c) for c in window],
            "trunc": lo + len(window),
            "exact": self.exact,
        }


def zero_laurent(ring: Ring) -> TruncatedLaurent:
    return TruncatedLaurent._raw(zero_series(_LINE, ring), None)


def make_laurent(ring: Ring, terms: Mapping | Iterable, trunc: int | None = None) -> TruncatedLaurent:
    """Build from {exponent: coefficient}; trunc=None means exact, else tail O(x^trunc)."""
    items = dict(terms.items() if isinstance(terms, Mapping) else terms)
    series = Series(_LINE, ring, items)
    if trunc is not None and items and max(items) >= trunc:
        raise ValueError(f"term at exponent >= trunc {trunc}")
    return TruncatedLaurent._raw(series, trunc)


def pole_part(f: TruncatedLaurent) -> TruncatedLaurent:
    """Projection keeping the strictly negative exponents; the result is exact.

    This is the cutoff projector at 0 on (Z, +), the minimal-subtraction
    scheme of renormalisation.

    Demands that every negative-exponent coefficient be known, so an inexact
    input must satisfy trunc >= 0.
    """
    if f.tail is not None and f.tail < 0:
        raise InsufficientPrecision(
            f"pole part needs all coefficients below x^0, input is only known to O(x^{f.tail})"
        )
    return TruncatedLaurent._raw(f.series.below(0), None)


def nonneg_part(f: TruncatedLaurent) -> TruncatedLaurent:
    """Complementary projection keeping exponents >= 0; exactness follows the input."""
    p = pole_part(f)
    return f - p


def tl_rb_defect(f: TruncatedLaurent, g: TruncatedLaurent) -> TruncatedLaurent:
    """P(f)P(g) - P(f P(g)) - P(P(f) g) + P(f g) for the pole-part projection P.

    The four terms are computed independently; each application of P yields an
    exact value, so the returned defect is exact whenever no term raises
    InsufficientPrecision.
    """
    pf, pg = pole_part(f), pole_part(g)
    t1 = pf * pg
    t2 = pole_part(f * pg)
    t3 = pole_part(pf * g)
    t4 = pole_part(f * g)
    return t1 - t2 - t3 + t4


def to_series(f: TruncatedLaurent, monoid, ring: Ring | None = None):
    """Reinterpret an exact value as a finitely supported series over the integers."""
    if not f.exact:
        raise InsufficientPrecision("only exact values embed as finitely supported series")
    return Series(monoid, f.ring if ring is None else ring, f.series.items())
