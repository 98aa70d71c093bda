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
from .projectors import Projector
from .scalars import Ring
from .series import Series

# the one Z of every Laurent value: series and projectors built on it pass
# their peer checks by identity
_LINE = IntLine()
# pole_part's projector, built once: building it on every call added about
# 2 us to a pole_part call of about 3 us (Python 3.11, shared 2-vCPU x86 host)
_POLES = Projector.cutoff(_LINE, 0)


class InsufficientPrecision(ArithmeticError):
    """Raised when an operation needs coefficients beyond the known window."""


class TruncatedLaurent:
    """Immutable truncated Laurent series over an exact coefficient ring; make_laurent builds one."""

    __slots__ = ("series", "tail")

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
        return TruncatedLaurent._raw(series if tail is None else series._kept(tail.__gt__), tail)

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

    def coeff(self, n: int):
        if self.tail is not None and n >= self.tail:
            raise InsufficientPrecision(f"coefficient of x^{n} lies beyond O(x^{self.tail})")
        return self.series.coeff(n)

    def is_zero(self) -> bool:
        """True only for the exact zero; an all-zero window with a tail is unknown."""
        return self.tail is None and self.series.is_zero()

    def known_zero_on_window(self) -> bool:
        return self.series.is_zero()

    def term_count(self) -> int:
        return self.series.term_count()

    def items(self) -> list:
        """The nonzero terms, (exponent, coefficient) by increasing exponent."""
        return sorted(self.series.items())

    def __add__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        tails = [t for t in (self.tail, other.tail) if t is not None]
        return TruncatedLaurent.from_series(self.series + other.series, min(tails, default=None))

    def __neg__(self) -> "TruncatedLaurent":
        return TruncatedLaurent._raw(-self.series, self.tail)

    def __sub__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return self + -other

    def mul(self, other: "TruncatedLaurent", pole: bool = False) -> "TruncatedLaurent":
        """The product; with pole, pole_part of it, from the pairs that land below x^0 only.

        A factor that is not a TruncatedLaurent is a TypeError.
        """
        if not isinstance(other, TruncatedLaurent):
            raise TypeError(f"a Laurent value multiplies a Laurent value, not {type(other).__name__}")
        # the stored terms and tails read once: ord is the lowest stored
        # exponent, or the tail when nothing is stored
        f, g, f_tail, g_tail = self.series._terms, other.series._terms, self.tail, other.tail
        tail = None  # stays None when either factor is the exact zero, which annihilates a tail
        if (f or f_tail is not None) and (g or g_tail is not None):
            if f_tail is not None:
                tail = f_tail + (min(g) if g else g_tail)
            if g_tail is not None:
                bound = g_tail + (min(f) if f else f_tail)
                if tail is None or bound < tail:
                    tail = bound
        if pole:  # pole_part's precision check, on the product's tail, before any pair is formed
            _check_poles_known(tail)
            return TruncatedLaurent._raw(self.series.mul(other.series, below=0), None)
        return TruncatedLaurent._raw(self.series.mul(other.series, below=tail), tail)

    def __mul__(self, other):
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return self.mul(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return self.series == other.series and self.tail == other.tail

    def __hash__(self):
        return hash((self.series, self.tail))

    def __repr__(self) -> str:
        return f"TruncatedLaurent({self.ring}, {dict(self.items())}, trunc={self.tail})"

    def to_json(self) -> dict:
        lo, hi, ring = self.ord, self.trunc, self.ring
        return {
            "ring": str(ring),
            "ord": lo,
            # the coefficients of [ord, trunc), with the zeros filled in
            "coeffs": self.series.coeff_texts(range(lo, hi), ring.fmt),
            "trunc": hi,
            "exact": self.tail is None,
        }


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
    _check_poles_known(f.tail)
    return TruncatedLaurent._raw(_POLES(f.series), None)


def _check_poles_known(tail: int | None) -> None:
    """InsufficientPrecision unless every coefficient below x^0 is known under the tail."""
    if tail is not None and tail < 0:
        raise InsufficientPrecision(
            f"pole part needs all coefficients below x^0, input is only known to O(x^{tail})"
        )


def pole_defect_terms(f: TruncatedLaurent, g: TruncatedLaurent) -> tuple:
    """projectors.defect_terms(pole_part, f, g), the last three as products bounded at 0."""
    pf, pg = pole_part(f), pole_part(g)
    return pf * pg, f.mul(pg, pole=True), pf.mul(g, pole=True), f.mul(g, pole=True)


def signed_defect(t1, t2, t3, t4) -> TruncatedLaurent:
    """t1 - t2 - t3 + t4 of four exact values, summed by one Series._merged over the lcm of their dens.

    t2 and t3 go in as negated parts, so no Series is built for -t2 or -t3.
    """
    if not all(t.exact for t in (t1, t2, t3, t4)):
        raise ValueError("signed_defect sums exact values only")
    parts = [t1.series._part(), t2.series._neg_part(), t3.series._neg_part(), t4.series._part()]
    return TruncatedLaurent._raw(Series._merged(_LINE, t1.ring, parts), None)


def tl_rb_defect(f: TruncatedLaurent, g: TruncatedLaurent) -> TruncatedLaurent:
    """The weight -1 defect for the pole-part projection, the signed sum of pole_defect_terms."""
    return signed_defect(*pole_defect_terms(f, g))

