"""Laurent series in one variable, truncated, with order-of-validity tracking.

A value stores the coefficients of x^n for ord <= n < trunc, plus an `exact`
flag. Exact values are Laurent polynomials: every coefficient outside the
stored window is zero. Inexact values carry an unknown tail at exponents
>= trunc, and every operation propagates the window on which its result is
still fully determined:

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

from .scalars import Ring, RingMismatch


class InsufficientPrecision(ArithmeticError):
    """Raised when an operation needs coefficients beyond the known window."""


class TruncatedLaurent:
    """Immutable truncated Laurent series over an exact coefficient ring."""

    __slots__ = ("ring", "ord", "coeffs", "trunc", "exact")

    def __init__(
        self,
        ring: Ring,
        ord: int,
        coeffs: Iterable,
        exact: bool = True,
        trunc: int | None = None,
    ):
        cs = list(coeffs)
        for c in cs:
            if not ring.contains(c):
                raise TypeError(f"coefficient {c!r} is not in {ring}")
        if trunc is not None and trunc != ord + len(cs):
            raise ValueError(f"window [{ord}, {trunc}) does not fit {len(cs)} coefficients")
        _store(self, ring, ord, cs, exact)

    @staticmethod
    def _raw(ring: Ring, ord: int, cs: list, exact: bool) -> "TruncatedLaurent":
        """Trusted constructor: cs already in the ring, window [ord, ord + len(cs))."""
        out = object.__new__(TruncatedLaurent)
        _store(out, ring, ord, cs, exact)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedLaurent is immutable")

    def coeff(self, n: int):
        if n < self.ord:
            return self.ring.zero()
        if n < self.trunc:
            return self.coeffs[n - self.ord]
        if self.exact:
            return self.ring.zero()
        raise InsufficientPrecision(f"coefficient of x^{n} lies beyond O(x^{self.trunc})")

    def is_zero(self) -> bool:
        """True only for the exact zero; an all-zero window with a tail is unknown."""
        return self.exact and not self.coeffs

    def known_zero_on_window(self) -> bool:
        return not self.coeffs

    def items(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.ord + i, c

    def _check_peer(self, other: "TruncatedLaurent") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"series over {self.ring} vs {other.ring}")

    def __add__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        self._check_peer(other)
        exact = self.exact and other.exact
        if exact:
            hi = max(self.trunc, other.trunc)
        else:
            hi = min(t.trunc for t in (self, other) if not t.exact)
        lo = min(self.ord, other.ord, hi)
        cs = [self.ring.zero()] * (hi - lo)
        for t in (self, other):
            k = t.ord - lo
            for c in t.coeffs[: max(hi - t.ord, 0)]:
                cs[k] += c
                k += 1
        m = self.ring.modulus
        if m:
            cs = [c % m for c in cs]
        return TruncatedLaurent._raw(self.ring, lo, cs, exact)

    def __neg__(self) -> "TruncatedLaurent":
        m = self.ring.modulus
        cs = [-c % m for c in self.coeffs] if m else [-c for c in self.coeffs]
        return TruncatedLaurent._raw(self.ring, self.ord, cs, self.exact)

    def __sub__(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedLaurent):
            return self.scale(other)
        self._check_peer(other)
        if self.is_zero() or other.is_zero():
            return zero_laurent(self.ring)
        exact = self.exact and other.exact
        lo = self.ord + other.ord
        if exact:
            hi = self.trunc + other.trunc - 1
        else:
            bounds = []
            if not self.exact:
                bounds.append(self.trunc + other.ord)
            if not other.exact:
                bounds.append(other.trunc + self.ord)
            hi = min(bounds)
        width = max(hi - lo, 0)
        # the coefficient of x^(lo + i + j) collects a_i * b_j
        cs = [self.ring.zero()] * width
        g = [(j, b) for j, b in enumerate(other.coeffs[:width]) if b]
        for i, a in enumerate(self.coeffs[:width]):
            if not a:
                continue
            room = width - i
            for j, b in g:
                if j >= room:
                    break
                cs[i + j] += a * b
        m = self.ring.modulus
        if m:
            cs = [c % m for c in cs]
        return TruncatedLaurent._raw(self.ring, lo, cs, exact)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "TruncatedLaurent":
        if not self.ring.contains(c):
            raise TypeError(f"scalar {c!r} is not in {self.ring}")
        m = self.ring.modulus
        cs = [c * a % m for a in self.coeffs] if m else [c * a for a in self.coeffs]
        return TruncatedLaurent._raw(self.ring, self.ord, cs, self.exact)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedLaurent):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.ord == other.ord
            and self.coeffs == other.coeffs
            and self.trunc == other.trunc
            and self.exact == other.exact
        )

    def __hash__(self):
        return hash((self.ring, self.ord, self.coeffs, self.trunc, self.exact))

    def __str__(self) -> str:
        parts = []
        for n, c in self.items():
            cs = self.ring.fmt(c)
            if n == 0:
                parts.append(cs)
            else:
                head = "" if cs == "1" else ("-" if cs == "-1" else f"{cs}*")
                parts.append(f"{head}x^{n}" if n != 1 else f"{head}x")
        body = " + ".join(parts) if parts else ("0" if self.exact else "")
        if not self.exact:
            tail = f"O(x^{self.trunc})"
            return f"{body} + {tail}" if body else tail
        return body

    def __repr__(self) -> str:
        return f"TruncatedLaurent({self.ring}, {self!s})"

    def to_json(self) -> dict:
        return {
            "ring": str(self.ring),
            "ord": self.ord,
            "coeffs": [self.ring.fmt(c) for c in self.coeffs],
            "trunc": self.trunc,
            "exact": self.exact,
        }


def _store(out: TruncatedLaurent, ring: Ring, ord: int, cs: list, exact: bool) -> None:
    """Set the fields of out in canonical form from the window [ord, ord + len(cs)).

    Canonical form has no leading zeros; exact values also shed trailing
    zeros, and the exact zero is stored as the empty window [0, 0).
    """
    lo, hi = 0, len(cs)
    while lo < hi and not cs[lo]:
        lo += 1
    if exact:
        while hi > lo and not cs[hi - 1]:
            hi -= 1
        if lo == hi:
            ord = lo = hi = 0
    trunc = ord + hi
    ord += lo
    object.__setattr__(out, "ring", ring)
    object.__setattr__(out, "ord", ord)
    object.__setattr__(out, "coeffs", tuple(cs[lo:hi]))
    object.__setattr__(out, "trunc", trunc)
    object.__setattr__(out, "exact", exact)


def zero_laurent(ring: Ring) -> TruncatedLaurent:
    return TruncatedLaurent._raw(ring, 0, [], True)


def make_laurent(ring: Ring, terms: Mapping | Iterable, trunc: int | None = None) -> TruncatedLaurent:
    """Build from {exponent: coefficient}; trunc=None means exact, else tail O(x^trunc)."""
    items = dict(terms.items() if isinstance(terms, Mapping) else terms)
    for c in items.values():
        if not ring.contains(c):
            raise TypeError(f"coefficient {c!r} is not in {ring}")
    if not items:
        if trunc is None:
            return zero_laurent(ring)
        return TruncatedLaurent._raw(ring, trunc, [], False)
    lo = min(items)
    hi = max(items) + 1
    if trunc is not None:
        if hi > trunc:
            raise ValueError(f"term at exponent >= trunc {trunc}")
        hi = trunc
    zero = ring.zero()
    cs = [items.get(n, zero) for n in range(lo, hi)]
    return TruncatedLaurent._raw(ring, lo, cs, trunc is None)


def pole_part(f: TruncatedLaurent) -> TruncatedLaurent:
    """Projection keeping the strictly negative exponents; the result is exact.

    Demands that every negative-exponent coefficient be known, so an inexact
    input must satisfy trunc >= 0.
    """
    if not f.exact and f.trunc < 0:
        raise InsufficientPrecision(
            f"pole part needs all coefficients below x^0, input is only known to O(x^{f.trunc})"
        )
    cut = min(0, f.trunc) - f.ord
    return TruncatedLaurent._raw(f.ring, f.ord, list(f.coeffs[:max(cut, 0)]), True)


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
    from .series import Series

    if not f.exact:
        raise InsufficientPrecision("only exact values embed as finitely supported series")
    if ring is None:
        ring = f.ring
    return Series(monoid, ring, {n: c for n, c in f.items()})
