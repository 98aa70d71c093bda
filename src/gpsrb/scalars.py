"""Exact coefficient rings: arbitrary-precision integers, rationals, integers mod m.

Coefficients are plain Python values: an `int` over Z, a `fractions.Fraction`
over Q, and an `int` residue in 0..m-1 over Z/m. A `Ring` makes, checks
and prints its values; series carry their ring and check membership
at their public constructors, so values of different rings never meet in a
sum or product. Every identity check downstream relies on exact equality
here, so there is no floating-point variant and no silent coercion between
rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class RingMismatch(TypeError):
    """Raised when values or series from different rings (or moduli) are combined."""


class ZeroDenominator(ZeroDivisionError):
    """Raised when a rational is built with denominator zero."""


class Ring:
    """Descriptor for one of the coefficient rings.

    Subclasses set `modulus`: None for Z and Q, m for Z/m. Sums and products
    of ring values are computed on the bare values and brought back into the
    ring by `reduce`; the series kernels read `modulus` to reduce once per
    output term, and `fractional` (True only for Q) to multiply integer
    numerators over one denominator per factor.
    """

    modulus: int | None
    fractional = False

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def from_ratio(self, num: int, den: int):
        """num/den as an element of this ring, or ValueError when it has none."""
        raise NotImplementedError

    def contains(self, c) -> bool:
        raise NotImplementedError

    def reduce(self, c):
        """The ring element an integer (or rational) sum or product stands for."""
        return c

    # the text of one coefficient, as `__str__` and `to_json` show it: the
    # builtin itself, so printing a term costs no Python call around it
    fmt = str


@dataclass(frozen=True)
class IntegerRing(Ring):
    modulus = None

    def from_int(self, n: int) -> int:
        return n

    def from_ratio(self, num: int, den: int) -> int:
        if den == 0:
            raise ZeroDenominator(f"{num}/0")
        if num % den != 0:
            raise ValueError(f"{num}/{den} is not an integer")
        return num // den

    def contains(self, c) -> bool:
        return type(c) is int

    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class RationalRing(Ring):
    modulus = None
    fractional = True

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def from_ratio(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise ZeroDenominator(f"{num}/0")
        return Fraction(num, den)

    def contains(self, c) -> bool:
        return type(c) is Fraction

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class ModRing(Ring):
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    def from_int(self, n: int) -> int:
        return n % self.modulus

    def from_ratio(self, num: int, den: int) -> int:
        if den == 0:
            raise ZeroDenominator(f"{num}/0")
        # den must be invertible mod m
        try:
            inv = pow(den, -1, self.modulus)
        except ValueError:
            raise ValueError(f"denominator {den} not invertible mod {self.modulus}") from None
        return num * inv % self.modulus

    def contains(self, c) -> bool:
        return type(c) is int and 0 <= c < self.modulus

    def reduce(self, c: int) -> int:
        return c % self.modulus

    def fmt(self, c: int) -> str:
        return f"{c} mod {self.modulus}"

    def __str__(self) -> str:
        return f"Z/{self.modulus}"


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(m: int) -> ModRing:
    return ModRing(m)
