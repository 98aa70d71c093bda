"""Exact coefficient rings: arbitrary-precision integers, rationals, integers mod m.

At the API boundary coefficients are plain Python values: an `int` over Z,
a `fractions.Fraction` over Q, and an `int` residue in 0..m-1 over Z/m. A
`Ring` makes, checks and prints them. Inside a series they are stored as
int numerators over one positive denominator per series (see series.py):
over Z and Z/m the denominator is 1 and the numerators are the values
themselves; over Q `ratio` splits a value into its stored form and `value`
builds the Fraction back, so this is the only module that imports
`fractions`. Series carry their ring and check membership at their public
constructors, so values of different rings never meet in a sum or product.
Every identity check downstream relies on exact equality here, so there is
no floating-point variant and no silent coercion between rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class RingMismatch(TypeError):
    """Raised when values or series from different rings (or moduli) are combined."""


class ZeroDenominator(ZeroDivisionError):
    """Raised when a rational is built with denominator zero."""


class Ring:
    """Descriptor for one of the coefficient rings.

    Subclasses set `modulus`: None for Z and Q, m for Z/m. Sums and products
    of stored numerators are computed on the bare ints; the series kernels
    read `modulus` and reduce each output term mod m once. The methods:
    `from_int` makes the value of an int, `ratio` splits p/q into the stored
    form and `value` builds the value back from it, `contains` checks
    membership, and `fmt` prints a value.
    """

    modulus: int | None

    def from_int(self, n: int):
        raise NotImplementedError

    def ratio(self, num: int, den: int) -> tuple[int, int]:
        """num/den as (numerator, denominator > 0) in lowest terms, as a series stores it.

        ValueError when the ring has no such element; the denominator is 1
        off Q.
        """
        raise NotImplementedError

    def value(self, num: int, den: int):
        """The ring element a stored numerator over den stands for."""
        return num

    def contains(self, c) -> bool:
        raise NotImplementedError

    # the text of one value with denominator 1 (every value off Q), as
    # `__str__` and `to_json` show it: the builtin itself, so printing a term
    # costs no Python call around it; Series.coeff_texts prints the others
    fmt = str


@dataclass(frozen=True)
class IntegerRing(Ring):
    modulus = None

    def from_int(self, n: int) -> int:
        return n

    def ratio(self, num: int, den: int) -> tuple[int, int]:
        if den == 0:
            raise ZeroDenominator(f"{num}/0")
        if num % den != 0:
            raise ValueError(f"{num}/{den} is not an integer")
        return num // den, 1

    def contains(self, c) -> bool:
        return type(c) is int

    def __str__(self) -> str:
        return "Z"


@dataclass(frozen=True)
class RationalRing(Ring):
    modulus = None

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def ratio(self, num: int, den: int) -> tuple[int, int]:
        if den == 0:
            raise ZeroDenominator(f"{num}/0")
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        return num // g, den // g

    def value(self, num: int, den: int) -> Fraction:
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

    def ratio(self, num: int, den: int) -> tuple[int, int]:
        if den == 0:
            raise ZeroDenominator(f"{num}/0")
        # den must be invertible mod m
        try:
            inv = pow(den, -1, self.modulus)
        except ValueError:
            raise ValueError(f"denominator {den} not invertible mod {self.modulus}") from None
        return num * inv % self.modulus, 1

    def contains(self, c) -> bool:
        return type(c) is int and 0 <= c < self.modulus

    def fmt(self, c: int) -> str:
        return f"{c} mod {self.modulus}"

    def __str__(self) -> str:
        return f"Z/{self.modulus}"


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(m: int) -> ModRing:
    return ModRing(m)
