"""Commutative monoids carrying a strictly compatible partial order.

Strict compatibility is the axiom everything downstream leans on:
s < s' implies s + t < s' + t for every t. Built-in carriers are the
integers, the naturals, and integer vectors under the product or
lexicographic order; arbitrary finite carriers load from JSON tables.

Elements are plain hashable Python values (int for the lines, tuple of int
for vectors, int index for tables). Supports print sorted as those values,
a stable order even when the monoid order is partial.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Sequence

from .outcomes import CheckOutcome


class BadElement(ValueError):
    """Raised when a value is not an element of the monoid it is used with."""


class BadTable(ValueError):
    """Raised when a finite-monoid table file is malformed or inconsistent."""


class MonoidMismatch(TypeError):
    """Raised when elements or series over different monoids are combined."""


# largest n of a table file, checked before the table is built: validation
# compares n^2 pairs of rows for associativity; theorem-verify --table exits 2
# after 0.09-0.11 s on Z/128 (validated, then above --max-size) and after
# 0.008 s on max(128) under the chain order, which the O(n^2) order check
# rejects first (in-process, one core of a shared 2-vCPU x86 host, Python 3.11)
MAX_TABLE_SIZE = 128


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_square(rows, n: int) -> bool:
    """Is rows an n x n table of lists or tuples (as JSON files may not be)?"""
    square = isinstance(rows, (list, tuple)) and len(rows) == n
    return square and all(isinstance(row, (list, tuple)) and len(row) == n for row in rows)


class OrderedMonoid:
    """Commutative monoid with a strict partial order lt; subclasses fill in the ops.

    Windows are boxes: window(lo, hi) holds the carrier elements with every
    coordinate in lo..hi, and window_size counts them without building them.
    int_exponents is True when the elements are plain ints added as ints, so
    a series product may pack its factors into big integers, or sum the
    exponents of its pairs without calling add (series.py). total_order is
    True when lt is total and is the builtin < of the elements: ints, or
    int tuples compared lexicographically. Strict compatibility makes such
    an order invariant under translation, so u + v < w exactly when
    u < w - v, computed in Z or Z^d; a cutoff there is decided by its
    threshold alone (projectors.Projector.cutoff, series._convolve).
    """

    int_exponents = False
    total_order = False

    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def lt(self, a, b) -> bool:
        raise NotImplementedError

    def check_elem(self, x) -> None:
        """Raise BadElement unless x belongs to the carrier."""
        raise NotImplementedError

    # the text of one element: the builtin itself, so printing a term costs no
    # Python call around it
    elem_repr = repr

    def parse_elem(self, text: str):
        raise NotImplementedError

    def from_exponent(self, value):
        """The element an exponent written as an int or a tuple of ints denotes."""
        if isinstance(value, tuple):
            raise BadElement(f"tuple exponent needs a vector monoid, not {self}")
        self.check_elem(value)
        return value

    def bounds(self, lo: int, hi: int) -> tuple[int, int]:
        """The range lo..hi trimmed to the carrier; BadElement when nothing is left."""
        return lo, hi

    def default_bounds(self, radius: int = 3) -> tuple[int, int]:
        return -radius, radius

    def window_size(self, lo: int, hi: int) -> int:
        lo, hi = self.bounds(lo, hi)
        return hi - lo + 1

    def window(self, lo: int, hi: int) -> list:
        return int_window(*self.bounds(lo, hi))

    def covers(self, elems: Iterable) -> bool:
        """Do elems hold the whole carrier? Only a finite carrier can be covered."""
        return False


@dataclass(frozen=True)
class IntLine(OrderedMonoid):
    """(Z, +) with the usual total order; (N, +), 0 included, when nonneg."""

    nonneg: bool = False
    int_exponents = True
    total_order = True

    def zero(self) -> int:
        return 0

    def add(self, a: int, b: int) -> int:
        return a + b

    def lt(self, a: int, b: int) -> bool:
        return a < b

    def _kind(self) -> str:
        return "a natural number" if self.nonneg else "an integer"

    def check_elem(self, x) -> None:
        if not _is_int(x) or (self.nonneg and x < 0):
            raise BadElement(f"not {self._kind()}: {x!r}")

    def parse_elem(self, text: str) -> int:
        try:
            n = int(text.strip())
        except ValueError:
            raise BadElement(f"not {self._kind()}: {text!r}") from None
        self.check_elem(n)
        return n

    def bounds(self, lo: int, hi: int) -> tuple[int, int]:
        if self.nonneg and hi < 0:
            raise BadElement(f"'{lo}..{hi}' contains no naturals")
        return (max(lo, 0) if self.nonneg else lo), hi

    def default_bounds(self, radius: int = 3) -> tuple[int, int]:
        return (0, 2 * radius) if self.nonneg else (-radius, radius)

    def __str__(self) -> str:
        return "N" if self.nonneg else "Z"


def _parse_vector(text: str, dim: int) -> tuple[int, ...]:
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    parts = [p.strip() for p in t.split(",")]
    if len(parts) != dim:
        raise BadElement(f"expected {dim} coordinates, got {len(parts)}: {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise BadElement(f"not an integer vector: {text!r}") from None


@dataclass(frozen=True)
class IntVector(OrderedMonoid):
    """(Z^d, +) under the product (componentwise) order, partial for d >= 2,
    or under the lexicographic order, total for every d."""

    dim: int
    lex: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def total_order(self) -> bool:
        return self.lex

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def add(self, a, b):
        return tuple(map(operator.add, a, b))

    def lt(self, a, b) -> bool:
        # tuple comparison is lexicographic
        return a < b if self.lex else a != b and all(map(operator.le, a, b))

    def check_elem(self, x) -> None:
        if not (isinstance(x, tuple) and len(x) == self.dim and all(_is_int(c) for c in x)):
            raise BadElement(f"not a Z^{self.dim} vector: {x!r}")

    def elem_repr(self, x) -> str:
        # "(1,-2)": the tuple's repr without its spaces, and "(5)" for d = 1
        return repr(x).replace(" ", "") if self.dim > 1 else f"({x[0]})"

    def parse_elem(self, text: str):
        return _parse_vector(text, self.dim)

    def from_exponent(self, value) -> tuple[int, ...]:
        if not isinstance(value, tuple):
            if self.dim != 1:
                raise BadElement(f"scalar exponent for {self}; write a {self.dim}-tuple")
            return (value,)
        if len(value) != self.dim:
            raise BadElement(f"exponent has {len(value)} coordinates, {self} needs {self.dim}")
        return value

    def window_size(self, lo: int, hi: int) -> int:
        # from d = 64 on a side of two or more is past any budget already,
        # so the count saturates there instead of growing a huge power
        return (hi - lo + 1) ** min(self.dim, 64)

    def window(self, lo: int, hi: int) -> list[tuple[int, ...]]:
        return vector_window(lo, hi, self.dim)

    def __str__(self) -> str:
        return f"Z^{self.dim}:{'lex' if self.lex else 'product'}"


@dataclass(frozen=True)
class FiniteTable(OrderedMonoid):
    """Finite commutative monoid given by an addition table and an order matrix.

    Elements are indices 0..n-1. leq_table, i <= j at [i][j], is the table's
    order data and lt that relation off the diagonal; the default identity
    matrix is the trivial order, strictly compatible for free. Construction
    validates shape only; validate_monoid checks the axioms.
    """

    n: int
    neutral: int
    add_table: tuple[tuple[int, ...], ...]
    leq_table: tuple[tuple[bool, ...], ...]
    name: str = "table"

    @staticmethod
    def from_lists(
        n: int,
        neutral: int,
        add: Sequence[Sequence[int]],
        leq: Sequence[Sequence[bool]] | None = None,
        name: str = "table",
    ) -> "FiniteTable":
        if not (_is_int(n) and n >= 1):
            raise BadTable(f"n must be a positive integer, got {n!r}")
        if not (_is_int(neutral) and 0 <= neutral < n):
            raise BadTable(f"neutral index {neutral!r} out of range for n={n}")
        if not _is_square(add, n):
            raise BadTable(f"add table must be {n}x{n}")
        for i, row in enumerate(add):
            for j, v in enumerate(row):
                if not (_is_int(v) and 0 <= v < n):
                    raise BadTable(f"add[{i}][{j}] = {v!r} out of range")
        if leq is None:
            leq = [[i == j for j in range(n)] for i in range(n)]
        if not _is_square(leq, n):
            raise BadTable(f"leq table must be {n}x{n}")
        for i, row in enumerate(leq):
            for j, v in enumerate(row):
                if not isinstance(v, bool):
                    raise BadTable(f"leq[{i}][{j}] = {v!r} is not a bool")
        return FiniteTable(
            n=n,
            neutral=neutral,
            add_table=tuple(tuple(row) for row in add),
            leq_table=tuple(tuple(row) for row in leq),
            name=name,
        )

    def carrier(self) -> range:
        return range(self.n)

    def zero(self) -> int:
        return self.neutral

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq_table[a][b]

    def check_elem(self, x) -> None:
        if not (_is_int(x) and 0 <= x < self.n):
            raise BadElement(f"not an index in 0..{self.n - 1}: {x!r}")

    def parse_elem(self, text: str) -> int:
        try:
            k = int(text.strip())
        except ValueError:
            raise BadElement(f"not an element index: {text!r}") from None
        self.check_elem(k)
        return k

    def bounds(self, lo: int, hi: int) -> tuple[int, int]:
        if max(lo, 0) > min(hi, self.n - 1):
            raise BadElement(f"'{lo}..{hi}' misses the carrier 0..{self.n - 1}")
        return max(lo, 0), min(hi, self.n - 1)

    def default_bounds(self, radius: int = 3) -> tuple[int, int]:
        return 0, self.n - 1

    def covers(self, elems: Iterable) -> bool:
        return set(elems) == set(self.carrier())

    def __str__(self) -> str:
        return f"{self.name}(n={self.n})"


def load_table(path: str) -> FiniteTable:
    """Load a finite monoid from JSON; reject tables failing the axioms or above MAX_TABLE_SIZE.

    Expected keys: "n", "neutral", "add" (n x n ints), optional "leq"
    (n x n bools, default identity), optional "name".
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or digit count
        raise BadTable(f"cannot read table file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise BadTable(f"table file {path} must hold a JSON object")
    for key in ("n", "neutral", "add"):
        if key not in data:
            raise BadTable(f"table file {path} is missing {key!r}")
    if _is_int(data["n"]) and data["n"] > MAX_TABLE_SIZE:
        raise BadTable(f"table file {path} has n={data['n']}, above the cap of {MAX_TABLE_SIZE}")
    try:
        table = FiniteTable.from_lists(
            data["n"], data["neutral"], data["add"], data.get("leq"), data.get("name", path)
        )
    except BadTable as exc:
        raise BadTable(f"table file {path}: {exc}") from None
    outcome = validate_monoid(table)
    if not outcome:
        raise BadTable(f"table file {path} fails monoid axioms: {outcome.witness}")
    return table


def int_window(lo: int, hi: int) -> list[int]:
    if lo > hi:
        raise ValueError(f"empty window {lo}..{hi}")
    return list(range(lo, hi + 1))


def vector_window(lo: int, hi: int, dim: int) -> list[tuple[int, ...]]:
    return [tuple(v) for v in iter_product(range(lo, hi + 1), repeat=dim)]


def default_window(monoid: OrderedMonoid, radius: int = 3) -> list:
    """A small box around the neutral element, trimmed to the carrier; the
    benchmark's span table names this function."""
    return monoid.window(*monoid.default_bounds(radius))


def validate_monoid(table: FiniteTable) -> CheckOutcome:
    """Check a finite table: a commutative monoid whose order is the trivial one.

    On a finite commutative monoid the trivial order is the only strictly
    compatible partial order: s < s' gives the chain
    ks < (k-1)s + s' < ... < ks' of k+1 distinct elements for every k. So,
    given the monoid axioms, leq_table is reflexive, antisymmetric,
    transitive and strictly compatible exactly when it is the identity
    matrix. The neutral element, commutativity and that order check cost
    O(n^2); associativity, the one O(n^3) check, compares whole rows,
    (a + b) + x against a + (b + x) for every x at once. A failure names
    its first witness: a, then (a, b), then (a, b, c) in row order, where
    the trivial-order witness is the first entry of leq_table off the
    identity.
    """
    if not isinstance(table, FiniteTable):
        raise TypeError("validation needs a finite table")
    n, z, add = table.n, table.neutral, table.add_table
    desc = f"{n} elements (entire carrier)"
    rep = table.elem_repr
    for a in range(n):
        if add[a][z] != a or add[z][a] != a:
            return CheckOutcome("fail", {"axiom": "neutral", "a": rep(a)}, desc)
    for a, (row, col) in enumerate(zip(add, zip(*add))):
        if row != col:
            b = next(b for b in range(n) if row[b] != col[b])
            return CheckOutcome("fail", {"axiom": "commutative", "a": rep(a), "b": rep(b)}, desc)
    for a, row in enumerate(table.leq_table):
        if row.count(True) != 1 or not row[a]:
            b = next(b for b in range(n) if row[b] != (a == b))
            return CheckOutcome("fail", {"axiom": "trivial-order", "a": rep(a), "b": rep(b)}, desc)
    rows = [list(row) for row in add]
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            left, right = rows[ab], [row_a[x] for x in rows[b]]
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                witness = {"axiom": "associative", "a": rep(a), "b": rep(b), "c": rep(c)}
                return CheckOutcome("fail", witness, desc)
    return CheckOutcome.clean(table, table.carrier(), desc)
