"""Expression grammar for series entered on the command line, plus renderers.

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := scalar | VAR '^' exponent | VAR | '(' expr ')'
              | 'O' '(' VAR '^' signed ')'
    scalar   := INT ('/' INT)?
    exponent := signed | '(' signed (',' signed)* ')'
    signed   := ['-'] INT

The variable name defaults to "e" and is configurable; "O" is reserved for
the unknown-tail marker, which is only meaningful in Laurent mode. The same
AST evaluates either to a finitely supported series over any monoid or, in
Laurent mode, to a truncated Laurent series where the tail marker sets the
order of validity. Coefficients left unstated inside the valid window are
zero.

The lexer makes one regex split per line, so it takes a constant number of
Python steps per lexeme, not per character; the parser indexes the lexeme
list. Positions are exact: a column counts characters from 1 within its
line, and only "\n" starts a new line.

parse_series first tries to read the whole text as a sum of monomials
c*VAR^k (and, in Laurent mode, O(VAR^k) parts) in one regex pass, with no
lexeme list and no AST (_read_sum); any other text, and any text whose
parts the ring or monoid refuses, goes through the lexer, the parser and
eval_series, which report every error with its position. AST nodes are
tuples built by tuple.__new__, and eval_series evaluates one node class per
branch. All the products of one expression share one ProductBudget, and a
command passes one budget to all of its parses and products. A product of
at most one coefficient pair forms at most one term, as a monomial read in
the one pass does, so it is neither charged nor refused; every other
product is charged |f| x |g| pairs.

Renderers produce strings this grammar parses back to an equal value
(modular coefficients print as their canonical residue).
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from typing import Union

from .laurent import TruncatedLaurent, make_laurent
from .monoids import BadElement, IntLine, OrderedMonoid
from .scalars import Ring, ZeroDenominator
from .series import Series


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# In sre, \d is str.isdecimal and \w is str.isalnum or "_". They match the
# grammar's classes on every character except the numerals that are neither
# decimal digits nor letters, such as "²" or "½", so _lexeme_pattern checks
# the non-ASCII word characters of each input with the string methods.
_NON_ASCII_WORD = re.compile(r"[^\W\d\x00-\x7f]")


def _lexeme_pattern(text: str) -> str:
    """The lexeme regex for text: an INT run, a name, or a symbol.

    An INT is a run of str.isdigit characters and a name starts with
    str.isalpha or "_" and goes on with str.isalnum or "_". Of the numerals
    in text that are neither decimal digits nor letters, the digits extend
    an INT and none starts a name.
    """
    odd = sorted(set(_NON_ASCII_WORD.findall(text)))
    digits = "".join(c for c in odd if c.isdigit())
    not_start = "".join(c for c in odd if not c.isalpha())
    return rf"[\d{digits}]+|[^\W\d{not_start}]\w*|[-+*/^(),]"


def _is_name(lexeme: str) -> bool:
    lead = lexeme[:1]
    return lead == "_" or lead.isalpha()


def _lex(text: str) -> tuple[list[str], list[int], list[int]]:
    """The lexemes of text, with the line and the column each one starts at.

    One regex split per line: the lexemes are parts[1::2], and the gaps
    between them, parts[::2], must be blank. Columns count characters from 1
    within a line, and only "\n" starts a new line. The lists end with a
    sentinel "" just past the last lexeme, where running out of input is
    reported.
    """
    pattern = _lexeme_pattern(text)
    split = re.compile(f"({pattern})").split
    words: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    for line, row in enumerate(text.split("\n"), 1):
        parts = split(row)
        if "".join(parts[::2]).strip():
            col = re.match(rf"(?:\s|{pattern})*", row).end() + 1
            raise ParseError(f"unexpected character {row[col - 1]!r}", line, col)
        words += parts[1::2]
        lines += [line] * (len(parts) // 2)
        cols += list(accumulate(map(len, parts[:-1]), initial=1))[1::2]
    if words:
        lines.append(lines[-1])
        cols.append(cols[-1] + len(words[-1]))
        words.append("")
    return words, lines, cols


def check_var(var: str) -> None:
    """Raise ValueError unless var lexes as one name, other than the tail marker "O"."""
    if var == "O":
        raise ValueError('variable name "O" collides with the tail marker')
    if not (_is_name(var) and re.fullmatch(_lexeme_pattern(var), var)):
        raise ValueError(
            f"variable name {var!r} is not a name: a letter or _, then letters, digits or _"
        )


# AST nodes; every node keeps the position it started at for later errors.
# A node is a tuple of its fields: the parser builds one with tuple.__new__,
# at C speed, and reads a field with a C-level getter (collections.namedtuple).
# Otherwise a node acts as a frozen dataclass would: it is immutable and
# hashable, it equals only a node of its own class with equal fields, and it
# prints as Lit(num=3, den=1, line=1, col=1).


class _Node(tuple):
    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Lit(namedtuple("Lit", "num den line col"), _Node):
    """The scalar num/den (ints; den is 1 when no "/" is written)."""

    __slots__ = ()


class Pow(namedtuple("Pow", "exponent line col"), _Node):
    """VAR^exponent: an int k, or (k1, ..., kd) when written as a tuple."""

    __slots__ = ()


class Neg(namedtuple("Neg", "inner line col"), _Node):
    __slots__ = ()


class Sum(namedtuple("Sum", "parts line col"), _Node):
    """parts is a tuple of two or more nodes; a subtracted part is a Neg."""

    __slots__ = ()


class Product(namedtuple("Product", "factors line col"), _Node):
    """factors is a tuple of two or more nodes."""

    __slots__ = ()


class TruncMarker(namedtuple("TruncMarker", "exponent line col"), _Node):
    """O(VAR^exponent), the unknown tail from an int exponent on."""

    __slots__ = ()


_new = tuple.__new__

Node = Union[Lit, Pow, Neg, Sum, Product, TruncMarker]

# Each parenthesis level costs three parser frames, and a Sum nested that
# deep costs two evaluation frames a level, so 200 levels stay well inside
# the interpreter's default recursion limit of 1000.
MAX_NESTING = 200


class _Parser:
    """Recursive descent over the lexeme list; self.i indexes the next lexeme.

    The list ends with the sentinel "", so looking ahead is an index and a
    string compare, and only consuming the sentinel reports the end.
    """

    def __init__(self, words: list[str], lines: list[int], cols: list[int], var: str):
        self.words, self.lines, self.cols = words, lines, cols
        self.var = var
        self.i = 0
        self.depth = 0  # open parentheses around the current factor

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.lines[i], self.cols[i])

    def expected(self, kind: str, i: int) -> ParseError:
        found = self.words[i]
        if not found:
            return self.error("unexpected end of input", i)
        return self.error(f"expected {kind!r}, found {found!r}", i)

    def expect(self, symbol: str) -> None:
        i = self.i
        if self.words[i] != symbol:
            raise self.expected(symbol, i)
        self.i = i + 1

    def int_at(self, i: int) -> int:
        """The INT lexeme at index i as an int."""
        text = self.words[i]
        if not text[:1].isdigit():
            raise self.expected("int", i)
        try:
            return int(text)
        except ValueError as exc:  # more digits than int() converts
            raise self.error(str(exc), i) from None

    def parse(self) -> Node:
        node = self.expr()
        rest = self.words[self.i]
        if rest:
            raise self.error(f"trailing input {rest!r}", self.i)
        return node

    def expr(self) -> Node:
        words, lines, cols = self.words, self.lines, self.cols
        sign = words[self.i]
        if sign == "+" or sign == "-":
            self.i += 1
        node = self.term()
        parts = [_new(Neg, (node, node.line, node.col)) if sign == "-" else node]
        while (op := words[self.i]) == "+" or op == "-":
            at = self.i
            self.i = at + 1
            node = self.term()
            parts.append(_new(Neg, (node, lines[at], cols[at])) if op == "-" else node)
        if len(parts) == 1:
            return parts[0]
        return _new(Sum, (tuple(parts), parts[0].line, parts[0].col))

    def term(self) -> Node:
        words = self.words
        node = self.factor()
        if words[self.i] != "*":
            return node
        factors = [node]
        while words[self.i] == "*":
            self.i += 1
            factors.append(self.factor())
        return _new(Product, (tuple(factors), node.line, node.col))

    def factor(self) -> Node:
        words, i = self.words, self.i
        text = words[i]
        if not text:
            raise self.error("unexpected end of input", i)
        self.i = i + 1
        line, col = self.lines[i], self.cols[i]
        if text[0].isdigit():
            num = self.int_at(i)
            den = 1
            if words[i + 1] == "/":
                self.i = i + 3
                den = self.int_at(i + 2)
            return _new(Lit, (num, den, line, col))
        if text == self.var:
            if words[i + 1] != "^":
                return _new(Pow, (1, line, col))
            self.i = i + 2
            if words[i + 2] == "(":
                return _new(Pow, (self.coords(), line, col))
            return _new(Pow, (self.signed_int(), line, col))
        if text == "O":
            self.expect("(")
            at = self.i
            name = words[at]
            if not _is_name(name):
                raise self.expected("name", at)
            if name != self.var:
                raise self.error(f"unknown variable {name!r} (expected {self.var!r})", at)
            self.i = at + 1
            self.expect("^")
            n = self.signed_int()
            self.expect(")")
            return _new(TruncMarker, (n, line, col))
        if _is_name(text):
            raise self.error(f"unknown variable {text!r} (expected {self.var!r})", i)
        if text == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nest deeper than {MAX_NESTING} levels", i)
            self.depth += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        raise self.error(f"unexpected {text!r}", i)

    def signed_int(self) -> int:
        i = self.i
        if self.words[i] == "-":
            self.i = i + 2
            return -self.int_at(i + 1)
        self.i = i + 1
        return self.int_at(i)

    def coords(self) -> tuple:
        """A tuple exponent: signed INTs in parentheses."""
        self.i += 1
        coords = [self.signed_int()]
        while self.words[self.i] == ",":
            self.i += 1
            coords.append(self.signed_int())
        self.expect(")")
        return tuple(coords)


def parse_expr(text: str, var: str = "e") -> Node:
    words, lines, cols = _lex(text)
    if not words:
        raise ParseError("empty expression", 1, 1)
    check_var(var)
    return _Parser(words, lines, cols, var).parse()


# coefficient pairs the products of one command may form together, decided
# from the term counts before each product: 11x the largest benchmark product
# (600 x 300 dense terms). A `gpsrb mul` at the budget took 0.07-0.08 s with
# dense factors on Z (packed); when all 2,000,000 pair sums differ it took
# 5.9-6.6 s at a peak RSS of 536 MB sparse on Q, 9.4-10.7 s at 643-701 MB on
# Z^2 and 12.8-13.6 s at 768-840 MB on Z^8, over Z or Q (README, "CLI"),
# on one core of a shared 2-vCPU x86 host with Python 3.11
PRODUCT_BUDGET = 2_000_000


class ProductBudget:
    """The PRODUCT_BUDGET of one command, shared by all of its products.

    Each product is charged |f| x |g| coefficient pairs from the term counts
    before it is formed, so an expression of k products costs at most what
    one product at the budget does, not k times that. A product of at most
    one pair is never charged, so `3*e^2` costs nothing on either parse path.
    """

    def __init__(self):
        self.spent = 0

    def charge(self, f, g) -> str | None:
        """Charge the pairs of f * g; None when they fit, else why the product is refused."""
        m, n = f.term_count(), g.term_count()
        pairs = m * n
        if pairs <= 1:  # at most one term, as a monomial read from text
            return None
        if self.spent + pairs <= PRODUCT_BUDGET:
            self.spent += pairs
            return None
        refusal = f"product of {m} x {n} terms = {pairs} coefficient pairs, above the budget of {PRODUCT_BUDGET}"
        if pairs <= PRODUCT_BUDGET:  # it would fit alone
            refusal += f" with {self.spent} spent by earlier products"
        return refusal


def eval_series(
    node: Node,
    monoid: OrderedMonoid,
    ring: Ring,
    laurent: bool = False,
    budget: ProductBudget | None = None,
):
    """Evaluate to a Series, or in Laurent mode (monoid Z) to a TruncatedLaurent.

    Every product is charged to budget, a fresh ProductBudget when None.
    """
    if budget is None:
        budget = ProductBudget()
    kind = type(node)
    if kind is Sum:
        parts, tails = [], []
        for part in node.parts:
            value = eval_series(part, monoid, ring, laurent, budget)
            if laurent:
                if not value.exact:
                    tails.append(value.trunc)
                value = value.series
            parts.append(value._part())
        total = Series._merged(monoid, ring, parts)
        # a Laurent sum is known below the smallest tail among its parts
        return TruncatedLaurent.from_series(total, min(tails, default=None)) if laurent else total
    if kind is Neg:
        return -eval_series(node.inner, monoid, ring, laurent, budget)
    if kind is Product:
        factors = node.factors
        acc = eval_series(factors[0], monoid, ring, laurent, budget)
        for factor in factors[1:]:
            value = eval_series(factor, monoid, ring, laurent, budget)
            refusal = budget.charge(acc, value)
            if refusal:
                raise ParseError(refusal, factor.line, factor.col)
            acc = acc * value
        return acc
    if kind is TruncMarker:
        if not laurent:
            raise ParseError("O(...) tail marker is only valid in Laurent mode", node.line, node.col)
        return make_laurent(ring, {}, node.exponent)
    if kind is Lit:
        try:
            c, d = ring.ratio(node.num, node.den)
        except (ValueError, ZeroDenominator) as exc:
            raise ParseError(str(exc), node.line, node.col) from None
        s = monoid.zero()
    elif kind is Pow:
        try:
            s = monoid.from_exponent(node.exponent)
        except BadElement as exc:
            raise ParseError(str(exc), node.line, node.col) from None
        c, d = 1, 1
    else:
        raise TypeError(f"unknown node {node!r}")
    series = Series._merged(monoid, ring, [(((s, c),), d)])
    return TruncatedLaurent.from_series(series) if laurent else series


# A sum of monomials, the text the renderers print and most inputs are, is
# read by one regex pass. The patterns are ASCII-only, so any other numeral,
# name character or blank leaves the text to the general lexer, the one owner
# of those rules. Between two blank runs of the pattern stands a character it
# must match, and each choice is settled by the next lexeme, so a refused
# text is matched at most one way per position and the refusal takes time
# linear in the text. The quantifiers are greedy: re accepts possessive ones
# only from Python 3.11.
_W = r"\s*"
_INT = r"[0-9]+"
_SIGNED = rf"(?:-{_W})?{_INT}"
_BLANKS = str.maketrans("", "", " \t\n\r\f\v")  # what \s matches under re.ASCII


@lru_cache(maxsize=16)
def _sum_reader(var: str, laurent: bool):
    """(fullmatch, findall) for the sums of monomials in var.

    The sub-language is [+|-] mono ((+|-) mono)*, where mono is
    INT ['/' INT] ['*' VAR ['^' exponent]] or VAR ['^' exponent], and in
    Laurent mode also O(VAR^signed); blanks may stand between any two
    lexemes. fullmatch decides membership. No two adjacent lexemes of a
    member are both INTs or names, so deleting its blanks keeps its meaning,
    and on that compact text findall gives one tuple (sign, num, den, var, exponent,
    tail) per mono, with the text of an int or tuple exponent and of the
    exponent of O(...). check_var's ValueError for a bad var propagates.
    """
    check_var(var)
    v = re.escape(var)
    power = rf"{v}{_W}(?:\^{_W}(?:{_SIGNED}|\({_W}{_SIGNED}{_W}(?:,{_W}{_SIGNED}{_W})*\)){_W})?"
    mono = rf"{_INT}{_W}(?:/{_W}{_INT}{_W})?(?:\*{_W}{power})?|{power}"
    if laurent:
        mono += rf"|O{_W}\({_W}{v}{_W}\^{_W}{_SIGNED}{_W}\){_W}"
    valid = rf"{_W}(?:[+-]{_W})?(?:{mono})(?:[+-]{_W}(?:{mono}))*"
    # the lookahead keeps the end of the text from making an empty match
    term = (
        rf"([+-]?)(?=.)(?:([0-9]+)(?:/([0-9]+))?\*?)?"
        rf"(?:({v})(?:\^(-?[0-9]+|\([^)]*\)))?|O\({v}\^(-?[0-9]+)\))?"
    )
    return re.compile(valid, re.ASCII).fullmatch, re.compile(term, re.ASCII).findall


def _read_sum(text: str, monoid: OrderedMonoid, ring: Ring, var: str, laurent: bool):
    """The value of text when it is a sum of monomials that evaluates, else None.

    None leaves text to the general parser, which evaluates to the same
    value or raises the positioned ParseError: so does every error here, a
    literal or exponent the ring or monoid refuses or an int past the
    interpreter's digit limit.
    """
    valid, terms = _sum_reader(var, laurent)
    if valid(text) is None:
        return None
    found = terms(text.translate(_BLANKS))
    zero, from_exponent = monoid.zero(), monoid.from_exponent
    ratio, m = ring.ratio, ring.modulus
    parts, tails = [], []
    try:
        for sign, num, den, power, k, tail in found:
            if den:
                c, d = ratio(int(num), int(den))
            elif num:
                c, d = int(num), 1
            elif power:
                c, d = 1, 1
            else:
                tails.append(int(tail))
                continue
            if sign == "-":
                c = -c
            if m:
                c %= m
            if not power:
                s = zero
            elif not k:
                s = from_exponent(1)
            elif k[0] == "(":
                s = from_exponent(tuple(map(int, k[1:-1].split(","))))
            else:
                s = from_exponent(int(k))
            parts.append((((s, c),), d))
    except (ValueError, ZeroDivisionError):
        return None
    total = Series._merged(monoid, ring, parts)
    return TruncatedLaurent.from_series(total, min(tails, default=None)) if laurent else total


def parse_series(
    text: str,
    monoid: OrderedMonoid,
    ring: Ring,
    var: str = "e",
    laurent: bool = False,
    budget: ProductBudget | None = None,
):
    """Parse and evaluate; Series normally, TruncatedLaurent in Laurent mode.

    A var that check_var refuses raises its ValueError before text is read.
    A sum of monomials is read in one regex pass (_read_sum); any other
    text, or one that pass refuses, goes through parse_expr and eval_series.
    The products of the expression are charged to budget, a fresh
    ProductBudget when None; a command passes one budget to all its parses.
    """
    if laurent:
        monoid = IntLine()
    value = _read_sum(text, monoid, ring, var, laurent)
    if value is None:
        value = eval_series(parse_expr(text, var), monoid, ring, laurent, budget)
    return value


def _join_terms(f: Series, var: str, zero, rep) -> str:
    """Text of the terms of f by increasing exponent, each built in one pass.

    The coefficient prints as its value would with str(), so Z/m residues
    print bare; a leading minus attaches to the first term and spaces out
    as " - " after it.
    """
    keys = f.support()
    out = []
    for s, text in zip(keys, f.coeff_texts(keys)):
        sign = " + "
        if text[0] == "-":
            sign, text = " - ", text[1:]
        if s == zero:
            out.append(sign + text)
        elif text == "1":
            out.append(f"{sign}{var}^{rep(s)}")
        else:
            out.append(f"{sign}{text}*{var}^{rep(s)}")
    if not out:
        return "0"
    joined = "".join(out)
    return joined[3:] if joined[1] == "+" else "-" + joined[3:]


def render_series(f: Series, var: str = "e") -> str:
    monoid = f.monoid
    return _join_terms(f, var, monoid.zero(), monoid.elem_repr)


def render_laurent(f: TruncatedLaurent, var: str = "e") -> str:
    text = _join_terms(f.series, var, 0, str)
    if f.exact:
        return text
    tail = f"O({var}^{f.trunc})"
    return tail if f.known_zero_on_window() else f"{text} + {tail}"
