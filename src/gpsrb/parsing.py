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

Renderers produce strings this grammar parses back to an equal value
(modular coefficients print as their canonical residue).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .laurent import TruncatedLaurent
from .monoids import BadElement, IntLine, OrderedMonoid
from .scalars import Ring, ZeroDenominator
from .series import Series


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "int", "name", or the symbol itself
    text: str
    line: int
    col: int


_SYMBOLS = set("+-*/^(),")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


# AST nodes; every node keeps the position it started at for later errors.


@dataclass(frozen=True)
class Lit:
    num: int
    den: int
    line: int
    col: int


@dataclass(frozen=True)
class Pow:
    exponent: int | tuple  # k, or (k1, ..., kd) when written as a tuple
    line: int
    col: int


@dataclass(frozen=True)
class Neg:
    inner: "Node"
    line: int
    col: int


@dataclass(frozen=True)
class Sum:
    parts: tuple
    line: int
    col: int


@dataclass(frozen=True)
class Product:
    factors: tuple
    line: int
    col: int


@dataclass(frozen=True)
class TruncMarker:
    exponent: int
    line: int
    col: int


Node = Union[Lit, Pow, Neg, Sum, Product, TruncMarker]

# Each parenthesis level costs three parser frames, and a Sum nested that
# deep costs two evaluation frames a level, so 200 levels stay well inside
# the interpreter's default recursion limit of 1000.
MAX_NESTING = 200


def _int(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(str(exc), tok.line, tok.col) from None


class _Parser:
    def __init__(self, tokens: list[Token], var: str):
        if var == "O":
            raise ValueError('variable name "O" collides with the tail marker')
        self.tokens = tokens
        self.var = var
        self.pos = 0
        self.depth = 0  # open parentheses around the current factor

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return node

    def expr(self) -> Node:
        first = self.peek()
        parts = []
        sign = "+"
        if first is not None and first.kind in "+-":
            sign = self.next().kind
        node = self.term()
        parts.append(Neg(node, node.line, node.col) if sign == "-" else node)
        while (tok := self.peek()) is not None and tok.kind in "+-":
            op = self.next()
            node = self.term()
            parts.append(Neg(node, op.line, op.col) if op.kind == "-" else node)
        if len(parts) == 1:
            return parts[0]
        return Sum(tuple(parts), parts[0].line, parts[0].col)

    def term(self) -> Node:
        factors = [self.factor()]
        while (tok := self.peek()) is not None and tok.kind == "*":
            self.next()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors), factors[0].line, factors[0].col)

    def factor(self) -> Node:
        tok = self.next()
        if tok.kind == "int":
            num = _int(tok)
            den = 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.next()
                den = _int(self.expect("int"))
            return Lit(num, den, tok.line, tok.col)
        if tok.kind == "name":
            if tok.text == "O":
                self.expect("(")
                var_tok = self.expect("name")
                if var_tok.text != self.var:
                    raise ParseError(
                        f"unknown variable {var_tok.text!r} (expected {self.var!r})",
                        var_tok.line,
                        var_tok.col,
                    )
                self.expect("^")
                n = self.signed_int()
                self.expect(")")
                return TruncMarker(n, tok.line, tok.col)
            if tok.text != self.var:
                raise ParseError(
                    f"unknown variable {tok.text!r} (expected {self.var!r})", tok.line, tok.col
                )
            nxt = self.peek()
            exponent = 1
            if nxt is not None and nxt.kind == "^":
                self.next()
                exponent = self.exponent()
            return Pow(exponent, tok.line, tok.col)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", tok.line, tok.col
                )
            self.depth += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)

    def signed_int(self) -> int:
        tok = self.peek()
        neg = False
        if tok is not None and tok.kind == "-":
            self.next()
            neg = True
        val = _int(self.expect("int"))
        return -val if neg else val

    def exponent(self) -> int | tuple:
        tok = self.peek()
        if tok is not None and tok.kind == "(":
            self.next()
            coords = [self.signed_int()]
            while (nxt := self.peek()) is not None and nxt.kind == ",":
                self.next()
                coords.append(self.signed_int())
            self.expect(")")
            return tuple(coords)
        return self.signed_int()


def parse_expr(text: str, var: str = "e") -> Node:
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 1, 1)
    return _Parser(tokens, var).parse()


def _exponent_elem(monoid: OrderedMonoid, node: Pow):
    try:
        return monoid.from_exponent(node.exponent)
    except BadElement as exc:
        raise ParseError(str(exc), node.line, node.col) from None


def eval_series(node: Node, monoid: OrderedMonoid, ring: Ring, laurent: bool = False):
    """Evaluate to a Series, or in Laurent mode (monoid Z) to a TruncatedLaurent."""
    if isinstance(node, Neg):
        return -eval_series(node.inner, monoid, ring, laurent)
    if isinstance(node, Sum):
        # one pass: monomials become terms directly, every other part is
        # evaluated, and the constructor merges all the terms
        terms, tails = [], []
        for part in node.parts:
            term = _monomial(part, monoid, ring)
            if term is not None:
                terms.append(term)
                continue
            value = eval_series(part, monoid, ring, laurent)
            terms.extend(value.items())
            if laurent and not value.exact:
                tails.append(value.trunc)
        total = Series(monoid, ring, terms)
        # a Laurent sum is known below the smallest tail among its parts
        return TruncatedLaurent.from_series(total, min(tails, default=None)) if laurent else total
    if isinstance(node, Product):
        acc = eval_series(node.factors[0], monoid, ring, laurent)
        for factor in node.factors[1:]:
            acc = acc * eval_series(factor, monoid, ring, laurent)
        return acc
    if isinstance(node, TruncMarker):
        if not laurent:
            raise ParseError("O(...) tail marker is only valid in Laurent mode", node.line, node.col)
        return TruncatedLaurent(ring, node.exponent, [], exact=False)
    term = _monomial(node, monoid, ring)
    if term is None:
        raise TypeError(f"unknown node {node!r}")
    series = Series(monoid, ring, [term])
    return TruncatedLaurent.from_series(series) if laurent else series


def _coefficient(ring: Ring, node: Lit):
    try:
        return ring.from_ratio(node.num, node.den)
    except (ValueError, ZeroDenominator) as exc:
        raise ParseError(str(exc), node.line, node.col) from None


def _monomial(node: Node, monoid: OrderedMonoid, ring: Ring):
    """(exponent, coefficient) for c, e^k, c*e^k or the negation of one; else None.

    Lit and Pow are read in the order eval_series evaluates them, so the
    first bad literal or exponent raises the same ParseError it would.
    """
    if isinstance(node, Neg):
        term = _monomial(node.inner, monoid, ring)
        return None if term is None else (term[0], ring.reduce(-term[1]))
    if isinstance(node, Lit):
        return monoid.zero(), _coefficient(ring, node)
    if isinstance(node, Pow):
        return _exponent_elem(monoid, node), ring.one()
    if isinstance(node, Product) and len(node.factors) == 2:
        lit, power = node.factors
        if isinstance(lit, Lit) and isinstance(power, Pow):
            c = _coefficient(ring, lit)
            return _exponent_elem(monoid, power), c
    return None


def eval_laurent(node: Node, ring: Ring) -> TruncatedLaurent:
    return eval_series(node, IntLine(), ring, laurent=True)


def parse_series(
    text: str, monoid: OrderedMonoid, ring: Ring, var: str = "e", laurent: bool = False
):
    """Parse and evaluate; Series normally, TruncatedLaurent in Laurent mode."""
    node = parse_expr(text, var)
    if laurent:
        return eval_laurent(node, ring)
    return eval_series(node, monoid, ring)


def _exp_str(monoid: OrderedMonoid, s, var: str) -> str | None:
    """Exponent suffix for one term, or None when s is the neutral element."""
    if s == monoid.zero():
        return None
    return f"{var}^{monoid.elem_repr(s)}"


def _join_terms(parts: list[tuple[str, str]]) -> str:
    """parts: (sign, magnitude) pairs; first sign '-' attaches without spaces."""
    if not parts:
        return "0"
    sign, mag = parts[0]
    out = [mag if sign == "+" else f"-{mag}"]
    out.extend(f"{sign} {mag}" for sign, mag in parts[1:])
    return " ".join(out)


def _term_parts(coeff, exp_suffix: str | None) -> tuple[str, str]:
    # bare values print as the grammar reads them; Z/m residues print bare
    cs = str(coeff)
    sign = "+"
    if cs.startswith("-"):
        sign = "-"
        cs = cs[1:]
    if exp_suffix is None:
        return sign, cs
    if cs == "1":
        return sign, exp_suffix
    return sign, f"{cs}*{exp_suffix}"


def render_series(f: Series, var: str = "e") -> str:
    key = f.monoid.sort_key
    terms = sorted(f.items(), key=lambda kv: key(kv[0]))
    return _join_terms([_term_parts(c, _exp_str(f.monoid, s, var)) for s, c in terms])


def render_laurent(f: TruncatedLaurent, var: str = "e") -> str:
    parts = [_term_parts(c, None if n == 0 else f"{var}^{n}") for n, c in f.items()]
    if f.exact:
        return _join_terms(parts)
    tail = f"O({var}^{f.trunc})"
    if not parts:
        return tail
    return f"{_join_terms(parts)} + {tail}"
