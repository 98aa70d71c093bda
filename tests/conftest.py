"""Shared strategies, fixtures, and independent oracles for the test suite.

The convolution oracle here deliberately computes coefficients the slow way
(filter all support pairs per target exponent) so it shares no code path with
Series multiplication. The pair oracle calls rb_defect once per single-term
pair, with none of the block packing of projectors.nonzero_defect_pairs. The
sweep oracle runs both closure checks and that pairwise scan on every
decomposition, with none of the witness-first shortcuts of
verify_theorem_decomposition; commutative_monoid_tables lists every small
commutative monoid for it to sweep. memo_sweep is the witness-first sweep
mask by mask, with the per-mask structural oracle closure_witness and a
witness memo, where verify_theorem_decomposition settles all masks at once
on bitsets. The parser oracle is the character-stepping
tokenizer and peek/next parser that gpsrb.parsing used before its regex
lexer. The render oracles are the renderers and to_json methods as they
were before elem_repr and fmt became the builtins repr and str and sort_key
left the monoids. GPS_RB_SEED pins the plain-random sampling used by the bulk
acceptance checks; the default keeps runs reproducible without the env var
set.
"""

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import strategies as st

import gpsrb.oracles
from gpsrb import (
    FiniteTable,
    IntLine,
    IntVector,
    Projector,
    QQ,
    Series,
    ZZ,
    closed_under_addition,
    indicator,
    rb_defect,
)
from gpsrb.parsing import (
    MAX_NESTING,
    Lit,
    Neg,
    Node,
    ParseError,
    Pow,
    Product,
    Sum,
    TruncMarker,
)
from gpsrb.projectors import nonzero_defect_pairs

DEFAULT_SEED = 20260814


@pytest.fixture
def rng():
    return random.Random(int(os.environ.get("GPS_RB_SEED", DEFAULT_SEED)))


def naive_convolve(f: Series, g: Series) -> Series:
    """Independent convolution oracle: per-exponent pair filtering, no accumulation maps."""
    add = f.monoid.add
    sums = {add(u, v) for u in f.support() for v in g.support()}
    terms = {}
    for s in sums:
        total = f.ring.from_int(0)
        for u in f.support():
            for v in g.support():
                if add(u, v) == s:
                    total = total + f.coeff(u) * g.coeff(v)
        terms[s] = total % f.ring.modulus if f.ring.modulus else total
    return Series(f.monoid, f.ring, terms)


def pairwise_defect_pairs(P, window, ring):
    """Pair oracle: yield (u, v) for each nonzero single-term defect, one rb_defect call each.

    Pairs come in window order, u outer and v inner.
    """
    elems = list(window)
    ones = [indicator(P.monoid, s, ring) for s in elems]
    for u, eu in zip(elems, ones):
        for v, ev in zip(elems, ones):
            if not rb_defect(P, eu, ev).is_zero():
                yield u, v


def reference_sweep(monoid: FiniteTable, ring=ZZ) -> dict:
    """Sweep oracle: closure of both parts and the pairwise defect scan on all 2^n masks.

    Returns the report fields the witness-first sweep must reproduce, plus
    closed_masks, the number of masks whose two parts are both closed.
    """
    elems = list(monoid.carrier())
    rb_masks, mismatches = [], []
    closed_masks = 0
    for mask in range(1 << monoid.n):
        P = Projector.from_mask(monoid, mask)
        structural = bool(closed_under_addition(monoid, P.kept(elems), elems)) and bool(
            closed_under_addition(monoid, P.killed(elems), elems)
        )
        closed_masks += structural
        semantic = next(pairwise_defect_pairs(P, elems, ring), None) is None
        if semantic:
            rb_masks.append(mask)
        if structural != semantic:
            direction = "closed-but-defect" if structural else "defect-free-but-not-closed"
            mismatches.append((mask, direction))
    return {
        "rb_masks": tuple(rb_masks),
        "rb_count": len(rb_masks),
        "mismatches": tuple(mismatches),
        "closed_masks": closed_masks,
    }


def closure_witness(monoid: FiniteTable, mask: int):
    """Per-mask structural oracle: the first violating pair of a kept-part bitmask.

    Returns the first pair (u, v), u outer, whose members lie on the same
    side of the split while u + v lies on the other side, by bit tests on
    the add table; None when both the kept part and the killed part are
    closed under addition.
    """
    for u, row in enumerate(monoid.add_table):
        side = mask >> u & 1
        for v, s in enumerate(row):
            if mask >> v & 1 == side and mask >> s & 1 != side:
                return u, v
    return None


def memo_sweep(monoid: FiniteTable, ring=ZZ) -> dict:
    """The witness-first sweep mask by mask, with a witness memo.

    Each mask gets closure_witness. An unclosed mask's witness defect is
    computed at the first mask with its local pattern (u, v, k_u, k_v,
    k_{u+v}) and recalled after that; a closed mask, or one whose witness
    defect is zero, gets the full scan of nonzero_defect_pairs. Witness calls
    go through gpsrb.oracles.rb_defect, as the sweep's do, so a defect
    planted there reaches both. Returns the report fields the bitset sweep
    must reproduce, plus witness_calls, the (mask, u, v) of each witness
    rb_defect call in the order made.
    """
    elems = list(monoid.carrier())
    n = monoid.n
    ones = [indicator(monoid, s, ring) for s in elems]
    rb_masks, mismatches, witness_calls = [], [], []
    closed_masks = defect_evals = 0
    witness_zero = {}
    for mask in range(1 << n):
        witness = closure_witness(monoid, mask)
        structural = witness is None
        if structural:
            closed_masks += 1
        else:
            u, v = witness
            defect_evals += 1
            key = (u, v, mask >> u & 1, mask >> v & 1, mask >> monoid.add(u, v) & 1)
            if key not in witness_zero:
                witness_calls.append((mask, u, v))
                P = Projector.from_mask(monoid, mask)
                witness_zero[key] = gpsrb.oracles.rb_defect(P, ones[u], ones[v]).is_zero()
            if not witness_zero[key]:
                continue
        first = next(nonzero_defect_pairs(Projector.from_mask(monoid, mask), elems, ring), None)
        defect_evals += n * n if first is None else first[0] * n + first[1] + 1
        semantic = first is None
        if semantic:
            rb_masks.append(mask)
        if structural != semantic:
            mismatches.append((mask, "closed-but-defect" if structural else "defect-free-but-not-closed"))
    return {
        "rb_masks": tuple(rb_masks),
        "mismatches": tuple(mismatches),
        "closed_masks": closed_masks,
        "defect_evals": defect_evals,
        "witness_calls": witness_calls,
    }


def max_chain_table(n: int) -> FiniteTable:
    """The chain semilattice on {0..n-1}, a + b = max(a, b), with the trivial order.

    max(a, b) is a or b, so every subset is closed under addition: every
    kept-part mask is closed on both sides and gets the full semantic scan.
    """
    add = [[max(i, j) for j in range(n)] for i in range(n)]
    return FiniteTable.from_lists(n, 0, add, name=f"max({n})")


def commutative_monoid_tables(n: int):
    """Every commutative monoid on {0..n-1} with neutral 0, as labelled tables.

    Brute force: each entry a + b with 1 <= a <= b < n is chosen freely, 0
    is neutral, commutativity fills the rest, and tables that are not
    associative are dropped. n = 1..4 gives 1, 2, 9 and 94 tables.
    """
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    inner = range(1, n)
    for k, values in enumerate(product(range(n), repeat=len(cells))):
        add = [[i + j for j in range(n)] if i == 0 else [i] + [0] * (n - 1) for i in range(n)]
        for (a, b), s in zip(cells, values):
            add[a][b] = add[b][a] = s
        if all(add[add[a][b]][c] == add[a][add[b][c]] for a in inner for b in inner for c in inner):
            yield FiniteTable.from_lists(n, 0, add, name=f"mon{n}#{k}")


def null_semigroup_table(n: int) -> FiniteTable:
    """The null semigroup on {1..n-1}, a + b = 1, with 0 adjoined as identity.

    A part holding some a >= 1 holds a + a = 1, so at most one of the two
    parts meets {1..n-1}: for n >= 2 both parts are closed only when the
    kept part is {}, {0}, {1..n-1} or everything, 4 masks at every n.
    """
    add = [[i + j if i * j == 0 else 1 for j in range(n)] for i in range(n)]
    return FiniteTable.from_lists(n, 0, add, name=f"null({n})")


def direct_product_table(a: FiniteTable, b: FiniteTable) -> FiniteTable:
    """a x b with componentwise addition and the trivial order; (i, j) has index i * b.n + j."""
    n = a.n * b.n
    add = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            i, j = a.add(x // b.n, y // b.n), b.add(x % b.n, y % b.n)
            add[x][y] = i * b.n + j
    neutral = a.neutral * b.n + b.neutral
    return FiniteTable.from_lists(n, neutral, add, name=f"{a.name}x{b.name}")


def relabel_table(table: FiniteTable, rng: random.Random) -> FiniteTable:
    """The same monoid with its elements renamed by a random permutation."""
    perm = list(range(table.n))
    rng.shuffle(perm)
    add = [[0] * table.n for _ in range(table.n)]
    leq = [[False] * table.n for _ in range(table.n)]
    for i in range(table.n):
        for j in range(table.n):
            add[perm[i]][perm[j]] = perm[table.add(i, j)]
            leq[perm[i]][perm[j]] = table.leq(i, j)
    return FiniteTable.from_lists(table.n, perm[table.neutral], add, leq, name=f"{table.name}~")


# hypothesis strategies

int_scalars = st.integers(min_value=-50, max_value=50).map(ZZ.from_int)

rat_scalars = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)


def int_series(ring=QQ, scalars=None, max_terms=6, exp_lo=-10, exp_hi=10):
    """Series over IntLine with bounded support."""
    if scalars is None:
        scalars = rat_scalars if ring is QQ else int_scalars
    return st.dictionaries(
        st.integers(min_value=exp_lo, max_value=exp_hi), scalars, max_size=max_terms
    ).map(lambda d: Series(IntLine(), ring, d))


def vec2_series(ring=QQ, scalars=None, max_terms=5, box=3):
    if scalars is None:
        scalars = rat_scalars if ring is QQ else int_scalars
    exps = st.tuples(
        st.integers(min_value=-box, max_value=box), st.integers(min_value=-box, max_value=box)
    )
    return st.dictionaries(exps, scalars, max_size=max_terms).map(
        lambda d: Series(IntVector(2), ring, d)
    )


def random_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_int_series(rng: random.Random, max_support=8, exp_lo=-10, exp_hi=10) -> Series:
    """Plain-random counterpart of int_series for the bulk acceptance runs."""
    n = rng.randint(0, max_support)
    terms = {}
    for _ in range(n):
        terms[rng.randint(exp_lo, exp_hi)] = random_rat(rng)
    return Series(IntLine(), QQ, terms)


# ---------------------------------------------------------------- parser oracle
# The character-stepping tokenizer and the peek/next recursive-descent parser
# that gpsrb.parsing used before its lexer became one regex split per line.
# They build the same AST node classes, so reference_parse_expr(text, var)
# and gpsrb.parsing.parse_expr(text, var) must return equal nodes or raise
# the same ParseError (message, line and column).


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


def reference_parse_expr(text: str, var: str = "e"):
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 1, 1)
    return _Parser(tokens, var).parse()


# ---------------------------------------------------------------- render oracles
# render_series, render_laurent, Series.to_json and TruncatedLaurent.to_json
# as they were while monoids sorted supports by sort_key (the identity on
# every monoid) and elem_repr and fmt were Python methods: IntVector joined
# its coordinates, ModRing printed "k mod m", and every other monoid and
# ring wrapped repr and str. They read only a series' items, so the output
# of the package must match theirs byte for byte.


def _reference_elem_repr(monoid):
    if isinstance(monoid, IntVector):
        return lambda x: "(" + ",".join(map(str, x)) + ")"
    return repr


def _reference_fmt(ring):
    if ring.modulus:
        return lambda c: f"{c} mod {ring.modulus}"
    return str


def _reference_sorted_items(f: Series) -> list:
    terms = dict(f.items())
    return [(s, terms[s]) for s in sorted(terms, key=lambda x: x)]


def reference_join_terms(terms, var: str, zero, rep) -> str:
    """Text of sorted (exponent, coefficient) terms, each built in one pass.

    The coefficient prints as str(c), so Z/m residues print bare; a leading
    minus attaches to the first term and spaces out as " - " after it.
    """
    out = []
    for s, c in terms:
        text = str(c)
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


def reference_render_series(f: Series, var: str = "e") -> str:
    monoid = f.monoid
    return reference_join_terms(_reference_sorted_items(f), var, monoid.zero(), _reference_elem_repr(monoid))


def reference_render_laurent(f, var: str = "e") -> str:
    text = reference_join_terms(sorted(f.series.items()), var, 0, str)
    if f.exact:
        return text
    tail = f"O({var}^{f.trunc})"
    return tail if f.known_zero_on_window() else f"{text} + {tail}"


def reference_series_to_json(f: Series) -> dict:
    rep, fmt = _reference_elem_repr(f.monoid), _reference_fmt(f.ring)
    return {
        "monoid": str(f.monoid),
        "ring": str(f.ring),
        "terms": [{"exp": rep(s), "coeff": fmt(c)} for s, c in _reference_sorted_items(f)],
    }


def reference_laurent_to_json(f) -> dict:
    lo = f.ord
    window = [f.ring.from_int(0)] * (f.trunc - lo)
    for n, c in f.series.items():
        window[n - lo] = c
    ring = f.ring
    return {
        "ring": str(ring),
        "ord": lo,
        "coeffs": list(map(_reference_fmt(ring), window)),
        "trunc": lo + len(window),
        "exact": f.exact,
    }
