import operator
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsrb import (
    IntLine,
    IntVector,
    ParseError,
    QQ,
    Series,
    TruncatedLaurent,
    Zmod,
    ZZ,
    indicator,
    make_laurent,
    parse_series,
    render_laurent,
    render_series,
)

import gpsrb.parsing
from gpsrb.parsing import (
    MAX_NESTING,
    Lit,
    Neg,
    Pow,
    Product,
    ProductBudget,
    Sum,
    TruncMarker,
    eval_series,
    parse_expr,
)
from gpsrb.cli import main

from conftest import int_series, vec2_series

M = IntLine()
V = IntVector(2)


def test_ast_nodes_act_as_frozen_dataclasses():
    lit, power = Lit(3, 1, 1, 2), Pow(5, 1, 4)
    node = Neg(Product((lit, power), 1, 2), 1, 2)  # a leading minus takes its term's position
    assert parse_expr("-3*e^5") == node
    # keyword construction, field access
    assert Lit(num=3, den=1, line=1, col=2) == lit
    assert (lit.num, lit.den, lit.line, lit.col) == (3, 1, 1, 2)
    assert (power.exponent, node.inner.factors) == (5, (lit, power))
    # dataclass-style repr
    assert repr(node) == (
        "Neg(inner=Product(factors=(Lit(num=3, den=1, line=1, col=2), "
        "Pow(exponent=5, line=1, col=4)), line=1, col=2), line=1, col=2)"
    )
    # == by class and fields: equal fields of another class, or a plain tuple, differ
    assert Pow(2, 1, 1) != TruncMarker(2, 1, 1) and not Pow(2, 1, 1) == TruncMarker(2, 1, 1)
    assert Neg(lit, 1, 1) != Sum(lit, 1, 1)
    assert lit != (3, 1, 1, 2) and Lit(3, 1, 1, 3) != lit
    # hashable, with equal nodes hashing alike
    assert hash(Lit(3, 1, 1, 2)) == hash(lit)
    assert len({Pow(2, 1, 1), TruncMarker(2, 1, 1), Pow(2, 1, 1)}) == 2
    # immutable: no field can be set and no attribute added
    with pytest.raises(AttributeError):
        lit.num = 4
    with pytest.raises(AttributeError):
        lit.extra = 0
    assert lit == Lit(3, 1, 1, 2)


def test_flat_sum_over_int_line():
    f = parse_series("3*e^-2 + 5 + 7*e^3", M, ZZ)
    assert f == Series(M, ZZ, {-2: ZZ.from_int(3), 0: ZZ.from_int(5), 3: ZZ.from_int(7)})


def test_vector_exponents():
    f = parse_series("e^(1,-2) + 2*e^(0,0)", V, ZZ)
    assert f == Series(V, ZZ, {(1, -2): ZZ.from_int(1), (0, 0): ZZ.from_int(2)})


def test_laurent_mode_with_tail():
    f = parse_series("1/2*e^-1 + 1 + O(e^2)", M, QQ, laurent=True)
    assert f.ord == -1
    assert f.trunc == 2
    assert not f.exact
    assert f.to_json()["coeffs"] == ["1/2", "1", "0"]


def test_products_and_parens():
    f = parse_series("(1 + e^1) * (1 - e^1)", M, ZZ)
    assert f == Series(M, ZZ, {0: ZZ.from_int(1), 2: ZZ.from_int(-1)})
    g = parse_series("2 * 3 * e^2", M, ZZ)
    assert g == indicator(M, 2, ZZ).scale(ZZ.from_int(6))


def test_leading_minus_and_bare_var():
    f = parse_series("-e + 2", M, ZZ)
    assert f == Series(M, ZZ, {1: ZZ.from_int(-1), 0: ZZ.from_int(2)})


def test_scalar_fractions():
    f = parse_series("1/2 + 3/4*e^1", M, QQ)
    assert f.coeff(0) == QQ.value(*QQ.ratio(1, 2))
    assert f.coeff(1) == QQ.value(*QQ.ratio(3, 4))
    with pytest.raises(ParseError):
        parse_series("1/2", M, ZZ)  # not an integer
    with pytest.raises(ParseError):
        parse_series("1/0", M, QQ)


def test_modular_coefficients():
    R = Zmod(5)
    f = parse_series("7*e^1 + 1/2", M, R)
    assert f.coeff(1) == R.from_int(2)
    assert f.coeff(0) == R.from_int(3)  # inverse of 2 mod 5


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_series("3*e^", M, ZZ)
    assert "column" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_series("3 + + 4", M, ZZ)
    assert err.value.col == 5
    with pytest.raises(ParseError):
        parse_series("", M, ZZ)
    with pytest.raises(ParseError):
        parse_series("3 4", M, ZZ)  # trailing input
    with pytest.raises(ParseError):
        parse_series("e^2 $", M, ZZ)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_series("x^2", M, ZZ)
    f = parse_series("x^2", M, ZZ, var="x")
    assert f == indicator(M, 2, ZZ)


def test_exponent_arity_mismatch():
    with pytest.raises(ParseError):
        parse_series("e^(1,2)", M, ZZ)
    with pytest.raises(ParseError):
        parse_series("e^3", V, ZZ)
    with pytest.raises(ParseError):
        parse_series("e^(1,2,3)", V, ZZ)
    with pytest.raises(ParseError):
        parse_series("e^-1", IntLine(nonneg=True), ZZ)


def test_nesting_limit():
    n = MAX_NESTING
    assert parse_series("(" * n + "e" + ")" * n, M, ZZ) == indicator(M, 1, ZZ)
    # a Sum nested to the limit also evaluates, in both modes
    nested = "(1+" * n + "e" + ")" * n
    assert parse_series(nested, M, ZZ) == parse_series(f"{n} + e", M, ZZ)
    assert parse_series(nested, M, ZZ, laurent=True) == parse_series(f"{n} + e", M, ZZ, laurent=True)
    assert parse_series("0-(" * n + "e" + ")" * n, M, ZZ) == indicator(M, 1, ZZ).scale(ZZ.from_int((-1) ** n))
    with pytest.raises(ParseError) as err:
        parse_series("1 +\n" + "(" * (n + 1) + "e" + ")" * (n + 1), M, ZZ)
    assert (err.value.line, err.value.col) == (2, n + 1)
    assert str(err.value) == f"parentheses nest deeper than {n} levels (line 2, column {n + 1})"


def test_overlong_integer_literal_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_series("e + " + "9" * 5000, M, ZZ)
    assert (err.value.line, err.value.col) == (1, 5)


def test_tail_marker_outside_laurent_mode():
    with pytest.raises(ParseError):
        parse_series("1 + O(e^2)", M, QQ)


def test_laurent_tail_alone_and_absorption():
    f = parse_series("O(e^-1)", M, QQ, laurent=True)
    assert not f.exact and f.trunc == -1 and f.known_zero_on_window()
    g = parse_series("e^3 + O(e^2)", M, QQ, laurent=True)
    assert g.trunc == 2 and g.known_zero_on_window()


def test_render_zero_and_units():
    assert render_series(Series(M, ZZ, {})) == "0"
    assert render_series(indicator(M, 2, ZZ)) == "e^2"
    assert render_series(indicator(M, 2, ZZ).scale(ZZ.from_int(-1))) == "-e^2"
    assert render_series(Series(M, ZZ, {0: ZZ.from_int(1)})) == "1"
    f = Series(M, ZZ, {0: ZZ.from_int(-1), 2: ZZ.from_int(-2)})
    assert render_series(f) == "-1 - 2*e^2"


def test_render_laurent_tail():
    f = parse_series("1/2*e^-1 + 1 + O(e^2)", M, QQ, laurent=True)
    assert render_laurent(f) == "1/2*e^-1 + 1 + O(e^2)"
    z = parse_series("0", M, QQ, laurent=True)
    assert render_laurent(z) == "0"


@settings(max_examples=80)
@given(f=int_series())
def test_round_trip_int_line_rationals(f):
    text = render_series(f)
    assert parse_series(text, M, QQ) == f


@settings(max_examples=60)
@given(f=vec2_series())
def test_round_trip_vector_monoid(f):
    text = render_series(f)
    assert parse_series(text, V, QQ) == f


@settings(max_examples=60)
@given(f=int_series(ring=ZZ))
def test_round_trip_integer_ring(f):
    assert parse_series(render_series(f), M, ZZ) == f


def _left_fold(text, ring, laurent):
    """The sum of a top-level Sum's parts, added one at a time."""
    node = parse_expr(text)
    assert isinstance(node, Sum)
    parts = [eval_series(part, M, ring, laurent) for part in node.parts]
    return reduce(operator.add, parts)


@pytest.mark.parametrize(
    "text,ring,laurent,expected",
    [
        ("e^2 + e^2 - 2*e^2", ZZ, False, "0"),
        ("e^2 + e^2 - 2*e^2", QQ, True, "0"),
        ("1 + e^5 + O(e^3)", QQ, True, "1 + O(e^3)"),
        ("O(e^4) + e + O(e^2)", QQ, True, "e^1 + O(e^2)"),
        ("3*e + 5 + 4*e + 2", Zmod(7), False, "0"),
        ("3*e + 5 + 4*e + 2", Zmod(7), True, "0"),
        ("3*e^-1 + 6 + 4*e^-1 + O(e^1)", Zmod(7), True, "6 + O(e^1)"),
        ("1/2*e - 1/3 + 1/2*e + 1/3 - e", QQ, False, "0"),
        # evaluated parts over their own denominators, merged over the lcm
        ("1/2*e + (1/3*e)*(3/5) + 1/6 - 2/15*e", QQ, False, "1/6 + 17/30*e^1"),
        ("1/2*e + (1/3*e)*(3/2) + 1/6 + 5/6", QQ, False, "1 + e^1"),
        # parts in parentheses leave the sum to the general parser
        ("O(e^4) + (e) + O(e^2)", QQ, True, "e^1 + O(e^2)"),
        ("(3*e^-1) + 6 + 4*e^-1 + O(e^1)", Zmod(7), True, "6 + O(e^1)"),
    ],
)
def test_one_pass_sum_matches_left_fold(text, ring, laurent, expected):
    got = parse_series(text, M, ring, laurent=laurent)
    assert got == _left_fold(text, ring, laurent)
    assert (render_laurent(got) if laurent else render_series(got)) == expected


def test_one_pass_sum_keeps_error_position():
    with pytest.raises(ParseError) as err:
        parse_series("1 + e^2 +\n  3/0 + e", M, QQ)
    assert (err.value.line, err.value.col) == (2, 3)
    with pytest.raises(ParseError) as err:
        parse_series("e + O(e^3) + f", M, QQ, laurent=True)
    assert (err.value.line, err.value.col) == (1, 14)


@pytest.mark.parametrize(
    "text,monoid,ring,message,col",
    [
        ("1 + 1/2*e^3", M, ZZ, "1/2 is not an integer", 5),
        ("1 + 1/2*e", M, Zmod(4), "denominator 2 not invertible mod 4", 5),
        ("2*e^(1,2)", M, ZZ, "tuple exponent needs a vector monoid, not Z", 3),
        ("1 + 2*e^(1,2)", M, ZZ, "tuple exponent needs a vector monoid, not Z", 7),
        ("3*e^-1", IntLine(nonneg=True), ZZ, "not a natural number: -1", 3),
        ("1 - 3*e^-1 + 1/0", IntLine(nonneg=True), ZZ, "not a natural number: -1", 7),
        ("1 + 1/0*e^-1", IntLine(nonneg=True), ZZ, "1/0", 5),
    ],
)
def test_monomial_parts_report_errors_where_they_start(text, monoid, ring, message, col):
    with pytest.raises(ParseError) as err:
        parse_series(text, monoid, ring)
    assert str(err.value) == f"{message} (line 1, column {col})"
    assert (err.value.line, err.value.col) == (1, col)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(2), Zmod(12)])
def test_monomial_parts_equal_their_products(ring):
    # c*e^k*1 is a three-factor product, so it takes the general evaluator
    text = "3*e^2 - 5*e^-1 + 7 - e^2 + e - 1/5*e^4 - (-2*e^3)"
    slow = "3*e^2*1 - 5*e^-1*1 + 7*1 - e^2*1 + e*1 - 1/5*e^4*1 - (-2*e^3*1)"
    if ring is ZZ:
        text, slow = text.replace("1/5", "5"), slow.replace("1/5", "5")
    assert parse_series(text, M, ring) == parse_series(slow, M, ring)
    laurent = parse_series(text + " + O(e^9)", M, ring, laurent=True)
    assert laurent == parse_series(slow + " + O(e^9)", M, ring, laurent=True)


def test_product_budget_refuses_a_factor_where_it_starts(monkeypatch):
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 6)
    assert parse_series("(1 + e + e^2) * (1 - e)", M, ZZ) == parse_series("1 - e^3", M, ZZ)
    with pytest.raises(ParseError) as err:
        parse_series("(1 + e + e^2) * 2 *\n (1 - e + e^5)", M, ZZ)
    assert str(err.value) == (
        "product of 3 x 3 terms = 9 coefficient pairs, above the budget of 6 (line 2, column 3)"
    )
    # Laurent products count stored terms, before any truncation
    with pytest.raises(ParseError):
        parse_series("(1 + e + e^2 + O(e^3)) * (e + e^2 + e^3)", M, QQ, laurent=True)


def test_doubling_product_stops_at_the_budget():
    # (1 + e)(1 + e^2)(1 + e^4)... doubles its support with each factor, so
    # factor i meets 2^i terms at 2^(i + 1) pairs, and factors 1..i spend
    # 2^(i + 2) - 4 pairs together: past the budget of 2,000,000 from i = 19,
    # where that product alone (2^20 pairs) would still fit
    factors = [f"(1 + e^{2 ** k})" for k in range(24)]
    with pytest.raises(ParseError) as err:
        parse_series("*".join(factors), M, ZZ)
    budget = gpsrb.parsing.PRODUCT_BUDGET
    i = next(i for i in range(1, 24) if 2 ** (i + 2) - 4 > budget)
    assert i == 19
    assert str(err.value) == (
        f"product of {2 ** i} x 2 terms = {2 ** (i + 1)} coefficient pairs, above the budget of "
        f"{budget} with {2 ** (i + 1) - 4} spent by earlier products (line 1, column "
        f"{len('*'.join(factors[:i])) + 3})"
    )
    # with 19 factors the 18 products fit, and the budget passed in holds their pairs
    spent = ProductBudget()
    f = parse_series("*".join(factors[:19]), M, ZZ, budget=spent)
    assert f.term_count() == 2 ** 19 and spent.spent == 2 ** 20 - 4


def test_products_of_one_budget_add_up(monkeypatch):
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 10)
    budget = ProductBudget()
    f = parse_series("(1 + e) * (1 + e^2)", M, ZZ, budget=budget)  # 2 x 2 pairs
    assert budget.spent == 4
    with pytest.raises(ParseError) as err:
        parse_series("(1 + e) * (e^2 + e^3) * (1 - e)", M, ZZ, budget=budget)  # 4 more, then 6
    assert str(err.value) == (
        "product of 3 x 2 terms = 6 coefficient pairs, above the budget of 10 with 8 spent by "
        "earlier products (line 1, column 26)"
    )
    # without a budget each parse gets a fresh one
    got = parse_series("(1 + e) * (e^2 + e^3) * (1 - e)", M, ZZ)
    assert got == parse_series("e^2 + e^3 - e^4 - e^5", M, ZZ)
    assert f == parse_series("1 + e + e^2 + e^3", M, ZZ)




# ---------------------------------------------------------------- one-pass sums
# parse_series reads a sum of monomials in one regex pass and leaves every
# other text, and every text whose parts do not evaluate, to parse_expr and
# eval_series. Both paths must give the same value, stored alike, or the
# same ParseError.


def _outcome(parse):
    try:
        value = parse()
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    laurent = isinstance(value, TruncatedLaurent)
    series = value.series if laurent else value
    return value, series._terms, series._den, hash(value), value.tail if laurent else None


def assert_parses_as_general(text, monoid, ring, var="e", laurent=False):
    def general():
        return eval_series(parse_expr(text, var), M if laurent else monoid, ring, laurent)

    def one_pass():
        return parse_series(text, monoid, ring, var=var, laurent=laurent)

    assert _outcome(one_pass) == _outcome(general), repr(text)


@st.composite
def monomial_sum(draw, var: str, dim: int, odd: bool) -> str:
    """A sum of monomials in var as text, with exponents of dim coordinates
    (an int when dim is 1). When odd, it may also hold a name that extends
    var, a non-ASCII digit or blank, an int past the digit limit, an
    exponent of another shape, or one token dropped or added."""
    plain = [str(k) for k in range(13)] + ["0", "007", "123456789012"]
    digits = st.sampled_from(plain + (["٣", "9" * 5000] if odd else []))
    dens = st.sampled_from(["0", "1", "2", "3", "4", "6", "9"] + (["٣"] if odd else []))
    signed = st.tuples(st.sampled_from(["", "-"]), digits).map(lambda t: [t[0], t[1]] if t[0] else [t[1]])
    sizes = st.integers(1, 3) if odd else st.just(dim)
    coords = sizes.flatmap(lambda n: st.lists(signed, min_size=n, max_size=n)).map(
        lambda xs: ["(", *[tok for i, x in enumerate(xs) for tok in ([","] if i else []) + x], ")"]
    )
    exponent = (signed | coords) if odd else signed if dim == 1 else coords
    names = st.sampled_from([var] * 4 + ([var + "x"] if odd else []))
    power = names.map(lambda n: [n]) | st.tuples(names, exponent).map(lambda t: [t[0], "^", *t[1]])
    coefficient = digits.map(lambda d: [d]) | st.tuples(digits, dens).map(lambda t: [t[0], "/", t[1]])
    tail = st.tuples(names, signed).map(lambda t: ["O", "(", t[0], "^", *t[1], ")"])
    mono = st.one_of(
        coefficient, power, st.tuples(coefficient, power).map(lambda t: [*t[0], "*", *t[1]]), tail
    )
    terms = draw(st.lists(st.tuples(st.sampled_from(["", "+", "-", "-"]), mono), min_size=1, max_size=6))
    tokens = []
    for sign, toks in terms:
        tokens += ([sign or "+"] if tokens else [sign] if sign else []) + toks
    edit = draw(st.sampled_from(["none", "drop", "insert"])) if odd else "none"
    if edit == "drop" and len(tokens) > 1:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif edit == "insert":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(list("()^*/,+-$.O") + ["e", "²"])))
    blank = st.sampled_from(["", "", " ", " ", "  ", "\n", "\t", " \n\t ", "\r\n"] + (["　", "\xa0"] if odd else []))
    gaps = draw(st.lists(blank, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))


MONOIDS = [M, IntLine(nonneg=True), V, IntVector(2, lex=True)]
RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(12)]


@st.composite
def sum_case(draw):
    var = draw(st.sampled_from(["e", "e", "x", "t1", "_"]))
    laurent = draw(st.booleans())
    monoid = M if laurent else draw(st.sampled_from(MONOIDS))
    dim = getattr(monoid, "dim", 1)
    odd = draw(st.sampled_from([False, False, True]))
    return draw(monomial_sum(var, dim, odd)), monoid, draw(st.sampled_from(RINGS)), var, laurent


@settings(max_examples=600, deadline=None)
@given(case=sum_case())
def test_sums_of_monomials_parse_as_the_general_parser_does(case):
    text, monoid, ring, var, laurent = case
    assert_parses_as_general(text, monoid, ring, var, laurent)


@pytest.mark.parametrize(
    "text,monoid,ring,laurent",
    [
        ("- 12*e^(0,-3) + 7/2*e^(1,-2)", V, QQ, False),
        ("12*e^(-3,0) - 7/2*e^(1,-2)", IntVector(2, lex=True), Zmod(101), False),
        ("- 12*e^-3 + 7/2*e^40", M, QQ, False),
        ("- 12*e^-3 + 7*e^0 - 999*e^5 + O(e^40)", M, ZZ, True),
        ("-7/2*e^-3 + O(e^-3) + 1/9*e^2", M, QQ, True),
        ("O(e^-1)", M, QQ, True),
        (" 1 /\n2 *\te ^ ( - 1 ,\n2 ) - e ^(2,2) ", V, QQ, False),
        ("e^3 - e^3 + 1/2 - 1/2", M, QQ, False),
        ("3*e^2", M, Zmod(7), False),  # a lone c*e^k
        ("-3*e^2", M, ZZ, True),
        ("0*e^4", M, Zmod(7), False),
        ("7*e", M, Zmod(7), True),
    ],
)
def test_bench_shaped_sums_skip_the_general_lexer(monkeypatch, text, monoid, ring, laurent):
    expected = eval_series(parse_expr(text), M if laurent else monoid, ring, laurent)

    def general_lexer(text):
        raise AssertionError("a sum of monomials reached the general lexer")

    monkeypatch.setattr(gpsrb.parsing, "_lex", general_lexer)
    got = parse_series(text, monoid, ring, laurent=laurent)
    assert got == expected and hash(got) == hash(expected)


def _series_over(monoid, ring):
    exps = st.integers(-12, 12) if monoid is M else st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    coeffs = st.tuples(st.integers(-50, 50), st.integers(1, 9) if ring is QQ else st.just(1))
    return st.dictionaries(exps, coeffs, max_size=6).map(
        lambda d: Series(monoid, ring, {s: ring.value(*ring.ratio(n, k)) for s, (n, k) in d.items()})
    )


rendered = st.sampled_from([(M, ZZ), (M, QQ), (M, Zmod(7)), (V, QQ), (IntVector(2, lex=True), Zmod(12))]).flatmap(
    lambda mr: _series_over(*mr)
)


@settings(max_examples=150, deadline=None)
@given(f=rendered, trunc=st.none() | st.integers(-12, 14), var=st.sampled_from(["e", "t1"]))
def test_rendered_values_skip_the_general_lexer(f, trunc, var):
    def general_lexer(text):
        raise AssertionError(f"rendered text {text!r} reached the general lexer")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpsrb.parsing, "_lex", general_lexer)
        assert parse_series(render_series(f, var), f.monoid, f.ring, var=var) == f
        if f.monoid is M:
            g = make_laurent(f.ring, {s: c for s, c in f.items() if trunc is None or s < trunc}, trunc)
            assert parse_series(render_laurent(g, var), M, f.ring, var=var, laurent=True) == g


@pytest.mark.parametrize(
    "text,monoid,ring,laurent",
    [
        ("(1 + e) * (1 - e)", M, ZZ, False),  # not a sum of monomials
        ("2 * 3 * e^2", M, ZZ, False),
        ("e^2 + 1　+ e", M, ZZ, False),  # non-ASCII blank
        ("٣*e^2", M, ZZ, False),  # non-ASCII digit
        ("1 + O(e^2)", M, QQ, False),  # tail marker outside Laurent mode
        ("1 + ex^2", M, QQ, False),  # a longer name
        ("1/0*e", M, QQ, False),  # parts the pattern accepts but that do not evaluate
        ("1/2*e + 1", M, ZZ, False),
        ("1/2*e + 1", M, Zmod(4), True),
        ("e^(1,2) + 1", M, ZZ, False),
        ("e^-1 + 1", IntLine(nonneg=True), ZZ, False),
        ("e^2 + 1", V, QQ, False),
        ("e + " + "9" * 5000, M, ZZ, False),
    ],
)
def test_other_texts_reach_the_general_parser(monkeypatch, text, monoid, ring, laurent):
    expected = _outcome(lambda: eval_series(parse_expr(text), M if laurent else monoid, ring, laurent))
    calls = []
    lex = gpsrb.parsing._lex

    def counted(text):
        calls.append(text)
        return lex(text)

    monkeypatch.setattr(gpsrb.parsing, "_lex", counted)
    assert _outcome(lambda: parse_series(text, monoid, ring, laurent=laurent)) == expected
    assert calls == [text]


def test_products_of_at_most_one_pair_are_free(monkeypatch):
    # such a product forms at most one term, as a monomial read in one pass
    # does, so neither parse path charges it or refuses it
    cases = [
        ("3*e^2", False, Series(M, ZZ, {2: 3})),
        ("(3*e^2)", False, Series(M, ZZ, {2: 3})),
        ("2*3*e^2", False, Series(M, ZZ, {2: 6})),
        ("-3*e^2 + O(e^5)", True, make_laurent(ZZ, {2: -3}, 5)),
        ("(2*e + O(e^4)) * e^-1", True, make_laurent(ZZ, {0: 2}, 3)),
    ]
    budget = ProductBudget()
    for text, laurent, value in cases:
        assert parse_series(text, M, ZZ, laurent=laurent, budget=budget) == value
    assert budget.spent == 0
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 0)
    for text, laurent, value in cases:
        assert parse_series(text, M, ZZ, laurent=laurent) == value
    # 19,999 products of one pair each
    start = time.perf_counter()
    assert parse_series("*".join(["e"] * 20_000), M, ZZ, budget=budget) == Series(M, ZZ, {20_000: 1})
    assert budget.spent == 0 and time.perf_counter() - start < 10
    # every larger product is charged all its pairs
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 4)
    assert parse_series("(1 + e) * (1 - e)", M, ZZ, budget=budget) == Series(M, ZZ, {0: 1, 2: -1})
    assert budget.spent == 4
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 3)
    with pytest.raises(ParseError) as err:
        parse_series("(1 + e) * (1 - e)", M, ZZ)
    assert str(err.value) == (
        "product of 2 x 2 terms = 4 coefficient pairs, above the budget of 3 (line 1, column 12)"
    )


@pytest.mark.parametrize(
    "text,monoid",
    [
        ("1" + " " * 200_000 + "$", "Z"),
        (" " * 200_000 + "$", "Z"),
        ("e^" + " \t" * 100_000 + "$", "Z"),
        ("1 -" + " " * 200_000 + "$", "Z"),
        ("3" + " " * 50_000 + "*" + " " * 50_000 + "e" + " " * 50_000 + "^" + " " * 50_000 + "$", "Z"),
        ("e^2 +" + " \n\t" * 66_000 + "+ 1", "Z"),
        (" + ".join(f"{k + 10**8}*e^{k}" for k in range(10_000)) + " $", "Z"),
        (" - ".join(f"{k}/7*e^(-{k}, {k})" for k in range(10_000)) + " (", "Z^2:product"),
    ],
    ids=["blank-run", "leading-blank-run", "blank-run-in-an-exponent", "blank-run-after-a-sign", "blank-runs-in-a-term", "newline-run", "terms-then-bad-char", "tuple-terms-then-paren"],
)
def test_long_refusals_take_linear_time(capsys, text, monoid):
    assert len(text) >= 150_000
    with pytest.raises(ParseError) as general:
        parse_expr(text)
    start = time.perf_counter()
    code = main(["add", text, "0", "--monoid", monoid, "--ring", "Q"])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().err) == (2, f"error: {general.value}\n")
    assert elapsed < 10, f"{elapsed:.1f} s"
