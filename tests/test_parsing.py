import operator
from functools import reduce

import pytest
from hypothesis import given, settings

from gpsrb import (
    IntLine,
    IntVector,
    ParseError,
    QQ,
    Series,
    Zmod,
    ZZ,
    indicator,
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
    assert f == Series(V, ZZ, {(1, -2): ZZ.one(), (0, 0): ZZ.from_int(2)})


def test_laurent_mode_with_tail():
    f = parse_series("1/2*e^-1 + 1 + O(e^2)", M, QQ, laurent=True)
    assert f.ord == -1
    assert f.trunc == 2
    assert not f.exact
    assert f.to_json()["coeffs"] == ["1/2", "1", "0"]


def test_products_and_parens():
    f = parse_series("(1 + e^1) * (1 - e^1)", M, ZZ)
    assert f == Series(M, ZZ, {0: ZZ.one(), 2: ZZ.from_int(-1)})
    g = parse_series("2 * 3 * e^2", M, ZZ)
    assert g == indicator(M, 2, ZZ).scale(ZZ.from_int(6))


def test_leading_minus_and_bare_var():
    f = parse_series("-e + 2", M, ZZ)
    assert f == Series(M, ZZ, {1: ZZ.from_int(-1), 0: ZZ.from_int(2)})


def test_scalar_fractions():
    f = parse_series("1/2 + 3/4*e^1", M, QQ)
    assert f.coeff(0) == QQ.from_ratio(1, 2)
    assert f.coeff(1) == QQ.from_ratio(3, 4)
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


