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
from gpsrb.parsing import MAX_NESTING, Sum, eval_laurent, eval_series, parse_expr

from conftest import int_series, vec2_series

M = IntLine()
V = IntVector(2)


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
    assert [str(c) for c in f.coeffs] == ["1/2", "1", "0"]


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
    if laurent:
        parts = [eval_laurent(part, ring) for part in node.parts]
    else:
        parts = [eval_series(part, M, ring) for part in node.parts]
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
    # factor i meets 2^i terms: 2^(i + 1) pairs, past the budget from i = 20
    factors = [f"(1 + e^{2 ** k})" for k in range(24)]
    with pytest.raises(ParseError) as err:
        parse_series("*".join(factors), M, ZZ)
    i = gpsrb.parsing.PRODUCT_BUDGET.bit_length() - 1
    assert str(err.value).startswith(f"product of {2 ** i} x 2 terms = {2 ** (i + 1)} coefficient pairs")
    assert (err.value.line, err.value.col) == (1, len("*".join(factors[:i])) + 3)
