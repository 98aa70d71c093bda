"""The regex-split lexer and index parser against the character-stepping oracle.

conftest.reference_parse_expr is the tokenizer and peek/next parser that
gpsrb.parsing used before. For every input both must return equal ASTs, or
raise a ParseError with the same message, line and column.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsrb import ParseError
from gpsrb.parsing import MAX_NESTING, Lit, check_var, parse_expr

from conftest import reference_parse_expr


def outcome(parse, text: str, var: str):
    try:
        node = parse(text, var)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    return "ok", node, repr(node)


def assert_same(text: str, var: str = "e") -> None:
    assert outcome(parse_expr, text, var) == outcome(reference_parse_expr, text, var), text


# grammar-shaped inputs, built as token lists

digits = st.integers(0, 10**12).map(str) | st.sampled_from(["007", "٣", "²", "1²", "0"])
signed = st.tuples(st.sampled_from(["", "-"]), digits).map("".join)
exponent = signed | st.lists(signed, min_size=1, max_size=3).map(lambda xs: "(" + ",".join(xs) + ")")
scalar = digits.map(lambda d: [d]) | st.tuples(digits, digits).map(lambda t: [t[0], "/", t[1]])
name = st.sampled_from(["e", "e", "e", "x", "O", "_", "e1", "E"])
power = name.map(lambda n: [n]) | st.tuples(name, exponent).map(lambda t: [t[0], "^", t[1]])
tail = st.tuples(name, exponent).map(lambda t: ["O", "(", t[0], "^", t[1], ")"])
atom = scalar | power | tail


def _sum(terms: list) -> list:
    out = []
    for sign, term in terms:
        out += ([sign] if sign or out else []) + term
    return out


def _extend(inner):
    factor = atom | inner.map(lambda toks: ["(", *toks, ")"])
    term = st.lists(factor, min_size=1, max_size=3).map(
        lambda fs: [tok for f in fs for tok in ["*", *f]][1:]
    )
    return st.lists(st.tuples(st.sampled_from(["", "+", "-"]), term), min_size=1, max_size=4).map(_sum)


expressions = st.recursive(atom, _extend, max_leaves=10)
blank = st.sampled_from(["", "", "", " ", "  ", "\n", "\t", " \n ", "\r", "　"])
stray = st.sampled_from([")", "(", "^", "*", "/", ",", "+", "-", "$", ".", "½", "O", "e"])


@st.composite
def grammar_text(draw) -> str:
    tokens = list(draw(expressions))
    edit = draw(st.sampled_from(["none", "none", "drop", "insert"]))
    if edit == "drop" and tokens:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif edit == "insert":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(stray))
    gaps = draw(st.lists(blank, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))


raw_text = st.text(
    alphabet=st.sampled_from(list("²٣_O\n\t e x19+-*/^(),$.½é")), max_size=40
)


@settings(max_examples=400)
@given(text=grammar_text(), var=st.sampled_from(["e", "e", "x", "e1"]))
def test_grammar_shaped_inputs_parse_as_the_oracle_does(text, var):
    assert_same(text, var)


@settings(max_examples=400)
@given(text=raw_text)
def test_raw_inputs_parse_as_the_oracle_does(text):
    assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "\n\n",
        "\t \r",
        "1 +\n\n",  # end of input reported after the last lexeme, not at the end of the text
        "3*e^\n  \n",
        "(\n",
        "1 +\n2*e^3\n  + $",
        "1 +\n  x",
        "e^(1,\n-2)\n*O(e^-3) 4",
        "²*e",  # a digit, so it reaches int()
        "٣*e^٣",  # a decimal digit: reads as 3
        "2½",
        "e½",
        "x²",
        "_ + e",
        "(" * (MAX_NESTING + 1) + "e" + ")" * (MAX_NESTING + 1),
        "1 +\n" + "(" * (MAX_NESTING + 1) + "e" + ")" * (MAX_NESTING + 1),
        "(" * MAX_NESTING + "e" + ")" * MAX_NESTING,
        "e + " + "9" * 5000,
        "9" * 5000 + "/2",
    ],
)
def test_fixed_inputs_parse_as_the_oracle_does(text):
    assert_same(text)


def test_lexer_reads_unicode_digits_as_before():
    assert parse_expr("٣") == Lit(3, 1, 1, 1)
    with pytest.raises(ParseError) as err:
        parse_expr("1 + ²")
    assert str(err.value) == "invalid literal for int() with base 10: '²' (line 1, column 5)"
    with pytest.raises(ParseError) as err:
        parse_expr("e +\n\t2½")
    assert str(err.value) == "unexpected character '½' (line 2, column 3)"


@pytest.mark.parametrize("var", ["", "1", "x y", " e", "e-", "½", "²", "O"])
def test_variable_must_lex_as_one_name(var):
    with pytest.raises(ValueError) as err:
        parse_expr("1", var=var)
    assert not isinstance(err.value, ParseError)
    with pytest.raises(ValueError):
        check_var(var)


@pytest.mark.parametrize("var", ["e", "x", "_", "x1", "x²", "é", "t_2"])
def test_names_are_valid_variables(var):
    check_var(var)
    assert parse_expr(f"2*{var}^3", var=var) == reference_parse_expr(f"2*{var}^3", var=var)
