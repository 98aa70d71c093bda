"""The CLI's exit-code contract over argv built from the README grammar.

A hypothesis strategy builds argv for all six subcommands: monoid, ring,
window, decomposition and --w-range specs, series texts, extreme integers
and integers written in non-ASCII digits. It is weighted toward inputs the
CLI accepts, so most calls reach the checkers. A second strategy builds raw
token lists that argparse refuses: one-token mutations of those argv
(unknown flags, missing values and operands, bad ints, stray tokens,
tokens with a newline) and argv with no command. Every call must exit 0,
1 or 2, never 3 (an internal fault, which rb-check also raises when the
verdicts of its two routes disagree); exit 2 must print exactly one
stderr line, starting "error: "; and each call must finish within 2 s.
The fixed profile runs 150 examples of each strategy; GPS_RB_CLI_EXAMPLES
sets a larger count.
"""

import contextlib
import io
import os
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpsrb.cli import main

TABLES = Path(__file__).resolve().parent.parent / "tables"
EXAMPLES = int(os.environ.get("GPS_RB_CLI_EXAMPLES", "150"))
SECONDS = 2.0

SCRIPTS = ("٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９")  # Arabic-Indic, Devanagari, fullwidth
EXTREMES = (10**30, -(10**30), 2**63, -(2**63) - 1)


def rarely(draw, one_in: int) -> bool:
    """True about once in one_in draws: at a middle value, which hypothesis does not favour."""
    return draw(st.integers(0, one_in - 1)) == one_in // 2


@st.composite
def int_text(draw, lo=-4, hi=6):
    """An integer as text: mostly in lo..hi, sometimes extreme or in non-ASCII digits."""
    text = str(draw(st.sampled_from(EXTREMES)) if rarely(draw, 12) else draw(st.integers(lo, hi)))
    if rarely(draw, 8):
        text = text.translate(str.maketrans("0123456789", draw(st.sampled_from(SCRIPTS))))
    return text


@st.composite
def monoid_spec(draw):
    """A --monoid value and its element shape: d of Z^d, "Z", "N" or "table"."""
    if rarely(draw, 12):
        return draw(st.sampled_from(["Z^0:lex", "Z^9:product", "Z^2", "Z^2:grid", "Q", "table:missing.json"])), "Z"
    kind = draw(st.sampled_from(["Z", "N", "Z^d", "table"]))
    if kind == "Z^d":
        d = draw(st.integers(1, 3))
        return f"Z^{d}:{draw(st.sampled_from(['product', 'lex']))}", d
    if kind == "table":
        name = draw(st.sampled_from(["z3.json", "z4.json", "idem2.json", "trunc4.json"]))
        return f"table:{TABLES / name}", kind
    return kind, kind


@st.composite
def ring_spec(draw):
    if rarely(draw, 12):
        return draw(st.sampled_from(["Z/1", "Z/x", "R"]))
    return draw(st.sampled_from(["Z", "Q", "Z/2", "Z/3", "Z/7", "Z/12"]))


@st.composite
def range_text(draw, width):
    if rarely(draw, 12):
        return draw(st.sampled_from(["5..1", "a..b", "3", f"0..{10**30}", "٠..٣"]))
    lo = draw(st.integers(-4, 4))
    return f"{lo}..{lo + draw(st.integers(0, width))}"


@st.composite
def exponent_text(draw, shape, lo=-3, hi=3):
    """An exponent or element of the given shape, as the CLI reads it."""
    if isinstance(shape, int):
        return "(" + ",".join(draw(int_text(lo, hi)) for _ in range(shape)) + ")"
    return draw(int_text(0 if shape in ("N", "table") else lo, hi))


@st.composite
def decomposition(draw, shape):
    kinds = ["below", "notbelow", "negatives", "nonnegatives", "positives", "nonpositives"]
    kinds += {"Z": ["evens", "odds"], "N": ["evens", "odds"], "table": ["mask"]}.get(shape, [])
    kind = draw(st.sampled_from(kinds))
    if kind == "mask":
        return f"mask:{draw(int_text(0, 15))}"
    if kind in ("below", "notbelow"):
        return f"{kind}({draw(exponent_text(shape, -2, 2))})"
    return kind


@st.composite
def series_text(draw, shape, var="e", laurent=False):
    """A sum of monomials c*var^k, a tuple k on Z^d; Laurent mode may add O(var^k)."""
    text = ""
    for _ in range(draw(st.integers(0, 4))):
        coeff = draw(int_text(-5, 5))
        if draw(st.booleans()):
            coeff += f"/{0 if rarely(draw, 12) else draw(st.integers(1, 5))}"
        term = draw(st.sampled_from([f"{coeff}*{var}^", f"{var}^", coeff]))
        if term != coeff:
            term += draw(exponent_text(shape))
        if text:
            term = f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        text += term
    if laurent and draw(st.booleans()):
        text += f" + O({var}^{draw(st.integers(-2, 6))})"
    return text or "0"


@st.composite
def argv_for_a_command(draw):
    command = draw(st.sampled_from(["add", "mul", "rb-check", "cutoff-scan", "theorem-verify", "laurent-demo"]))
    ring = ["--ring", draw(ring_spec())]
    json_flag = ["--json"] if draw(st.booleans()) else []
    if command == "theorem-verify":
        table = str(TABLES / draw(st.sampled_from(["z3.json", "z4.json", "z6.json", "idem2.json", "trunc4.json"])))
        size = draw(st.sampled_from(["0", "21", "3"])) if rarely(draw, 8) else draw(st.sampled_from([None, "12", "٦"]))
        return [command, "--table", table, *([] if size is None else ["--max-size", size]), *ring, *json_flag]
    if command == "laurent-demo":
        count = draw(st.sampled_from(["0", "10001"])) if rarely(draw, 8) else draw(st.sampled_from(["1", "3", "٢"]))
        return [command, "--count", count, *ring, *json_flag]
    monoid, shape = draw(monoid_spec())
    common = ["--monoid", monoid, *ring, *json_flag]
    # a default window on Z^2 and up has 49 or more elements; an explicit one keeps calls short
    small = shape in ("Z", "N", "table", 1)
    window = [] if small and draw(st.booleans()) else ["--window", draw(range_text(6 if small else 3))]
    if command in ("add", "mul"):
        var = draw(st.sampled_from(["e", "x"]))
        laurent = monoid == "Z" and draw(st.booleans())
        exprs = [draw(series_text(shape, var, laurent)) for _ in range(2)]
        return [command, *exprs, *common, *(["--var", var] if var != "e" else []), *(["--laurent"] if laurent else [])]
    if command == "cutoff-scan":
        return [command, "--w-range", draw(range_text(3)), *window, *common]
    argv = [command, "--decomp", draw(decomposition(shape)), *window, *common]
    if draw(st.booleans()):
        argv += ["--f", draw(series_text(shape)), "--g", draw(series_text(shape))]
    return argv


# tokens a mutation puts in: flags of every subcommand, prefixes that
# match two of them, values where a flag belongs and texts no option reads;
# none is -h or a prefix of --help, whose usage text exits 0
TOKENS = (
    "--bogus", "--window", "--w-range", "--w", "--decomp", "--f", "--g", "--var", "--laurent",
    "--json", "--monoid", "--ring", "--table", "--max-size", "--count", "--", "-", "-x", "-3",
    "", "abc", "٣", "0..", "e^", "a\nb", "--x\ny", "add", "rb-check",
)


@st.composite
def refused_argv(draw):
    """An accepted argv with one token deleted, put in or replaced, or argv with no command."""
    if rarely(draw, 10):
        return draw(st.sampled_from([[], ["--json"], ["--bogus"], ["help"], ["--", "add", "e", "e"]]))
    argv = draw(argv_for_a_command())
    i = draw(st.integers(1, len(argv)))
    kind = draw(st.sampled_from(["delete", "insert", "replace"]))
    if kind == "delete" and i < len(argv):
        return argv[:i] + argv[i + 1 :]
    token = draw(st.sampled_from(TOKENS))
    return argv[:i] + [token] + argv[i + (kind == "replace") :]


# the argparse refusals that once printed a usage block and two more lines
REFUSED = {
    "bad-int": ["theorem-verify", "--table", str(TABLES / "z4.json"), "--max-size", "abc"],
    "missing-required-option": ["rb-check"],
    "missing-operand": ["mul", "e"],
    "unknown-flag": ["add", "e", "e", "--bogus"],
    "no-command": [],
    # rb-check's --g on add: left unglued, so argparse names it
    "flag-of-another-command": ["add", "--g", "e + 1", "e"],
}


def run(argv) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), time.perf_counter() - start


def assert_contract(argv) -> int:
    code, err, seconds = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert seconds < SECONDS, (argv, seconds)
    return code


@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argv_for_a_command())
def test_cli_exits_zero_one_or_two_within_two_seconds(argv):
    assert_contract(argv)


@settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=refused_argv())
def test_raw_tokens_keep_the_contract(argv):
    assert_contract(argv)


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
def test_an_argparse_refusal_is_one_error_line(argv):
    assert assert_contract(argv) == 2


def test_a_flag_of_another_command_is_an_unrecognized_argument():
    code, err, _ = run(REFUSED["flag-of-another-command"])
    assert (code, err) == (2, "error: unrecognized arguments: --g\n")
