"""Golden CLI outputs of rb-check and cutoff-scan over every kind of monoid.

Exact stdout, stderr and exit code per case, text and --json, over Z, N,
Z^2 under both orders, Z^1 lex and the Z/4 table: default windows, windows
clamped to N or to a table's carrier, vector and scalar exponents in
--f/--g, and the usage errors for windows and exponents that do not fit
the monoid. The expected records in golden/monoid_cli.json were recorded
before windows, exponents and carrier coverage moved into the monoid
classes, so that move must keep every byte.
"""

import json
from pathlib import Path

import pytest

from gpsrb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "monoid_cli.json"
Z4 = "table:" + str(Path(__file__).resolve().parent.parent / "tables" / "z4.json")

CASES = {
    "z-rb-default": ["rb-check", "--monoid", "Z", "--decomp", "negatives"],
    "z-scan": ["cutoff-scan", "--monoid", "Z", "--w-range", "-2..2", "--window", "-4..4"],
    "z-scan-default": ["cutoff-scan", "--monoid", "Z", "--w-range", "-1..1"],
    "n-rb-clamped": ["rb-check", "--monoid", "N", "--decomp", "positives", "--window", "-2..4"],
    "n-scan-default": ["cutoff-scan", "--monoid", "N", "--w-range", "-1..2", "--ring", "Z"],
    "z2p-rb": ["rb-check", "--monoid", "Z^2:product", "--decomp", "nonnegatives",
               "--window", "-1..1"],
    "z2p-scan": ["cutoff-scan", "--monoid", "Z^2:product", "--w-range", "0..1",
                 "--window", "-1..1"],
    "z2p-rb-fg": ["rb-check", "--monoid", "Z^2:product", "--decomp", "below((0,1))",
                  "--f", "e^(-1,1) + 3*e^(1,-2)", "--g", "e^(-1,1) - 2", "--ring", "Z"],
    "z2l-rb-default": ["rb-check", "--monoid", "Z^2:lex", "--decomp", "negatives"],
    "z2l-scan": ["cutoff-scan", "--monoid", "Z^2:lex", "--w-range", "-1..0", "--window", "-1..1"],
    "z1l-scan": ["cutoff-scan", "--monoid", "Z^1:lex", "--w-range", "-1..1", "--window", "-2..2"],
    "z1l-rb-fg": ["rb-check", "--monoid", "Z^1:lex", "--decomp", "below(2)",
                  "--f", "e^-2 + e^(1)", "--g", "2*e"],
    "table-rb-default": ["rb-check", "--monoid", Z4, "--decomp", "mask:0x1"],
    "table-rb-clamped": ["rb-check", "--monoid", Z4, "--decomp", "mask:0x5", "--window", "1..9"],
    # a threshold read as an element index: below(1) under the trivial order keeps nothing
    "table-rb-below": ["rb-check", "--monoid", Z4, "--decomp", "below(1)"],
    "table-scan-default": ["cutoff-scan", "--monoid", Z4, "--w-range", "0..9"],
    "table-scan-clamped": ["cutoff-scan", "--monoid", Z4, "--w-range", "0..1", "--window", "-3..2"],
    # closure witnesses in window order, the first pair whose sum lies in
    # the window: (-7, -1) -> -8, and (-2,1)+(0,1), (-2,2)+(2,-2)
    "z-rb-odds-witness": ["rb-check", "--monoid", "Z", "--decomp", "odds", "--window", "-8..8",
                          "--ring", "Z"],
    "z2p-rb-witness": ["rb-check", "--monoid", "Z^2:product", "--decomp", "below((1,1))",
                       "--window", "-2..2", "--ring", "Z"],
}

ERRORS = {
    "err-n-window": ["rb-check", "--monoid", "N", "--decomp", "positives", "--window", "-5..-1"],
    "err-n-thresholds": ["cutoff-scan", "--monoid", "N", "--w-range", "-5..-1"],
    "err-table-window": ["rb-check", "--monoid", Z4, "--decomp", "mask:1", "--window", "5..9"],
    "err-tuple-on-z": ["rb-check", "--monoid", "Z", "--decomp", "negatives",
                       "--f", "e^(1,2)", "--g", "e"],
    "err-scalar-on-z2": ["rb-check", "--monoid", "Z^2:product", "--decomp", "negatives",
                         "--f", "e^1", "--g", "e^(0,1)"],
    "err-arity": ["rb-check", "--monoid", "Z^2:lex", "--decomp", "negatives",
                  "--f", "e^(0,1)", "--g", "e^(1,2,3)"],
}


def all_cases() -> dict:
    out = {}
    for name, argv in CASES.items():
        out[name] = argv
        out[name + "-json"] = argv + ["--json"]
    out.update(ERRORS)
    return out


def run_case(argv, capsys) -> dict:
    code = main(list(argv))
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,argv", list(all_cases().items()), ids=list(all_cases()))
def test_monoid_cli_golden(capsys, golden, name, argv):
    assert run_case(argv, capsys) == golden[name]


def test_error_cases_exit_two(golden):
    for name in ERRORS:
        assert golden[name]["exit"] == 2 and golden[name]["stdout"] == ""
        assert golden[name]["stderr"].startswith("error: ")
