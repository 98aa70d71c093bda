"""Golden CLI outputs: exact stdout and exit code of add/mul and laurent-demo.

The expected text was recorded from the wrapper-class coefficient
implementation, so any change to the coefficient representation, the
parser or the renderers must keep these outputs byte for byte. Z/7 cases
pin "k mod 7" in JSON against the bare residue in rendered output.
"""

from pathlib import Path

import pytest

from gpsrb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

ARITH = [
    (
        ['mul', '3*e^-2 - 5 + 2*e', 'e^2 - 4*e^-1', '--ring', 'Z'],
        '-12*e^-3 + 20*e^-1 - 5 - 5*e^2 + 2*e^3',
    ),
    (
        ['mul', '3*e^-2 - 5 + 2*e', 'e^2 - 4*e^-1', '--ring', 'Z', '--json'],
        '{"monoid": "Z", "ring": "Z", "terms": [{"exp": "-3", "coeff": "-12"}, {"exp": "-1", "coeff": "20"}, {"exp": "0", "coeff": "-5"}, {"exp": "2", "coeff": "-5"}, {"exp": "3", "coeff": "2"}]}',
    ),
    (
        ['add', '2*e - 7*e^3 + 1', '-2*e + 7*e^3 - 1', '--ring', 'Z'],
        '0',
    ),
    (
        ['add', '2*e - 7*e^3 + 1', '-2*e + 4*e^3', '--ring', 'Z', '--json'],
        '{"monoid": "Z", "ring": "Z", "terms": [{"exp": "0", "coeff": "1"}, {"exp": "3", "coeff": "-3"}]}',
    ),
    (
        ['mul', '1/2 - 2/3*e + e^2', '3/4*e^-1 + 5/6', '--ring', 'Q'],
        '3/8*e^-1 - 1/12 + 7/36*e^1 + 5/6*e^2',
    ),
    (
        ['mul', '1/2 - 2/3*e + e^2', '3/4*e^-1 + 5/6', '--ring', 'Q', '--json'],
        '{"monoid": "Z", "ring": "Q", "terms": [{"exp": "-1", "coeff": "3/8"}, {"exp": "0", "coeff": "-1/12"}, {"exp": "1", "coeff": "7/36"}, {"exp": "2", "coeff": "5/6"}]}',
    ),
    (
        ['add', '1/2 - 2/3*e', '1/2 + 2/3*e - 7/5*e^2', '--ring', 'Q'],
        '1 - 7/5*e^2',
    ),
    (
        ['add', '1/3*e^-1 + 1/6', '-1/3*e^-1 + 5/6', '--ring', 'Q', '--json'],
        '{"monoid": "Z", "ring": "Q", "terms": [{"exp": "0", "coeff": "1"}]}',
    ),
    (
        ['mul', '3 + 5*e', '4 + 2*e - e^2', '--ring', 'Z/7'],
        '5 + 5*e^1 + 2*e^3',
    ),
    (
        ['mul', '3 + 5*e', '4 + 2*e - e^2', '--ring', 'Z/7', '--json'],
        '{"monoid": "Z", "ring": "Z/7", "terms": [{"exp": "0", "coeff": "5 mod 7"}, {"exp": "1", "coeff": "5 mod 7"}, {"exp": "3", "coeff": "2 mod 7"}]}',
    ),
    (
        ['add', '3 + 5*e + 6*e^2', '4 + 2*e + e^3', '--ring', 'Z/7'],
        '6*e^2 + e^3',
    ),
    (
        ['add', '3 + 5*e + 6*e^2', '4 + 2*e + e^3', '--ring', 'Z/7', '--json'],
        '{"monoid": "Z", "ring": "Z/7", "terms": [{"exp": "2", "coeff": "6 mod 7"}, {"exp": "3", "coeff": "1 mod 7"}]}',
    ),
    (
        ['mul', '-1/2*e + 9', '2*e^-1 - 1/3', '--ring', 'Z/7'],
        '4*e^-1 + 3 + 6*e^1',
    ),
    (
        ['add', '3', '4', '--ring', 'Z/7', '--json'],
        '{"monoid": "Z", "ring": "Z/7", "terms": []}',
    ),
    (
        ['mul', '3*e^-2 - 5 + O(e^3)', 'e^2 - 4*e^-1', '--ring', 'Z', '--laurent'],
        '-12*e^-3 + 20*e^-1 + 3 + O(e^2)',
    ),
    (
        ['mul', '3*e^-2 - 5 + O(e^3)', 'e^2 - 4*e^-1', '--ring', 'Z', '--laurent', '--json'],
        '{"ring": "Z", "ord": -3, "coeffs": ["-12", "0", "20", "3", "0"], "trunc": 2, "exact": false}',
    ),
    (
        ['add', '2*e^-1 - 7 + e^4', '-2*e^-1 + 7 + O(e^2)', '--ring', 'Z', '--laurent'],
        'O(e^2)',
    ),
    (
        ['add', '2*e^-1 - 7 + e^4', '-2*e^-1 + 7 + O(e^2)', '--ring', 'Z', '--laurent', '--json'],
        '{"ring": "Z", "ord": 2, "coeffs": [], "trunc": 2, "exact": false}',
    ),
    (
        ['mul', '1/2*e^-1 - 2/3 + O(e^2)', '3/4 + 5/6*e', '--ring', 'Q', '--laurent'],
        '3/8*e^-1 - 1/12 - 5/9*e^1 + O(e^2)',
    ),
    (
        ['mul', '1/2*e^-1 - 2/3 + O(e^2)', '3/4 + 5/6*e', '--ring', 'Q', '--laurent', '--json'],
        '{"ring": "Q", "ord": -1, "coeffs": ["3/8", "-1/12", "-5/9"], "trunc": 2, "exact": false}',
    ),
    (
        ['add', '1/2*e^-2 + 1/3', '-1/2*e^-2 + 2/3 - 1/5*e^3', '--ring', 'Q', '--laurent'],
        '1 - 1/5*e^3',
    ),
    (
        ['add', '1/2*e^-2 + 1/3', '-1/2*e^-2 + 2/3 - 1/5*e^3', '--ring', 'Q', '--laurent', '--json'],
        '{"ring": "Q", "ord": 0, "coeffs": ["1", "0", "0", "-1/5"], "trunc": 4, "exact": true}',
    ),
    (
        ['mul', '3*e^-1 + 5 + O(e^3)', '4 + 2*e - e^2', '--ring', 'Z/7', '--laurent'],
        '5*e^-1 + 5 + 2*e^2 + O(e^3)',
    ),
    (
        ['mul', '3*e^-1 + 5 + O(e^3)', '4 + 2*e - e^2', '--ring', 'Z/7', '--laurent', '--json'],
        '{"ring": "Z/7", "ord": -1, "coeffs": ["5 mod 7", "5 mod 7", "0 mod 7", "2 mod 7"], "trunc": 3, "exact": false}',
    ),
    (
        ['add', '3*e^-1 + 5 + 6*e^2', '4*e^-1 + 2 + e^3', '--ring', 'Z/7', '--laurent'],
        '6*e^2 + e^3',
    ),
    (
        ['add', '3*e^-1 + 5 + 6*e^2', '4*e^-1 + 2 + e^3', '--ring', 'Z/7', '--laurent', '--json'],
        '{"ring": "Z/7", "ord": 2, "coeffs": ["6 mod 7", "1 mod 7"], "trunc": 4, "exact": true}',
    ),
    (
        ['add', '3*e^-1 + 5', '4*e^-1 + 2 + O(e^4)', '--ring', 'Z/7', '--laurent', '--json'],
        '{"ring": "Z/7", "ord": 4, "coeffs": [], "trunc": 4, "exact": false}',
    ),
    # window edge cases, recorded from the dense-window implementation
    (
        ['mul', 'O(e^3)', 'O(e^5)', '--laurent'],
        'O(e^8)',
    ),
    (
        ['mul', 'O(e^3)', 'O(e^5)', '--laurent', '--json'],
        '{"ring": "Q", "ord": 8, "coeffs": [], "trunc": 8, "exact": false}',
    ),
    (
        ['mul', '0', '1 + O(e^4)', '--laurent'],
        '0',
    ),
    (
        ['mul', 'O(e^4)', '0', '--laurent', '--json'],
        '{"ring": "Q", "ord": 0, "coeffs": [], "trunc": 0, "exact": true}',
    ),
    (
        ['add', 'e^3', 'O(e^2)', '--laurent'],
        'O(e^2)',
    ),
    (
        ['mul', '3*e + O(e^5)', '4*e^2', '--ring', 'Z/12', '--laurent', '--json'],
        '{"ring": "Z/12", "ord": 7, "coeffs": [], "trunc": 7, "exact": false}',
    ),
    (
        ['add', 'e^-4 + e^3', '2', '--ring', 'Z', '--laurent', '--json'],
        '{"ring": "Z", "ord": -4, "coeffs": ["1", "0", "0", "0", "2", "0", "0", "1"], "trunc": 4, "exact": true}',
    ),
    (
        ['mul', '2*e^-2 + 5 + O(e^4)', '1 - e^3', '--ring', 'Q', '--laurent', '--json'],
        '{"ring": "Q", "ord": -2, "coeffs": ["2", "0", "5", "-2", "0", "-5"], "trunc": 4, "exact": false}',
    ),
    (
        ['mul', '1 + 7*e^98000', '3 + O(e^118000)', '--ring', 'Z', '--laurent'],
        '3 + 21*e^98000 + O(e^118000)',
    ),
]


@pytest.mark.parametrize("argv,expected", ARITH, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_arith_golden(capsys, argv, expected):
    code = main(list(argv))
    assert (code, capsys.readouterr().out) == (0, expected + "\n")


@pytest.mark.parametrize(
    "ring,json_flag,name",
    [
        ("Z/7", True, "laurent_demo_Z7_json.txt"),
        ("Z/7", False, "laurent_demo_Z7.txt"),
        ("Q", True, "laurent_demo_Q_json.txt"),
        ("Q", False, "laurent_demo_Q.txt"),
    ],
)
def test_laurent_demo_golden(capsys, monkeypatch, ring, json_flag, name):
    # the output also pins the RNG draw order of the random Laurent inputs
    monkeypatch.setenv("GPS_RB_SEED", "11")
    argv = ["laurent-demo", "--ring", ring, "--count", "4"] + (["--json"] if json_flag else [])
    code = main(argv)
    assert (code, capsys.readouterr().out) == (0, (GOLDEN / name).read_text())
