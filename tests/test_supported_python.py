"""The package parses and builds its patterns on the oldest Python it declares."""

import ast
import re
from pathlib import Path

import pytest

from gpsrb.parsing import _sum_reader

ROOT = Path(__file__).resolve().parent.parent


def oldest_python() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', pyproject).groups()
    return int(major), int(minor)


def test_oldest_python_is_3_10():
    # the constructs checked below are refused by 3.10 and no later version
    assert oldest_python() == (3, 10)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "gpsrb").glob("*.py")), ids=lambda p: p.name)
def test_sources_parse_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=oldest_python())


@pytest.mark.parametrize("laurent", [False, True])
def test_sum_patterns_need_no_python_3_11_syntax(laurent):
    # re accepts possessive quantifiers and atomic groups only from 3.11
    for method in _sum_reader("e", laurent):
        pattern = method.__self__.pattern
        for construct in ("*+", "++", "?+", "}+", "(?>"):
            assert construct not in pattern, (construct, pattern)
