"""The ```python blocks of README.md run, in order, in one namespace.

A `print(...)` followed by `# <text>`, on its line or on the next line, must
print <text>: the comment up to its first ":" or its first run of two
spaces, so the rest of it can explain.
"""

import io
import re
import sys
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[tuple[int, str]]:
    """(first line number, code) of each ```python block of text."""
    lines = text.splitlines()
    blocks, start = [], None
    for i, line in enumerate(lines, 1):
        if start is None and line.strip() == "```python":
            start = i + 1
        elif start is not None and line.strip() == "```":
            blocks.append((start, "\n".join(lines[start - 1 : i - 1])))
            start = None
    return blocks


def expected_prints(code: str, first: int) -> dict[int, str]:
    """{line number of a print call: the text its comment says it prints}."""
    lines = code.splitlines()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    want = {}
    for n, line in enumerate(lines, 1):
        if not line.startswith("print("):
            continue
        comment = comments.get(n)
        if comment is None and n < len(lines) and lines[n].lstrip().startswith("#"):
            comment = comments.get(n + 1)
        if comment is not None:
            want[first + n - 1] = re.split(r":| {2,}", comment, maxsplit=1)[0].strip()
    return want


def test_readme_python_blocks_print_what_they_say():
    blocks = python_blocks(README.read_text())
    assert blocks
    printed: list[tuple[int, str]] = []

    def record(*args, sep=" ", **_):
        printed.append((sys._getframe(1).f_lineno, sep.join(map(str, args))))

    namespace: dict = {"print": record}
    want: dict[int, str] = {}
    for first, code in blocks:
        want.update(expected_prints(code, first))
        # leading newlines give the compiled code README's line numbers
        exec(compile("\n" * (first - 1) + code, str(README), "exec"), namespace)
    assert want
    assert [(n, text) for n, text in printed if n in want] == sorted(want.items())

