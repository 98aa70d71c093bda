"""Each rule of the program has one owner, and these checks keep it there.

- An option exists only where a command reads it: every option a
  subcommand declares is read by that subcommand on some argv of a small
  set that covers its branches.
- Only outcomes.py decides between "pass" and "pass-on-window": every other
  CheckOutcome(...) call in the package passes the literal "fail" first,
  and a clean verdict goes through CheckOutcome.clean.
- Only a projector's keeps decides which side of the split an exponent lies
  on: in projectors.py and oracles.py the order `.lt` is read inside
  Projector.cutoff alone, which builds keeps from it.
"""

import argparse
import ast
from pathlib import Path

import pytest

from gpsrb.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpsrb"
Z4 = str(ROOT / "tables" / "z4.json")

# argv per subcommand: with and without --f/--g, with and without --laurent,
# text and --json
ARGV = {
    "add": [["add", "e", "1"], ["add", "e", "1", "--laurent", "--json"]],
    "mul": [["mul", "e", "e", "--json"], ["mul", "e", "e", "--laurent"]],
    "rb-check": [
        ["rb-check", "--decomp", "negatives"],
        ["rb-check", "--decomp", "negatives", "--f", "e", "--g", "e^-1", "--json"],
    ],
    "cutoff-scan": [["cutoff-scan", "--w-range", "0..1"]],
    "theorem-verify": [["theorem-verify", "--table", Z4]],
    "laurent-demo": [["laurent-demo", "--count", "1"]],
}


def declared_options() -> dict[str, set[str]]:
    """The dest of every argument each subcommand declares, help aside."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        for name, sub in subparsers.choices.items()
    }


def options_read(argvs, monkeypatch, capsys) -> set[str]:
    """The attributes the commands read off their parsed arguments over argvs."""
    reads: set[str] = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = build_parser()
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: Recording(**vars(parse_args(argv))))
    for argv in argvs:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    return reads


@pytest.mark.parametrize("command", list(declared_options()))
def test_every_declared_option_is_read(monkeypatch, capsys, command):
    declared = declared_options()[command]
    assert declared - options_read(ARGV[command], monkeypatch, capsys) == set()


def test_an_option_nothing_reads_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cutoff-scan", "--w-range", "0..1", "--var", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --var x\n")


def clean_verdicts_outside_outcomes(paths) -> list[str]:
    """file:line of each CheckOutcome(...) call whose first argument is not the literal "fail"."""
    found = []
    for path in paths:
        if path.name == "outcomes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "CheckOutcome":
                first = node.args[0] if node.args else None
                if not (isinstance(first, ast.Constant) and first.value == "fail"):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_outcomes_builds_a_clean_verdict():
    assert clean_verdicts_outside_outcomes(sorted(SRC.glob("*.py"))) == []


def test_a_planted_clean_verdict_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def check(desc):\n"
        '    CheckOutcome("fail", {"u": 1}, desc)\n'
        "    CheckOutcome.clean(M, [], desc)\n"
        '    return CheckOutcome("pass", window=desc)\n'
        "def other(desc):\n"
        '    return CheckOutcome(verdict="fail", witness={}, window=desc)\n'
    )
    assert clean_verdicts_outside_outcomes([module]) == ["module.py:4", "module.py:6"]


def order_reads_outside_cutoff(paths) -> list[str]:
    """file:line scope of each `.lt` read outside Projector.cutoff, scope the enclosing def or class path."""
    found = []

    class Reads(ast.NodeVisitor):
        def __init__(self, name):
            self.name, self.scope = name, []

        def enter(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = enter

        def visit_Attribute(self, node):
            scope = ".".join(self.scope)
            if node.attr == "lt" and scope != "Projector.cutoff":
                found.append(f"{self.name}:{node.lineno} {scope or '<module>'}")
            self.generic_visit(node)

    for path in paths:
        Reads(path.name).visit(ast.parse(path.read_text()))
    return found


def test_only_cutoff_reads_the_order():
    assert order_reads_outside_cutoff([SRC / "projectors.py", SRC / "oracles.py"]) == []


def test_a_planted_order_read_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "class Projector:\n"
        "    def cutoff(monoid, w):\n"
        "        lt = monoid.lt\n"
        "        return lambda s: lt(s, w)\n"
        "    def complement(self):\n"
        "        return self.monoid.lt\n"
        "def cutoff(monoid, w, window):\n"
        "    return [v for v in window if monoid.lt(v, w)]\n"
    )
    assert order_reads_outside_cutoff([module]) == [
        "module.py:6 Projector.complement",
        "module.py:8 cutoff",
    ]
