import ast
import re
from pathlib import Path

import gpsrb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gpsrb"

# where a public name earns its place: the package itself, the scripts, the
# benchmark and the acceptance claims; unit tests alone do not count
CALLERS = [
    *(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

# public definitions that stay public without a caller in CALLERS, each with
# its reason; an entry Class.name also covers the overrides of name in
# subclasses of Class
NO_CALLER = {
    "Ring.from_int": "the API-boundary constructor of a ring value from an int; tests spell 0 and 1 with it",
    "defect_terms": "the four-term test oracle of rb_defect, which forms two projected products, and of tl_rb_defect",
}


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the constant nodes that are docstrings of a module, class or function."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
    return ids


def used_words(paths) -> set[str]:
    """Every name, attribute and word of a string literal in the code of paths.

    A docstring or a comment is no use, and a def names what it defines
    without using it. The limit of the rule: it reads words, not bindings,
    so a method that shares its name with a used name of another class
    (`zero`, `add`, `items`) always reads as used.
    """
    words: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                words.update(re.findall(r"\w+", node.value))
    return words


def public_definitions(paths) -> dict[str, set[str]]:
    """Each public module function and public method of paths, by qualified name, with the names it answers to.

    A method answers to Class.name and to Base.name for each base class it
    names, so an allowlist entry for a base method covers its overrides.
    """
    defs: dict[str, set[str]] = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                defs[node.name] = {node.name}
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        names = {f"{cls}.{item.name}" for cls in (node.name, *bases)}
                        defs[f"{node.name}.{item.name}"] = names
    return defs


def uncalled(defs: dict[str, set[str]], words: set[str], allowed=NO_CALLER) -> list[str]:
    return sorted(q for q, names in defs.items() if q.rsplit(".", 1)[-1] not in words and not names & set(allowed))


def test_every_export_resolves():
    assert [name for name in gpsrb.__all__ if not hasattr(gpsrb, name)] == []
    assert len(set(gpsrb.__all__)) == len(gpsrb.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gpsrb import *", namespace)
    assert set(gpsrb.__all__) <= set(namespace)


def test_every_export_has_a_caller():
    words = used_words(CALLERS)
    assert [name for name in gpsrb.__all__ if name not in words] == []


def test_every_public_function_and_method_has_a_caller():
    assert uncalled(public_definitions(sorted(SRC.glob("*.py"))), used_words(CALLERS)) == []


def test_every_allowlist_entry_names_a_public_definition():
    assert set(NO_CALLER) <= set(public_definitions(sorted(SRC.glob("*.py"))))


def test_a_docstring_or_comment_is_no_caller(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""Mentions planted and Planted.method."""\n'
        "class Planted:\n"
        "    def method(self):\n"
        '        """planted"""\n'
        "        return 1  # method\n"
        "def planted():\n"
        "    return Planted\n"
        "def caller():\n"
        '    return getattr(planted(), "used")\n'
    )
    flagged = uncalled(public_definitions([module]), used_words([module]), allowed={})
    assert flagged == ["Planted.method", "caller"]


def test_cli_dispatches_on_no_monoid_class():
    # each monoid answers for itself: its flags, check_elem, windows, from_mask
    text = (ROOT / "src" / "gpsrb" / "cli.py").read_text()
    calls = re.findall(r"isinstance\([^)]*\)", text)
    assert [c for c in calls if re.search(r"\b(FiniteTable|IntLine|IntVector)\b", c)] == []


def test_only_scalars_imports_fractions():
    # one coefficient representation: Q values are Fractions only where
    # scalars.py makes them at the API boundary
    importers = []
    for path in sorted((ROOT / "src" / "gpsrb").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                importers.append(path.name)
    assert importers == ["scalars.py"]
