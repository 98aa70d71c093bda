import re
from pathlib import Path

import gpsrb

ROOT = Path(__file__).resolve().parent.parent

# where a public name earns its place: the package itself, the scripts, the
# benchmark and the acceptance claims; unit tests alone do not count
CALLERS = [
    *(p for p in sorted((ROOT / "src" / "gpsrb").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def test_every_export_resolves():
    assert [name for name in gpsrb.__all__ if not hasattr(gpsrb, name)] == []
    assert len(set(gpsrb.__all__)) == len(gpsrb.__all__)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from gpsrb import *", namespace)
    assert set(gpsrb.__all__) <= set(namespace)


def test_every_export_has_a_caller():
    lines = [line for path in CALLERS for line in path.read_text().splitlines()]

    def used(name: str) -> bool:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(?:def|class)\s+{name}\b")
        return any(word.search(line) and not own.match(line) for line in lines)

    assert [name for name in gpsrb.__all__ if not used(name)] == []


def test_cli_dispatches_on_no_monoid_class():
    # each monoid answers for itself: its flags, check_elem, windows, from_mask
    text = (ROOT / "src" / "gpsrb" / "cli.py").read_text()
    calls = re.findall(r"isinstance\([^)]*\)", text)
    assert [c for c in calls if re.search(r"\b(FiniteTable|IntLine|IntVector)\b", c)] == []
