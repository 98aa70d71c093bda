"""The shipped tables/*.json are exactly what scripts/make_tables.py writes."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _make_tables():
    path = os.path.join(ROOT, "scripts", "make_tables.py")
    spec = importlib.util.spec_from_file_location("make_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_tables = _make_tables()


def test_every_shipped_table_is_generated():
    shipped = sorted(f for f in os.listdir(os.path.join(ROOT, "tables")) if f.endswith(".json"))
    assert shipped == sorted(make_tables.TABLES)


@pytest.mark.parametrize("fname", sorted(make_tables.TABLES))
def test_shipped_table_matches_generator_byte_for_byte(fname):
    with open(os.path.join(ROOT, "tables", fname), "rb") as fh:
        shipped = fh.read()
    expected = json.dumps(make_tables.table_json(make_tables.TABLES[fname]), indent=1) + "\n"
    assert shipped == expected.encode()
