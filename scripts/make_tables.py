"""Regenerate the JSON monoid tables shipped in tables/.

Run as `python scripts/make_tables.py`. Importing the module builds TABLES
and writes nothing.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gpsrb import cyclic_table, idempotent_pair_table, truncated_addition_table, validate_monoid


def table_json(t):
    return {
        "name": t.name,
        "n": t.n,
        "neutral": t.neutral,
        "add": [list(row) for row in t.add_table],
        "leq": [list(row) for row in t.leq_table],
    }


# file name in tables/ -> the table it holds
TABLES = {
    "z3.json": cyclic_table(3),
    "z4.json": cyclic_table(4),
    "z6.json": cyclic_table(6),
    "trunc4.json": truncated_addition_table(4),
    "idem2.json": idempotent_pair_table(),
}


def main():
    out_dir = os.path.join(os.path.dirname(__file__), "..", "tables")
    os.makedirs(out_dir, exist_ok=True)
    for fname, t in TABLES.items():
        outcome = validate_monoid(t)
        assert outcome.verdict == "pass", (fname, outcome)
        path = os.path.join(out_dir, fname)
        with open(path, "w") as fh:
            json.dump(table_json(t), fh, indent=1)
            fh.write("\n")
        print(f"wrote {path} ({t})")


if __name__ == "__main__":
    main()
