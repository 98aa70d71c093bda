"""Sweep cutoff thresholds over a few monoids and print what breaks where.

For each threshold w the projector keeps exactly the terms with exponent
strictly below w. The scan reports, per w, whether the weight -1 identity
survives on the window, and if not, which obstruction pairs witness the
failure. Run with --json for machine-readable output.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gpsrb import (
    IntLine,
    IntVector,
    int_window,
    scan_cutoffs,
    vector_window,
)


def show(monoid, results, as_json, max_witness=3):
    if as_json:
        rows = []
        for w, outcome in results:
            row = {"w": monoid.elem_repr(w)}
            row.update(outcome.to_json())
            rows.append(row)
        print(json.dumps({"monoid": str(monoid), "results": rows}, indent=1))
        return
    print(f"== {monoid} ==")
    for w, outcome in results:
        rep = monoid.elem_repr(w)
        if outcome:
            print(f"  w={rep:>8}  {outcome.verdict}")
            continue
        wit = outcome.witness
        pairs = [f"({u},{v})" for u, v in (wit["drop_in"] + wit["escape"])[:max_witness]]
        tally = f"{len(wit['drop_in'])} drop-in, {len(wit['escape'])} escape"
        print(f"  w={rep:>8}  fail  [{tally}]  e.g. {' '.join(pairs)}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radius", type=int, default=5, help="window half-width (default 5)")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    r = args.radius

    line = IntLine()
    show(line, scan_cutoffs(line, range(-r, r + 1), int_window(-r, r)), args.json)

    # product order on the plane: the threshold rule for total orders no
    # longer applies, even w=(0,0) picks up obstruction pairs
    plane = IntVector(2)
    small = min(r, 3)
    ws = [(0, 0), (1, 1), (0, 1), (-1, -1), (2, 2)]
    window = vector_window(-small, small, 2)
    show(plane, scan_cutoffs(plane, ws, window), args.json)

    lex = IntVector(2, lex=True)
    show(lex, scan_cutoffs(lex, ws, window), args.json)


if __name__ == "__main__":
    main()
