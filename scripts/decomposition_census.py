"""Exhaustive census of coefficient-killing projectors on small finite monoids.

For every monoid in the built-in corpus (plus any table files given on the
command line) this enumerates all 2^n exponent decompositions, decides each
one twice (closure of both parts vs. vanishing defect on all single-term
pairs), and prints which decompositions yield the identity. The mismatch
column should read 0 everywhere; anything else means the two criteria
disagreed and the run found a genuine counterexample.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gpsrb import default_corpus, load_table, verify_theorem_decomposition
from gpsrb.oracles import DEFAULT_MAX_SIZE


def mask_to_subset(table, mask):
    elems = [table.elem_repr(i) for i in table.carrier() if mask >> i & 1]
    return "{" + ", ".join(elems) + "}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tables", nargs="*", help="extra monoid table JSON files")
    ap.add_argument(
        "--max-size",
        type=int,
        default=DEFAULT_MAX_SIZE,
        help=f"refuse carriers above this (default {DEFAULT_MAX_SIZE})",
    )
    ap.add_argument("--show-masks", action="store_true", help="list every identity-satisfying kept set")
    args = ap.parse_args()

    monoids = default_corpus() + [load_table(p) for p in args.tables]
    width = max(len(str(m)) for m in monoids)
    print(f"{'monoid':<{width}}  {'n':>2}  {'splits':>6}  {'rb':>4}  {'mismatch':>8}  {'sec':>7}")
    total_mismatches = 0
    for table in monoids:
        rep = verify_theorem_decomposition(table, max_size=args.max_size)
        total_mismatches += len(rep.mismatches)
        print(
            f"{rep.monoid:<{width}}  {rep.size:>2}  {rep.decompositions_total:>6}  "
            f"{rep.rb_count:>4}  {len(rep.mismatches):>8}  {rep.elapsed:>7.3f}"
        )
        if args.show_masks:
            for mask in rep.rb_masks:
                print(f"    kept {mask_to_subset(table, mask)}")
    if total_mismatches:
        print(f"\n{total_mismatches} mismatches: closure and defect criteria disagree somewhere")
        return 1
    print("\nno mismatches: both criteria picked the same decompositions on every monoid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
