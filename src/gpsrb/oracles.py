"""Brute-force verification of the projector criteria on finite search spaces.

Two independent routes decide whether a decomposition projector satisfies the
weight -1 identity: the structural route (are both parts closed under
addition?) and the semantic route (does the defect vanish on every pair of
single-term series?). On a finite monoid both routes are exhaustive, so
enumerating all 2^n decompositions and diffing the two verdicts checks the
equivalence with no blind spot. The cutoff scans do the same comparison on
windows of infinite monoids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable, Iterator

from .monoids import FiniteTable, OrderedMonoid
from .outcomes import CheckOutcome
from .projectors import Projector, cutoff_violation_pairs, nonzero_defect_pairs, rb_defect
from .scalars import Ring, ZZ
from .series import indicator


class TooLarge(ValueError):
    """Raised when an exhaustive enumeration would exceed the configured limit."""


class RouteDisagreement(RuntimeError):
    """Raised when the structural and semantic routes disagree: a bug, not a counterexample."""


DEFAULT_MAX_SIZE = 12  # the default of theorem-verify --max-size

# single-term pairs the full scans of one sweep may cover: (closed +
# rescanned masks) x n^2, known once the structural route has run and before
# the first scan. max(12), whose 4,096 masks are all closed (589,824 pairs),
# sweeps in 0.16-0.34 s; scans ran at 0.25-0.58 us a pair from max(12) to
# max(16), so a sweep at the budget takes about 0.25-0.6 s, on one core of a
# shared 2-vCPU x86 host with Python 3.11
SCAN_PAIR_BUDGET = 1_000_000


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one exhaustive decomposition sweep over a finite monoid.

    mismatches is empty exactly when the structural and semantic verdicts
    agreed for every decomposition; rb_masks lists the decompositions (as
    kept-part bitmasks, ascending) whose projector satisfies the identity.
    closed_masks counts the decompositions the structural route calls
    closed, and defect_evals the single-term pairs the semantic route
    decided: one per unclosed mask, by the witness defect that one
    rb_defect call computes for every mask with the same witness pair and
    side, and one per pair a scan covered.
    """

    monoid: str
    size: int
    decompositions_total: int
    rb_count: int
    rb_masks: tuple[int, ...]
    mismatches: tuple[tuple[int, str], ...]
    closed_masks: int
    defect_evals: int
    elapsed: float

    def to_json(self) -> dict[str, Any]:
        return {
            "monoid": self.monoid,
            "size": self.size,
            "decompositions_total": self.decompositions_total,
            "rb_count": self.rb_count,
            "rb_masks": list(self.rb_masks),
            "mismatches": [{"mask": m, "direction": d} for m, d in self.mismatches],
            "closed_masks": self.closed_masks,
            "defect_evals": self.defect_evals,
            "elapsed": self.elapsed,
        }


def _keeping(u: int, n: int) -> int:
    """The n-bit masks that keep u, as a bitset: bit `mask` is bit u of mask.

    The pattern is runs of 2^u clear and 2^u set bits, doubled in width
    until it covers all 2^n masks (a closed form by division is quadratic
    in 2^n).
    """
    bits, width = ((1 << (1 << u)) - 1) << (1 << u), 2 << u
    while width < 1 << n:
        bits |= bits << width
        width <<= 1
    return bits


def _members(masks: int) -> Iterator[int]:
    """The set bits of a bitset, ascending, found by str.find on its binary text."""
    text = format(masks, "b")[::-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def verify_theorem_decomposition(
    monoid: FiniteTable, ring: Ring = ZZ, max_size: int = DEFAULT_MAX_SIZE
) -> TheoremReport:
    """Sweep all 2^n kept-part bitmasks, comparing structural and semantic verdicts.

    The structural verdict holds when both the kept part and the killed part
    are closed under addition (the empty part counts as closed). Any
    decomposition where the two verdicts differ lands in mismatches with the
    direction of the disagreement; an empty mismatch list certifies the
    equivalence for this monoid.

    The structural route works on all masks at once. A set of masks is one
    int of 2^n bits, and on[u] is the set of masks that keep u. The pairs
    are walked u outer, v inner; the masks still unsettled whose u and v
    lie on one side while u + v lies on the other have (u, v) as their first
    violating pair, their witness. The masks no pair settles are the closed
    ones. The bitsets take (n + 2) 2^n / 8 bytes.

    The semantic route is witness-first. At a witness (u, v), the defect of
    the single-term pair (e_u, e_v) has coefficient
    (k_u - k_{u+v})(k_v - k_{u+v}) = 1 at e_{u+v}, where k_s is 1 when s is
    kept. P acts term by term, so that defect depends only on (u, v) and
    on whether P keeps u, v and u + v. The masks settled at (u, v) split by
    side into at most two such patterns, and one rb_defect call, at the
    lowest mask of each, decides all masks of that part: at most 2 n^2
    witness calls per sweep. A mask that is closed, or whose witness defect
    is zero, gets the full n^2 semantic scan, in ascending mask order, so a
    disagreement in either direction still shows. TooLarge is raised before
    the first scan when those scans would cover more than SCAN_PAIR_BUDGET
    single-term pairs.
    """
    if not isinstance(monoid, FiniteTable):
        raise TypeError("exhaustive decomposition sweeps need a finite carrier")
    if monoid.n > max_size:
        raise TooLarge(f"n={monoid.n} exceeds the limit {max_size} (2^n decompositions)")
    n = monoid.n
    elems = list(monoid.carrier())
    start = time.perf_counter()
    ones = [indicator(monoid, s, ring) for s in elems]
    on = [_keeping(u, n) for u in elems]
    unsettled = (1 << (1 << n)) - 1
    rescan = 0  # unclosed masks whose witness defect is zero
    defect_evals = 0
    for u, row in enumerate(monoid.add_table):
        on_u = on[u]
        for v, s in enumerate(row):
            hit = unsettled & (on_u ^ on[s]) & ~(on_u ^ on[v])
            if not hit:
                continue
            unsettled ^= hit
            defect_evals += hit.bit_count()
            # the kept side (k_u, k_v, k_{u+v}) = (1, 1, 0), then the killed side
            for part in (hit & on_u, hit & ~on_u):
                if part:
                    P = Projector.from_mask(monoid, (part & -part).bit_length() - 1)
                    if rb_defect(P, ones[u], ones[v]).is_zero():
                        rescan |= part
    closed_count, rescan_count = unsettled.bit_count(), rescan.bit_count()
    scan_pairs = (closed_count + rescan_count) * n * n
    if scan_pairs > SCAN_PAIR_BUDGET:
        raise TooLarge(
            f"{closed_count} closed and {rescan_count} rescanned masks x {n}^2 = {scan_pairs} "
            f"single-term pairs to scan, above the budget of {SCAN_PAIR_BUDGET}"
        )
    rb_masks: list[int] = []
    mismatches: list[tuple[int, str]] = []
    for mask in _members(unsettled | rescan):
        structural = unsettled >> mask & 1
        P = Projector.from_mask(monoid, mask)
        first = next(nonzero_defect_pairs(P, elems, ring), None)
        # elems is 0..n-1, so the scan stopped after pair u * n + v
        defect_evals += n * n if first is None else first[0] * n + first[1] + 1
        semantic = first is None
        if semantic:
            rb_masks.append(mask)
        if structural != semantic:
            direction = "closed-but-defect" if structural else "defect-free-but-not-closed"
            mismatches.append((mask, direction))
    elapsed = time.perf_counter() - start
    return TheoremReport(
        monoid=str(monoid),
        size=n,
        decompositions_total=1 << n,
        rb_count=len(rb_masks),
        rb_masks=tuple(rb_masks),
        mismatches=tuple(mismatches),
        closed_masks=closed_count,
        defect_evals=defect_evals,
        elapsed=elapsed,
    )


def scan_cutoffs(
    monoid: OrderedMonoid, w_set: Iterable, window: Iterable, ring: Ring = ZZ
) -> list[tuple[Any, CheckOutcome]]:
    """Classify each cutoff threshold over the window by its obstruction pairs.

    For every w the obstruction sets are cross-checked pair by pair against
    the defect on single-term series: a pair lands in an obstruction set
    exactly when its defect is nonzero. Disagreement would mean a bug in one
    of the two routes, so it raises RouteDisagreement immediately rather
    than returning a verdict.
    """
    elems = list(window)
    rep = monoid.elem_repr
    results: list[tuple[Any, CheckOutcome]] = []
    for w in w_set:
        P = Projector.cutoff(monoid, w)
        drop_in, escape = cutoff_violation_pairs(P, elems)
        flagged = set(drop_in) | set(escape)
        nonzero = set(nonzero_defect_pairs(P, elems, ring))
        if nonzero != flagged:
            u, v = next(p for p in product(elems, elems) if (p in nonzero) != (p in flagged))
            raise RouteDisagreement(
                f"criteria disagree at w={rep(w)}, pair ({rep(u)}, {rep(v)}): "
                f"defect {'non' if (u, v) in nonzero else ''}zero but "
                f"{'' if (u, v) in flagged else 'not '}in an obstruction set"
            )
        desc = f"w={rep(w)}, {len(elems)} window elements"
        if drop_in or escape:
            witness = {
                "drop_in": [[rep(u), rep(v)] for u, v in drop_in],
                "escape": [[rep(u), rep(v)] for u, v in escape],
            }
            results.append((w, CheckOutcome("fail", witness, desc)))
        else:
            results.append((w, CheckOutcome.clean(monoid, elems, desc)))
    return results


def cyclic_table(n: int) -> FiniteTable:
    """Addition mod n on {0..n-1} with the trivial order."""
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteTable.from_lists(n, 0, add, name=f"Z/{n}")


def truncated_addition_table(m: int) -> FiniteTable:
    """Addition capped at m on {0..m} with the trivial order.

    The natural chain order 0 < 1 < ... < m is not strictly compatible here
    (m-1 < m but both reach m after adding 1), so the trivial order is the
    honest choice.
    """
    n = m + 1
    add = [[min(i + j, m) for j in range(n)] for i in range(n)]
    return FiniteTable.from_lists(n, 0, add, name=f"min-cap({m})")


def idempotent_pair_table() -> FiniteTable:
    """Two elements {0, e} with e + e = e; the smallest non-group monoid."""
    return FiniteTable.from_lists(2, 0, [[0, 1], [1, 1]], name="idempotent-pair")


def default_corpus() -> list[FiniteTable]:
    """The finite monoids every exhaustive test sweeps: groups, capped addition, idempotents."""
    tables = [cyclic_table(n) for n in range(1, 7)]
    tables += [truncated_addition_table(m) for m in range(1, 5)]
    tables.append(idempotent_pair_table())
    return tables
