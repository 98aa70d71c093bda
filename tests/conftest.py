"""Shared strategies, fixtures, and independent oracles for the test suite.

The convolution oracle here deliberately computes coefficients the slow way
(filter all support pairs per target exponent) so it shares no code path with
Series multiplication. The pair oracle calls rb_defect once per single-term
pair, with none of the row packing of projectors.nonzero_defect_pairs. The
sweep oracle runs both closure checks and that pairwise scan on every
decomposition, with none of the witness-first shortcuts of
verify_theorem_decomposition. GPS_RB_SEED pins the plain-random
sampling used by the bulk acceptance checks; the default keeps runs
reproducible without the env var set.
"""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from gpsrb import (
    Decomposition,
    DecompositionProjector,
    FiniteTable,
    IntLine,
    IntVector,
    QQ,
    Series,
    ZZ,
    closed_under_addition,
    indicator,
    rb_defect,
)

DEFAULT_SEED = 20260814


@pytest.fixture
def rng():
    return random.Random(int(os.environ.get("GPS_RB_SEED", DEFAULT_SEED)))


def naive_convolve(f: Series, g: Series) -> Series:
    """Independent convolution oracle: per-exponent pair filtering, no accumulation maps."""
    add = f.monoid.add
    sums = {add(u, v) for u in f.support() for v in g.support()}
    terms = {}
    for s in sums:
        total = f.ring.zero()
        for u in f.support():
            for v in g.support():
                if add(u, v) == s:
                    total = total + f.coeff(u) * g.coeff(v)
        terms[s] = f.ring.reduce(total)
    return Series(f.monoid, f.ring, terms)


def pairwise_defect_pairs(P, window, ring):
    """Pair oracle: yield (u, v) for each nonzero single-term defect, one rb_defect call each.

    Pairs come in window order, u outer and v inner.
    """
    elems = list(window)
    ones = [indicator(P.monoid, s, ring) for s in elems]
    for u, eu in zip(elems, ones):
        for v, ev in zip(elems, ones):
            if not rb_defect(P, eu, ev).is_zero():
                yield u, v


def reference_sweep(monoid: FiniteTable, ring=ZZ) -> dict:
    """Sweep oracle: closure of both parts and the pairwise defect scan on all 2^n masks.

    Returns the report fields the witness-first sweep must reproduce, plus
    closed_masks, the number of masks whose two parts are both closed.
    """
    elems = list(monoid.carrier())
    rb_masks, mismatches = [], []
    closed_masks = 0
    for mask in range(1 << monoid.n):
        split = Decomposition.from_mask(monoid, mask)
        structural = bool(closed_under_addition(monoid, split.kept(elems), elems)) and bool(
            closed_under_addition(monoid, split.killed(elems), elems)
        )
        closed_masks += structural
        P = DecompositionProjector(split)
        semantic = next(pairwise_defect_pairs(P, elems, ring), None) is None
        if semantic:
            rb_masks.append(mask)
        if structural != semantic:
            direction = "closed-but-defect" if structural else "defect-free-but-not-closed"
            mismatches.append((mask, direction))
    return {
        "rb_masks": tuple(rb_masks),
        "rb_count": len(rb_masks),
        "mismatches": tuple(mismatches),
        "closed_masks": closed_masks,
    }


def direct_product_table(a: FiniteTable, b: FiniteTable) -> FiniteTable:
    """a x b with componentwise addition and the trivial order; (i, j) has index i * b.n + j."""
    n = a.n * b.n
    add = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            i, j = a.add(x // b.n, y // b.n), b.add(x % b.n, y % b.n)
            add[x][y] = i * b.n + j
    neutral = a.neutral * b.n + b.neutral
    return FiniteTable.from_lists(n, neutral, add, name=f"{a.name}x{b.name}")


def relabel_table(table: FiniteTable, rng: random.Random) -> FiniteTable:
    """The same monoid with its elements renamed by a random permutation."""
    perm = list(range(table.n))
    rng.shuffle(perm)
    add = [[0] * table.n for _ in range(table.n)]
    leq = [[False] * table.n for _ in range(table.n)]
    for i in range(table.n):
        for j in range(table.n):
            add[perm[i]][perm[j]] = perm[table.add(i, j)]
            leq[perm[i]][perm[j]] = table.leq(i, j)
    return FiniteTable.from_lists(table.n, perm[table.neutral], add, leq, name=f"{table.name}~")


# hypothesis strategies

int_scalars = st.integers(min_value=-50, max_value=50).map(ZZ.from_int)

rat_scalars = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)


def int_series(ring=QQ, scalars=None, max_terms=6, exp_lo=-10, exp_hi=10):
    """Series over IntLine with bounded support."""
    if scalars is None:
        scalars = rat_scalars if ring is QQ else int_scalars
    return st.dictionaries(
        st.integers(min_value=exp_lo, max_value=exp_hi), scalars, max_size=max_terms
    ).map(lambda d: Series(IntLine(), ring, d))


def vec2_series(ring=QQ, scalars=None, max_terms=5, box=3):
    if scalars is None:
        scalars = rat_scalars if ring is QQ else int_scalars
    exps = st.tuples(
        st.integers(min_value=-box, max_value=box), st.integers(min_value=-box, max_value=box)
    )
    return st.dictionaries(exps, scalars, max_size=max_terms).map(
        lambda d: Series(IntVector(2), ring, d)
    )


def random_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_int_series(rng: random.Random, max_support=8, exp_lo=-10, exp_hi=10) -> Series:
    """Plain-random counterpart of int_series for the bulk acceptance runs."""
    n = rng.randint(0, max_support)
    terms = {}
    for _ in range(n):
        terms[rng.randint(exp_lo, exp_hi)] = random_rat(rng)
    return Series(IntLine(), QQ, terms)
