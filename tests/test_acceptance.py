"""Acceptance gate: ten criteria, one test each, exact arithmetic throughout.

Every equality below is exact (integer or rational); there are no numeric
tolerances anywhere. The three runtime budgets are asserted inside the
criteria they belong to. Random sampling uses the GPS_RB_SEED convention via
the rng fixture, so runs are reproducible by default.
"""

import json
import time

from gpsrb import (
    FiniteTable,
    IntLine,
    IntVector,
    Projector,
    QQ,
    Series,
    ZZ,
    cutoff_violation_pairs,
    cyclic_table,
    default_corpus,
    indicator,
    indicator_pair_scan,
    int_window,
    make_laurent,
    rb_defect,
    tl_rb_defect,
    vector_window,
    verify_theorem_decomposition,
    zero_series,
)
from gpsrb.cli import main

from conftest import random_int_series, random_rat

M = IntLine()


def e(w, ring=QQ):
    return indicator(M, w, ring)


def test_c01_cutoff_classification_on_int_line(capsys):
    """Thresholds -5..5 over window -12..12: identity holds exactly at w in {0, 1}."""
    t0 = time.perf_counter()
    code = main(["cutoff-scan", "--monoid", "Z", "--w-range", "-5..5", "--window", "-12..12", "--json"])
    elapsed = time.perf_counter() - t0
    data = json.loads(capsys.readouterr().out)
    verdicts = {int(r["w"]): r for r in data["results"]}
    assert set(verdicts) == set(range(-5, 6))
    for w, r in verdicts.items():
        if w in (0, 1):
            assert r["verdict"] == "pass-on-window"
        else:
            assert r["verdict"] == "fail"
            assert r["witness"]["drop_in"] or r["witness"]["escape"]
    assert code == 1  # counterexamples were found among the scanned thresholds
    assert elapsed < 1.0, f"budget 1 s exceeded: {elapsed:.2f}s"


def test_c02_decomposition_sweep_corpus_no_mismatches():
    """Both-parts-closed iff defect-free, across all 2^n splits of every corpus monoid."""
    t0 = time.perf_counter()
    reports = [verify_theorem_decomposition(t) for t in default_corpus()]
    elapsed = time.perf_counter() - t0
    assert len(reports) == 11
    for report in reports:
        assert report.decompositions_total == 1 << report.size
        assert report.mismatches == (), report
    assert elapsed < 10.0, f"budget 10 s exceeded: {elapsed:.2f}s"


def test_c03_violation_witness_defect_is_exactly_one():
    """Every closure violation pins the defect coefficient at u+v to exactly 1.

    Kept-part violations are read off the projector itself; killed-part
    violations reproduce through the complement operator, whose kept part is
    the original killed part.
    """
    checked_kept = checked_killed = 0
    for table in default_corpus():
        elems = list(table.carrier())
        one = ZZ.from_int(1)
        for mask in range(1 << table.n):
            P = Projector.from_mask(table, mask)
            kept, killed = set(P.kept(elems)), set(P.killed(elems))
            for u in elems:
                for v in elems:
                    s = table.add(u, v)
                    eu, ev = indicator(table, u, ZZ), indicator(table, v, ZZ)
                    if u in kept and v in kept and s not in kept:
                        d = rb_defect(P, eu, ev)
                        assert d.coeff(s) == one
                        checked_kept += 1
                    if u in killed and v in killed and s not in killed:
                        d = rb_defect(P.complement(), eu, ev)
                        assert d.coeff(s) == one
                        checked_killed += 1
    assert checked_kept > 0 and checked_killed > 0


def test_c04_identity_holds_for_pole_decomposition_bulk(rng):
    """1000 random rational series pairs, kept part {n < 0}: defect identically zero."""
    P = Projector(M, lambda s: s < 0, "negatives")
    t0 = time.perf_counter()
    for _ in range(1000):
        f = random_int_series(rng, max_support=8, exp_lo=-10, exp_hi=10)
        g = random_int_series(rng, max_support=8, exp_lo=-10, exp_hi=10)
        assert rb_defect(P, f, g).is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"budget 5 s exceeded: {elapsed:.2f}s"


def test_c05_defect_bilinearity_double_sum(rng):
    """200 random (P, f, g): defect equals the coefficient-weighted basis double sum."""
    menu = [
        Projector(M, lambda s: s < 0, "negatives"),
        Projector(M, lambda s: s % 2 == 1, "odds"),
        Projector(M, lambda s: s % 2 == 0, "evens"),
        Projector(M, lambda s: not (s < 0), "nonnegatives"),
        Projector.cutoff(M, 2),
        Projector.cutoff(M, 0),
        Projector(M, lambda s: s % 3 == 0, "multiples-of-3"),
    ]
    for _ in range(200):
        P = rng.choice(menu)
        f = random_int_series(rng, max_support=5, exp_lo=-6, exp_hi=6)
        g = random_int_series(rng, max_support=5, exp_lo=-6, exp_hi=6)
        total = zero_series(M, QQ)
        for u in f.support():
            for v in g.support():
                total = total + rb_defect(P, e(u), e(v)).scale(f.coeff(u) * g.coeff(v))
        assert rb_defect(P, f, g) == total


def test_c06_projectors_commute_bulk(rng):
    """P = negatives, Q = evens: P(Q(f)) = Q(P(f)) on 500 random series."""
    P = Projector(M, lambda s: s < 0, "negatives")
    Q = Projector(M, lambda s: s % 2 == 0, "evens")
    for _ in range(500):
        f = random_int_series(rng, max_support=8, exp_lo=-10, exp_hi=10)
        assert P(Q(f)) == Q(P(f))


def test_c07_obstruction_sets_agree_with_defect_scan():
    """Set-emptiness and indicator-pair defect verdicts coincide on every scan.

    Includes the componentwise partial order, whose incomparable elements are
    where a conflation of "not below" with "at least" would break first.
    """
    cases = [
        (IntLine(), int_window(-3, 3), int_window(-6, 6)),
        (IntLine(nonneg=True), int_window(0, 3), int_window(0, 6)),
        (IntVector(2), [(0, 0), (1, 1), (-1, 2)], vector_window(-2, 2, 2)),
        (IntVector(2, lex=True), [(0, 0), (1, -1)], vector_window(-2, 2, 2)),
        (cyclic_table(4), [0, 1, 2, 3], list(range(4))),
    ]
    scanned = 0
    for monoid, w_set, window in cases:
        for w in w_set:
            drop_in, escape = cutoff_violation_pairs(monoid, w, window)
            sets_empty = not drop_in and not escape
            scan = indicator_pair_scan(
                Projector.cutoff(monoid, w), window, ZZ
            )
            assert bool(scan) == sets_empty, (monoid, w)
            scanned += 1
    assert scanned == 20


def test_c08_total_order_drop_in_empty_iff_threshold_nonneg():
    """On the integer and natural lines: no drop-in pairs exactly when w >= 0."""
    for monoid, thresholds, window in (
        (M, int_window(-5, 5), int_window(-8, 8)),
        (IntLine(nonneg=True), int_window(0, 5), int_window(0, 8)),
    ):
        for w in thresholds:
            drop_in, _ = cutoff_violation_pairs(monoid, w, window)
            assert (not drop_in) == (w >= 0), (monoid, w)


def test_c09_truncated_laurent_agrees_with_series_convolution(rng):
    """500 random products match the generic convolution on the validity window;
    the four-term defect of the pole projection is exactly zero."""

    def sample(lo_min, hi_min):
        lo = rng.randint(lo_min, 2)
        hi = rng.randint(max(lo, hi_min), 6)
        coeffs = [random_rat(rng) if rng.random() > 0.25 else QQ.from_int(0) for _ in range(lo, hi)]
        exact = rng.random() < 0.4
        return make_laurent(QQ, zip(range(lo, hi), coeffs), None if exact else hi)

    for _ in range(500):
        f = sample(-5, -5)
        g = sample(-5, -5)
        p = f * g
        fs = Series(M, QQ, dict(f.items()))
        gs = Series(M, QQ, dict(g.items()))
        direct = fs * gs
        for n in range(p.ord, p.trunc):
            assert p.coeff(n) == direct.coeff(n)
        if p.exact:
            assert dict(p.items()) == {s: direct.coeff(s) for s in direct.support()}

    for _ in range(500):
        f = sample(-3, 4)  # poles reach -3, validity extends past 0
        g = sample(-3, 4)
        d = tl_rb_defect(f, g)
        assert d.exact and d.is_zero()


def test_c10_sweep_verdict_independent_of_order_matrix():
    """Z/4 sweep verdicts match under the trivial order and other order matrices.

    No nontrivial strictly compatible order exists on a finite group (each
    strict pair would force an unbounded ascending chain; see the exhaustive
    check in test_oracles), so the alternative matrices here are plain
    partial orders. The sweep consults only the addition table, never the
    order, and the verdict lists must be identical.
    """
    base = cyclic_table(4)
    add = [list(r) for r in base.add_table]
    n = base.n

    def order(arcs):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for i, j in arcs:
            leq[i][j] = True
        return leq

    chain = order([(i, j) for i in range(n) for j in range(n) if i < j])
    bottom = order([(0, j) for j in range(1, n)])
    one_arc = order([(2, 3)])

    reference = verify_theorem_decomposition(base)
    assert reference.mismatches == ()
    for k, leq in enumerate((chain, bottom, one_arc)):
        alt = FiniteTable.from_lists(n, 0, add, leq, name=f"Z/4-order-{k}")
        # each alternative satisfies the order axioms on its own
        for i in range(n):
            assert alt.leq(i, i)
            for j in range(n):
                for m in range(n):
                    if alt.leq(i, j) and alt.leq(j, m):
                        assert alt.leq(i, m)
                if i != j:
                    assert not (alt.leq(i, j) and alt.leq(j, i))
        report = verify_theorem_decomposition(alt)
        assert report.rb_masks == reference.rb_masks
        assert report.mismatches == ()
