"""rb_defect on a Projector, two projected products, against the four values of defect_terms.

On a Projector, rb_defect splits the stored numerators of each operand into
kept and killed terms and forms Q(Pf Pg) + P(Qf Qg), Q = 1 - P: at most two
products over one denominator, with disjoint supports. defect_terms builds
the four terms of the identity as Series values, through P(.), * and the
projections of whole products, and is the oracle here: the signed sum
t1 - t2 - t3 + t4 of its terms must store the same numerators over the same
denominator, on every monoid, ring and kind of projector, and every refusal
must be the one the P(f)-first path makes. A cutoff on Z, N or Z^d:lex
carries its bound and multiplies only the pairs of Pf Pg that reach it and
the pairs of Qf Qg that land below it; it must store what a projector with
the same keeps and no bound stores.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

import gpsrb.projectors
import gpsrb.series
from gpsrb import (
    IntLine,
    IntVector,
    MonoidMismatch,
    Projector,
    QQ,
    RingMismatch,
    Series,
    ZZ,
    Zmod,
    default_corpus,
    int_window,
    rb_defect,
    vector_window,
)
from gpsrb.cli import parse_decomposition
from gpsrb.projectors import defect_terms
from gpsrb.series import PACK_MIN_TERMS

from conftest import rat_scalars

M = IntLine()
NAT = IntLine(nonneg=True)
PROD = IntVector(2)
LEX = IntVector(2, lex=True)
LEX3 = IntVector(3, lex=True)
Z7 = Zmod(7)
RINGS = (ZZ, QQ, Z7)


def signed_sum(P, f, g) -> Series:
    t1, t2, t3, t4 = defect_terms(P, f, g)
    return t1 - t2 - t3 + t4


def assert_matches_oracle(P, f, g) -> Series:
    d, want = rb_defect(P, f, g), signed_sum(P, f, g)
    assert (d._terms, d._den) == (want._terms, want._den)
    return d


def with_complements(projectors: list) -> list:
    return projectors + [P.complement() for P in projectors]


# (monoid, window the operands draw their exponents from, projectors); a
# finite table draws a mask instead
INFINITE_CASES = [
    (M, list(int_window(-6, 6)), with_complements([
        Projector.cutoff(M, 0),
        Projector.cutoff(M, 3),
        parse_decomposition(M, "evens"),
        parse_decomposition(M, "odds"),
        Projector(M, lambda s: s % 3 == 0, "multiples-of-3"),
    ])),
    (NAT, list(int_window(0, 8)), with_complements([
        Projector.cutoff(NAT, 3),
        parse_decomposition(NAT, "odds"),
        Projector(NAT, lambda s: s in (1, 4, 5), "custom"),
    ])),
    (PROD, list(vector_window(-2, 2, 2)), with_complements([
        Projector.cutoff(PROD, (0, 0)),
        Projector.cutoff(PROD, (1, -1)),
        Projector(PROD, lambda s: s[0] >= s[1], "custom"),
    ])),
    (LEX, list(vector_window(-2, 2, 2)), with_complements([
        Projector.cutoff(LEX, (0, 1)),
        Projector(LEX, lambda s: (s[0] + s[1]) % 2 == 0, "custom"),
    ])),
]
TABLES = default_corpus()


def scalars(ring):
    if ring is QQ:
        return rat_scalars
    return st.integers(-30, 30).map(ring.from_int)


@st.composite
def defect_cases(draw):
    if draw(st.booleans()):
        monoid, elems, projectors = draw(st.sampled_from(INFINITE_CASES))
        P = draw(st.sampled_from(projectors))
    else:
        monoid = draw(st.sampled_from(TABLES))
        elems = list(monoid.carrier())
        P = Projector.from_mask(monoid, draw(st.integers(0, (1 << monoid.n) - 1)))
        if draw(st.booleans()):
            P = P.complement()
    ring = draw(st.sampled_from(RINGS))
    series = st.dictionaries(st.sampled_from(elems), scalars(ring), max_size=6)
    f, g = (Series(monoid, ring, draw(series)) for _ in range(2))
    return P, f, g


@settings(max_examples=400, deadline=None)
@given(case=defect_cases())
def test_projector_defect_is_the_signed_sum_of_defect_terms(case):
    assert_matches_oracle(*case)


def test_corpus_single_term_pairs_on_every_mask():
    for table in TABLES:
        ones = [Series(table, ZZ, {s: 1}) for s in table.carrier()]
        for mask in range(1 << table.n):
            P = Projector.from_mask(table, mask)
            for eu in ones:
                for ev in ones:
                    assert_matches_oracle(P, eu, ev)


def test_projection_that_lowers_the_denominator():
    # P(f) = 1/2 e^1 is stored over 2, f over 6: the kernel works over
    # f._den * g._den and must still land on lowest terms
    P = Projector(M, lambda s: s == 1, "only-1")
    f = Series(M, QQ, {1: Fraction(1, 2), 2: Fraction(1, 3)})
    assert (f._den, P(f)._den) == (6, 2)
    nonzero = 0
    for g in (f, Series(M, QQ, {0: Fraction(3, 5), 1: Fraction(1, 4)}), Series(M, QQ, {-1: Fraction(2, 3)})):
        for Q in (P, P.complement()):
            nonzero += not assert_matches_oracle(Q, f, g).is_zero()
            nonzero += not assert_matches_oracle(Q, g, f).is_zero()
    assert nonzero > 0


@pytest.mark.parametrize("ring", [ZZ, Z7])
def test_dense_operands_take_the_packed_product(monkeypatch, ring):
    calls = []
    real = gpsrb.series._packed
    monkeypatch.setattr(gpsrb.series, "_packed", lambda *a: calls.append(a) or real(*a))
    n = 2 * PACK_MIN_TERMS
    f = Series(M, ring, {k: ring.from_int(k % 5 - 2 or 7) for k in range(n)})
    g = Series(M, ring, {k: ring.from_int(3 - k % 4 or 5) for k in range(-3, n - 3)})
    for spec in ("evens", "odds", "below(9)"):
        P = parse_decomposition(M, spec)
        assert not assert_matches_oracle(P, f, g).is_zero()
    assert calls


def kinds(P, f, g):
    """The exception class and message of rb_defect and of the P(f)-first signed sum."""
    out = []
    for fn in (rb_defect, signed_sum):
        with pytest.raises(TypeError) as info:
            fn(P, f, g)
        out.append((type(info.value), str(info.value)))
    return out


def test_refusals_match_the_signed_sum_path():
    P = Projector.cutoff(M, 0)
    on_m, on_nat, on_prod = Series(M, ZZ, {1: 1}), Series(NAT, ZZ, {1: 1}), Series(PROD, ZZ, {(0, 1): 1})
    # f off P's monoid is reported first, as a plain TypeError naming f's monoid
    for f, g in ((on_prod, on_m), (on_prod, on_nat), (on_nat, on_prod)):
        new, old = kinds(P, f, g)
        assert new == old and new[0] is TypeError and str(f.monoid) in new[1]
    # f on P's monoid, g not: g is reported, a monoid mismatch between them
    new, old = kinds(P, on_m, on_prod)
    assert new == old and new[0] is TypeError and str(PROD) in new[1]
    assert not issubclass(new[0], MonoidMismatch)
    # one monoid, two rings
    new, old = kinds(P, on_m, Series(M, QQ, {1: Fraction(1, 2)}))
    assert new == old and new[0] is RingMismatch


@settings(max_examples=300, deadline=None)
@given(case=defect_cases())
def test_defect_terms_sit_where_one_side_is_not_closed(case):
    # D = Q(Pf Pg) + P(Qf Qg): a term at s needs kept u, v with s killed,
    # or killed u, v with s kept
    P, f, g = case
    add, keeps = P.monoid.add, P.keeps
    allowed = {
        add(u, v)
        for u in f._terms
        for v in g._terms
        if keeps(u) == keeps(v) != keeps(add(u, v))
    }
    assert set(rb_defect(P, f, g)._terms) <= allowed


def test_at_most_two_products_and_none_across_the_sides(monkeypatch):
    # every _convolve call is recorded with its result; operands over Z with
    # positive coefficients never cancel, so a call forms a product (at
    # least one pair) exactly when its result is not empty
    calls = []
    real = gpsrb.projectors._convolve
    monkeypatch.setattr(gpsrb.projectors, "_convolve", lambda *a, **k: calls.append(real(*a, **k)) or calls[-1])
    table = TABLES[4]
    cutoffs = (Projector.cutoff(M, 0), Projector.cutoff(M, 2))
    for P in (*cutoffs, parse_decomposition(M, "odds"), Projector.from_mask(table, 0b10110)):
        for Q in (P, P.complement()):
            window = list(table.carrier()) if Q.monoid is table else list(int_window(-4, 4))
            keeps, add = Q.keeps, Q.monoid.add
            kept, killed = [s for s in window if keeps(s)], [s for s in window if not keeps(s)]
            one = lambda s: Series(Q.monoid, ZZ, {s: 1})
            # one term on each side: neither Pf Pg nor Qf Qg has two factors
            for u, v in ((kept[0], killed[0]), (killed[-1], kept[-1])):
                calls.clear()
                assert_matches_oracle(Q, one(u), one(v))
                assert calls == []
            # a single-term pair on one side asks for its one product; a
            # bounded cutoff forms it only when the sum crosses the bound
            for u, v in ((kept[0], kept[-1]), (killed[0], killed[-1])):
                calls.clear()
                assert_matches_oracle(Q, one(u), one(v))
                assert len(calls) == 1
                assert bool(calls[0]) == (Q.bound is None or keeps(add(u, v)) != keeps(u))
            # operands on both sides ask for both, and no more; a bounded
            # cutoff forms one on each side whose pairs can cross
            both = Series(Q.monoid, ZZ, {s: i + 1 for i, s in enumerate(window)})
            crossing = {keeps(u) for u in window for v in window if keeps(u) == keeps(v) != keeps(add(u, v))}
            calls.clear()
            assert_matches_oracle(Q, both, both)
            assert len(calls) == 2
            assert sum(map(bool, calls)) == (2 if Q.bound is None else len(crossing))


def test_projector_defect_makes_no_series_values(monkeypatch):
    P, Q = parse_decomposition(M, "odds"), Projector.from_mask(TABLES[4], 0b10110)
    cases = [
        (P, Series(M, QQ, {1: Fraction(1, 2), 2: Fraction(1, 3)}), Series(M, QQ, {1: Fraction(3, 4), -2: Fraction(1, 5)})),
        (P.complement(), Series(M, Z7, {1: 3, 4: 6}), Series(M, Z7, {3: 5})),
        (Q, Series(Q.monoid, ZZ, {1: 2, 3: -1}), Series(Q.monoid, ZZ, {2: 1, 4: 3})),
    ]
    want = [signed_sum(*case) for case in cases]
    assert any(not d.is_zero() for d in want)

    def refuse(*args):
        raise AssertionError("rb_defect on a Projector built a Series value")

    for name in ("__mul__", "__add__", "__sub__", "mul"):
        monkeypatch.setattr(Series, name, refuse)
    monkeypatch.setattr(Projector, "__call__", refuse)
    assert [rb_defect(*case) for case in cases] == want


def unbounded(P: Projector) -> Projector:
    """P with the same keeps and no bound: rb_defect takes the keeps path."""
    return Projector(P.monoid, P.keeps, P.label)


BOUNDED = [Projector.cutoff(M, w) for w in (-3, 0, 2, 5)] + [Projector.cutoff(NAT, w) for w in (0, 1, 4)]
BOUNDED += [Projector.cutoff(LEX, w) for w in ((0, 0), (0, 1), (1, -2), (-1, 3))]
BOUNDED += [Projector.cutoff(LEX3, w) for w in ((0, 0, 0), (0, 0, 1), (0, 1, -5), (1, -1, 2))]
BOUNDED += [parse_decomposition(monoid, "negatives") for monoid in (M, NAT, LEX, LEX3)]


def exponents(P: Projector):
    """Exponents for operands of P: on Z^d:lex, boxes around 0, w // 2 and w, so
    that an operand straddles w and the sums of its pairs land on both sides."""
    w = P.bound
    if not isinstance(w, tuple):
        return st.integers(0 if P.monoid.nonneg else -8, 10)
    centres = [(0,) * len(w), tuple(c // 2 for c in w), w]
    return st.sampled_from(centres).flatmap(lambda c: st.tuples(*[st.integers(x - 2, x + 2) for x in c]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bounded_cutoff_defect_is_the_keeps_path(data):
    P = data.draw(st.sampled_from(BOUNDED))
    ring = data.draw(st.sampled_from(RINGS))
    terms = st.dictionaries(exponents(P), scalars(ring), max_size=7)
    f, g = (Series(P.monoid, ring, data.draw(terms)) for _ in range(2))
    d, want = rb_defect(P, f, g), rb_defect(unbounded(P), f, g)
    assert (d._terms, d._den) == (want._terms, want._den)
    assert d == signed_sum(P, f, g)


@pytest.mark.parametrize("P", [P for P in BOUNDED if isinstance(P.bound, tuple)], ids=lambda P: f"{P.monoid}-{P.label}")
def test_lex_operands_that_straddle_the_bound(P):
    # every term of boxes around w // 2 and w: kept and killed terms in both
    # operands, and pairs of each side on both sides of w
    w, r = P.bound, 2 if P.monoid.dim == 2 else 1
    box = vector_window(-r, r, P.monoid.dim)
    elems = {tuple(map(sum, zip(c, d))) for c in (tuple(x // 2 for x in w), w) for d in box}
    f = Series(P.monoid, ZZ, {s: i % 5 - 2 or 3 for i, s in enumerate(sorted(elems))})
    g = Series(P.monoid, ZZ, {s: 1 + i % 3 for i, s in enumerate(sorted(elems, reverse=True))})
    assert any(map(P.keeps, f.support())) and not all(map(P.keeps, f.support()))
    d = assert_matches_oracle(P, f, g)
    want = rb_defect(unbounded(P), f, g)
    assert (d._terms, d._den) == (want._terms, want._den)
    # the cutoffs at 0 and at e = (0, ..., 0, 1) satisfy the identity
    assert d.is_zero() == (w in (P.monoid.zero(), (0,) * (P.monoid.dim - 1) + (1,)))


@pytest.mark.parametrize("ring", [ZZ, Z7])
def test_dense_bounded_cutoff_takes_the_packed_product_below_its_bound(monkeypatch, ring):
    bounds = []
    real = gpsrb.series._packed
    monkeypatch.setattr(gpsrb.series, "_packed", lambda *a: bounds.append(a[3]) or real(*a))
    n = 3 * PACK_MIN_TERMS
    f = Series(M, ring, {k: ring.from_int(k % 5 - 2 or 7) for k in range(-n, n)})
    g = Series(M, ring, {k: ring.from_int(3 - k % 4 or 5) for k in range(-n, n)})
    # a threshold below 0: from 0 up, two killed exponents never sum below
    # it, so Qf Qg trims to nothing and no product is bounded
    w = -2 * PACK_MIN_TERMS
    P = Projector.cutoff(M, w)
    d = rb_defect(P, f, g)
    assert not d.is_zero()
    assert w in bounds
    want = rb_defect(unbounded(P), f, g)
    assert (d._terms, d._den) == (want._terms, want._den) == (signed_sum(P, f, g)._terms, 1)


@pytest.mark.parametrize("ring", [ZZ, Z7])
def test_dense_bounded_cutoff_packs_pf_pg_from_its_bound(monkeypatch, ring):
    bounds = []
    real = gpsrb.series._packed
    monkeypatch.setattr(gpsrb.series, "_packed", lambda *a: bounds.append(a[3:]) or real(*a))
    n = 3 * PACK_MIN_TERMS
    f = Series(M, ring, {k: ring.from_int(k % 5 - 2 or 7) for k in range(-n, n)})
    g = Series(M, ring, {k: ring.from_int(3 - k % 4 or 5) for k in range(-n, n)})
    # a threshold above 0: the kept terms from 1 up reach it in pairs, and
    # enough of them to pack Pf Pg, decoded from the bound up
    w = 2 * PACK_MIN_TERMS
    P = Projector.cutoff(M, w)
    d = rb_defect(P, f, g)
    assert not d.is_zero()
    assert [(below, at_least) for below, _, at_least in bounds] == [(None, w)]
    want = rb_defect(unbounded(P), f, g)
    assert (d._terms, d._den) == (want._terms, want._den) == (signed_sum(P, f, g)._terms, 1)


def test_only_cutoffs_on_total_orders_carry_a_bound():
    for P in BOUNDED:
        window = P.monoid.window(-12, 12) if P.monoid.int_exponents else P.monoid.window(-3, 3)
        assert P.bound is not None
        assert [P.keeps(s) for s in window] == [P.monoid.lt(s, P.bound) for s in window]
        assert P.complement().bound is None
    others = [parse_decomposition(X, spec) for X in (M, NAT, PROD, LEX) for spec in ("nonnegatives", "positives")]
    others += [Projector.cutoff(PROD, (0, 0)), Projector.cutoff(IntVector(1), (0,)), parse_decomposition(PROD, "negatives")]
    others += [parse_decomposition(M, "odds"), Projector.from_mask(TABLES[4], 0b101)]
    assert [P.label for P in others if P.bound is not None] == []


def test_a_bound_that_is_not_the_cutoffs_own_is_refused():
    P = Projector.cutoff(M, 3)
    assert replace(P, label="negatives").bound == 3
    w = (0, 1)
    assert Projector(LEX, w.__gt__, "below((0,1))", w).bound == w
    refused = [
        lambda: Projector(M, lambda s: s % 2 == 0, "evens", 3),
        lambda: Projector(M, (3).__gt__, "below(3)", 4),
        lambda: replace(P, keeps=lambda s: s < 3),
        lambda: replace(P, bound=2),
        lambda: Projector(M, True.__gt__, "below(True)", True),
        lambda: Projector(M, (2.5).__gt__, "below(2.5)", 2.5),
        lambda: Projector(LEX, (0, 0, 0).__gt__, "below((0, 0, 0))", (0, 0, 0)),
        lambda: Projector(LEX, (0, 1).__gt__, "below((0, 1))", (0, 2)),
        lambda: Projector(LEX3, lambda s: s < (0, 0, 1), "below((0, 0, 1))", (0, 0, 1)),
        # the threshold's own keeps, on a carrier whose order is not total
        # or not the elements' <: the product order and a table
        lambda: Projector(PROD, (0, 0).__gt__, "below((0, 0))", (0, 0)),
        lambda: Projector(IntVector(3), (0, 0, 1).__gt__, "below((0,0,1))", (0, 0, 1)),
        lambda: Projector(TABLES[4], (1).__gt__, "below(1)", 1),
        # equal in value, but not the threshold's own __gt__: another
        # comparison, or the method of an equal value of another type
        lambda: Projector(M, (3).__lt__, "below(3)", 3),
        lambda: Projector(M, (3.0).__gt__, "below(3)", 3),
        lambda: Projector(LEX, [0, 1].__gt__, "below((0,1))", (0, 1)),
    ]
    for build in refused:
        with pytest.raises(ValueError, match="is not the threshold of a cutoff"):
            build()


def test_a_bound_equal_to_the_keeps_threshold_but_held_apart_is_accepted():
    # a method-wrapper compares its object by identity, so these two pairs
    # were refused while the bound was checked by keeps == bound.__gt__
    big, big_again = 10**6, int("1000000")
    assert big is not big_again
    P = Projector(M, big.__gt__, "below(1000000)", big_again)
    assert P.bound == big and P.keeps(999_999) and not P.keeps(big)
    w, w_again = (0, big), (0, big_again)
    assert w is not w_again
    Q = Projector(LEX, w.__gt__, "below((0,1000000))", w_again)
    assert Q.bound == w and Q.keeps((0, 999_999)) and not Q.keeps(w)
