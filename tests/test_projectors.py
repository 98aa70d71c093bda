from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsrb import (
    IntLine,
    IntVector,
    Projector,
    QQ,
    Series,
    ZZ,
    Zmod,
    closed_under_addition,
    cutoff_violation_pairs,
    cyclic_table,
    indicator,
    indicator_pair_scan,
    int_window,
    rb_defect,
    truncated_addition_table,
    vector_window,
    zero_series,
)

from conftest import int_series, max_chain_table, rat_scalars

M = IntLine()
NEG = Projector(M, lambda s: s < 0, "negatives")
ODDS = Projector(M, lambda s: s % 2 == 1, "odds")
EVENS = Projector(M, lambda s: s % 2 == 0, "evens")


def e(w, ring=QQ):
    return indicator(M, w, ring)


def test_apply_keeps_and_kills():
    P = NEG
    f = Series(M, ZZ, {-2: ZZ.from_int(1), 0: ZZ.from_int(3), 5: ZZ.from_int(7)})
    assert P(f) == Series(M, ZZ, {-2: ZZ.from_int(1)})
    assert set(P(f).support()) <= set(f.support())
    C = P.complement()
    assert C(f) == f - P(f)
    assert C(f) == Series(M, ZZ, {0: ZZ.from_int(3), 5: ZZ.from_int(7)})


def test_apply_fixes_kept_indicators():
    P = NEG
    assert P(e(-3)) == e(-3)
    assert P(e(3)).is_zero()


def test_apply_monoid_mismatch():
    P = NEG
    f = Series(IntVector(2), ZZ, {(0, 0): ZZ.from_int(1)})
    with pytest.raises(TypeError):
        P(f)


def test_defect_odds_indicator_pair():
    P = ODDS
    d = rb_defect(P, e(1), e(1))
    assert d == e(2)


def test_defect_zero_for_closed_decomposition():
    P = NEG
    f = e(-2) + e(1)
    g = e(-1) + e(3)
    assert rb_defect(P, f, g).is_zero()


def test_defect_zero_series_input():
    P = ODDS
    assert rb_defect(P, zero_series(M, QQ), e(1)).is_zero()


def test_closure_checks():
    win = int_window(-10, 10)
    assert closed_under_addition(M, NEG.kept(win), win).verdict == "pass-on-window"
    odd_kept = closed_under_addition(M, ODDS.kept(win), win)
    assert odd_kept.verdict == "fail"
    assert odd_kept.witness == {"u": "1", "v": "1", "u+v": "2"}
    t = cyclic_table(3)
    out = closed_under_addition(t, [0], t.carrier())
    assert out.verdict == "pass"


def test_closure_only_observable_inside_window():
    # {5..10} escapes the window when summed; nothing observable fails
    win = int_window(-10, 10)
    out = closed_under_addition(M, range(6, 11), win)
    assert out.verdict == "pass-on-window"


def test_cutoff_violations_on_int_line():
    win = int_window(-5, 5)
    drop, esc = cutoff_violation_pairs(M, -1, win)
    assert (-1, -1) in drop
    drop0, esc0 = cutoff_violation_pairs(M, 0, win)
    assert drop0 == [] and esc0 == []
    drop2, esc2 = cutoff_violation_pairs(M, 2, win)
    assert (1, 1) in esc2 and drop2 == []


def test_cutoff_projector_label_and_keeps():
    P = Projector.cutoff(M, 2)
    assert P.keeps(1) and not P.keeps(2)
    assert P.label == "below(2)"
    V = IntVector(2)
    Q = Projector.cutoff(V, (0, 0))
    # strictly below (0,0) needs both coordinates <=, one strict
    assert Q.keeps((-1, 0)) and not Q.keeps((1, -5))


def test_indicator_pair_scan_conclusive_on_finite():
    t = cyclic_table(2)
    whole = Projector.from_mask(t, 0b11)
    assert indicator_pair_scan(whole, t.carrier(), ZZ).verdict == "pass"
    half = Projector.from_mask(t, 0b10)  # kept {1}, 1+1=0 escapes
    out = indicator_pair_scan(half, t.carrier(), ZZ)
    assert out.verdict == "fail"


def test_commute_examples():
    P = NEG
    Q = EVENS
    f = Series(M, QQ, {-4: QQ.from_int(1), -1: QQ.from_int(2), 0: QQ.from_int(3), 7: QQ.from_int(5)})
    assert P(Q(f)) == Q(P(f))
    assert P(P(f)) == P(f)
    assert P(P.complement()(f)) == P.complement()(P(f))


@settings(max_examples=60)
@given(f=int_series(), g=int_series())
def test_projector_linearity(f, g):
    P = NEG
    assert P(f + g) == P(f) + P(g)


@settings(max_examples=60)
@given(f=int_series(), c=rat_scalars)
def test_projector_scaling_and_idempotence(f, c):
    P = ODDS
    assert P(f.scale(c)) == P(f).scale(c)
    assert P(P(f)) == P(f)


@settings(max_examples=60)
@given(f=int_series(), g=int_series())
def test_complement_is_id_minus(f, g):
    P = EVENS
    C = P.complement()
    assert C(f) == f - P(f)
    assert (P(f) + C(f)) == f


decomp_menu = st.sampled_from(
    [
        NEG,
        ODDS,
        EVENS,
        Projector(M, lambda s: not (s < 0), "nonnegatives"),
        Projector(M, lambda s: s % 3 == 0, "multiples-of-3"),
        Projector.cutoff(M, 2),
        Projector.cutoff(M, 0),
    ]
)


@settings(max_examples=50)
@given(P=decomp_menu, f=int_series(max_terms=4), g=int_series(max_terms=4))
def test_defect_bilinearity_basis_reduction(P, f, g):
    total = zero_series(M, QQ)
    for u in f.support():
        for v in g.support():
            term = rb_defect(P, e(u), e(v)).scale(f.coeff(u) * g.coeff(v))
            total = total + term
    assert rb_defect(P, f, g) == total


@settings(max_examples=50)
@given(
    P=decomp_menu,
    u=st.integers(min_value=-8, max_value=8),
    v=st.integers(min_value=-8, max_value=8),
)
def test_closure_forward_direction_on_indicator_pairs(P, u, v):
    # both parts closed around u, v, u+v  =>  defect vanishes on that pair
    member = P.keeps
    s = u + v
    same_kept = member(u) and member(v) and member(s)
    same_killed = not member(u) and not member(v) and not member(s)
    mixed = member(u) != member(v)
    if same_kept or same_killed or mixed:
        assert rb_defect(P, e(u), e(v)).is_zero()


@settings(max_examples=50)
@given(
    P=decomp_menu,
    u=st.integers(min_value=-8, max_value=8),
    v=st.integers(min_value=-8, max_value=8),
)
def test_violation_witness_defect_value(P, u, v):
    # a kept-closure violation pins the defect at u+v to exactly +1;
    # a killed-closure violation does the same through the complement
    member = P.keeps
    s = u + v
    if member(u) and member(v) and not member(s):
        d = rb_defect(P, e(u), e(v))
        assert d.coeff(s) == QQ.from_int(1)
        assert d == e(s)
    if not member(u) and not member(v) and member(s):
        C = P.complement()
        d = rb_defect(C, e(u), e(v))
        assert d.coeff(s) == QQ.from_int(1)


def test_complement_has_the_same_defect(rng):
    # weight -1: D_{id-P}(f, g) = D_P(f, g) for all f, g, by expanding
    # (f - Pf)(g - Pg) and the three other terms (Guo, An Introduction to
    # Rota-Baxter Algebra, 2012: -lambda id - P is Rota-Baxter with P)
    nat, prod, lex = IntLine(nonneg=True), IntVector(2), IntVector(2, lex=True)
    z5, cap4, max5 = cyclic_table(5), truncated_addition_table(4), max_chain_table(5)
    cases = [
        (M, int_window(-4, 4), [NEG, ODDS, Projector.cutoff(M, 2)]),
        (nat, int_window(0, 6), [Projector.cutoff(nat, 3), Projector(nat, lambda s: s % 3 == 0)]),
        (prod, vector_window(-2, 2, 2), [Projector.cutoff(prod, (0, 0)), Projector.cutoff(prod, (1, -1))]),
        (lex, vector_window(-2, 2, 2), [Projector.cutoff(lex, (0, 1))]),
        (z5, z5.carrier(), [Projector.from_mask(z5, 0b10110)]),
        (cap4, cap4.carrier(), [Projector.from_mask(cap4, m) for m in (0b00011, 0b11010)]),
        (max5, max5.carrier(), [Projector.from_mask(max5, 0b01101)]),
    ]

    def random_series(monoid, elems, ring):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            c = rng.randint(-9, 9)
            terms[rng.choice(elems)] = Fraction(c, rng.randint(1, 5)) if ring is QQ else ring.from_int(c)
        return Series(monoid, ring, terms)

    nonzero = 0
    for ring in (ZZ, QQ, Zmod(2), Zmod(7)):
        for monoid, window, projectors in cases:
            elems = list(window)
            for P in projectors:
                for _ in range(8):
                    f, g = random_series(monoid, elems, ring), random_series(monoid, elems, ring)
                    d = rb_defect(P, f, g)
                    assert rb_defect(P.complement(), f, g) == d
                    nonzero += not d.is_zero()
    assert nonzero > 0
