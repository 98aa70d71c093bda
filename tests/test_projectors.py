import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsrb import (
    Complement,
    CutoffProjector,
    Decomposition,
    DecompositionProjector,
    IntLine,
    IntVector,
    QQ,
    Series,
    ZZ,
    closed_under_addition,
    commute_check,
    cutoff_violation_pairs,
    cyclic_table,
    indicator,
    indicator_pair_scan,
    int_window,
    is_subsemigroup,
    rb_defect,
    zero_series,
)

from conftest import int_series, rat_scalars

M = IntLine()
NEG = Decomposition(M, lambda s: s < 0, "negatives")
ODDS = Decomposition(M, lambda s: s % 2 == 1, "odds")
EVENS = Decomposition(M, lambda s: s % 2 == 0, "evens")


def e(w, ring=QQ):
    return indicator(M, w, ring)


def test_apply_keeps_and_kills():
    P = DecompositionProjector(NEG)
    f = Series(M, ZZ, {-2: ZZ.one(), 0: ZZ.from_int(3), 5: ZZ.from_int(7)})
    assert P(f) == Series(M, ZZ, {-2: ZZ.one()})
    assert set(P(f).support()) <= set(f.support())
    C = Complement(P)
    assert C(f) == f - P(f)
    assert C(f) == Series(M, ZZ, {0: ZZ.from_int(3), 5: ZZ.from_int(7)})


def test_apply_fixes_kept_indicators():
    P = DecompositionProjector(NEG)
    assert P(e(-3)) == e(-3)
    assert P(e(3)).is_zero()


def test_apply_monoid_mismatch():
    P = DecompositionProjector(NEG)
    f = Series(IntVector(2), ZZ, {(0, 0): ZZ.one()})
    with pytest.raises(TypeError):
        P(f)


def test_defect_odds_indicator_pair():
    P = DecompositionProjector(ODDS)
    d = rb_defect(P, e(1), e(1))
    assert d == e(2)


def test_defect_zero_for_closed_decomposition():
    P = DecompositionProjector(NEG)
    f = e(-2) + e(1)
    g = e(-1) + e(3)
    assert rb_defect(P, f, g).is_zero()


def test_defect_zero_series_input():
    P = DecompositionProjector(ODDS)
    assert rb_defect(P, zero_series(M, QQ), e(1)).is_zero()


def test_closure_checks():
    win = int_window(-10, 10)
    assert is_subsemigroup(NEG, "kept", win).verdict == "pass-on-window"
    odd_kept = is_subsemigroup(ODDS, "kept", win)
    assert odd_kept.verdict == "fail"
    assert odd_kept.witness == {"u": "1", "v": "1", "u+v": "2"}
    t = cyclic_table(3)
    out = closed_under_addition(t, [0], t.carrier())
    assert out.verdict == "pass"
    with pytest.raises(ValueError):
        is_subsemigroup(NEG, "middle", win)


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
    P = CutoffProjector(M, 2)
    assert P.keeps(1) and not P.keeps(2)
    assert P.label() == "below(2)"
    V = IntVector(2)
    Q = CutoffProjector(V, (0, 0))
    # strictly below (0,0) needs both coordinates <=, one strict
    assert Q.keeps((-1, 0)) and not Q.keeps((1, -5))


def test_indicator_pair_scan_conclusive_on_finite():
    t = cyclic_table(2)
    whole = Decomposition.from_mask(t, 0b11)
    assert indicator_pair_scan(whole, t.carrier(), ZZ).verdict == "pass"
    half = Decomposition.from_mask(t, 0b10)  # kept {1}, 1+1=0 escapes
    out = indicator_pair_scan(half, t.carrier(), ZZ)
    assert out.verdict == "fail"


def test_commute_examples():
    P = DecompositionProjector(NEG)
    Q = DecompositionProjector(EVENS)
    f = Series(M, QQ, {-4: QQ.one(), -1: QQ.from_int(2), 0: QQ.from_int(3), 7: QQ.from_int(5)})
    assert commute_check(P, Q, f)
    assert commute_check(P, P, f)
    assert commute_check(P, Complement(P), f)
    with pytest.raises(TypeError):
        commute_check(P, DecompositionProjector(Decomposition(IntVector(2), lambda s: True)), f)


@settings(max_examples=60)
@given(f=int_series(), g=int_series())
def test_projector_linearity(f, g):
    P = DecompositionProjector(NEG)
    assert P(f + g) == P(f) + P(g)


@settings(max_examples=60)
@given(f=int_series(), c=rat_scalars)
def test_projector_scaling_and_idempotence(f, c):
    P = DecompositionProjector(ODDS)
    assert P(f.scale(c)) == P(f).scale(c)
    assert P(P(f)) == P(f)


@settings(max_examples=60)
@given(f=int_series(), g=int_series())
def test_complement_is_id_minus(f, g):
    P = DecompositionProjector(EVENS)
    C = Complement(P)
    assert C(f) == f - P(f)
    assert (P(f) + C(f)) == f


decomp_menu = st.sampled_from(
    [
        NEG,
        ODDS,
        EVENS,
        Decomposition(M, lambda s: not (s < 0), "nonnegatives"),
        Decomposition(M, lambda s: s % 3 == 0, "multiples-of-3"),
        CutoffProjector(M, 2).decomposition(),
        CutoffProjector(M, 0).decomposition(),
    ]
)


@settings(max_examples=50)
@given(split=decomp_menu, f=int_series(max_terms=4), g=int_series(max_terms=4))
def test_defect_bilinearity_basis_reduction(split, f, g):
    P = DecompositionProjector(split)
    total = zero_series(M, QQ)
    for u in f.support():
        for v in g.support():
            term = rb_defect(P, e(u), e(v)).scale(f.coeff(u) * g.coeff(v))
            total = total + term
    assert rb_defect(P, f, g) == total


@settings(max_examples=50)
@given(
    split=decomp_menu,
    u=st.integers(min_value=-8, max_value=8),
    v=st.integers(min_value=-8, max_value=8),
)
def test_closure_forward_direction_on_indicator_pairs(split, u, v):
    # both parts closed around u, v, u+v  =>  defect vanishes on that pair
    member = split.member
    s = u + v
    same_kept = member(u) and member(v) and member(s)
    same_killed = not member(u) and not member(v) and not member(s)
    mixed = member(u) != member(v)
    if same_kept or same_killed or mixed:
        P = DecompositionProjector(split)
        assert rb_defect(P, e(u), e(v)).is_zero()


@settings(max_examples=50)
@given(
    split=decomp_menu,
    u=st.integers(min_value=-8, max_value=8),
    v=st.integers(min_value=-8, max_value=8),
)
def test_violation_witness_defect_value(split, u, v):
    # a kept-closure violation pins the defect at u+v to exactly +1;
    # a killed-closure violation does the same through the complement
    P = DecompositionProjector(split)
    member = split.member
    s = u + v
    if member(u) and member(v) and not member(s):
        d = rb_defect(P, e(u), e(v))
        assert d.coeff(s) == QQ.one()
        assert d == e(s)
    if not member(u) and not member(v) and member(s):
        C = Complement(P)
        d = rb_defect(C, e(u), e(v))
        assert d.coeff(s) == QQ.one()
