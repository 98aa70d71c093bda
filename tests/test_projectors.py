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
    assert rb_defect(P, Series(M, QQ), e(1)).is_zero()


def test_closure_checks():
    win = int_window(-10, 10)
    neg_kept, neg_killed = closed_under_addition(NEG, win)
    assert neg_kept.verdict == neg_killed.verdict == "pass-on-window"
    odd_kept, odd_killed = closed_under_addition(ODDS, win)
    assert odd_kept.verdict == "fail"
    # the first pair in window order whose sum lies in the window
    assert odd_kept.witness == {"u": "-9", "v": "-1", "u+v": "-10"}
    assert odd_killed.verdict == "pass-on-window"
    t = cyclic_table(3)
    out, _ = closed_under_addition(Projector.from_mask(t, 0b1), t.carrier())  # kept {0}
    assert out.verdict == "pass"


def test_closure_sees_sums_outside_the_window():
    # {6..10} on -10..10: every violating sum of the kept part leaves the
    # window, and the line fails at the first one; the killed part has
    # (1, 5) -> 6 as its first violation with a sum in the window
    win = int_window(-10, 10)
    kept, killed = closed_under_addition(Projector(M, lambda s: 6 <= s <= 10, "6..10"), win)
    assert kept.verdict == killed.verdict == "fail"
    assert kept.witness == {"u": "6", "v": "6", "u+v": "12"}
    assert killed.witness == {"u": "1", "v": "5", "u+v": "6"}


def test_cutoff_violations_on_int_line():
    win = int_window(-5, 5)
    drop, esc = cutoff_violation_pairs(Projector.cutoff(M, -1), win)
    assert (-1, -1) in drop
    drop0, esc0 = cutoff_violation_pairs(Projector.cutoff(M, 0), win)
    assert drop0 == [] and esc0 == []
    drop2, esc2 = cutoff_violation_pairs(Projector.cutoff(M, 2), win)
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
    k = Series(M, QQ, {0: c})
    assert P(k * f) == k * P(f)
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
    total = Series(M, QQ)
    for u in f.support():
        for v in g.support():
            term = Series(M, QQ, {0: f.coeff(u) * g.coeff(v)}) * rb_defect(P, e(u), e(v))
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


@st.composite
def projector_on_a_window(draw):
    """A projector and a window of distinct elements drawn from a small pool.

    Windows are random subsets, so violating sums often leave them: a cutoff
    on Z, N, Z^2:lex or Z^2:product, odds or evens, a mask of the Z/4 or
    min-cap(3) table, or a random kept subset of Z.
    """
    kind = draw(
        st.sampled_from(["Z", "N", "Z^2:lex", "Z^2:product", "odds", "evens", "Z/4", "min-cap(3)", "subset"])
    )
    monoid = {
        "N": IntLine(nonneg=True),
        "Z^2:lex": IntVector(2, lex=True),
        "Z^2:product": IntVector(2),
        "Z/4": cyclic_table(4),
        "min-cap(3)": truncated_addition_table(3),
    }.get(kind, M)
    if kind.startswith("Z^2"):
        pool = vector_window(-2, 2, 2)
    elif kind == "N":
        pool = int_window(0, 10)
    elif kind in ("Z/4", "min-cap(3)"):
        pool = list(monoid.carrier())
    else:
        pool = int_window(-8, 8)
    window = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10, unique=True))
    if kind in ("odds", "evens"):
        P = ODDS if kind == "odds" else EVENS
    elif kind in ("Z/4", "min-cap(3)"):
        P = Projector.from_mask(monoid, draw(st.integers(0, (1 << monoid.n) - 1)))
    elif kind == "subset":
        kept = frozenset(draw(st.lists(st.sampled_from(pool), unique=True)))
        P = Projector(M, kept.__contains__, "subset")
    else:
        P = Projector.cutoff(monoid, draw(st.sampled_from(pool)))
    return P, window


@settings(max_examples=300, deadline=None)
@given(case=projector_on_a_window(), ring=st.sampled_from([ZZ, QQ, Zmod(2), Zmod(3)]))
def test_closure_lines_and_defect_scan_agree_on_any_window(case, ring):
    # the closure lines see every sum of two window elements, as the scan
    # does, so the verdicts agree; a failing line's witness is a violating
    # pair of its own side, with its sum in the window when one such pair has
    P, window = case
    monoid, keeps, rep = P.monoid, P.keeps, P.monoid.elem_repr
    lines = closed_under_addition(P, window)
    assert bool(indicator_pair_scan(P, window, ring)) == all(lines)
    elem = {rep(s): s for s in window}
    for side, line in zip((True, False), lines):
        violating = [
            (u, v)
            for u in window
            for v in window
            if bool(keeps(u)) == bool(keeps(v)) == side != bool(keeps(monoid.add(u, v)))
        ]
        assert bool(line) == (not violating)
        if line:
            continue
        u, v = elem[line.witness["u"]], elem[line.witness["v"]]
        assert (u, v) in violating and line.witness["u+v"] == rep(monoid.add(u, v))
        if any(monoid.add(*p) in window for p in violating):
            assert monoid.add(u, v) in window
