"""The Laurent defect is the defect functional with pole_part as P.

pole_part on TruncatedLaurent is the cutoff projector at 0 on (Z, +), so each
of the four defect terms, an exact value, must have as its series over Z the
matching term of the generalized-power-series defect, over Z, Q and Z/7.
"""

import pytest

import gpsrb.series
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsrb import (
    InsufficientPrecision,
    IntLine,
    Projector,
    QQ,
    ZZ,
    Zmod,
    make_laurent,
    pole_part,
    rb_defect,
    tl_rb_defect,
)
from gpsrb.laurent import pole_defect_terms, signed_defect
from gpsrb.projectors import defect_terms

from conftest import rat_scalars

M = IntLine()
Z7 = Zmod(7)
P0 = Projector.cutoff(M, 0)


def exact_laurents(ring):
    scalars = rat_scalars if ring is QQ else st.integers(-20, 20).map(ring.from_int)
    return st.dictionaries(st.integers(-5, 5), scalars, max_size=6).map(lambda d: make_laurent(ring, d))


pairs = st.one_of(*(st.tuples(exact_laurents(ring), exact_laurents(ring)) for ring in (ZZ, QQ, Z7)))


@settings(max_examples=150)
@given(pair=pairs)
def test_laurent_defect_terms_are_the_cutoff_defect_terms(pair):
    f, g = pair
    fs, gs = f.series, g.series
    series_terms = defect_terms(P0, fs, gs)
    # the documented order, spelled out on the series side
    pf, pg = P0(fs), P0(gs)
    assert series_terms == (pf * pg, P0(fs * pg), P0(pf * gs), P0(fs * gs))
    laurent_terms = defect_terms(pole_part, f, g)
    assert all(t.exact for t in laurent_terms)
    assert [t.series for t in laurent_terms] == list(series_terms)
    t1, t2, t3, t4 = series_terms
    l1, l2, l3, l4 = laurent_terms
    d = l1 - l2 - l3 + l4
    assert d.exact and d.series == t1 - t2 - t3 + t4
    assert d == tl_rb_defect(f, g)


def test_generic_path_raises_when_a_tail_cuts_below_zero():
    f = make_laurent(QQ, {-3: QQ.from_int(1)}, trunc=1)
    g = make_laurent(QQ, {-4: QQ.from_int(1)}, trunc=1)
    # f*g is only known below exponent -2, so its pole part is out of reach
    with pytest.raises(InsufficientPrecision):
        tl_rb_defect(f, g)
    with pytest.raises(InsufficientPrecision):
        defect_terms(pole_part, f, g)


def test_rb_defect_takes_a_projector_only():
    f = make_laurent(QQ, {-1: QQ.from_int(1)})
    with pytest.raises(TypeError, match="rb_defect takes a Projector"):
        rb_defect(pole_part, f, f)


def laurents(ring):
    """Exact values and values known below a tail in -3..7, which can starve pole_part."""
    scalars = rat_scalars if ring is QQ else st.integers(-20, 20).map(ring.from_int)
    terms = st.dictionaries(st.integers(-5, 6), scalars, max_size=6)
    tails = st.one_of(st.none(), st.integers(-3, 7))
    return st.tuples(terms, tails).map(
        lambda d: make_laurent(ring, {s: c for s, c in d[0].items() if d[1] is None or s < d[1]}, d[1])
    )


def outcome(fn, *args):
    """The value fn returns, or the type and message of the InsufficientPrecision it raises."""
    try:
        return fn(*args)
    except InsufficientPrecision as exc:
        return InsufficientPrecision, str(exc)


mixed_pairs = st.one_of(*(st.tuples(laurents(ring), laurents(ring)) for ring in (ZZ, QQ, Z7)))


@settings(max_examples=300, deadline=None)
@given(pair=mixed_pairs)
def test_bounded_pole_terms_are_the_projected_whole_products(pair):
    f, g = pair
    want = outcome(defect_terms, pole_part, f, g)
    got = outcome(pole_defect_terms, f, g)
    assert got == want
    if isinstance(want[0], type):
        assert outcome(tl_rb_defect, f, g) == want
        return
    assert all(t.exact for t in got)
    assert [(t.series._terms, t.series._den) for t in got] == [(t.series._terms, t.series._den) for t in want]
    t1, t2, t3, t4 = want
    d, signed = signed_defect(*got), t1 - t2 - t3 + t4
    assert d.exact and (d.series._terms, d.series._den) == (signed.series._terms, signed.series._den)
    assert tl_rb_defect(f, g) == d == signed


def test_bounded_pole_product_raises_on_a_tail_below_zero():
    # the pole parts of f and g are known, but f P(g) only below x^-3, so the
    # first bounded product starves, with pole_part's message
    f = make_laurent(QQ, {-3: QQ.from_int(1), 0: QQ.from_int(1)}, trunc=1)
    g = make_laurent(QQ, {-4: QQ.from_int(1)}, trunc=1)
    message = "pole part needs all coefficients below x^0, input is only known to O(x^-3)"
    for fn in (pole_defect_terms, tl_rb_defect):
        with pytest.raises(InsufficientPrecision) as info:
            fn(f, g)
        assert str(info.value) == message
    assert outcome(defect_terms, pole_part, f, g) == (InsufficientPrecision, message)


def test_bounded_pole_product_checks_precision_before_forming_a_pair(monkeypatch):
    f = make_laurent(ZZ, {-3: 1, 0: 2}, trunc=1)
    g = make_laurent(ZZ, {-4: 1, -1: 5}, trunc=2)

    def refuse(*args):
        raise AssertionError("a pair was formed")

    monkeypatch.setattr(gpsrb.series, "_convolve", refuse)
    with pytest.raises(InsufficientPrecision, match=r"only known to O\(x\^-3\)$"):
        f.mul(g, pole=True)


def test_signed_defect_sums_exact_values_only():
    exact = make_laurent(Z7, {-1: Z7.from_int(3)})
    cut = make_laurent(Z7, {-1: Z7.from_int(3)}, trunc=2)
    assert signed_defect(exact, exact, exact, exact).is_zero()
    for i in range(4):
        terms = [exact] * 4
        terms[i] = cut
        with pytest.raises(ValueError, match="exact values only"):
            signed_defect(*terms)
