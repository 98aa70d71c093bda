"""The Laurent defect is the generic defect functional with pole_part as P.

pole_part on TruncatedLaurent is the cutoff projector at 0 on (Z, +), so each
of the four defect terms, an exact value, must have as its series over Z the
matching term of the generalized-power-series defect, over Z, Q and Z/7.
"""

import pytest
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
    d = rb_defect(pole_part, f, g)
    assert d.exact and d.series == t1 - t2 - t3 + t4
    assert rb_defect(pole_part, f, g) == tl_rb_defect(f, g)


def test_generic_path_raises_when_a_tail_cuts_below_zero():
    f = make_laurent(QQ, {-3: QQ.one()}, trunc=1)
    g = make_laurent(QQ, {-4: QQ.one()}, trunc=1)
    # f*g is only known below exponent -2, so its pole part is out of reach
    with pytest.raises(InsufficientPrecision):
        rb_defect(pole_part, f, g)
    with pytest.raises(InsufficientPrecision):
        defect_terms(pole_part, f, g)
