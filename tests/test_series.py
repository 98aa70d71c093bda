from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpsrb import (
    BadElement,
    FiniteTable,
    IntLine,
    IntVector,
    MonoidMismatch,
    QQ,
    Series,
    ZZ,
    Zmod,
    indicator,
)

from gpsrb.cli import _dumps

from conftest import int_series, naive_convolve, rat_scalars, vec2_series

M = IntLine()


def test_normalization_drops_zeros_and_merges():
    f = Series(M, ZZ, [(1, ZZ.from_int(2)), (1, ZZ.from_int(-2)), (3, ZZ.from_int(5)), (4, ZZ.from_int(0))])
    assert f.support() == [3]
    assert f.coeff(1) == ZZ.from_int(0)
    assert f.coeff(3) == ZZ.from_int(5)


def test_element_and_coefficient_checks():
    with pytest.raises(BadElement):
        Series(M, ZZ, {"x": ZZ.from_int(1)})
    with pytest.raises(TypeError):
        Series(M, ZZ, {0: QQ.from_int(1)})
    with pytest.raises(BadElement):
        Series(IntLine(nonneg=True), ZZ, {-1: ZZ.from_int(1)})


def test_convolution_example():
    f = Series(M, ZZ, {-2: ZZ.from_int(1), 1: ZZ.from_int(2)})
    g = Series(M, ZZ, {-1: ZZ.from_int(3), 3: ZZ.from_int(1)})
    p = f * g
    assert p.coeff(-3) == ZZ.from_int(3)
    assert p.coeff(0) == ZZ.from_int(6)
    assert p.coeff(1) == ZZ.from_int(1)
    assert p.coeff(4) == ZZ.from_int(2)
    assert p.support() == [-3, 0, 1, 4]


def test_indicator_is_unit_at_neutral():
    one = indicator(M, M.zero(), QQ)
    f = Series(M, QQ, {-2: QQ.from_int(3), 5: QQ.from_int(7)})
    assert one * f == f
    assert f * one == f
    assert indicator(M, 2, QQ) * indicator(M, 3, QQ) == indicator(M, 5, QQ)


def test_mismatch_errors():
    f = Series(M, ZZ, {0: ZZ.from_int(1)})
    g = Series(IntLine(nonneg=True), ZZ, {0: ZZ.from_int(1)})
    with pytest.raises(MonoidMismatch):
        f + g
    assert f != g
    h = Series(M, QQ, {0: QQ.from_int(1)})
    with pytest.raises(TypeError):
        f * h


def test_scale_and_neg():
    f = Series(M, QQ, {1: QQ.from_int(2), 2: QQ.from_int(-3)})
    two = Series(M, QQ, {0: QQ.from_int(2)})
    assert (Series(M, QQ, {0: QQ.from_int(0)}) * f).is_zero()
    assert (two * f).coeff(2) == QQ.from_int(-6)
    assert (-f) + f == Series(M, QQ)
    assert two * f == f * two


def test_vector_monoid_series():
    V = IntVector(2)
    f = Series(V, ZZ, {(1, 0): ZZ.from_int(1), (0, 1): ZZ.from_int(1)})
    p = f * f
    assert p.coeff((1, 1)) == ZZ.from_int(2)
    assert p.coeff((2, 0)) == ZZ.from_int(1)
    assert p.support() == [(0, 2), (1, 1), (2, 0)]


def test_str_and_json():
    f = Series(M, QQ, {-1: QQ.value(*QQ.ratio(1, 2)), 0: QQ.from_int(-3)})
    assert "1/2" in str(f)
    j = f.to_json()
    assert j["ring"] == "Q"
    assert j["terms"][0] == {"exp": "-1", "coeff": "1/2"}


# Z/3 under a name with a quote, a backslash and non-ASCII letters, which
# the JSON text must escape as the encoder does
ODD_NAME = FiniteTable.from_lists(3, 0, [[(a + b) % 3 for b in range(3)] for a in range(3)], name='t"\\ä∑')
JSON_MONOIDS = [
    (M, st.integers(-(10**6), 10**6)),
    (IntLine(nonneg=True), st.integers(0, 50)),
    (IntVector(2), st.tuples(st.integers(-9, 9), st.integers(-9, 9))),
    (IntVector(3, lex=True), st.tuples(*[st.integers(-3, 3)] * 3)),
    (ODD_NAME, st.integers(0, 2)),
]
JSON_RINGS = [
    (ZZ, st.integers(-(10**30), 10**30)),
    (QQ, st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99))),
    (Zmod(7), st.integers(0, 6)),
]


@st.composite
def printable_series(draw):
    monoid, exps = draw(st.sampled_from(JSON_MONOIDS))
    ring, values = draw(st.sampled_from(JSON_RINGS))
    # sizes 0 and 1 come up often: the zero series and one-term series
    terms = draw(st.lists(st.tuples(exps, values), max_size=draw(st.sampled_from([0, 1, 8]))))
    return Series(monoid, ring, terms)


@settings(max_examples=200)
@given(f=printable_series())
@example(f=Series(ODD_NAME, Zmod(7), {1: 3}))
@example(f=Series(M, QQ))
def test_json_text_is_the_encoded_tree(f):
    assert f.json_text() == _dumps(f.to_json())


@settings(max_examples=60)
@given(f=int_series(), g=int_series())
def test_convolution_matches_naive_oracle(f, g):
    assert f * g == naive_convolve(f, g)


@settings(max_examples=60)
@given(f=vec2_series(), g=vec2_series())
def test_vector_convolution_matches_naive_oracle(f, g):
    assert f * g == naive_convolve(f, g)


@settings(max_examples=40)
@given(f=int_series(), g=int_series(), h=int_series())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f  # the monoid is commutative
    assert f * (g + h) == f * g + f * h
    assert f + Series(M, QQ) == f
    assert f * indicator(M, M.zero(), QQ) == f


@given(f=int_series(), g=int_series())
def test_no_stored_zero_coefficients(f, g):
    for h in (f, g, f + g, f - g, f * g, -f):
        assert all(c != 0 and h.ring.contains(c) for _, c in h.items())


@given(f=int_series(), g=int_series())
def test_support_of_sum_bounded_by_union(f, g):
    union = set(f.support()) | set(g.support())
    assert set((f + g).support()) <= union


def ring_series(ring):
    """Series over a short exponent range, so that two draws share exponents."""
    scalars = rat_scalars if ring is QQ else st.integers(-12, 12).map(ring.from_int)
    return int_series(ring, scalars, exp_lo=-3, exp_hi=3)


@settings(max_examples=150)
@given(
    fgh=st.one_of(
        *(st.tuples(*[ring_series(r)] * 3) for r in (ZZ, QQ, Zmod(2), Zmod(6)))
    )
)
def test_subtraction_is_adding_the_negative(fgh):
    f, g, h = fgh
    assert f - g == f + (-g)
    assert (f - f).is_zero()
    # g + h shares the exponents of g, so terms of g cancel
    assert (g + h) - g == h
    assert all(c != 0 and f.ring.contains(c) for _, c in (f - g).items())


def test_subtraction_mod_m_cancels_and_wraps():
    Z6 = Zmod(6)
    f = Series(M, Z6, {1: 2, 2: 5})
    g = Series(M, Z6, {1: 2, 2: 1, 3: 1})
    # 2 - 2 drops the term at 1; 0 - 1 = 5 mod 6 at 3
    assert f - g == Series(M, Z6, {2: 4, 3: 5})
    assert g - f == Series(M, Z6, {2: 2, 3: 1})


def test_q_values_cross_the_api_as_fractions():
    # stored as numerators over one denominator, read back as Fractions
    f = Series(M, QQ, [(0, Fraction(1, 4)), (2, Fraction(-5, 6)), (0, Fraction(1, 4))])
    assert (f._den, f._terms) == (6, {0: 3, 2: -5})
    assert f.coeff(0) == Fraction(1, 2) and type(f.coeff(0)) is Fraction
    assert f.coeff(1) == 0 and type(f.coeff(1)) is Fraction
    assert sorted(f.items()) == [(0, Fraction(1, 2)), (2, Fraction(-5, 6))]
    assert all(type(c) is Fraction for _, c in f.items())
    whole = Series(M, QQ, {1: Fraction(3)})
    assert (whole._den, whole._terms, whole.items()) == (1, {1: 3}, [(1, Fraction(3))])
    # over Z and Z/m the stored numerators are the values themselves
    z = Series(M, Zmod(7), {0: 3, 1: 6})
    assert (z._den, z._terms, z.coeff(1)) == (1, {0: 3, 1: 6}, 6)


@given(f=int_series(), g=int_series())
def test_equal_series_store_equal_data_and_hash_alike(f, g):
    left, right = f + g, g + f
    assert left == right and hash(left) == hash(right)
    assert (left._den, left._terms) == (right._den, right._terms)
    # 2f and f + f reach their stored pair through different kernels
    twice = Series(M, QQ, {0: QQ.from_int(2)}) * f
    assert twice == f + f and hash(twice) == hash(f + f)
