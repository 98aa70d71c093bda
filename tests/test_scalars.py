from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpsrb import (
    IntLine,
    QQ,
    RingMismatch,
    Series,
    ZZ,
    ZeroDenominator,
    Zmod,
    make_laurent,
    parse_series,
)

from conftest import int_scalars, rat_scalars

M = IntLine()


def test_integer_ops():
    a, b = ZZ.from_int(7), ZZ.from_int(-3)
    assert type(a) is int and (a, b) == (7, -3)
    assert ZZ.modulus is None
    assert a + b == 4 and a * b == -21
    assert ZZ.zero() == 0 and ZZ.one() == 1
    assert ZZ.fmt(-21) == "-21"


def test_rational_normalization():
    assert QQ.from_ratio(2, 4) == QQ.from_ratio(1, 2)
    assert QQ.from_ratio(3, -6) == QQ.from_ratio(-1, 2)
    assert QQ.from_ratio(0, 5) == QQ.zero()
    assert type(QQ.zero()) is Fraction and type(QQ.from_ratio(4, 2)) is Fraction
    assert QQ.fmt(QQ.from_ratio(-1, 2)) == "-1/2"
    assert QQ.fmt(QQ.from_ratio(4, 2)) == "2"


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        QQ.from_ratio(1, 0)
    with pytest.raises(ZeroDenominator):
        QQ.from_ratio(0, 0)
    with pytest.raises(ZeroDenominator):
        ZZ.from_ratio(1, 0)
    with pytest.raises(ZeroDenominator):
        Zmod(5).from_ratio(1, 0)


def test_modular_arithmetic():
    R = Zmod(5)
    assert R.from_int(12) == 2 and R.from_int(-1) == 4
    assert (R.from_int(3) + R.from_int(4)) % R.modulus == R.from_int(2)
    assert R.from_int(3) * R.from_int(4) % R.modulus == R.from_int(2)
    assert -R.from_int(2) % R.modulus == R.from_int(3)
    assert R.fmt(R.from_int(2)) == "2 mod 5"
    # 1/2 = 3 mod 5
    assert R.from_ratio(1, 2) == R.from_int(3)
    with pytest.raises(ValueError, match="not invertible"):
        Zmod(6).from_ratio(1, 2)
    with pytest.raises(ValueError):
        Zmod(1)


def test_ring_mismatch_raises():
    pairs = [(ZZ, QQ), (Zmod(5), Zmod(7)), (QQ, ZZ), (ZZ, Zmod(5))]
    for A, B in pairs:
        f, g = Series(M, A, {0: A.one()}), Series(M, B, {0: B.one()})
        with pytest.raises(RingMismatch):
            f + g
        with pytest.raises(RingMismatch):
            f * g
        p, q = make_laurent(A, {0: A.one()}), make_laurent(B, {0: B.one()})
        with pytest.raises(RingMismatch):
            p + q
        with pytest.raises(RingMismatch):
            p * q


def test_cross_ring_equality_is_false():
    # the ring is part of a series' identity, so equal bare values do not make equal series
    assert ZZ != QQ and Zmod(5) != Zmod(7) and Zmod(5) == Zmod(5)
    assert Series(M, ZZ, {0: 1}) != Series(M, Zmod(5), {0: 1})
    assert Series(M, Zmod(5), {0: 1}) != Series(M, Zmod(7), {0: 1})
    assert Series(M, ZZ, {0: 1}) != Series(M, QQ, {0: Fraction(1)})
    assert make_laurent(ZZ, {0: 1}) != make_laurent(Zmod(5), {0: 1})


def test_contains_and_parse():
    assert ZZ.contains(3) and not ZZ.contains(Fraction(3))
    assert not ZZ.contains(True) and not ZZ.contains(2.0)
    assert QQ.contains(Fraction(1, 2)) and not QQ.contains(1)
    assert Zmod(5).contains(4) and not Zmod(5).contains(5) and not Zmod(5).contains(-1)
    assert not Zmod(5).contains(True)
    # coefficients are read by the series parser, through from_ratio
    assert parse_series("  -7/2 ", M, QQ).coeff(0) == Fraction(-7, 2)
    assert parse_series("-12", M, ZZ).coeff(0) == -12
    assert parse_series("7", M, Zmod(5)).coeff(0) == 2
    assert parse_series("3/2", M, Zmod(5)).coeff(0) == 4


def test_integral_ratio_in_zz():
    assert ZZ.from_ratio(6, 3) == 2 and type(ZZ.from_ratio(6, 3)) is int
    with pytest.raises(ValueError):
        ZZ.from_ratio(1, 2)


@given(a=rat_scalars, b=rat_scalars, c=rat_scalars)
def test_rational_ring_axioms(a, b, c):
    assert QQ.contains(a + b) and QQ.contains(a * b)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + QQ.zero() == a
    assert a * QQ.one() == a
    assert a + (-a) == QQ.zero()


@given(a=int_scalars, b=int_scalars)
def test_integer_sub_matches_add_neg(a, b):
    assert ZZ.contains(a - b)
    assert a - b == a + (-b)


@given(
    a=st.integers(min_value=-40, max_value=40),
    b=st.integers(min_value=-40, max_value=40),
    m=st.integers(min_value=2, max_value=12),
)
def test_mod_ring_is_quotient(a, b, m):
    R = Zmod(m)
    s = (R.from_int(a) + R.from_int(b)) % R.modulus
    p = R.from_int(a) * R.from_int(b) % R.modulus
    assert R.contains(s) and R.contains(p)
    assert s == R.from_int(a + b)
    assert p == R.from_int(a * b)
