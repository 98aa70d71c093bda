import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpsrb import (
    InsufficientPrecision,
    IntLine,
    QQ,
    Series,
    TruncatedLaurent,
    ZZ,
    make_laurent,
    nonneg_part,
    parse_series,
    pole_part,
    render_laurent,
    tl_rb_defect,
    to_series,
    zero_laurent,
)

one = QQ.one()


def L(terms, trunc=None):
    return make_laurent(QQ, {n: QQ.from_ratio(*c) if isinstance(c, tuple) else QQ.from_int(c) for n, c in terms.items()}, trunc)


def test_normalization():
    f = TruncatedLaurent(QQ, -2, [QQ.zero(), one, QQ.zero()], exact=True)
    assert f.ord == -1 and f.trunc == 0 and f.coeffs == (one,)
    z = TruncatedLaurent(QQ, 5, [QQ.zero()], exact=True)
    assert z.is_zero() and z.ord == 0 and z.trunc == 0
    g = TruncatedLaurent(QQ, -2, [QQ.zero(), one, QQ.zero()], exact=False)
    assert g.ord == -1 and g.trunc == 1 and g.coeffs == (one, QQ.zero())


def test_coeff_access_and_tail():
    f = L({-2: 1, 1: 3}, trunc=4)
    assert f.coeff(-2) == one
    assert f.coeff(0) == QQ.zero()
    assert f.coeff(-100) == QQ.zero()
    with pytest.raises(InsufficientPrecision):
        f.coeff(4)
    g = L({-2: 1})
    assert g.coeff(100) == QQ.zero()  # exact: tail known zero


def test_add_validity_window():
    f = L({-1: 1}, trunc=3)
    g = L({0: 2}, trunc=5)
    s = f + g
    assert s.trunc == 3 and not s.exact
    assert s.coeff(-1) == one and s.coeff(0) == QQ.from_int(2)
    exact_sum = L({-1: 1}) + L({0: 2})
    assert exact_sum.exact and exact_sum.coeff(0) == QQ.from_int(2)


def test_add_absorbs_terms_beyond_tail():
    # e^3 + O(e^2) = O(e^2): the known window ends at 2
    f = L({3: 1}) + TruncatedLaurent(QQ, 2, [], exact=False)
    assert not f.exact and f.trunc == 2 and f.known_zero_on_window()


def test_mul_validity_window():
    f = L({-2: 1, 0: 2}, trunc=4)  # known on [-2, 4)
    g = L({-1: 3}, trunc=2)  # known on [-1, 2)
    p = f * g
    assert p.trunc == min(4 + (-1), 2 + (-2)) == 0
    assert p.ord == -3
    assert p.coeff(-3) == QQ.from_int(3)
    assert p.coeff(-1) == QQ.from_int(6)
    with pytest.raises(InsufficientPrecision):
        p.coeff(0)


def test_mul_exact_and_zero():
    f = L({-2: 1, 1: 2})
    g = L({3: 5})
    p = f * g
    assert p.exact and p.coeff(1) == QQ.from_int(5) and p.coeff(4) == QQ.from_int(10)
    assert (f * zero_laurent(QQ)).is_zero()
    assert (zero_laurent(QQ) * L({0: 1}, trunc=5)).is_zero()


def test_pole_part_examples():
    f = L({-3: (1, 2), -1: 4, 0: 7, 2: 9}, trunc=5)
    p = pole_part(f)
    assert p.exact
    assert p.coeff(-3) == QQ.from_ratio(1, 2) and p.coeff(-1) == QQ.from_int(4)
    assert p.coeff(0) == QQ.zero() and p.coeff(2) == QQ.zero()
    n = nonneg_part(f)
    assert n.ord >= 0 and n.coeff(0) == QQ.from_int(7)
    assert not n.exact and n.trunc == 5
    assert (p + n).coeff(2) == QQ.from_int(9)


def test_pole_part_needs_negative_window_known():
    f = TruncatedLaurent(QQ, -5, [one, one], exact=False)  # only known on [-5, -3)
    with pytest.raises(InsufficientPrecision):
        pole_part(f)
    g = TruncatedLaurent(QQ, -5, [one, one], exact=True)
    assert pole_part(g) == g


def test_defect_zero_on_safe_inputs():
    f = L({-2: (1, 3), 0: 2, 3: 5}, trunc=6)
    g = L({-1: 7, 1: (2, 5)}, trunc=4)
    d = tl_rb_defect(f, g)
    assert d.exact and d.is_zero()


def test_defect_insufficient_precision_propagates():
    f = L({-3: 1}, trunc=1)
    g = L({-4: 1}, trunc=1)
    # f*g is only known below exponent -2, so its pole part is out of reach
    with pytest.raises(InsufficientPrecision):
        tl_rb_defect(f, g)


def test_to_series_embedding():
    f = L({-2: 3, 1: (1, 2)})
    s = to_series(f, IntLine())
    assert s == Series(IntLine(), QQ, {-2: QQ.from_int(3), 1: QQ.from_ratio(1, 2)})
    with pytest.raises(InsufficientPrecision):
        to_series(L({0: 1}, trunc=3), IntLine())


def test_equality_is_structural():
    assert L({0: 1}, trunc=3) != L({0: 1}, trunc=4)
    assert L({0: 1}) == L({0: 1})


def test_scale():
    f = L({-1: 2, 2: 3}, trunc=4)
    g = f.scale(QQ.from_ratio(1, 2))
    assert g.coeff(-1) == one and g.trunc == 4 and not g.exact


def test_memory_grows_with_terms_not_exponents():
    tracemalloc.start()
    try:
        f = parse_series("1 + e^1000000", IntLine(), ZZ, laurent=True)
        g = parse_series("1 + O(e^1200000)", IntLine(), ZZ, laurent=True)
        text = render_laurent(f * g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "1 + e^1000000 + O(e^1200000)"
    assert peak < 1_000_000


rat = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def laurents(min_ord=-4, max_hi=5):
    @st.composite
    def build(draw):
        lo = draw(st.integers(min_ord, 2))
        hi = draw(st.integers(lo, max_hi))
        coeffs = [draw(rat) for _ in range(hi - lo)]
        exact = draw(st.booleans())
        return TruncatedLaurent(QQ, lo, coeffs, exact=exact, trunc=hi)

    return build()


@settings(max_examples=80)
@given(f=laurents(), g=laurents())
def test_mul_matches_series_convolution_on_window(f, g):
    fs = Series(IntLine(), QQ, dict(f.items()))
    gs = Series(IntLine(), QQ, dict(g.items()))
    direct = fs * gs
    p = f * g
    for n in range(p.ord - 2, p.trunc):
        assert p.coeff(n) == direct.coeff(n)


@settings(max_examples=80)
@given(f=laurents(), g=laurents(), h=laurents())
def test_add_mul_compatibility_on_shared_window(f, g, h):
    left = (f + g) * h
    right = f * h + g * h
    hi = min(left.trunc if not left.exact else 10**6, right.trunc if not right.exact else 10**6)
    for n in range(min(left.ord, right.ord), min(hi, max(left.trunc, right.trunc))):
        assert left.coeff(n) == right.coeff(n)


@settings(max_examples=80)
@given(f=laurents(min_ord=-3))
def test_pole_plus_nonneg_is_identity_on_window(f):
    assume(f.exact or f.trunc >= 0)
    p = pole_part(f)
    n = nonneg_part(f)
    back = p + n
    assert back.trunc == f.trunc or back.exact
    for k in range(f.ord, f.trunc):
        assert back.coeff(k) == f.coeff(k)
    assert p.exact
    if p.coeffs:
        assert p.trunc <= 0
