"""Series and truncated Laurent kernels on bare coefficients.

Products and sums over Z, Q and Z/m are checked against the convolution
oracle in conftest, which shares no code with the kernels. Z/12 has zero
divisors, so a product of nonzero terms can vanish without any collision.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsrb import (
    IntLine,
    QQ,
    Series,
    TruncatedLaurent,
    ZZ,
    Zmod,
    make_laurent,
    to_series,
    zero_laurent,
    zero_series,
)

from conftest import naive_convolve

M = IntLine()
Z12 = Zmod(12)
RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Z12]


def ring_values(ring):
    if ring is ZZ:
        return st.integers(-6, 6)
    if ring is QQ:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    return st.integers(0, ring.modulus - 1)


@st.composite
def series_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    # lists, not dicts, so the constructor also merges repeated exponents
    terms = st.lists(st.tuples(st.integers(-5, 5), ring_values(ring)), max_size=7)
    return Series(M, ring, draw(terms)), Series(M, ring, draw(terms))


@st.composite
def laurent_pairs(draw):
    ring = draw(st.sampled_from(RINGS))

    def one():
        lo = draw(st.integers(-4, 2))
        hi = draw(st.integers(lo, 6))
        coeffs = draw(st.lists(ring_values(ring), min_size=hi - lo, max_size=hi - lo))
        return TruncatedLaurent(ring, lo, coeffs, exact=draw(st.booleans()), trunc=hi)

    return one(), one()


def naive_add(f: Series, g: Series) -> Series:
    exps = set(f.support()) | set(g.support())
    return Series(f.monoid, f.ring, {s: f.ring.reduce(f.coeff(s) + g.coeff(s)) for s in exps})


def assert_canonical_series(h: Series) -> None:
    assert all(c != 0 and h.ring.contains(c) for _, c in h.items())


def assert_canonical_laurent(h: TruncatedLaurent) -> None:
    assert all(h.ring.contains(c) for c in h.coeffs)
    if h.coeffs:
        assert h.coeffs[0] != 0
        assert not h.exact or h.coeffs[-1] != 0
    else:
        assert h.ord == h.trunc and (not h.exact or h.ord == 0)


def as_exact(f: TruncatedLaurent) -> TruncatedLaurent:
    return TruncatedLaurent(f.ring, f.ord, f.coeffs, exact=True)


@settings(max_examples=150)
@given(pair=series_pairs())
def test_series_kernels_match_oracle(pair):
    f, g = pair
    for h in (f * g, f + g, f - g, -f):
        assert_canonical_series(h)
    assert f * g == naive_convolve(f, g)
    assert f + g == naive_add(f, g)
    assert f - g == naive_add(f, -g) and (f - f).is_zero()


@settings(max_examples=150)
@given(pair=laurent_pairs())
def test_laurent_kernels_match_oracle_on_window(pair):
    f, g = pair
    fs, gs = to_series(as_exact(f), M), to_series(as_exact(g), M)
    product, total = f * g, f + g
    for h in (product, total, f - g, -f):
        assert_canonical_laurent(h)
    want_product = naive_convolve(fs, gs)
    for n in range(product.ord - 2, product.trunc):
        assert product.coeff(n) == want_product.coeff(n)
    want_total = naive_add(fs, gs)
    for n in range(total.ord - 2, total.trunc):
        assert total.coeff(n) == want_total.coeff(n)


def test_zero_divisors_without_collision():
    f, g = Series(M, Z12, {1: 3}), Series(M, Z12, {2: 4})
    p = f * g
    assert p == zero_series(M, Z12) and not list(p.items())
    assert (f.scale(4)).is_zero()
    # four products, four distinct exponents, every product 0 mod 12
    assert (Series(M, Z12, {0: 6, 1: 3}) * Series(M, Z12, {0: 4, 2: 8})).is_zero()
    tf, tg = TruncatedLaurent(Z12, 1, [3]), TruncatedLaurent(Z12, 2, [4])
    assert tf * tg == zero_laurent(Z12)
    tail = TruncatedLaurent(Z12, 1, [3, 0, 0, 0], exact=False) * tg
    assert (tail.coeffs, tail.ord, tail.trunc, tail.exact) == ((), 7, 7, False)


@pytest.mark.parametrize(
    "ring,f,g,want",
    [
        # (1 + e)(1 - e): the two e terms meet at one exponent and cancel
        (ZZ, {0: 1, 1: 1}, {0: 1, 1: -1}, {0: 1, 2: -1}),
        (QQ, {0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(1, 2), 1: Fraction(-1, 3)},
         {0: Fraction(1, 4), 2: Fraction(-1, 9)}),
        (ZZ, {-1: 1, 1: 1}, {1: 1, 3: -1}, {0: 1, 4: -1}),
    ],
)
def test_cancellation_through_collisions(ring, f, g, want):
    p = Series(M, ring, f) * Series(M, ring, g)
    assert dict(p.items()) == want
    lf, lg = make_laurent(ring, f), make_laurent(ring, g)
    assert lf * lg == make_laurent(ring, want)


@pytest.mark.parametrize(
    "ring,bad",
    [(ZZ, True), (ZZ, 2.0), (ZZ, Fraction(2)), (QQ, 2), (QQ, True), (Zmod(5), 5), (Zmod(5), -1),
     (Zmod(5), True), (Zmod(5), 2.0)],
)
def test_membership_checks_at_constructors(ring, bad):
    with pytest.raises(TypeError):
        Series(M, ring, {0: bad})
    with pytest.raises(TypeError):
        TruncatedLaurent(ring, 0, [bad])
    with pytest.raises(TypeError):
        make_laurent(ring, {0: bad})
    with pytest.raises(TypeError):
        Series(M, ring, {0: ring.one()}).scale(bad)
    with pytest.raises(TypeError):
        TruncatedLaurent(ring, 0, [ring.one()]).scale(bad)
