"""Series and truncated Laurent kernels on bare coefficients.

Products and sums over Z, Q and Z/m are checked against the convolution
oracle in conftest, which shares no code with the kernels. Z/12 has zero
divisors, so a product of nonzero terms can vanish without any collision.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsrb import (
    IntLine,
    IntVector,
    Projector,
    QQ,
    Series,
    TruncatedLaurent,
    ZZ,
    Zmod,
    make_laurent,
    pole_part,
    zero_series,
)
from gpsrb.parsing import render_laurent, render_series

from gpsrb.series import PACK_MIN_TERMS, slot_bytes

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
        exact = draw(st.booleans())
        return make_laurent(ring, zip(range(lo, hi), coeffs), None if exact else hi)

    return one(), one()


def naive_add(f: Series, g: Series) -> Series:
    exps = set(f.support()) | set(g.support())
    m = f.ring.modulus
    sums = {s: f.coeff(s) + g.coeff(s) for s in exps}
    return Series(f.monoid, f.ring, {s: c % m if m else c for s, c in sums.items()})


def assert_canonical_series(h: Series) -> None:
    assert all(c != 0 and h.ring.contains(c) for _, c in h.items())


def assert_canonical_laurent(h: TruncatedLaurent) -> None:
    terms = h.items()
    assert all(c != 0 and h.ring.contains(c) for _, c in terms)
    if terms:
        assert terms[0][0] == h.ord and terms[-1][0] < h.trunc
        assert not h.exact or terms[-1][0] == h.trunc - 1
    else:
        assert h.ord == h.trunc and (not h.exact or h.ord == 0)


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
    fs, gs = f.series, g.series
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
    tf, tg = make_laurent(Z12, {1: 3}), make_laurent(Z12, {2: 4})
    assert tf * tg == make_laurent(Z12, {})
    tail = make_laurent(Z12, {1: 3}, 5) * tg
    assert (tail.items(), tail.ord, tail.trunc, tail.exact) == ([], 7, 7, False)


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
        make_laurent(ring, {0: bad})
    with pytest.raises(TypeError):
        Series(M, ring, {0: ring.from_int(1)}).scale(bad)
    with pytest.raises(TypeError):
        make_laurent(ring, {0: ring.from_int(1)}).scale(bad)


# Products large and dense enough for the packed big-int path, and products
# just short of it, against the same oracle. Coefficients reach 10^40 so the
# slot size grows past the sizes the density rule scales with.
PACK_RINGS = [ZZ, QQ, Zmod(2), Z12, Zmod(2**61 - 1)]


@st.composite
def straddling_pairs(draw):
    ring = draw(st.sampled_from(PACK_RINGS))
    top = draw(st.sampled_from([9, 10**6, 10**40]))
    if ring is ZZ:
        values = st.integers(-top, top)
    elif ring is QQ:
        den = st.integers(1, draw(st.sampled_from([1, 12, 10**6])))
        values = st.builds(Fraction, st.integers(-top, top), den)
    else:
        values = st.integers(1, ring.modulus - 1)
    # dense factors of 12 or more terms sit on both sides of the packing
    # threshold, by size and by slot bytes; wide ones keep the dict loop
    dense = draw(st.booleans())

    def one():
        n = draw(st.integers(12 if dense else 0, 48))
        lo = draw(st.integers(-40, 10))
        width = n + n // 2 + 1 if dense else 20 * n + 1
        exps = st.integers(lo, lo + width - 1)
        return Series(M, ring, [(s, draw(values)) for s in draw(st.lists(exps, min_size=n, max_size=n, unique=True))])

    return one(), one(), draw(st.integers(-90, 60))


@settings(max_examples=100, deadline=None)
@given(case=straddling_pairs())
def test_products_on_both_sides_of_the_packing_threshold(case):
    f, g, below = case
    want = naive_convolve(f, g)
    h = f.mul(g)
    assert_canonical_series(h)
    assert h == want
    cut = f.mul(g, below=below)
    assert_canonical_series(cut)
    assert cut == want.below(below)


def packed(f: Series, g: Series) -> bool:
    """Does f * g take the packed path (over Q, on the stored numerators)?"""
    return bool(slot_bytes(f.monoid, f._terms, g._terms, f.ring.modulus))


@st.composite
def dict_loop_products(draw):
    """(f, g, below, vf, vg): int-exponent factors whose product takes the dict
    loop, the smaller below PACK_MIN_TERMS terms or both spread too wide to
    pack, and two series over Z^2 under the product order."""
    monoid = draw(st.sampled_from([M, IntLine(nonneg=True)]))
    ring = draw(st.sampled_from([ZZ, QQ, Zmod(2), Zmod(7)]))
    values = ring_values(ring).filter(bool)
    lo = 0 if monoid.nonneg else -30
    if draw(st.booleans()):
        terms = st.lists(st.tuples(st.integers(lo, 30), values), max_size=PACK_MIN_TERMS - 1)
        f, g = draw(terms), draw(st.lists(st.tuples(st.integers(lo, 30), values), max_size=40))
    else:
        # one term in each run of 997 exponents: the span outgrows the pairs
        def wide():
            n = draw(st.integers(PACK_MIN_TERMS, 20))
            return [(lo + 997 * k + draw(st.integers(0, 996)), draw(values)) for k in range(n)]

        f, g = wide(), wide()
    hi = max([s for s, _ in f + g], default=lo)
    below = draw(st.integers(2 * lo - 3, 2 * hi + 3))
    vector = st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), values), max_size=6)
    V = IntVector(2)
    return (
        Series(monoid, ring, f),
        Series(monoid, ring, g),
        below,
        Series(V, ring, draw(vector)),
        Series(V, ring, draw(vector)),
    )


@settings(max_examples=150, deadline=None)
@given(case=dict_loop_products())
def test_int_exponent_dict_loop_sums_without_monoid_add(case):
    f, g, below, vf, vg = case
    assert not packed(f, g)
    want, vwant = naive_convolve(f, g), naive_convolve(vf, vg)
    calls = []
    vector_add = IntVector.add

    def refuse(self, a, b):
        raise AssertionError("IntLine.add called by an int-exponent product")

    def counting(self, a, b):
        calls.append((a, b))
        return vector_add(self, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntLine, "add", refuse)
        mp.setattr(IntVector, "add", counting)
        h, cut, vh = f * g, f.mul(g, below=below), vf * vg
    assert_canonical_series(h)
    assert h == want
    assert cut == h.below(below)
    # Z^2 exponents still sum through the monoid, once per pair
    assert vh == vwant
    assert len(calls) == vf.term_count() * vg.term_count()


# top is the largest coefficient with 16 * top^2 below 2^bits
TOP_48, TOP_49 = isqrt((2**48 - 1) // 16), isqrt((2**49 - 1) // 16)


@pytest.mark.parametrize("ring,sign", [(ZZ, 1), (ZZ, -1), (Zmod(TOP_49 + 1), 1)])
def test_every_output_slot_at_the_slot_bound(ring, sign):
    # f and g have n terms of the largest magnitude, all of one sign, so the
    # middle output coefficient is n * top^2, the slot bound itself; it needs
    # every bit of its whole-byte slot: 48 bits and a sign bit over Z, 49
    # bits over Z/m, 7 bytes either way
    n = 16
    bits, top = (48, TOP_48) if ring is ZZ else (49, TOP_49)
    bound = n * top * top
    assert bound.bit_length() == bits
    f = Series(M, ring, {i: top for i in range(n)})
    g = Series(M, ring, {i: sign * top if ring is ZZ else top for i in range(-3, n - 3)})
    assert packed(f, g)
    h = f * g
    assert h == naive_convolve(f, g)
    assert h.coeff(n - 4) == (sign * bound % ring.modulus if ring.modulus else sign * bound)
    assert f.mul(g, below=n - 3) == naive_convolve(f, g).below(n - 3)


def test_below_cuts_inside_both_operands():
    f = Series(M, ZZ, {i: (1 - 2 * (i % 2)) * (i + 1) for i in range(-10, 30)})
    g = Series(M, ZZ, {i: 3 - i for i in range(-5, 25) if i != 3})
    assert packed(f, g)
    below = 12  # keeps f below 17 and g below 22, of 30 and 25
    want = naive_convolve(f, g).below(below)
    assert f.mul(g, below=below) == want
    assert f.mul(g, below=below) == g.mul(f, below=below)


def test_laurent_product_cut_inside_an_operand():
    # the result is known below min(30 + -5, 40 + -10) = 25, so g is used
    # only below 35 of its 40: a Laurent bound cuts one operand at a time
    f = make_laurent(QQ, {i - 10: Fraction(i % 7 - 3, i % 5 + 1) for i in range(40)}, 30)
    g = make_laurent(QQ, {i - 5: Fraction(2 - i % 3, 7) for i in range(45)}, 40)
    assert packed(f.series, g.series)
    h = f * g
    assert (h.ord, h.trunc, h.exact) == (-15, 25, False)
    want = naive_convolve(f.series, g.series)
    assert all(h.coeff(n) == want.coeff(n) for n in range(-20, 25))


def test_z12_slots_that_vanish_only_after_reduction():
    # every pair product is 12, so each packed slot holds a nonzero multiple
    # of 12, and only the term at 20 survives its reduction
    f = Series(M, Z12, {i: 6 for i in range(16)})
    g = Series(M, Z12, {**{i: 2 for i in range(16)}, 20: 1})
    assert packed(f, g)
    h = f * g
    assert dict(h.items()) == {s: 6 for s in range(20, 36)}
    assert h == naive_convolve(f, g)
    assert (f * Series(M, Z12, {i: 4 for i in range(16)})).is_zero()


# ---------------------------------------------------------------- stored numerators
# Every series stores int numerators over one positive denominator in lowest
# terms (1 off Q). Each kernel result must be in that canonical form and
# equal to the same operation on {exponent: Fraction} dicts, whether the
# product ran the dict loop or the packed path, with or without a bound.

STORE_RINGS = [ZZ, QQ, Zmod(2), Zmod(7)]


def assert_stored_canonically(h: Series) -> None:
    den, nums = h._den, list(h._terms.values())
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1
    assert all(type(c) is int and c != 0 for c in nums)
    if h.ring is not QQ:
        assert den == 1
    if h.ring.modulus:
        assert all(0 <= c < h.ring.modulus for c in nums)
    # equal data is equal series with equal hashes: rebuilding from the
    # public values lands on the same stored pair
    again = Series(h.monoid, h.ring, dict(h.items()))
    assert (again._den, again._terms) == (den, h._terms)
    assert again == h and hash(again) == hash(h)


def fraction_dict(h: Series) -> dict:
    return {s: Fraction(c) for s, c in h.items()}


def oracle_series(ring, terms: dict) -> dict:
    """{exponent: Fraction} with each value brought into the ring and zeros dropped."""
    m = ring.modulus
    out = {s: Fraction(c.numerator * pow(c.denominator, -1, m) % m) if m else c for s, c in terms.items()}
    return {s: c for s, c in out.items() if c}


def oracle_product(ring, f: dict, g: dict, below=None) -> dict:
    acc: dict = {}
    for u, a in f.items():
        for v, b in g.items():
            if below is None or u + v < below:
                acc[u + v] = acc.get(u + v, 0) + a * b
    return oracle_series(ring, acc)


def oracle_sum(ring, f: dict, g: dict, sign: int = 1) -> dict:
    acc = dict(f)
    for s, c in g.items():
        acc[s] = acc.get(s, 0) + sign * c
    return oracle_series(ring, acc)


@st.composite
def stored_cases(draw):
    """Two series of one ring on either side of the packing threshold, a scalar and a bound."""
    ring = draw(st.sampled_from(STORE_RINGS))
    if ring is QQ:
        values = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 60))
    elif ring is ZZ:
        values = st.integers(-10**6, 10**6).filter(bool)
    else:
        values = st.integers(1, ring.modulus - 1)
    dense = draw(st.booleans())

    def one():
        n = draw(st.integers(12 if dense else 0, 30))
        lo = draw(st.integers(-20, 10))
        width = n + n // 2 + 1 if dense else 10 * n + 1
        exps = draw(st.lists(st.integers(lo, lo + width - 1), min_size=n, max_size=n, unique=True))
        return Series(M, ring, [(s, draw(values)) for s in exps])

    f, g = one(), one()
    scalar = draw(st.one_of(st.just(ring.from_int(0)), values))
    below = draw(st.one_of(st.none(), st.integers(-45, 60)))
    return f, g, scalar, below


@settings(max_examples=120, deadline=None)
@given(case=stored_cases())
def test_kernels_keep_the_stored_pair_canonical(case):
    f, g, scalar, below = case
    ring = f.ring
    F, G = fraction_dict(f), fraction_dict(g)
    assert f.mul(g) == g.mul(f)  # either order takes the same path
    cutoff = Projector.cutoff(M, 0 if below is None else below)
    evens = Projector(M, lambda s: s % 2 == 0, "evens")
    results = [
        (f.mul(g, below=below), oracle_product(ring, F, G, below)),
        (f + g, oracle_sum(ring, F, G)),
        (f - g, oracle_sum(ring, F, G, -1)),
        (-f, oracle_series(ring, {s: -c for s, c in F.items()})),
        (f.scale(scalar), oracle_series(ring, {s: scalar * c for s, c in F.items()})),
        (f.below(0 if below is None else below),
         {s: c for s, c in F.items() if s < (0 if below is None else below)}),
        (cutoff(g), {s: c for s, c in G.items() if cutoff.keeps(s)}),
        (evens(f), {s: c for s, c in F.items() if s % 2 == 0}),
    ]
    for h, want in results:
        assert_stored_canonically(h)
        assert fraction_dict(h) == want


def test_q_sums_that_cancel_to_an_integer_or_to_zero():
    f = Series(M, QQ, {0: Fraction(1, 6), 1: Fraction(2, 3), 2: Fraction(-1, 2)})
    g = Series(M, QQ, {0: Fraction(5, 6), 1: Fraction(1, 3), 2: Fraction(1, 2)})
    assert (f._den, g._den) == (6, 6)
    total = f + g  # 1 + e: each denominator cancels, and the term at 2 drops
    assert (total._den, total._terms) == (1, {0: 1, 1: 1})
    assert total == Series(M, QQ, {0: QQ.from_int(1), 1: QQ.from_int(1)})
    assert_stored_canonically(total)
    difference = f - f
    assert (difference._den, difference._terms) == (1, {})
    assert difference == zero_series(M, QQ)
    # a product of two halves and a scaling by 2 are integral as well
    half = Series(M, QQ, {1: Fraction(1, 2), 3: Fraction(-3, 2)})
    assert (half * Series(M, QQ, {0: Fraction(2)}))._den == 1
    assert half.scale(Fraction(2))._terms == {1: 1, 3: -3}
    assert (half - half.scale(Fraction(1, 3)) - half.scale(Fraction(2, 3))).is_zero()


def test_q_kernels_build_no_fraction(monkeypatch):
    # multi-term factors with different denominators, dense enough to pack
    f = Series(M, QQ, {i: Fraction(i % 7 - 3, i % 5 + 2) for i in range(-6, 20)})
    g = Series(M, QQ, {i: Fraction(2 - i % 4, 3 + i % 3) for i in range(-4, 16)})
    sparse = Series(M, QQ, {5 * i: Fraction(1 + i, 2 + i % 3) for i in range(6)})
    P = Projector.cutoff(M, 3)
    lf, lg = make_laurent(QQ, dict(f.items()), 20), make_laurent(QQ, dict(g.items()))
    assert packed(f, g)
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for h in (f * g, f.mul(g, below=4), f * sparse, f + g, f - g, f + sparse, P(f), -f):
        render_series(h)
        h.to_json()
        str(h)
    product = lf * lg
    render_laurent(product)
    product.to_json()
    render_laurent(pole_part(lf - lg))
    assert built == []
    # the public accessors do build them, so the counter is live
    f.coeff(0)
    assert built
