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
    Zmod,
    make_laurent,
    parse_series,
    pole_part,
    render_laurent,
    tl_rb_defect,
)
from gpsrb.cli import main

one = QQ.from_int(1)


def L(terms, trunc=None):
    return make_laurent(QQ, {n: QQ.value(*QQ.ratio(*c)) if isinstance(c, tuple) else QQ.from_int(c) for n, c in terms.items()}, trunc)


def test_normalization():
    f = L({-2: 0, -1: 1, 0: 0})
    assert f.ord == -1 and f.trunc == 0 and f.items() == [(-1, one)]
    z = L({5: 0})
    assert z.is_zero() and z.ord == 0 and z.trunc == 0
    g = L({-2: 0, -1: 1, 0: 0}, trunc=1)
    assert g.ord == -1 and g.trunc == 1 and [g.coeff(n) for n in range(-1, 1)] == [one, QQ.from_int(0)]


def test_make_laurent_is_the_only_public_constructor():
    with pytest.raises(TypeError):
        TruncatedLaurent(QQ, 0, [one])
    with pytest.raises(ValueError, match="trunc"):
        L({2: 1}, trunc=2)


def test_coeff_access_and_tail():
    f = L({-2: 1, 1: 3}, trunc=4)
    assert f.coeff(-2) == one
    assert f.coeff(0) == QQ.from_int(0)
    assert f.coeff(-100) == QQ.from_int(0)
    with pytest.raises(InsufficientPrecision):
        f.coeff(4)
    g = L({-2: 1})
    assert g.coeff(100) == QQ.from_int(0)  # exact: tail known zero


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
    f = L({3: 1}) + L({}, trunc=2)
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
    assert (f * L({})).is_zero()
    assert (L({}) * L({0: 1}, trunc=5)).is_zero()


def test_pole_part_examples():
    f = L({-3: (1, 2), -1: 4, 0: 7, 2: 9}, trunc=5)
    p = pole_part(f)
    assert p.exact
    assert p.coeff(-3) == QQ.value(*QQ.ratio(1, 2)) and p.coeff(-1) == QQ.from_int(4)
    assert p.coeff(0) == QQ.from_int(0) and p.coeff(2) == QQ.from_int(0)
    n = f - p
    assert n.ord >= 0 and n.coeff(0) == QQ.from_int(7)
    assert not n.exact and n.trunc == 5
    assert (p + n).coeff(2) == QQ.from_int(9)


def test_pole_part_needs_negative_window_known():
    f = L({-5: 1, -4: 1}, trunc=-3)  # only known on [-5, -3)
    with pytest.raises(InsufficientPrecision):
        pole_part(f)
    g = L({-5: 1, -4: 1})
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
    # an exact value is its series over Z: every coefficient it does not store is zero
    f = L({-2: 3, 1: (1, 2)})
    assert f.exact
    assert f.series == Series(IntLine(), QQ, {-2: QQ.from_int(3), 1: QQ.value(*QQ.ratio(1, 2))})


def test_equality_is_structural():
    assert L({0: 1}, trunc=3) != L({0: 1}, trunc=4)
    assert L({0: 1}) == L({0: 1})


def test_scale():
    f = L({-1: 2, 2: 3}, trunc=4)
    g = f.scale(QQ.value(*QQ.ratio(1, 2)))
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


def laurents(min_ord=-4, max_hi=5, ring=QQ):
    scalars = rat if ring is QQ else st.integers(-9, 9).map(ring.from_int)

    @st.composite
    def build(draw):
        lo = draw(st.integers(min_ord, 2))
        hi = draw(st.integers(lo, max_hi))
        coeffs = [draw(scalars) for _ in range(hi - lo)]
        exact = draw(st.booleans())
        return make_laurent(ring, zip(range(lo, hi), coeffs), None if exact else hi)

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
    n = f - p
    back = p + n
    assert back.trunc == f.trunc or back.exact
    for k in range(f.ord, f.trunc):
        assert back.coeff(k) == f.coeff(k)
    assert p.exact
    if not p.is_zero():
        assert p.trunc <= 0


@settings(max_examples=120)
@given(
    pair=st.one_of(
        *(st.tuples(laurents(ring=r), laurents(ring=r)) for r in (ZZ, QQ, Zmod(2), Zmod(6)))
    )
)
def test_subtraction_is_adding_the_negative(pair):
    f, g = pair
    assert f - g == f + (-g)
    d = f - f
    assert d.known_zero_on_window() and d.tail == f.tail
    assert d.is_zero() == f.exact


def laurents_with_empty_windows(ring):
    return st.one_of(
        laurents(ring=ring), st.just(make_laurent(ring, {})), st.just(make_laurent(ring, {}, 3))
    )


@settings(max_examples=150)
@given(
    pair=st.one_of(
        *(
            st.tuples(laurents_with_empty_windows(r), laurents_with_empty_windows(r))
            for r in (QQ, ZZ, Zmod(6))
        )
    )
)
def test_product_tail_and_json_follow_the_window_rule(pair):
    f, g = pair
    p = f * g
    for h in (f, g, p):
        data = h.to_json()
        assert (data["ord"], data["trunc"], data["exact"]) == (h.ord, h.trunc, h.exact)
        assert data["coeffs"] == [h.ring.fmt(h.coeff(n)) for n in range(h.ord, h.trunc)]
    if f.is_zero() or g.is_zero():
        # an exact zero factor annihilates the other's tail
        assert p.is_zero()
        return
    bounds = [t.trunc + u.ord for t, u in ((f, g), (g, f)) if not t.exact]
    assert p.tail == min(bounds, default=None)


def test_sparse_products_over_wide_exponents_stay_on_the_dict_loop(capsys):
    # 20 terms a factor over 0..10^6: a packed product would allocate slots
    # for the whole span, megabytes, where the dict loop needs 400 terms
    exps = [k * 50_000 + k * k for k in range(20)]
    f_text = " + ".join(f"{k + 1}*e^{s}" for k, s in enumerate(exps))
    g_text = " + ".join(f"{20 - k}*e^{s}" for k, s in enumerate(reversed(exps)))
    f, g = parse_series(f_text, IntLine(), ZZ), parse_series(g_text, IntLine(), ZZ)
    tracemalloc.start()
    try:
        h = f * g
        code = main(["mul", f_text, g_text, "--laurent"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert max(exps) > 900_000 and len(dict(h.items())) == 210
    assert capsys.readouterr().out.strip() == render_laurent(TruncatedLaurent.from_series(h))
    assert peak < 1_000_000
