"""The renderers and to_json against the pre-change oracles, and render->parse round trips.

conftest holds render_series, render_laurent and the two to_json methods as
they were before elem_repr and fmt became the builtins repr and str and
sort_key left the monoids. For every series and Laurent value the package's
output must equal theirs byte for byte, and the text must parse back to an
equal value.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gpsrb import IntLine, IntVector, QQ, Series, ZZ, Zmod, cyclic_table, make_laurent
from gpsrb.parsing import parse_series, render_laurent, render_series

from conftest import (
    reference_laurent_to_json,
    reference_render_laurent,
    reference_render_series,
    reference_series_to_json,
)

MONOIDS = [
    IntLine(),
    IntLine(nonneg=True),
    IntVector(1),
    IntVector(2),
    IntVector(2, lex=True),
    IntVector(3),
    cyclic_table(5),
]
RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(101)]


def coefficients(ring):
    """Ring values of either sign, with 1 and -1 (which print without "1*") weighted up."""
    if ring is QQ:
        whole = st.sampled_from([1, -1, 2, -3]).map(Fraction)
        return whole | st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 40))
    if ring is ZZ:
        return st.sampled_from([1, -1]) | st.integers(-(10**30), 10**30)
    return st.integers(0, ring.modulus - 1)


def exponents(monoid):
    if isinstance(monoid, IntLine):
        return st.integers(0 if monoid.nonneg else -40, 40)
    if isinstance(monoid, IntVector):
        return st.tuples(*[st.integers(-6, 6)] * monoid.dim)
    return st.integers(0, monoid.n - 1)


@st.composite
def series(draw, monoids=MONOIDS, rings=RINGS):
    monoid, ring = draw(st.sampled_from(monoids)), draw(st.sampled_from(rings))
    terms = draw(st.dictionaries(exponents(monoid), coefficients(ring), max_size=10))
    return Series(monoid, ring, terms)


@st.composite
def laurent_values(draw, rings=RINGS):
    ring = draw(st.sampled_from(rings))
    terms = draw(st.dictionaries(st.integers(-30, 30), coefficients(ring), max_size=10))
    trunc = draw(st.none() | st.integers(-35, 45))
    if trunc is not None:
        terms = {n: c for n, c in terms.items() if n < trunc}
    return make_laurent(ring, terms, trunc)


variables = st.sampled_from(["e", "x", "t_2"])


@settings(max_examples=300)
@given(f=series(), var=variables)
def test_series_output_matches_the_oracle(f, var):
    assert render_series(f, var) == reference_render_series(f, var)
    assert json.dumps(f.to_json()) == json.dumps(reference_series_to_json(f))


@settings(max_examples=300)
@given(f=laurent_values(), var=variables)
def test_laurent_output_matches_the_oracle(f, var):
    assert render_laurent(f, var) == reference_render_laurent(f, var)
    assert json.dumps(f.to_json()) == json.dumps(reference_laurent_to_json(f))


@settings(max_examples=150)
@given(f=series(monoids=[IntLine()], rings=[Zmod(2), Zmod(7), Zmod(101)]))
def test_round_trip_modular_ring(f):
    assert parse_series(render_series(f), f.monoid, f.ring) == f


@settings(max_examples=100)
@given(f=series(monoids=[IntLine(nonneg=True)]))
def test_round_trip_natural_numbers(f):
    assert parse_series(render_series(f), f.monoid, f.ring) == f


@settings(max_examples=100)
@given(f=series(monoids=[IntVector(2, lex=True)]), var=variables)
def test_round_trip_lex_vectors(f, var):
    assert parse_series(render_series(f, var), f.monoid, f.ring, var=var) == f


@settings(max_examples=200)
@given(f=laurent_values(), var=variables)
def test_round_trip_laurent(f, var):
    assert parse_series(render_laurent(f, var), IntLine(), f.ring, var=var, laurent=True) == f
