"""The block-packed semantic route against the pairwise oracle.

projectors.nonzero_defect_pairs decides a block of window rows with one
rb_defect call on base-8 packed arguments. These tests compare its pairs,
in order, with conftest.pairwise_defect_pairs, which calls rb_defect once
per single-term pair.
"""

import pytest

import gpsrb.projectors
from conftest import direct_product_table, max_chain_table, pairwise_defect_pairs
from gpsrb import (
    IntLine,
    IntVector,
    Projector,
    QQ,
    Series,
    ZZ,
    Zmod,
    cyclic_table,
    indicator_pair_scan,
    int_window,
    truncated_addition_table,
    vector_window,
)
from gpsrb.cli import main
from gpsrb.projectors import nonzero_defect_pairs

RINGS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(12)]

# several v share one u + v on min-cap(4) and on the non-cancellative factor
TABLES = [
    cyclic_table(5),
    truncated_addition_table(4),
    direct_product_table(cyclic_table(2), cyclic_table(3)),
]


def assert_routes_agree(P, window, ring):
    packed = list(nonzero_defect_pairs(P, window, ring))
    assert packed == list(pairwise_defect_pairs(P, window, ring))
    return packed


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("table", TABLES, ids=str)
def test_every_mask_of_finite_tables(table, ring):
    elems = list(table.carrier())
    flagged = 0
    for mask in range(1 << table.n):
        P = Projector.from_mask(table, mask)
        flagged += bool(assert_routes_agree(P, elems, ring))
    # only some masks are closed, so both verdicts occur
    assert 0 < flagged < 1 << table.n


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize(
    "monoid,ws,window",
    [
        (IntLine(), range(-4, 5), int_window(-5, 5)),
        (IntLine(nonneg=True), range(0, 6), int_window(0, 7)),
    ],
    ids=["Z", "N"],
)
def test_cutoffs_on_lines(monoid, ws, window, ring):
    hits = 0
    for w in ws:
        P = Projector.cutoff(monoid, w)
        hits += len(assert_routes_agree(P, window, ring))
        assert_routes_agree(P.complement(), window, ring)
    assert hits > 0


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("lex", [False, True], ids=["product", "lex"])
def test_cutoffs_on_the_plane(lex, ring):
    monoid = IntVector(2, lex=lex)
    window = vector_window(-2, 1, 2)
    for w in [(0, 0), (1, 1), (0, 1), (-1, -1), (2, -1)]:
        assert_routes_agree(Projector.cutoff(monoid, w), window, ring)


def test_rows_with_several_hits_decode_every_term():
    # below(-2) on Z: the killed u = -2 drops into the kept part with both
    # v = -2 and v = -1, so its packed defect carries two terms
    P = Projector.cutoff(IntLine(), -2)
    pairs = assert_routes_agree(P, int_window(-3, 3), ZZ)
    assert pairs == [(-2, -2), (-2, -1), (-1, -2)]


def test_blocks_of_rows_match_the_pairwise_oracle(monkeypatch):
    # small digit caps split n = 4, 5, 7 and 9 into blocks of 1 to 4 rows,
    # most of which leave a shorter last block
    line, lex = IntLine(), IntVector(2, lex=True)
    cases = [(Projector.cutoff(line, w), int_window(-3, 3)) for w in (-2, 0, 2)]
    cases += [(Projector.cutoff(line, w), int_window(-2, 2)) for w in (-1, 1)]
    cases += [(Projector.cutoff(lex, w), vector_window(-1, 1, 2)) for w in ((0, 0), (1, -1))]
    cases += [(Projector.cutoff(lex, w), vector_window(-1, 0, 2)) for w in ((0, 0), (-1, 0))]
    # non-cancellative tables: several pairs of one block share a sum
    for table in (truncated_addition_table(4), max_chain_table(4)):
        cases += [(Projector.from_mask(table, mask), table.carrier()) for mask in range(1 << table.n)]
    for block_digits in (4, 9, 16):
        monkeypatch.setattr(gpsrb.projectors, "BLOCK_DIGITS", block_digits)
        for ring in (ZZ, QQ, Zmod(2), Zmod(7)):
            flagged = sum(bool(assert_routes_agree(P, window, ring)) for P, window in cases)
            assert 0 < flagged < len(cases)


def count_defect_calls(monkeypatch) -> list:
    """Record the term counts (left, right) of the arguments of each rb_defect call."""
    calls = []
    real = gpsrb.projectors.rb_defect

    def counting(P, f, g):
        calls.append((len(f.items()), len(g.items())))
        return real(P, f, g)

    monkeypatch.setattr(gpsrb.projectors, "rb_defect", counting)
    return calls


def test_one_defect_call_per_block(monkeypatch):
    calls = count_defect_calls(monkeypatch)
    window = int_window(-6, 6)
    n = len(window)
    for block_digits, rows in ((256, 13), (40, 3), (26, 2), (9, 1)):
        monkeypatch.setattr(gpsrb.projectors, "BLOCK_DIGITS", block_digits)
        calls.clear()
        list(nonzero_defect_pairs(Projector.cutoff(IntLine(), -2), window, QQ))
        # ceil(n / rows) calls, each a block of rows rows but the last
        assert len(calls) == -(-n // rows)
        assert calls == [(min(rows, n - start), n) for start in range(0, n, rows)]


def test_first_pair_stops_at_first_failing_row(monkeypatch):
    calls = count_defect_calls(monkeypatch)
    # odds kept: -3 + -3 = -6 is killed, so the first row already fails
    P = Projector(IntLine(), lambda s: s % 2 == 1, "odds")
    first = next(nonzero_defect_pairs(P, int_window(-3, 3), ZZ))
    assert first == (-3, -3)
    assert len(calls) == 1


def test_digits_are_reduced_mod_m(monkeypatch):
    # the decoder relies only on the [-2, 2] bound: a planted digit of 2 at
    # v = -1 (so -2 at the next digit, v = 0) in every row vanishes over Z/2
    # alone. The left argument is sum_i 8^(n i) e_{u_i}, so the sum of its
    # coefficients times 2 - 16 plants that pair at digits n i and n i + 1
    # for each row i of the block.
    monkeypatch.setattr(
        gpsrb.projectors,
        "rb_defect",
        lambda P, f, g: Series(f.monoid, f.ring, {0: (2 - 16) * sum(c for _, c in f.items())}),
    )
    P = Projector.cutoff(IntLine(), 0)
    window = int_window(-1, 1)
    # one block of 3 rows, blocks of 2 and 1, and blocks of one row
    for block_digits in (256, 6, 3):
        monkeypatch.setattr(gpsrb.projectors, "BLOCK_DIGITS", block_digits)
        assert list(nonzero_defect_pairs(P, window, Zmod(2))) == []
        for ring in (ZZ, QQ, Zmod(7)):
            pairs = list(nonzero_defect_pairs(P, window, ring))
            assert pairs == [(u, v) for u in window for v in (-1, 0)]


def test_repeated_window_element_is_refused():
    P = Projector(IntLine(), lambda s: s < 0, "negatives")
    with pytest.raises(ValueError, match="window repeats 1"):
        indicator_pair_scan(P, [1, 1, 2], ZZ)


def test_scan_witness_defect_is_over_the_callers_ring():
    P = Projector(IntLine(), lambda s: s % 2 == 1, "odds")
    for ring, coeff in ((QQ, "1"), (Zmod(7), "1 mod 7")):
        out = indicator_pair_scan(P, int_window(-2, 2), ring)
        assert out.witness == {"u": "-1", "v": "-1", "defect": [{"exp": "-2", "coeff": coeff}]}


def test_laurent_demo_forms_four_products_per_pair(monkeypatch, capsys):
    # counted at the series product, which every Laurent product goes
    # through: P(f)P(g) of two exact pole parts whole, the three projected
    # products bounded at 0
    calls = []
    real = Series.mul

    def counting(self, other, below=None):
        calls.append(below)
        return real(self, other, below)

    monkeypatch.setattr(Series, "mul", counting)
    assert main(["laurent-demo", "--count", "5", "--ring", "Z/7", "--json"]) == 0
    capsys.readouterr()
    assert calls == [None, 0, 0, 0] * 5
