import random

import pytest

import gpsrb.oracles
import gpsrb.projectors
from conftest import (
    DEFAULT_SEED,
    closure_witness,
    commutative_monoid_tables,
    direct_product_table,
    max_chain_table,
    memo_sweep,
    null_semigroup_table,
    reference_sweep,
    relabel_table,
)
from gpsrb import (
    FiniteTable,
    IntLine,
    IntVector,
    Projector,
    QQ,
    RouteDisagreement,
    TooLarge,
    ZZ,
    Zmod,
    Series,
    closed_under_addition,
    cyclic_table,
    default_corpus,
    idempotent_pair_table,
    indicator,
    int_window,
    rb_defect,
    scan_cutoffs,
    truncated_addition_table,
    validate_monoid,
    vector_window,
    verify_theorem_decomposition,
)
from gpsrb.projectors import BLOCK_DIGITS, nonzero_defect_pairs


def test_sweep_z2_hand_count():
    # four bitmasks on {0,1}: only the two trivial splits keep both parts closed
    report = verify_theorem_decomposition(cyclic_table(2))
    assert report.decompositions_total == 4
    assert report.rb_count == 2
    assert report.rb_masks == (0b00, 0b11)
    assert report.mismatches == ()


def test_sweep_z3_no_mismatches():
    report = verify_theorem_decomposition(cyclic_table(3))
    assert report.mismatches == ()
    assert report.decompositions_total == 8
    assert 0b111 in report.rb_masks and 0b000 in report.rb_masks


def test_sweep_idempotent_pair_all_splits():
    # 0+0=0, e+e=e, 0+e=e: every one of the four splits has both parts closed
    report = verify_theorem_decomposition(idempotent_pair_table())
    assert report.rb_count == 4
    assert report.mismatches == ()


def test_identity_and_zero_projectors_always_count():
    for t in (cyclic_table(4), truncated_addition_table(2)):
        report = verify_theorem_decomposition(t)
        full = (1 << t.n) - 1
        assert 0 in report.rb_masks  # P = 0
        assert full in report.rb_masks  # P = id
        assert report.mismatches == ()


def test_sweep_too_large():
    with pytest.raises(TooLarge):
        verify_theorem_decomposition(cyclic_table(4), max_size=3)


def test_sweep_rejects_infinite_monoid():
    with pytest.raises(TypeError):
        verify_theorem_decomposition(IntLine())


def test_report_json_shape():
    report = verify_theorem_decomposition(cyclic_table(2))
    j = report.to_json()
    assert j["rb_count"] == 2
    assert j["mismatches"] == []
    assert j["rb_masks"] == [0, 3]
    assert j["elapsed"] >= 0


def test_scan_cutoffs_int_line():
    results = scan_cutoffs(IntLine(), int_window(-3, 4), int_window(-8, 8))
    verdicts = {w: oc for w, oc in results}
    good = sorted(w for w, oc in verdicts.items() if oc)
    assert good == [0, 1]
    assert verdicts[-1].witness["drop_in"] == [["-1", "-1"]]
    assert verdicts[2].witness["escape"] == [["1", "1"]]


def test_scan_cutoffs_nat_line_zero_vacuous():
    # nothing is below 0 in the naturals, so both obstruction sets are empty
    (w, oc), = scan_cutoffs(IntLine(nonneg=True), [0], int_window(0, 8))
    assert w == 0 and oc.verdict == "pass-on-window"


def test_scan_cutoffs_vec2_origin_has_drop_in_pairs():
    # mixed-sign vectors are not below (0,0), yet their sums can be:
    # (1,-2) + (-2,1) = (-1,-1) < (0,0)
    window = vector_window(-3, 3, 2)
    (w, oc), = scan_cutoffs(IntVector(2), [(0, 0)], window)
    assert oc.verdict == "fail"
    assert ["(1,-2)", "(-2,1)"] in oc.witness["drop_in"]
    assert oc.witness["escape"] == []


def test_corpus_contents():
    corpus = default_corpus()
    names = [t.name for t in corpus]
    assert names[:6] == [f"Z/{n}" for n in range(1, 7)]
    assert "min-cap(4)" in names and "idempotent-pair" in names
    for t in corpus:
        assert validate_monoid(t).verdict == "pass"


def test_verdict_ignores_order_matrix():
    # same addition table, different (not necessarily strictly compatible)
    # order matrices: the sweep never consults leq, so verdicts coincide
    base = cyclic_table(3)
    chain = [[i <= j for j in range(3)] for i in range(3)]
    alt = FiniteTable.from_lists(3, 0, [list(r) for r in base.add_table], chain, name="Z/3-chain")
    assert (
        verify_theorem_decomposition(alt).rb_masks
        == verify_theorem_decomposition(base).rb_masks
    )


def test_no_nontrivial_strictly_compatible_order_on_z4():
    """Exhaustive: the only strictly compatible partial order on Z/4 is trivial.

    Any relation a < b forces the strictly increasing chain 0 < d < 2d < ...
    with d = b - a, which a finite group cannot host. The sweep below confirms
    it by enumerating all 2^12 candidate off-diagonal relation sets.
    """
    t = cyclic_table(4)
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    found = []
    for mask in range(1 << len(pairs)):
        rel = {p for k, p in enumerate(pairs) if mask >> k & 1}
        if not rel:
            continue
        if any((b, a) in rel for a, b in rel):
            continue  # antisymmetry
        if any(
            (a, d) not in rel for a, b in rel for c, d in rel if b == c and a != d
        ):
            continue  # transitivity
        if all((t.add(a, k), t.add(b, k)) in rel for a, b in rel for k in range(4)):
            found.append(rel)
    assert found == []


def _sweep_tables():
    rng = random.Random(DEFAULT_SEED)
    bases = [
        cyclic_table(8),
        truncated_addition_table(7),
        direct_product_table(cyclic_table(2), cyclic_table(4)),
        direct_product_table(cyclic_table(3), truncated_addition_table(2)),
    ]
    return default_corpus() + [relabel_table(t, rng) for t in bases]


@pytest.mark.parametrize("table", _sweep_tables(), ids=str)
def test_sweep_matches_full_scan_reference(table):
    report = verify_theorem_decomposition(table)
    expected = reference_sweep(table)
    assert report.rb_masks == expected["rb_masks"]
    assert report.rb_count == expected["rb_count"]
    assert report.mismatches == expected["mismatches"] == ()
    assert report.closed_masks == expected["closed_masks"]
    assert report.decompositions_total == 1 << table.n


def test_sweep_defect_evals_one_per_unclosed_mask():
    # Z/4: only the two trivial splits are closed; each gets the 4^2 scan
    report = verify_theorem_decomposition(cyclic_table(4))
    assert report.closed_masks == 2
    assert report.defect_evals == 14 + 2 * 16
    j = report.to_json()
    assert (j["closed_masks"], j["defect_evals"]) == (2, 46)


@pytest.mark.parametrize("n", range(1, 9))
def test_sweep_of_chain_semilattice_scans_every_mask(n):
    # every mask of max(n) is closed, so each one pays the full n^2 scan,
    # the only path that can show a closed-but-defect mismatch
    table = max_chain_table(n)
    assert validate_monoid(table).verdict == "pass"
    for ring in (ZZ, QQ, Zmod(2)):
        report = verify_theorem_decomposition(table, ring)
        expected = reference_sweep(table, ring)
        assert report.rb_masks == expected["rb_masks"] == tuple(range(1 << n))
        assert report.mismatches == expected["mismatches"] == ()
        assert report.closed_masks == expected["closed_masks"] == 1 << n
        assert report.defect_evals == (1 << n) * n * n


def test_sweep_scan_pairs_are_bounded_before_the_first_scan(monkeypatch):
    # max(4) has 16 closed masks and no rescanned one: 16 x 4^2 = 256 scan pairs
    table = max_chain_table(4)
    monkeypatch.setattr(gpsrb.oracles, "SCAN_PAIR_BUDGET", 256)
    assert verify_theorem_decomposition(table).closed_masks == 16
    scans = []
    real = gpsrb.oracles.nonzero_defect_pairs
    monkeypatch.setattr(gpsrb.oracles, "nonzero_defect_pairs", lambda *a: scans.append(a) or real(*a))
    monkeypatch.setattr(gpsrb.oracles, "SCAN_PAIR_BUDGET", 255)
    with pytest.raises(TooLarge) as err:
        verify_theorem_decomposition(table)
    assert str(err.value) == (
        "16 closed and 0 rescanned masks x 4^2 = 256 single-term pairs to scan, above the budget of 255"
    )
    assert scans == []
    # rescanned masks count too: with every witness defect planted zero, all
    # 2^3 - 2 unclosed masks of Z/3 are rescanned
    monkeypatch.setattr(gpsrb.oracles, "rb_defect", lambda P, f, g: Series(f.monoid, f.ring))
    monkeypatch.setattr(gpsrb.oracles, "SCAN_PAIR_BUDGET", 71)
    with pytest.raises(TooLarge) as err:
        verify_theorem_decomposition(cyclic_table(3))
    assert str(err.value).startswith("2 closed and 6 rescanned masks x 3^2 = 72 single-term pairs")


def test_scan_budget_admits_max_12_and_refuses_max_13(monkeypatch):
    assert (1 << 12) * 12 * 12 <= gpsrb.oracles.SCAN_PAIR_BUDGET < (1 << 13) * 13 * 13
    monkeypatch.setattr(gpsrb.oracles, "nonzero_defect_pairs", lambda *a: pytest.fail("scanned"))
    with pytest.raises(TooLarge):
        verify_theorem_decomposition(max_chain_table(13), max_size=13)


def plant_defect(monkeypatch, fake):
    """Replace rb_defect in every module of the sweep that calls it."""
    for module in (gpsrb.projectors, gpsrb.oracles):
        monkeypatch.setattr(module, "rb_defect", fake)


def test_sweep_catches_planted_zero_defect(monkeypatch):
    table = cyclic_table(4)
    plant_defect(monkeypatch, lambda P, f, g: Series(f.monoid, f.ring))
    report = verify_theorem_decomposition(table)
    unclosed = [m for m in range(16) if m not in (0b0000, 0b1111)]
    assert report.mismatches == tuple((m, "defect-free-but-not-closed") for m in unclosed)
    assert report.rb_count == 16


def test_sweep_catches_planted_nonzero_defect(monkeypatch):
    table = truncated_addition_table(2)
    expected = reference_sweep(table)
    plant_defect(monkeypatch, lambda P, f, g: indicator(f.monoid, f.monoid.zero(), f.ring))
    report = verify_theorem_decomposition(table)
    assert report.rb_masks == ()
    closed = expected["rb_masks"]  # the closed masks, as the reference finds no mismatch
    assert 0b000 in closed and 0b111 in closed
    assert report.mismatches == tuple((m, "closed-but-defect") for m in closed)


def test_scan_cutoffs_raises_on_planted_zero_defect(monkeypatch):
    # at w=-1 the killed pair (-1, -1) drops into the kept part at -2
    plant_defect(monkeypatch, lambda P, f, g: Series(f.monoid, f.ring))
    with pytest.raises(RouteDisagreement, match=r"w=-1, pair \(-1, -1\): defect zero but in an"):
        scan_cutoffs(IntLine(), [-1], int_window(-2, 2))


def count_rb_defect_calls(monkeypatch):
    """Wrap rb_defect where plant_defect plants it; record each call's (P, f, g).

    Calls through gpsrb.oracles are witness calls, calls through
    gpsrb.projectors come from the defect scan.
    """
    calls = {"witness": [], "scan": []}
    real = gpsrb.projectors.rb_defect

    def counted(kind):
        def call(P, f, g):
            calls[kind].append((P, f, g))
            return real(P, f, g)

        return call

    monkeypatch.setattr(gpsrb.oracles, "rb_defect", counted("witness"))
    monkeypatch.setattr(gpsrb.projectors, "rb_defect", counted("scan"))
    return calls


def _memo_tables():
    return [cyclic_table(n) for n in range(1, 9)] + [truncated_addition_table(m) for m in range(1, 8)]


@pytest.mark.parametrize("table", _memo_tables(), ids=str)
def test_sweep_computes_each_witness_defect_once(monkeypatch, table):
    calls = count_rb_defect_calls(monkeypatch)
    report = verify_theorem_decomposition(table)
    n = table.n
    keys = []
    for P, f, g in calls["witness"]:
        (u,), (v,) = f.support(), g.support()
        keys.append((u, v, P.keeps(u), P.keeps(v), P.keeps(table.add(u, v))))
    assert len(set(keys)) == len(keys)  # no witness pattern evaluated twice
    unclosed = (1 << n) - report.closed_masks
    assert len(keys) <= min(2 * n * n, unclosed)
    assert report.defect_evals >= unclosed  # still one per unclosed mask
    # a witness defect is never zero on a correct sweep, so only the closed
    # masks are scanned in full, each in ceil(n / rows) block calls at most
    scanned = {id(P) for P, _, _ in calls["scan"]}
    assert len(scanned) == report.closed_masks
    rows = max(1, BLOCK_DIGITS // n)
    assert len(calls["scan"]) <= report.closed_masks * -(-n // rows)
    assert report.rb_masks == reference_sweep(table)["rb_masks"]


def _witness_tables():
    rng = random.Random(DEFAULT_SEED)
    products = [
        direct_product_table(cyclic_table(2), cyclic_table(3)),
        direct_product_table(cyclic_table(2), cyclic_table(4)),
        direct_product_table(cyclic_table(2), truncated_addition_table(3)),
    ]
    return _memo_tables() + [relabel_table(t, rng) for t in products]


@pytest.mark.parametrize("table", _witness_tables(), ids=str)
def test_bitset_sweep_makes_the_memo_loops_witness_calls(monkeypatch, table):
    # each witness defect is evaluated at the mask the mask-by-mask memo
    # loop evaluates it at: the lowest mask with that first violating pair
    # on that side
    expected = memo_sweep(table)["witness_calls"]
    calls = count_rb_defect_calls(monkeypatch)
    verify_theorem_decomposition(table)
    made = []
    for P, f, g in calls["witness"]:
        (u,), (v,) = f.support(), g.support()
        made.append((sum(1 << s for s in table.carrier() if P.keeps(s)), u, v))
    assert len(set(made)) == len(made) == len(expected)
    assert set(made) == set(expected)
    for mask, u, v in made:
        assert closure_witness(table, mask) == (u, v)


def _bench_shaped_tables():
    # the families of the sweep benchmark, n = 6..10, relabelled
    rng = random.Random(DEFAULT_SEED)
    bases = [cyclic_table(n) for n in range(6, 11)] + [truncated_addition_table(m) for m in range(5, 10)]
    bases.append(direct_product_table(cyclic_table(2), cyclic_table(5)))
    return [relabel_table(t, rng) for t in bases] + [max_chain_table(n) for n in range(1, 9)]


@pytest.mark.parametrize("table", _bench_shaped_tables(), ids=str)
def test_bitset_sweep_counters_match_the_memo_loop(table):
    for ring in (ZZ, QQ, Zmod(2)):
        report = verify_theorem_decomposition(table, ring)
        expected = memo_sweep(table, ring)
        assert report.rb_masks == expected["rb_masks"]
        assert report.mismatches == expected["mismatches"] == ()
        assert report.closed_masks == expected["closed_masks"]
        assert report.defect_evals == expected["defect_evals"]


@pytest.mark.parametrize(
    "table", [cyclic_table(5), truncated_addition_table(4), max_chain_table(4), null_semigroup_table(4)], ids=str
)
def test_single_term_defect_depends_only_on_the_local_pattern(table):
    # why one witness call settles all masks of one side: two masks that
    # agree on u, v and u + v give the same defect on (e_u, e_v), term for
    # term
    for ring in (ZZ, Zmod(2)):
        ones = [indicator(table, s, ring) for s in table.carrier()]
        for u in table.carrier():
            for v in table.carrier():
                s = table.add(u, v)
                seen = {}
                for mask in range(1 << table.n):
                    d = rb_defect(Projector.from_mask(table, mask), ones[u], ones[v])
                    local = (mask >> u & 1, mask >> v & 1, mask >> s & 1)
                    assert seen.setdefault(local, d) == d


def local_defect(zero_pattern, where=lambda u, v: True):
    """A bilinear defect that reads P.keeps only at u, v and u + v, and vanishes on one pattern.

    Each pair of terms a e_u, b e_v adds a b (k_u k_v - k_v k_s - k_u k_s +
    k_s) at s = u + v, the true single-term defect, unless (k_u, k_v, k_s)
    is zero_pattern and where(u, v) holds. It serves single-term and
    block-packed calls alike.
    """

    def fake(P, f, g):
        add, keeps, ring = f.monoid.add, P.keeps, f.ring
        acc = {}
        for u, a in f.items():
            ku = int(keeps(u))
            for v, b in g.items():
                s = add(u, v)
                kv, ks = int(keeps(v)), int(keeps(s))
                if (ku, kv, ks) != zero_pattern or not where(u, v):
                    acc[s] = acc.get(s, 0) + a * b * (ku * kv - kv * ks - ku * ks + ks)
        m = ring.modulus
        return Series(f.monoid, ring, {s: c % m if m else c for s, c in acc.items()})

    return fake


def mask_by_mask_mismatches(table, ring):
    """The witness-first sweep with no memo: one witness rb_defect call per unclosed mask."""
    elems = list(table.carrier())
    ones = [indicator(table, s, ring) for s in elems]
    mismatches = []
    for mask in range(1 << table.n):
        P = Projector.from_mask(table, mask)
        witness = closure_witness(table, mask)
        if witness is not None:
            u, v = witness
            if not gpsrb.oracles.rb_defect(P, ones[u], ones[v]).is_zero():
                continue
        semantic = next(nonzero_defect_pairs(P, elems, ring), None) is None
        if (witness is None) != semantic:
            mismatches.append((mask, "defect-free-but-not-closed" if semantic else "closed-but-defect"))
    return tuple(mismatches)


@pytest.mark.parametrize("zero_pattern", [(1, 1, 0), (0, 0, 1)])
@pytest.mark.parametrize(
    "table",
    [
        cyclic_table(4),
        truncated_addition_table(4),
        relabel_table(direct_product_table(cyclic_table(2), cyclic_table(3)), random.Random(DEFAULT_SEED)),
    ],
    ids=str,
)
def test_memo_matches_mask_by_mask_sweep_under_a_local_fake(monkeypatch, table, zero_pattern):
    # with the kept-side (1, 1, 0) or killed-side (0, 0, 1) violations
    # silenced, a mask whose only violations are on that side looks
    # defect-free: exactly those masks are mismatches
    plant_defect(monkeypatch, local_defect(zero_pattern))
    elems = list(table.carrier())
    expected = []
    for mask in range(1 << table.n):
        P = Projector.from_mask(table, mask)
        silenced, other = closed_under_addition(P, elems)
        if not zero_pattern[0]:
            silenced, other = other, silenced
        if other and not silenced:
            expected.append((mask, "defect-free-but-not-closed"))
    assert expected
    for ring in (ZZ, QQ, Zmod(2)):
        report = verify_theorem_decomposition(table, ring)
        assert report.mismatches == mask_by_mask_mismatches(table, ring) == tuple(expected)
        # the rescanned masks interleave with the closed ones in rb_masks
        memo = memo_sweep(table, ring)
        assert report.rb_masks == memo["rb_masks"]
        assert (report.closed_masks, report.defect_evals) == (memo["closed_masks"], memo["defect_evals"])


@pytest.mark.parametrize("zero_pattern", [(1, 1, 0), (0, 0, 1)])
@pytest.mark.parametrize(
    "table",
    [
        cyclic_table(3),
        cyclic_table(5),
        relabel_table(direct_product_table(cyclic_table(2), cyclic_table(3)), random.Random(DEFAULT_SEED)),
    ],
    ids=str,
)
def test_memo_keys_on_the_witness_pair_too(monkeypatch, table, zero_pattern):
    # silenced off the diagonal only, the witness defect depends on (u, v)
    # as well as on the three bits, and one witness call per pair and side
    # must still match the plain sweep (a call shared by all masks with the
    # same three bits would reuse the diagonal witness of an earlier mask
    # and miss a mismatch here)
    plant_defect(monkeypatch, local_defect(zero_pattern, lambda u, v: u != v))
    expected = mask_by_mask_mismatches(table, ZZ)
    assert expected
    assert verify_theorem_decomposition(table).mismatches == expected


@pytest.mark.parametrize("n", range(1, 5))
def test_sweep_of_every_small_commutative_monoid(n):
    # every labelled commutative monoid on {0..n-1} with neutral 0
    tables = list(commutative_monoid_tables(n))
    assert len(tables) == [1, 2, 9, 94][n - 1]
    for table in tables:
        assert validate_monoid(table).verdict == "pass"
        report = verify_theorem_decomposition(table)
        expected = reference_sweep(table)
        assert report.rb_masks == expected["rb_masks"]
        assert report.mismatches == expected["mismatches"] == ()
        assert report.closed_masks == expected["closed_masks"]


@pytest.mark.parametrize("n", range(1, 9))
def test_sweep_of_null_semigroup_with_identity(n):
    table = null_semigroup_table(n)
    assert validate_monoid(table).verdict == "pass"
    report = verify_theorem_decomposition(table)
    expected = reference_sweep(table)
    full = (1 << n) - 1
    assert report.rb_masks == expected["rb_masks"] == tuple(sorted({0, 1, full ^ 1, full}))
    assert report.mismatches == expected["mismatches"] == ()
    assert report.closed_masks == expected["closed_masks"]
