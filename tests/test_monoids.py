from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import commutative_monoid_tables
from gpsrb import (
    BadElement,
    BadTable,
    FiniteTable,
    IntLine,
    IntVector,
    cyclic_table,
    idempotent_pair_table,
    int_window,
    load_table,
    truncated_addition_table,
    validate_monoid,
    vector_window,
)
from gpsrb.monoids import default_window

ints = st.integers(min_value=-50, max_value=50)
vecs2 = st.tuples(ints, ints)


def test_int_line_basics():
    M = IntLine()
    assert M.zero() == 0
    assert M.add(3, -5) == -2
    assert M.lt(-1, 0) and not M.lt(0, 0)
    assert M.parse_elem(" -4 ") == -4
    with pytest.raises(BadElement):
        M.check_elem("x")
    with pytest.raises(BadElement):
        M.check_elem(True)  # bools are not exponents


def test_nat_line_rejects_negatives():
    M = IntLine(nonneg=True)
    M.check_elem(0)
    with pytest.raises(BadElement):
        M.check_elem(-1)
    with pytest.raises(BadElement):
        M.parse_elem("-3")


def test_vector_product_partial_order():
    M = IntVector(2)
    assert M.add((1, 2), (3, -1)) == (4, 1)
    assert M.lt((0, 0), (1, 1))
    assert not M.lt((1, 0), (0, 1)) and not M.lt((0, 1), (1, 0))  # incomparable
    assert M.lt((0, 0), (0, 1))
    assert not M.lt((0, 0), (0, 0))
    assert M.parse_elem("(1, -2)") == (1, -2)
    with pytest.raises(BadElement):
        M.check_elem((1,))
    with pytest.raises(BadElement):
        M.parse_elem("(1,2,3)")


def test_vector_lex_total_order():
    M = IntVector(2, lex=True)
    assert M.lt((0, 5), (1, -100))
    assert M.lt((1, -100), (1, 0))
    w = vector_window(-1, 1, 2)
    for a in w:
        for b in w:
            assert M.lt(a, b) or M.lt(b, a) or a == b


def _lex_leq(a, b) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return True


@given(
    pair=st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(*[st.tuples(*[st.integers(-3, 3)] * d)] * 2)
    ),
    lex=st.booleans(),
)
def test_vector_ops_match_their_componentwise_definitions(pair, lex):
    a, b = pair
    M = IntVector(len(a), lex=lex)
    assert M.add(a, b) == tuple(x + y for x, y in zip(a, b))
    leq = _lex_leq(a, b) if lex else all(x <= y for x, y in zip(a, b))
    assert M.lt(a, b) is (leq and a != b)


@given(a=vecs2, b=vecs2, t=vecs2, lex=st.booleans())
def test_product_order_strict_compat(a, b, t, lex):
    M = IntVector(2, lex=lex)
    if M.lt(a, b):
        assert M.lt(M.add(a, t), M.add(b, t))


@given(a=ints, b=ints, t=ints)
def test_int_line_strict_compat(a, b, t):
    M = IntLine()
    if M.lt(a, b):
        assert M.lt(a + t, b + t)


def test_validate_finite_table_conclusive():
    for t in (cyclic_table(4), truncated_addition_table(3), idempotent_pair_table()):
        outcome = validate_monoid(t)
        assert outcome.verdict == "pass"


def test_validate_catches_broken_axioms():
    # not commutative
    t = FiniteTable.from_lists(2, 0, [[0, 1], [0, 1]])
    bad = validate_monoid(t)
    assert bad.verdict == "fail"
    assert bad.witness["axiom"] in ("commutative", "neutral")

    # the chain order on the capped monoid breaks strict compatibility, and
    # on a finite table only the trivial order is strictly compatible
    m = 2
    add = [[min(i + j, m) for j in range(m + 1)] for i in range(m + 1)]
    leq = [[i <= j for j in range(m + 1)] for i in range(m + 1)]
    t2 = FiniteTable.from_lists(m + 1, 0, add, leq)
    out = validate_monoid(t2)
    assert out.verdict == "fail"
    assert out.witness["axiom"] == "trivial-order"


def test_order_check_comes_before_associativity():
    # commutative with neutral 0, but (1 + 1) + 2 = 2 while 1 + (1 + 2) = 1
    add = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    assert validate_monoid(FiniteTable.from_lists(3, 0, add)).witness == {
        "axiom": "associative", "a": "1", "b": "1", "c": "2"
    }
    chain = [[i <= j for j in range(3)] for i in range(3)]
    out = validate_monoid(FiniteTable.from_lists(3, 0, add, chain))
    assert out.witness == {"axiom": "trivial-order", "a": "0", "b": "1"}


def test_validation_refuses_infinite_carriers():
    for M in (IntLine(), IntVector(2, lex=True)):
        with pytest.raises(TypeError):
            validate_monoid(M)


def _is_monoid(t: FiniteTable) -> bool:
    E, add, z = range(t.n), t.add, t.neutral
    return (
        all(add(a, z) == a == add(z, a) for a in E)
        and all(add(a, b) == add(b, a) for a in E for b in E)
        and all(add(add(a, b), c) == add(a, add(b, c)) for a in E for b in E for c in E)
    )


def _is_partial_order(t: FiniteTable) -> bool:
    E, le = range(t.n), t.leq_table
    return (
        all(le[a][a] for a in E)
        and all(a == b or not (le[a][b] and le[b][a]) for a in E for b in E)
        and all(le[a][c] or not (le[a][b] and le[b][c]) for a in E for b in E for c in E)
    )


def _strictly_compatible(t: FiniteTable) -> bool:
    E, add, lt = range(t.n), t.add, t.lt
    return all(lt(add(s, u), add(s2, u)) for s in E for s2 in E if lt(s, s2) for u in E)


def _small_tables():
    """Every table with n <= 2, any neutral; every commutative monoid at n = 3, neutral 0."""
    for n in (1, 2):
        for neutral in range(n):
            for cells in product(range(n), repeat=n * n):
                yield n, neutral, [cells[i * n : (i + 1) * n] for i in range(n)]
    for t in commutative_monoid_tables(3):
        yield 3, 0, t.add_table


def test_validation_matches_the_seven_axioms_on_small_tables():
    # brute force over every order matrix; a finite monoid admits only the
    # trivial strictly compatible order, so each nontrivial partial order fails
    nontrivial_orders_on_monoids = 0
    for n, neutral, add in _small_tables():
        monoid = _is_monoid(FiniteTable.from_lists(n, neutral, add))
        for bits in product((False, True), repeat=n * n):
            leq = [bits[i * n : (i + 1) * n] for i in range(n)]
            t = FiniteTable.from_lists(n, neutral, add, leq)
            ordered_monoid = monoid and _is_partial_order(t)
            holds = ordered_monoid and _strictly_compatible(t)
            assert validate_monoid(t).verdict == ("pass" if holds else "fail"), (add, leq)
            identity = all(leq[i][j] == (i == j) for i in range(n) for j in range(n))
            if ordered_monoid and not identity:
                assert not holds
                nontrivial_orders_on_monoids += 1
    assert nontrivial_orders_on_monoids == 170  # 4 monoids x 2 orders, 9 x 18


@pytest.mark.parametrize(
    "add,leq",
    [(5, None), ([[0, 1], 5], None), ("ab", None), ([[0, 1], [1, 0]], 7), ([[0, 1], [1, 0]], [[True, False], "ab"])],
)
def test_from_lists_rejects_tables_that_are_not_square_lists(add, leq):
    with pytest.raises(BadTable, match="table must be 2x2"):
        FiniteTable.from_lists(2, 0, add, leq)


def test_from_lists_shape_errors():
    with pytest.raises(BadTable):
        FiniteTable.from_lists(2, 0, [[0, 1]])  # not square
    with pytest.raises(BadTable):
        FiniteTable.from_lists(2, 5, [[0, 1], [1, 0]])  # neutral out of range
    with pytest.raises(BadTable):
        FiniteTable.from_lists(2, 0, [[0, 2], [1, 0]])  # entry out of range
    with pytest.raises(BadTable):
        FiniteTable.from_lists(2, 0, [[0, 1], [1, 0]], [[1, 0], [0, 1]])  # leq not bools


def test_load_table_roundtrip(tmp_path):
    import json

    t = cyclic_table(3)
    path = tmp_path / "z3.json"
    path.write_text(
        json.dumps(
            {
                "name": "Z/3",
                "n": t.n,
                "neutral": t.neutral,
                "add": [list(r) for r in t.add_table],
                "leq": [list(r) for r in t.leq_table],
            }
        )
    )
    loaded = load_table(str(path))
    assert loaded.add_table == t.add_table
    assert loaded.leq_table == t.leq_table


def test_load_table_default_leq_is_identity(tmp_path):
    import json

    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 2, "neutral": 0, "add": [[0, 1], [1, 0]]}))
    t = load_table(str(path))
    assert t.leq_table[0][0] and t.leq_table[1][1]
    assert not t.leq_table[0][1] and not t.leq_table[1][0]


def test_load_table_rejects_bad_files(tmp_path):
    with pytest.raises(BadTable):
        load_table(str(tmp_path / "missing.json"))
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(BadTable):
        load_table(str(p))
    p2 = tmp_path / "nokeys.json"
    p2.write_text("{\"n\": 2}")
    with pytest.raises(BadTable):
        load_table(str(p2))
    # well-formed but fails associativity: 1+1=1 with neutral 0 is fine,
    # so use a table whose neutral row is wrong instead
    p3 = tmp_path / "axioms.json"
    p3.write_text("{\"n\": 2, \"neutral\": 0, \"add\": [[1, 1], [1, 1]]}")
    with pytest.raises(BadTable):
        load_table(str(p3))


def test_windows():
    assert int_window(-2, 2) == [-2, -1, 0, 1, 2]
    assert len(vector_window(-1, 1, 2)) == 9
    with pytest.raises(ValueError):
        int_window(3, 1)
    assert default_window(IntLine(nonneg=True))[0] == 0
    assert set(default_window(cyclic_table(4))) == {0, 1, 2, 3}


def test_one_line_class_and_one_vector_class_keep_their_names():
    monoids = [IntLine(), IntLine(nonneg=True), IntVector(2), IntVector(2, lex=True), IntVector(1, lex=True)]
    assert [str(m) for m in monoids] == ["Z", "N", "Z^2:product", "Z^2:lex", "Z^1:lex"]
    assert len(set(monoids)) == len(monoids)  # the flags tell the twins apart
    assert IntVector(2).lt((0, 0), (0, 1)) and not IntVector(2).lt((0, 1), (1, 0))
    assert IntVector(2, lex=True).lt((0, 1), (1, 0))


def test_windows_trimmed_to_the_carrier():
    N = IntLine(nonneg=True)
    assert N.window(-2, 2) == [0, 1, 2] and N.window_size(-2, 2) == 3
    assert default_window(N, 2) == [0, 1, 2, 3, 4]
    assert default_window(IntLine(), 2) == [-2, -1, 0, 1, 2]
    with pytest.raises(BadElement, match="'-5..-1' contains no naturals"):
        N.window(-5, -1)
    V = IntVector(3, lex=True)
    assert V.window(-1, 1) == vector_window(-1, 1, 3) and V.window_size(-1, 1) == 27
    assert default_window(V, 1) == vector_window(-1, 1, 3)
    assert IntVector(100).window_size(0, 0) == 1
    assert IntVector(100).window_size(-1, 1) >= 2**64  # counted, never built
    t = cyclic_table(4)
    assert t.window(-3, 9) == [0, 1, 2, 3] and t.window_size(1, 9) == 3
    assert default_window(t, 1) == [0, 1, 2, 3]
    with pytest.raises(BadElement, match="'5..9' misses the carrier 0..3"):
        t.window(5, 9)


def test_from_exponent():
    assert IntLine().from_exponent(-3) == -3
    assert IntVector(1, lex=True).from_exponent(4) == (4,)  # Z^1 takes a scalar
    assert IntVector(2).from_exponent((1, -2)) == (1, -2)
    assert cyclic_table(4).from_exponent(3) == 3
    bad = [
        (IntLine(), (1, 2), "tuple exponent needs a vector monoid, not Z"),
        (IntLine(nonneg=True), -1, "not a natural number: -1"),
        (IntVector(2), 1, "scalar exponent for Z^2:product; write a 2-tuple"),
        (IntVector(2, lex=True), (1, 2, 3), "exponent has 3 coordinates, Z^2:lex needs 2"),
        (cyclic_table(4), 4, "not an index in 0..3: 4"),
    ]
    for monoid, value, message in bad:
        with pytest.raises(BadElement) as info:
            monoid.from_exponent(value)
        assert str(info.value) == message


def test_covers_only_a_whole_finite_carrier():
    t = cyclic_table(4)
    assert t.covers(range(4)) and t.covers([3, 2, 1, 0, 0])
    assert not t.covers([0, 1, 2])
    assert not IntLine(nonneg=True).covers(range(100))
    assert not IntVector(1).covers([(0,)])


def test_truncated_addition_is_a_monoid_but_chain_is_not_compatible():
    # the capped monoid ships with the trivial order because its natural
    # chain order fails strict compatibility (see validate test above)
    t = truncated_addition_table(4)
    assert validate_monoid(t).verdict == "pass"
    assert t.add(3, 4) == 4 and t.add(2, 2) == 4
