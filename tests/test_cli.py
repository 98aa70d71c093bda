import json
from pathlib import Path

import pytest

from gpsrb.cli import (
    LAURENT_JSON_BUDGET,
    PAIR_BUDGET,
    UsageError,
    check_pair_budget,
    main,
    parse_decomposition,
    parse_monoid_spec,
    parse_ring_spec,
    parse_window_spec,
)
from gpsrb import FiniteTable, IntLine, IntVector, TooLarge, zero_series
from gpsrb.parsing import MAX_NESTING

TABLES = Path(__file__).resolve().parent.parent / "tables"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul_basic(capsys):
    code, out, _ = run(capsys, "mul", "3*e^-2 + 5", "e^1")
    assert code == 0
    assert out.strip() == "3*e^-1 + 5*e^1"


def test_add_json(capsys):
    code, out, _ = run(capsys, "add", "e^1", "e^1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"exp": "1", "coeff": "2"}]


def test_mul_laurent_mode(capsys):
    code, out, _ = run(capsys, "mul", "e^-1 + O(e^3)", "e^2", "--laurent")
    assert code == 0
    assert out.strip() == "e^1 + O(e^5)"


def test_laurent_json_window_budget(capsys):
    top = LAURENT_JSON_BUDGET  # the window [0, top + 1) is one coefficient too wide
    code, out, err = run(capsys, "add", "1", f"e^{top}", "--laurent", "--json")
    assert (code, out) == (2, "")
    assert f"{top + 1} coefficients of [0, {top + 1})" in err
    code, out, _ = run(capsys, "add", "1", f"e^{top}", "--laurent")
    assert (code, out) == (0, f"1 + e^{top}\n")


def test_laurent_mode_needs_int_line(capsys):
    code, _, err = run(capsys, "mul", "e^1", "e^1", "--laurent", "--monoid", "N")
    assert code == 2
    assert "error" in err


def test_rb_check_negatives_passes(capsys):
    code, out, _ = run(capsys, "rb-check", "--monoid", "Z", "--decomp", "negatives", "--window", "-6..6")
    assert code == 0
    assert "pass-on-window" in out


def test_rb_check_odds_fails_with_witness(capsys):
    code, out, _ = run(capsys, "rb-check", "--monoid", "Z", "--decomp", "odds", "--window", "-6..6")
    assert code == 1
    assert "fail" in out and "witness" in out


def test_rb_check_explicit_pair(capsys):
    code, out, _ = run(
        capsys, "rb-check", "--decomp", "odds", "--f", "e^1", "--g", "e^1"
    )
    assert code == 1
    assert "defect: e^2" in out
    code2, out2, _ = run(
        capsys, "rb-check", "--decomp", "negatives", "--f", "e^-2 + e^1", "--g", "e^-1 + e^3"
    )
    assert code2 == 0
    assert "defect: 0" in out2


def test_rb_check_json(capsys):
    code, out, _ = run(
        capsys, "rb-check", "--decomp", "evens", "--window", "-4..4", "--json"
    )
    data = json.loads(out)
    assert data["kept_closed"]["verdict"] == "pass-on-window"
    assert data["defect_scan"]["verdict"] == "fail"
    assert code == 1


def test_cutoff_scan_marks_zero_and_one(capsys):
    code, out, _ = run(capsys, "cutoff-scan", "--monoid", "Z", "--w-range", "-3..4", "--window", "-8..8")
    assert code == 1  # counterexamples exist for most thresholds
    assert "identity holds on window for w in: {0, 1}" in out


def test_cutoff_scan_all_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "cutoff-scan", "--monoid", "Z", "--w-range", "0..1", "--window", "-6..6")
    assert code == 0
    assert "pass-on-window" in out


def test_cutoff_scan_json(capsys):
    code, out, _ = run(
        capsys, "cutoff-scan", "--monoid", "Z", "--w-range", "-1..2", "--window", "-5..5", "--json"
    )
    data = json.loads(out)
    verdicts = {r["w"]: r["verdict"] for r in data["results"]}
    assert verdicts == {"-1": "fail", "0": "pass-on-window", "1": "pass-on-window", "2": "fail"}
    assert code == 1


def test_theorem_verify_table(capsys):
    code, out, _ = run(capsys, "theorem-verify", "--table", str(TABLES / "z3.json"))
    assert code == 0
    assert "mismatches: 0" in out


def test_theorem_verify_json(capsys):
    code, out, _ = run(capsys, "theorem-verify", "--table", str(TABLES / "idem2.json"), "--json")
    data = json.loads(out)
    assert code == 0
    assert data["rb_count"] == 4 and data["mismatches"] == []


def test_theorem_verify_too_large(capsys, tmp_path):
    from gpsrb import cyclic_table

    t = cyclic_table(4)
    p = tmp_path / "z4.json"
    p.write_text(
        json.dumps({"n": 4, "neutral": 0, "add": [list(r) for r in t.add_table]})
    )
    code, _, err = run(capsys, "theorem-verify", "--table", str(p), "--max-size", "3")
    assert code == 2
    assert "error" in err


def test_theorem_verify_missing_file(capsys):
    code, _, err = run(capsys, "theorem-verify", "--table", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_laurent_demo_seeded(capsys, monkeypatch):
    monkeypatch.setenv("GPS_RB_SEED", "123")
    code, out1, _ = run(capsys, "laurent-demo", "--count", "2")
    assert code == 0
    assert "seed: 123" in out1
    assert "all defects zero: yes" in out1
    code, out2, _ = run(capsys, "laurent-demo", "--count", "2")
    assert out1 == out2  # same seed, same run
    monkeypatch.setenv("GPS_RB_SEED", "124")
    code, out3, _ = run(capsys, "laurent-demo", "--count", "2")
    assert code == 0 and out3 != out1


def test_laurent_demo_json(capsys, monkeypatch):
    monkeypatch.delenv("GPS_RB_SEED", raising=False)
    code, out, _ = run(capsys, "laurent-demo", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["seed"] == 0
    assert data["all_defects_zero"] is True
    assert len(data["pairs"]) == 3
    for pair in data["pairs"]:
        assert pair["defect"]["coeffs"] == []


def test_laurent_demo_rejects_empty_count(capsys):
    for count in ("0", "-1"):
        code, out, err = run(capsys, "laurent-demo", "--count", count)
        assert code == 2
        assert "--count" in err and out == ""


def test_bad_inputs_exit_two(capsys):
    assert run(capsys, "mul", "e^", "e^1")[0] == 2
    assert run(capsys, "rb-check", "--decomp", "nonsense")[0] == 2
    assert run(capsys, "rb-check", "--decomp", "odds", "--monoid", "Z^2:product")[0] == 2
    assert run(capsys, "cutoff-scan", "--w-range", "5..1")[0] == 2
    assert run(capsys, "mul", "e^1", "e^1", "--monoid", "Z^0:lex")[0] == 2
    assert run(capsys, "mul", "e^1", "e^1", "--ring", "Z/1")[0] == 2
    assert run(capsys, "rb-check", "--decomp", "odds", "--f", "e^1")[0] == 2  # --f without --g


def test_monoid_spec_parsing():
    assert isinstance(parse_monoid_spec("Z"), IntLine)
    assert parse_monoid_spec("N") == IntLine(nonneg=True)
    assert parse_monoid_spec("Z^3:product") == IntVector(3)
    assert parse_monoid_spec("Z^2:lex") == IntVector(2, lex=True)
    assert isinstance(parse_monoid_spec(f"table:{TABLES / 'z4.json'}"), FiniteTable)
    for bad in ("q", "Z^x:lex", "Z^2", "Z^2:weird", "table:/does/not/exist.json"):
        with pytest.raises(Exception):
            parse_monoid_spec(bad)


def test_window_spec_parsing():
    assert parse_window_spec(IntLine(), "-2..2") == [-2, -1, 0, 1, 2]
    assert parse_window_spec(IntLine(nonneg=True), "-2..2") == [0, 1, 2]  # clamped at zero
    assert len(parse_window_spec(IntVector(2), "-1..1")) == 9
    table = parse_monoid_spec(f"table:{TABLES / 'z4.json'}")
    assert parse_window_spec(table, None) == [0, 1, 2, 3]
    assert parse_window_spec(table, "1..9") == [1, 2, 3]


def test_decomposition_vocab():
    M = IntLine()
    below = parse_decomposition(M, "below(2)")
    assert below.kept([0, 1, 2, 3]) == [0, 1]
    notbelow = parse_decomposition(M, "notbelow(2)")
    assert notbelow.kept([0, 1, 2, 3]) == [2, 3]
    V = IntVector(2)
    vb = parse_decomposition(V, "below((0,0))")
    assert vb.member((-1, -1)) and not vb.member((1, -5))
    pos = parse_decomposition(M, "positives")
    assert pos.kept([-1, 0, 1]) == [1]
    nonneg = parse_decomposition(M, "nonnegatives")
    assert nonneg.kept([-1, 0, 1]) == [0, 1]
    # incomparable elements count as "non-negative" under the literal reading
    assert parse_decomposition(V, "nonnegatives").member((1, -1))
    table = parse_monoid_spec(f"table:{TABLES / 'idem2.json'}")
    m = parse_decomposition(table, "mask:0x2")
    assert m.kept([0, 1]) == [1]
    with pytest.raises(Exception):
        parse_decomposition(V, "odds")


def test_decomposition_from_file(capsys, tmp_path):
    p = tmp_path / "split.json"
    p.write_text(json.dumps({"kept": [0, 2]}))
    table = parse_monoid_spec(f"table:{TABLES / 'z4.json'}")
    split = parse_decomposition(table, str(p))
    assert split.kept(range(4)) == [0, 2]
    code, out, _ = run(
        capsys,
        "rb-check",
        "--monoid",
        f"table:{TABLES / 'z4.json'}",
        "--decomp",
        str(p),
    )
    # {0,2} is a subgroup of Z/4 but its complement {1,3} is not closed
    assert code == 1


@pytest.mark.parametrize("payload", [5, {"kept": [[1]]}, {"mask": "x"}, {"mask": 16}, {"other": 1}])
def test_malformed_decomposition_file_exits_two(capsys, tmp_path, payload):
    p = tmp_path / "split.json"
    p.write_text(json.dumps(payload))
    table = parse_monoid_spec(f"table:{TABLES / 'z4.json'}")
    with pytest.raises(UsageError):
        parse_decomposition(table, str(p))
    code, out, err = run(
        capsys, "rb-check", "--monoid", f"table:{TABLES / 'z4.json'}", "--decomp", str(p)
    )
    assert code == 2
    assert err.startswith("error:") and out == ""


def test_cutoff_scan_route_disagreement_exits_three(capsys, monkeypatch):
    # a semantic route that sees no defect anywhere contradicts the obstruction pairs
    import gpsrb.projectors

    monkeypatch.setattr(gpsrb.projectors, "rb_defect", lambda P, f, g: zero_series(f.monoid, f.ring))
    code, out, err = run(capsys, "cutoff-scan", "--w-range", "-1..-1", "--window", "-2..2")
    assert code == 3
    assert out == ""
    assert err == "internal error: criteria disagree at w=-1, pair (-1, -1): defect zero but in an obstruction set\n"


def test_deep_parentheses_exit_two(capsys):
    n = MAX_NESTING
    assert run(capsys, "mul", "(" * n + "e" + ")" * n, "1") == (0, "e^1\n", "")
    code, out, err = run(capsys, "mul", "(" * (n + 1) + "e" + ")" * (n + 1), "1")
    assert (code, out) == (2, "")
    assert err == f"error: parentheses nest deeper than {n} levels (line 1, column {n + 1})\n"
    # 330 levels used to overflow the interpreter stack and exit 1
    code, out, err = run(capsys, "mul", "(" * 330 + "e" + ")" * 330, "1")
    assert (code, out) == (2, "") and "(line 1, column 201)" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["mul", "e", "e", "--ring", "Z/1"], "modulus must be >= 2, got 1"),
        (["rb-check", "--monoid", "TABLE", "--decomp", "mask:zz"],
         "invalid literal for int() with base 0: 'zz'"),
        (["rb-check", "--monoid", "TABLE", "--decomp", "mask:0x10"], "mask 0x10 out of range for n=4"),
        (["mul", "e", "e", "--var", "O"], 'variable name "O" collides with the tail marker'),
    ],
)
def test_user_input_value_errors_exit_two(capsys, argv, message):
    argv = [f"table:{TABLES / 'z4.json'}" if a == "TABLE" else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_user_input_value_errors_raise_usage_error_at_the_source():
    table = parse_monoid_spec(f"table:{TABLES / 'z4.json'}")
    with pytest.raises(UsageError):
        parse_ring_spec("Z/1")
    for spec in ("mask:zz", "mask:0x10", "mask:-1"):
        with pytest.raises(UsageError):
            parse_decomposition(table, spec)


def test_overlong_result_exits_two(capsys):
    # the product has more digits than int() may turn into text
    big = "9" * 3000
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "mul", big, big, "--ring", "Z", *extra)
        assert (code, out) == (2, "") and err.startswith("error: Exceeds the limit")


def test_internal_fault_exits_three(capsys, monkeypatch):
    import gpsrb.cli

    def planted(*args, **kwargs):
        raise ValueError("planted internal fault")

    monkeypatch.setattr(gpsrb.cli, "verify_theorem_decomposition", planted)
    code, out, err = run(capsys, "theorem-verify", "--table", str(TABLES / "z4.json"))
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ValueError: planted internal fault\n")
    assert "Traceback (most recent call last)" in err and "in planted" in err


def test_pair_budget_counts_without_building(monkeypatch):
    import gpsrb.monoids

    def never(*args):
        raise AssertionError("window built")

    monkeypatch.setattr(gpsrb.monoids, "int_window", never)
    monkeypatch.setattr(gpsrb.monoids, "vector_window", never)
    side = int(PAIR_BUDGET**0.5)
    assert side * side == PAIR_BUDGET
    check_pair_budget(IntLine(), f"1..{side}")
    with pytest.raises(TooLarge):
        check_pair_budget(IntLine(), f"0..{side}")
    # 19 thresholds: 114^2 pairs each fit, 115^2 do not
    check_pair_budget(IntLine(), "1..114", "-9..9")
    with pytest.raises(TooLarge):
        check_pair_budget(IntLine(), "1..115", "-9..9")
    check_pair_budget(IntLine(nonneg=True), f"{-10**9}..{side - 1}")  # trimmed to 0..side-1
    with pytest.raises(TooLarge):
        check_pair_budget(IntVector(8), "-9..9")
    with pytest.raises(TooLarge):
        check_pair_budget(IntVector(7, lex=True), None)  # the default box, 7^7 elements
    check_pair_budget(IntVector(3), None)  # 7^3 elements: 117,649 pairs
    with pytest.raises(TooLarge):
        check_pair_budget(IntVector(4), None)  # 7^4 elements: 5,764,801 pairs


def test_runs_at_and_over_the_pair_budget(capsys, monkeypatch):
    side = int(PAIR_BUDGET**0.5)
    # the window is built but the explicit pair leaves no scan to run
    argv = ["rb-check", "--decomp", "negatives", "--f", "e^-2 + e", "--g", "e^-1 + e^3"]
    assert run(capsys, *argv, "--window", f"1..{side}") == (0, "decomposition: negatives on Z\ndefect: 0\n", "")
    import gpsrb.monoids

    def never(*args):
        raise AssertionError("window built")

    monkeypatch.setattr(gpsrb.monoids, "int_window", never)
    monkeypatch.setattr(gpsrb.monoids, "vector_window", never)
    code, out, err = run(capsys, *argv, "--window", f"0..{side}")
    assert (code, out) == (2, "")
    assert err == (
        f"error: 1 threshold(s) x {side + 1}^2 window elements = {(side + 1) ** 2} "
        f"single-term pairs, above the budget of {PAIR_BUDGET}\n"
    )
    code, out, err = run(capsys, "cutoff-scan", "--monoid", "Z^8:product", "--w-range", "0..0", "--window", "-9..9")
    assert (code, out) == (2, "") and err.startswith(f"error: 1 threshold(s) x {19**8}^2 window elements")
