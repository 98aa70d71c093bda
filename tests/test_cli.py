import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gpsrb.cli import (
    LAURENT_JSON_BUDGET,
    MAX_DEMO_COUNT,
    MAX_DIM,
    MAX_SWEEP_SIZE,
    PAIR_BUDGET,
    UsageError,
    _random_laurent,
    build_parser,
    main,
    parse_decomposition,
    parse_monoid_spec,
    parse_ring_spec,
    parse_window_spec,
)
from gpsrb import (
    QQ,
    ZZ,
    FiniteTable,
    IntLine,
    IntVector,
    Series,
    TooLarge,
    Zmod,
    load_table,
    make_laurent,
    verify_theorem_decomposition,
)
import gpsrb.cli
import gpsrb.monoids
import gpsrb.parsing
from gpsrb.monoids import MAX_TABLE_SIZE
from gpsrb.oracles import SCAN_PAIR_BUDGET
from gpsrb.parsing import MAX_NESTING, PRODUCT_BUDGET

from conftest import max_chain_table

ROOT = Path(__file__).resolve().parent.parent
TABLES = ROOT / "tables"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul_basic(capsys):
    code, out, _ = run(capsys, "mul", "3*e^-2 + 5", "e^1")
    assert code == 0
    assert out.strip() == "3*e^-1 + 5*e^1"


@pytest.mark.parametrize("ring", ["Z", "Q", "Z/7"])
@pytest.mark.parametrize("laurent", [(), ("--laurent",)])
@pytest.mark.parametrize("f,g", [("-e^2", "e"), ("e", "-3*e^-2"), ("-2*e^-1", "-e^-1"), ("-5", "e^3")])
def test_a_one_term_result_reads_back(capsys, ring, laurent, f, g):
    # an expression that begins with '-' and has no blank is an expression,
    # not an option, so a printed one-term result feeds back as it is
    code, out, _ = run(capsys, "mul", f, g, "--ring", ring, *laurent)
    assert code == 0 and " " not in out.strip()
    assert run(capsys, "add", out.strip(), "0", "--ring", ring, *laurent) == (0, out, "")


@pytest.mark.parametrize("flag,name", [("--var", "--var"), ("--va", "--var"), ("--ring", "--ring"), ("--monoid", "--monoid")])
def test_a_dash_token_after_a_value_option_is_left_to_argparse(capsys, flag, name):
    assert run(capsys, "add", "e", "e", flag, "-x") == (2, "", f"error: argument {name}: expected one argument\n")


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


@pytest.mark.parametrize(
    "monoid,w_range,window,header,scanned",
    [
        ("N", "-5..1", "-3..3", "cutoff scan on N, thresholds 0..1, 4 window elements", ["0", "1"]),
        ("table:" + str(TABLES / "z4.json"), "0..9", None,
         "cutoff scan on Z/4(n=4), thresholds 0..3, 4 window elements", ["0", "1", "2", "3"]),
    ],
    ids=["N", "z4-table"],
)
def test_cutoff_scan_header_names_the_thresholds_scanned(capsys, monoid, w_range, window, header, scanned):
    # a range reaching past the carrier is trimmed to it, header included
    argv = ["cutoff-scan", "--monoid", monoid, "--w-range", w_range]
    if window is not None:
        argv += ["--window", window]
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and lines[0] == header
    assert [line.split(":")[0].strip().removeprefix("w=") for line in lines[1:-1]] == scanned


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


def test_theorem_verify_max_size_ceiling(capsys, monkeypatch):
    # checked before the table is read or a 2^64-bit mask set is built
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the --max-size check")

    monkeypatch.setattr(gpsrb.cli, "load_table", unreachable)
    monkeypatch.setattr(gpsrb.cli, "verify_theorem_decomposition", unreachable)
    code, out, err = run(capsys, "theorem-verify", "--table", str(TABLES / "z4.json"), "--max-size", "64")
    assert (code, out) == (2, "")
    assert err == "error: --max-size must be at most 20, got 64\n"


@pytest.mark.parametrize("size", ["0", "-1"])
def test_theorem_verify_max_size_floor(capsys, monkeypatch, size):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran past the --max-size check")

    monkeypatch.setattr(gpsrb.cli, "load_table", unreachable)
    code, out, err = run(capsys, "theorem-verify", "--table", str(TABLES / "z4.json"), "--max-size", size)
    assert (code, out) == (2, "")
    assert err == f"error: --max-size must be at least 1, got {size}\n"


def test_theorem_verify_at_the_max_size_ceiling(capsys):
    assert MAX_SWEEP_SIZE == 20
    code, out, _ = run(capsys, "theorem-verify", "--table", str(TABLES / "z4.json"), "--max-size", "20")
    assert code == 0
    assert "identity holds for 2 decompositions (kept masks: 0x0, 0xf)" in out
    # library callers keep no ceiling
    assert verify_theorem_decomposition(load_table(str(TABLES / "z4.json")), max_size=64).rb_count == 2


def test_theorem_verify_scan_budget_exits_two(capsys, tmp_path):
    # max(13): all 8,192 masks closed, 8,192 x 13^2 scan pairs, refused
    # after the structural route and before the first scan
    table = max_chain_table(13)
    p = tmp_path / "max13.json"
    p.write_text(json.dumps({"n": 13, "neutral": 0, "add": [list(r) for r in table.add_table]}))
    code, out, err = run(capsys, "theorem-verify", "--table", str(p), "--max-size", "13")
    assert (code, out) == (2, "")
    assert err == (
        f"error: 8192 closed and 0 rescanned masks x 13^2 = {8192 * 169} single-term pairs "
        f"to scan, above the budget of {SCAN_PAIR_BUDGET}\n"
    )


@pytest.mark.parametrize("command", ["theorem-verify", "rb-check"])
def test_table_above_the_size_cap_exits_two_before_validation(capsys, monkeypatch, tmp_path, command):
    def unreachable(*args, **kwargs):
        raise AssertionError("validated a table above the cap")

    monkeypatch.setattr(gpsrb.monoids, "validate_monoid", unreachable)
    n = MAX_TABLE_SIZE + 1
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"n": n, "neutral": 0, "add": [[(i + j) % n for j in range(n)] for i in range(n)]}))
    argv = ["--table", str(p)] if command == "theorem-verify" else ["--monoid", f"table:{p}", "--decomp", "mask:1"]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: table file {p} has n={n}, above the cap of {MAX_TABLE_SIZE}\n"


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


def test_laurent_demo_q_builds_no_fraction(capsys, monkeypatch):
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setenv("GPS_RB_SEED", "7")
    monkeypatch.setattr(Fraction, "__new__", counting)
    code, out, _ = run(capsys, "laurent-demo", "--json", "--ring", "Q", "--count", "50")
    assert code == 0 and json.loads(out)["all_defects_zero"] is True
    assert built == []
    # the counter is live: a value of Q is still a Fraction
    QQ.value(*QQ.ratio(1, 2))
    assert built


def make_laurent_draw(rng: random.Random, ring):
    """The laurent-demo draw through the ring's values and make_laurent, as an oracle."""
    lo = rng.randint(-3, 0)
    hi = rng.randint(4, 6)
    coeffs = []
    for _ in range(lo, hi):
        if rng.random() < 0.3:
            coeffs.append(ring.from_int(0))
        elif ring is QQ:
            coeffs.append(QQ.value(*QQ.ratio(rng.randint(-9, 9), rng.randint(1, 9))))
        else:
            coeffs.append(ring.from_int(rng.randint(-9, 9)))
    exact = rng.random() < 0.3
    return make_laurent(ring, zip(range(lo, hi), coeffs), None if exact else hi)


@pytest.mark.parametrize("ring", [QQ, ZZ, Zmod(2), Zmod(7), Zmod(12)], ids=str)
def test_random_laurent_matches_the_make_laurent_draw(ring):
    for seed in range(500):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        got, want = _random_laurent(rng, ring), make_laurent_draw(oracle_rng, ring)
        assert got == want and hash(got) == hash(want)
        assert (got.series._terms, got.series._den, got.tail) == (want.series._terms, want.series._den, want.tail)
        # the same draws, so the next value of a seed's run is the same too
        assert rng.getstate() == oracle_rng.getstate()


class RecordingRandom(random.Random):
    """A Random that logs each getrandbits(k) as "bk" and each random() as "r"."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls.append(f"b{k}")
        return super().getrandbits(k)

    def random(self):
        self.calls.append("r")
        return super().random()


# the calls of one _random_laurent draw: lo and hi, then per exponent a
# random() and, unless it skips the term, a numerator (and over Q a
# denominator), then the exactness; a "b3 b3" is a rejected draw
SAMPLER_CALLS = {
    (0, "Z"): "b3 b3 b2 b2 b2 r r b5 r b5 b5 b5 r b5 r b5 b5 r",
    (0, "Q"): "b3 b3 b2 b2 b2 r r b5 b4 r b5 b5 b4 b4 r b5 b5 b5 b4 r r",
    (1, "Z"): "b3 b2 r b5 b5 r r b5 r b5 r b5 r b5 b5 b5 r b5 b5 b5 r b5 r",
    (1, "Q"): "b3 b2 r b5 b5 b4 r r b5 b4 b4 r b5 b4 r r b5 b4 b4 b4 b4 r b5 b4 b4 b4 r b5 b4 b4 r",
    (7, "Z"): "b3 b2 b2 r b5 r r b5 r b5 b5 r r",
    (7, "Q"): "b3 b2 b2 r b5 b4 r b5 b4 r b5 b5 b4 r r b5 b4 r",
}


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(2), Zmod(7), Zmod(12)], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_laurent_makes_the_pinned_sampler_calls(seed, ring):
    # off Q the draws do not depend on the ring; the goldens of laurent-demo
    # rest on these calls, not on how randint draws
    rng = RecordingRandom(seed)
    got = _random_laurent(rng, ring)
    assert " ".join(rng.calls) == SAMPLER_CALLS[seed, "Q" if ring is QQ else "Z"]
    assert got == _random_laurent(random.Random(seed), ring)


def test_laurent_demo_rejects_empty_count(capsys):
    for count in ("0", "-1"):
        code, out, err = run(capsys, "laurent-demo", "--count", count)
        assert code == 2
        assert "--count" in err and out == ""


def test_laurent_demo_count_cap_refuses_before_building(capsys, monkeypatch):
    import gpsrb.cli

    def never(*args):
        raise AssertionError("series built")

    monkeypatch.setattr(gpsrb.cli, "_random_laurent", never)
    code, out, err = run(capsys, "laurent-demo", "--count", str(MAX_DEMO_COUNT + 1))
    assert code == 2
    assert f"1..{MAX_DEMO_COUNT}" in err and out == ""


def test_dimension_cap_refuses_before_building(capsys, monkeypatch):
    import gpsrb.cli

    assert parse_monoid_spec(f"Z^{MAX_DIM}:lex") == IntVector(MAX_DIM, lex=True)

    def never(*args, **kwargs):
        raise AssertionError("IntVector built")

    monkeypatch.setattr(gpsrb.cli, "IntVector", never)
    with pytest.raises(UsageError, match=f"1..{MAX_DIM}"):
        parse_monoid_spec(f"Z^{MAX_DIM + 1}:product")
    argv = ["rb-check", "--monoid", "Z^1000000000:product", "--decomp", "negatives", "--window", "0..0"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "Z^1000000000:product" in err and out == ""


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
    assert parse_window_spec(IntLine(), None) == [-3, -2, -1, 0, 1, 2, 3]
    assert parse_window_spec(IntLine(), "0..4", (1, 2)) == [0, 1, 2, 3, 4]  # 2 x 25 pairs fit


def test_decomposition_vocab(tmp_path):
    M = IntLine()
    below = parse_decomposition(M, "below(2)")
    assert list(filter(below.keeps, [0, 1, 2, 3])) == [0, 1]
    assert below.label == "below(2)"
    notbelow = parse_decomposition(M, "notbelow(2)")
    assert list(filter(notbelow.keeps, [0, 1, 2, 3])) == [2, 3]
    assert notbelow.label == "not(below(2))"
    V = IntVector(2)
    vb = parse_decomposition(V, "below((0,0))")
    assert vb.keeps((-1, -1)) and not vb.keeps((1, -5))
    pos = parse_decomposition(M, "positives")
    assert list(filter(pos.keeps, [-1, 0, 1])) == [1]
    assert pos.label == "positives"
    nonneg = parse_decomposition(M, "nonnegatives")
    assert list(filter(nonneg.keeps, [-1, 0, 1])) == [0, 1]
    # incomparable elements count as "non-negative" under the literal reading
    assert parse_decomposition(V, "nonnegatives").keeps((1, -1))
    table = parse_monoid_spec(f"table:{TABLES / 'idem2.json'}")
    m = parse_decomposition(table, "mask:0x2")
    assert list(filter(m.keeps, [0, 1])) == [1]
    assert m.label == "mask:0x2"
    # a file split is labelled by its path, whichever key it uses
    for name, payload in (("kept.json", {"kept": [1]}), ("mask.json", {"mask": 2})):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        split = parse_decomposition(table, str(path))
        assert list(filter(split.keeps, [0, 1])) == [1]
        assert split.label == str(path)
    with pytest.raises(Exception):
        parse_decomposition(V, "odds")


def test_decomposition_from_file(capsys, tmp_path):
    p = tmp_path / "split.json"
    p.write_text(json.dumps({"kept": [0, 2]}))
    table = parse_monoid_spec(f"table:{TABLES / 'z4.json'}")
    split = parse_decomposition(table, str(p))
    assert list(filter(split.keeps, range(4))) == [0, 2]
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


@pytest.mark.parametrize(
    "payload",
    [5, {"kept": [[1]]}, {"kept": [4]}, {"mask": "x"}, {"mask": True}, {"mask": 16}, {"other": 1}],
)
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


@pytest.mark.parametrize("monoid", ["Z", "N", "Z^2:product"])
def test_mask_and_file_decompositions_need_a_finite_carrier(capsys, tmp_path, monoid):
    decomps = ["mask:1"]
    for name, payload in (("mask.json", {"mask": 1}), ("kept.json", {"kept": [70, -1]})):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        decomps.append(str(path))
    for decomp in decomps:
        code, out, err = run(capsys, "rb-check", "--monoid", monoid, "--decomp", decomp)
        assert (code, out, err) == (2, "", "error: bitmask decompositions need a finite carrier\n")


def test_cutoff_scan_route_disagreement_exits_three(capsys, monkeypatch):
    # a semantic route that sees no defect anywhere contradicts the obstruction pairs
    import gpsrb.projectors

    monkeypatch.setattr(gpsrb.projectors, "rb_defect", lambda P, f, g: Series(f.monoid, f.ring))
    code, out, err = run(capsys, "cutoff-scan", "--w-range", "-1..-1", "--window", "-2..2")
    assert code == 3
    assert out == ""
    assert err == "internal error: criteria disagree at w=-1, pair (-1, -1): defect zero but in an obstruction set\n"


def test_theorem_verify_route_mismatch_exits_three(capsys, monkeypatch):
    # with no defect anywhere, every unclosed split of Z/4 looks defect-free:
    # the report still prints, and the disagreement is an internal fault
    import gpsrb.oracles
    import gpsrb.projectors

    zero = lambda P, f, g: Series(f.monoid, f.ring)
    for module in (gpsrb.projectors, gpsrb.oracles):
        monkeypatch.setattr(module, "rb_defect", zero)
    err_line = "internal error: routes disagree on 14 decompositions, first mask 0x1: defect-free-but-not-closed\n"
    code, out, err = run(capsys, "theorem-verify", "--table", str(TABLES / "z4.json"))
    assert (code, err) == (3, err_line)
    assert "MISMATCH mask 0x1: defect-free-but-not-closed\n" in out and "mismatches: 14\n" in out
    code, out, err = run(capsys, "theorem-verify", "--table", str(TABLES / "z4.json"), "--json")
    assert (code, err) == (3, err_line)
    assert len(json.loads(out)["mismatches"]) == 14


def test_rb_check_route_disagreement_exits_three(capsys, monkeypatch):
    # both routes see every pair of window elements and every sum, so their
    # verdicts agree on any window, and a fault in either route is exit 3
    import gpsrb.projectors
    from gpsrb import CheckOutcome

    argv = ("rb-check", "--decomp", "odds", "--window", "0..8")
    assert run(capsys, *argv)[0] == 1
    with monkeypatch.context() as m:
        m.setattr(gpsrb.projectors, "rb_defect", lambda P, f, g: Series(f.monoid, f.ring))
        code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "internal error: routes disagree on odds: kept part fail, killed part pass-on-window, "
        "defect scan pass-on-window\n"
    )
    # a planted in-window filter at the pair source: below(4) on 0..3
    # violates only at sums outside the window
    real = gpsrb.projectors.cutoff_violation_pairs

    def in_window_only(P, window):
        elems = list(window)
        return tuple([p for p in pairs if P.monoid.add(*p) in elems] for pairs in real(P, elems))

    with monkeypatch.context() as m:
        m.setattr(gpsrb.projectors, "cutoff_violation_pairs", in_window_only)
        code, out, err = run(capsys, "rb-check", "--decomp", "below(4)", "--window", "0..3")
    assert (code, out) == (3, "")
    assert err.endswith("kept part pass-on-window, killed part pass-on-window, defect scan fail\n")
    clean = lambda P, window: (CheckOutcome.clean(P.monoid, window, "silenced"),) * 2
    monkeypatch.setattr(gpsrb.cli, "closed_under_addition", clean)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (3, "")
    assert err.endswith("kept part pass-on-window, killed part pass-on-window, defect scan fail\n")
    # the scan's first pair (-7, -7) -> -14 sums outside the window, and a
    # silenced closure route is still seen
    code, out, err = run(capsys, "rb-check", "--decomp", "odds", "--window", "-8..8")
    assert (code, out) == (3, "")


def test_rb_check_closure_line_fails_at_a_sum_outside_the_window(capsys):
    # below(4) on 0..3: the kept part fails at (1, 3) -> 4, a sum outside
    # the window, next to the scan failing at the same pair
    code, out, _ = run(capsys, "rb-check", "--monoid", "Z", "--ring", "Z", "--decomp", "below(4)",
                       "--window", "0..3")
    assert code == 1
    assert 'kept part closed under addition:   fail  witness {"u": "1", "v": "3", "u+v": "4"}' in out
    assert "killed part closed under addition: pass-on-window" in out
    assert 'defect scan on single-term pairs:  fail  witness {"u": "1", "v": "3"' in out


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
        (["mul", "e", "1", "--var", "1"],
         "variable name '1' is not a name: a letter or _, then letters, digits or _"),
        (["add", "1", "1", "--var", ""],
         "variable name '' is not a name: a letter or _, then letters, digits or _"),
        (["mul", "1", "1", "--var", "x y"],
         "variable name 'x y' is not a name: a letter or _, then letters, digits or _"),
        (["rb-check", "--decomp", "odds", "--f", "1", "--g", "1", "--var", "x-1"],
         "variable name 'x-1' is not a name: a letter or _, then letters, digits or _"),
        (["mul", "e", "e", "--ring", "Z/x"], "bad modulus in 'Z/x'"),
        (["mul", "e", "e", "--ring", "R"], "unknown ring spec 'R' (want Z, Q, or Z/m)"),
        (["rb-check", "--decomp", "odds", "--window", "3"], "--window range must look like a..b, got '3'"),
        (["rb-check", "--decomp", "odds", "--window", "a..b"], "--window range bounds must be integers: 'a..b'"),
        (["rb-check", "--monoid", "TABLE", "--decomp", "BAD.json"],
         "cannot read decomposition file BAD.json: "
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (["GPS_RB_SEED=abc", "laurent-demo"], "GPS_RB_SEED must be an integer, got 'abc'"),
        (["rb-check", "--monoid", "TABLE", "--decomp", "below(x)"], "not an element index: 'x'"),
        (["rb-check", "--monoid", "TABLE", "--decomp", "below(9)"], "not an index in 0..3: 9"),
        (["rb-check", "--monoid", "table:NONCOMM.json", "--decomp", "mask:1"],
         "table file NONCOMM.json fails monoid axioms: {'axiom': 'commutative', 'a': '1', 'b': '2'}"),
        (["add", "O(1)", "e", "--laurent"], "expected 'name', found '1' (line 1, column 3)"),
        # a range error names its flag, so with both flags given the user
        # sees which one is at fault (--w-range is read first)
        (["cutoff-scan", "--w-range", "3"], "--w-range range must look like a..b, got '3'"),
        (["cutoff-scan", "--w-range", "a..b"], "--w-range range bounds must be integers: 'a..b'"),
        (["cutoff-scan", "--w-range", "5..1"], "--w-range empty range '5..1'"),
        (["cutoff-scan", "--w-range", "3", "--window", "3"], "--w-range range must look like a..b, got '3'"),
        (["cutoff-scan", "--w-range", "0..1", "--window", "3"], "--window range must look like a..b, got '3'"),
        (["rb-check", "--decomp", "odds", "--window", "3..1"], "--window empty range '3..1'"),
        (["rb-check", "--decomp", "below(x)"], "not an integer: 'x'"),
        (["rb-check", "--monoid", "Z^2:lex", "--decomp", "below((1,x))"], "not an integer vector: '(1,x)'"),
        # every refusal of an input file names the file, so with a table
        # file and a decomposition file the user sees which one is at fault
        (["rb-check", "--monoid", "table:ADD5.json", "--decomp", "KEPT9.json"],
         "table file ADD5.json: add[1][1] = 5 out of range"),
        (["rb-check", "--monoid", "TABLE", "--decomp", "KEPT9.json"],
         "decomposition file KEPT9.json: not an index in 0..3: 9"),
        (["rb-check", "--monoid", "TABLE", "--decomp", "MASK99.json"],
         "decomposition file MASK99.json: mask 0x63 out of range for n=4"),
        (["theorem-verify", "--table", "LIST.json"], "table file LIST.json must hold a JSON object"),
        (["theorem-verify", "--table", "N0.json"], "table file N0.json: n must be a positive integer, got 0"),
    ],
)
def test_user_input_value_errors_exit_two(capsys, monkeypatch, tmp_path, argv, message):
    # TABLE is the Z/4 table, BAD.json a file that is not JSON, NONCOMM a
    # table whose neutral element is right but which is not commutative,
    # ADD5, LIST and N0 tables with an entry past n, a list and n = 0, and
    # KEPT9 and MASK99 decomposition files past the Z/4 carrier; a leading
    # NAME=value sets the environment, as in a shell
    (tmp_path / "BAD.json").write_text("{x")
    files = {
        "NONCOMM.json": {"n": 3, "neutral": 0, "add": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]},
        "ADD5.json": {"n": 2, "neutral": 0, "add": [[0, 1], [1, 5]]},
        "LIST.json": [],
        "N0.json": {"n": 0, "neutral": 0, "add": []},
        "KEPT9.json": {"kept": [9]},
        "MASK99.json": {"mask": 99},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
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
    # the result has more digits than int() may turn into text, in the
    # rendered text and in the --json text written from the term texts
    big = "9" * 3000
    for command, ring, f in (("mul", "Z", big), ("add", "Z", f"{big}*{big}"), ("mul", "Q", f"{big}/7*e")):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, command, f, f, "--ring", ring, *extra)
            assert (code, out) == (2, "") and err.startswith("error: Exceeds the limit")


def test_overlong_laurent_json_exits_two(capsys):
    # a Laurent --json coefficient past the digit limit is refused by
    # _printable around json_text, before anything is printed
    big = "9" * 3000
    for ring in ("Z", "Q"):
        code, out, err = run(capsys, "mul", big, f"{big}*e^-1", "--laurent", "--json", "--ring", ring)
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

    class Built(Exception):
        pass

    def never(*args):
        raise Built

    monkeypatch.setattr(gpsrb.monoids, "int_window", never)
    monkeypatch.setattr(gpsrb.monoids, "vector_window", never)

    def fits(monoid, window, thresholds=None) -> bool:
        # an oversized window is refused before it is built; one that fits is built
        try:
            parse_window_spec(monoid, window, thresholds)
        except TooLarge:
            return False
        except Built:
            return True
        raise AssertionError("window neither refused nor built")

    side = int(PAIR_BUDGET**0.5)
    assert side * side == PAIR_BUDGET
    assert fits(IntLine(), f"1..{side}")
    assert not fits(IntLine(), f"0..{side}")
    # 19 thresholds: 114^2 pairs each fit, 115^2 do not
    assert fits(IntLine(), "1..114", (-9, 9))
    assert not fits(IntLine(), "1..115", (-9, 9))
    assert fits(IntLine(nonneg=True), f"{-10**9}..{side - 1}")  # trimmed to 0..side-1
    assert not fits(IntVector(8), "-9..9")
    assert not fits(IntVector(7, lex=True), None)  # the default box, 7^7 elements
    assert fits(IntVector(3), None)  # 7^3 elements: 117,649 pairs
    assert not fits(IntVector(4), None)  # 7^4 elements: 5,764,801 pairs


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


def test_products_above_the_budget_exit_two(capsys, monkeypatch):
    # 2000 x 1001 dense terms is just past the budget; 2000 x 1000 is at it
    wide = " + ".join(f"{k % 7 + 1}*e^{k}" for k in range(2000))
    for g_terms, code in ((1001, 2), (1000, 0)):
        g = " + ".join(f"e^{k}" for k in range(g_terms))
        got, out, err = run(capsys, "mul", wide, g, "--ring", "Z")
        assert got == code
        if code == 2:
            pairs = 2000 * g_terms
            assert (out, err) == ("", f"error: product of 2000 x {g_terms} terms = {pairs} "
                                      f"coefficient pairs, above the budget of {PRODUCT_BUDGET}\n")
    assert run(capsys, "add", wide, wide)[0] == 0  # sums form no pairs
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 3)
    argv = ["rb-check", "--decomp", "negatives", "--f", "e^-2 + e", "--g", "e^-1 + e^3"]
    assert run(capsys, *argv) == (
        2, "", "error: product of 2 x 2 terms = 4 coefficient pairs, above the budget of 3\n"
    )
    code, _, err = run(capsys, "mul", "(1 + e) * (1 + e^2)", "1")
    assert code == 2 and err.endswith("above the budget of 3 (line 1, column 12)\n")
    code, _, err = run(capsys, "mul", "1 + e + O(e^2)", "1 + e^5", "--laurent")
    assert code == 2 and "2 x 2 terms" in err


def test_all_products_of_one_command_share_the_budget(capsys, monkeypatch):
    # 20 doubling factors: 19 products of 2^k x 2 terms (k = 1..19), 2^21 - 4
    # pairs in all, so the last one is refused although each alone fits
    doubling = "*".join(f"(1+e^{2 ** k})" for k in range(20))
    code, out, err = run(capsys, "mul", doubling, "1", "--ring", "Z")
    assert (code, out) == (2, "")
    assert err.startswith(
        f"error: product of {2 ** 19} x 2 terms = {2 ** 20} coefficient pairs, above the budget "
        f"of {PRODUCT_BUDGET} with {2 ** 20 - 4} spent by earlier products"
    )
    # four doubling factors spend 4 + 8 + 16 = 28 pairs, and mul's own
    # product 16 x 2 more: 60 in all
    four = "(1+e)*(1+e^2)*(1+e^4)*(1+e^8)"
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 60)
    assert run(capsys, "mul", four, "1 + e^100", "--ring", "Z")[0] == 0
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 59)
    assert run(capsys, "mul", four, "1 + e^100", "--ring", "Z") == (2, "", (
        "error: product of 16 x 2 terms = 32 coefficient pairs, above the budget of 59 "
        "with 28 spent by earlier products\n"
    ))
    # the second expression draws on what the first one left
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 30)
    code, _, err = run(capsys, "mul", four, "(1 + e) * (1 + e^3)", "--ring", "Z")
    assert code == 2 and err.endswith(
        "product of 2 x 2 terms = 4 coefficient pairs, above the budget of 30 "
        "with 28 spent by earlier products (line 1, column 12)\n"
    )
    # rb-check charges its two products |f| x |g| = 4 x 2 pairs together,
    # after the 4 pairs of its --f: 12 in all
    argv = ["rb-check", "--decomp", "negatives", "--f", "(e^-2 + e) * (1 + e^5)", "--g", "e^-1 + e^3"]
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 11)
    assert run(capsys, *argv) == (2, "", (
        "error: product of 4 x 2 terms = 8 coefficient pairs, above the budget of 11 "
        "with 4 spent by earlier products\n"
    ))
    monkeypatch.setattr(gpsrb.parsing, "PRODUCT_BUDGET", 12)
    assert run(capsys, *argv)[0] == 0


def test_python_dash_m_gpsrb_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "gpsrb", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gpsrb")


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process: a run after an argparse error or
    # after another subcommand prints what a run on a fresh parser prints
    argvs = [
        ["theorem-verify", "--table", str(TABLES / "z4.json"), "--json"],
        ["rb-check", "--decomp", "negatives", "--bogus"],
        ["mul", "1 + e", "1 - e", "--ring", "Z/7"],
        ["rb-check", "--monoid", "Z", "--decomp", "below(0)", "--window", "-2..2"],
    ]

    def outcome(argv):
        code = main(argv)
        out = capsys.readouterr()
        if argv[0] == "theorem-verify":
            return code, {**json.loads(out.out), "elapsed": None}, out.err
        return code, out.out, out.err

    assert build_parser() is build_parser()
    shared = [outcome(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert shared[1][1:] == ("", "error: unrecognized arguments: --bogus\n")


def test_laurent_demo_prints_each_pair_as_it_is_made(monkeypatch, capsys):
    # without --json no record outlives its pair: pair k is printed before
    # the series of pair k + 1 are drawn
    real = gpsrb.cli._random_laurent
    printed = []

    def drawing(rng, ring):
        printed.append(capsys.readouterr().out)
        return real(rng, ring)

    monkeypatch.setenv("GPS_RB_SEED", "5")
    monkeypatch.setattr(gpsrb.cli, "_random_laurent", drawing)
    assert main(["laurent-demo", "--count", "3", "--ring", "Z/7"]) == 0
    printed.append(capsys.readouterr().out)
    assert printed[0] == "seed: 5\n"
    assert [p.split("\n", 1)[0] for p in printed[2::2]] == ["pair 1:", "pair 2:", "pair 3:"]
    assert all(p == "" for p in printed[1::2])
    monkeypatch.setattr(gpsrb.cli, "_random_laurent", real)
    assert main(["laurent-demo", "--count", "3", "--ring", "Z/7"]) == 0
    assert capsys.readouterr().out == "".join(printed)
