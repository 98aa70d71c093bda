"""Tests of the benchmark's own parts: generator, oracle, tracer.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from gpsrb import cli  # noqa: E402


def snapshot(workload, seed, workdir):
    """Job list with the work directory taken out, plus the bytes of every file written."""
    os.makedirs(workdir, exist_ok=True)
    listed = [(j.kind, tuple(a.replace(str(workdir), "<dir>") for a in j.argv), j.env)
              for j in jobs.make_jobs(workload, seed, str(workdir))]
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return listed, files


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = snapshot(workload, 7, tmp_path / "a")
    assert first == snapshot(workload, 7, tmp_path / "b")
    assert first != snapshot(workload, 8, tmp_path / "c")


def test_tables_hold_json_booleans_and_negatives_use_minus(tmp_path):
    for job in jobs.make_jobs("sweep", 3, str(tmp_path)):
        with open(job.argv[2]) as fh:
            table = json.load(fh)
        assert all(isinstance(x, bool) for row in table["leq"] for x in row)
    for job in jobs.make_jobs("arith", 3, str(tmp_path)):
        for text in job.argv[1:3]:
            assert "+ -" not in text


def execute(job):
    rc, out, _ = run.call(cli, job)
    return rc, out


def first_job(workload, kind, tmp_path, pick=lambda job: True):
    return next(j for j in jobs.make_jobs(workload, 5, str(tmp_path)) if j.kind == kind and pick(j))


def verdict(job, rc, out):
    return oracle.check(job, rc, out, oracle.expected_for(job))


def test_oracle_accepts_real_answers_and_flags_flipped_mask(tmp_path):
    job = first_job("sweep", "sweep-n6", tmp_path)
    rc, out = execute(job)
    assert verdict(job, rc, out) is None
    report = json.loads(out)
    assert len(report["rb_masks"]) >= 2
    flipped = dict(report, rb_masks=[report["rb_masks"][0] ^ 1] + report["rb_masks"][1:])
    assert verdict(job, rc, json.dumps(flipped)) is not None
    assert verdict(job, 1, out) is not None


def test_sweep_oracle_known_mask_counts():
    name, add = jobs.cyclic(9)
    assert oracle.expect_sweep(jobs.table_json(name, 0, add)) == [0, 511]
    name, add = jobs.min_cap(7)
    assert len(oracle.expect_sweep(jobs.table_json(name, 0, add))) == 4


@pytest.mark.parametrize("kind", ["mul-dense-Z", "mul-sparse-Q", "mul-sparse-Z2", "mul-laurent-dense",
                                  "add", "add-laurent"])
def test_oracle_flags_altered_coefficient(tmp_path, kind):
    for want_json in (True, False):
        job = first_job("arith", kind, tmp_path, lambda j, w=want_json: j.data["json"] == w)
        rc, out = execute(job)
        assert verdict(job, rc, out) is None, job.argv[0]
        if job.data["laurent"] and want_json:
            data = json.loads(out)
            i = next(i for i, c in enumerate(data["coeffs"]) if c != "0")
            data["coeffs"][i] = "12345"
            bad = json.dumps(data)
        elif want_json:
            data = json.loads(out)
            data["terms"][0]["coeff"] = "12345"
            bad = json.dumps(data)
        else:
            head, sep, rest = out.partition("*")
            bad = "12345" + sep + rest
        assert verdict(job, rc, bad) is not None


def test_oracle_flags_wrong_cutoff_and_rb_answers(tmp_path):
    job = first_job("scan", "cutoff-z-small", tmp_path)
    rc, out = execute(job)
    assert verdict(job, rc, out) is None
    data = json.loads(out)
    failing = next(r for r in data["results"] if r["verdict"] == "fail")
    pairs = failing["witness"]["drop_in"] or failing["witness"]["escape"]
    pairs.pop()
    assert verdict(job, rc, json.dumps(data)) is not None

    job = first_job("scan", "rb-check-pass", tmp_path)
    rc, out = execute(job)
    assert verdict(job, rc, out) is None
    assert verdict(job, 1, out) is not None
    job = first_job("scan", "rb-check-fail", tmp_path)
    rc, out = execute(job)
    assert verdict(job, rc, out) is None
    data = json.loads(out)
    data["defect_scan"] = {"verdict": "pass-on-window"}
    assert verdict(job, rc, json.dumps(data)) is not None


def test_oracle_flags_wrong_pole_part(tmp_path):
    job = first_job("scan", "laurent-demo", tmp_path, lambda j: j.data["ring"] == "Q")
    rc, out = execute(job)
    assert verdict(job, rc, out) is None
    data = json.loads(out)
    pair = next(p for p in data["pairs"] if p["terms"]["pole(f*g)"]["coeffs"])
    pair["terms"]["pole(f*g)"]["coeffs"][0] = "99/7"
    assert verdict(job, rc, json.dumps(data)) is not None


def test_loop_counts_a_wrong_answer_as_failed(tmp_path, monkeypatch):
    job = first_job("arith", "mul-dense-Z", tmp_path, lambda j: j.data["json"])

    class WrongCli:
        @staticmethod
        def main(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            data = json.loads(out.getvalue())
            data["terms"][-1]["coeff"] = str(int(data["terms"][-1]["coeff"]) + 1)
            print(json.dumps(data))
            return rc

    loop = run.Loop(WrongCli, [job])
    loop.run(count=2)
    assert (len(loop.times), loop.failed) == (2, 2)
    loop = run.Loop(cli, [job])
    loop.run(count=1)
    assert loop.failed == 0


def test_job_times_are_scaled_by_the_reference_around_them(tmp_path, monkeypatch):
    job = first_job("scan", "rb-check-fail", tmp_path)
    refs = iter([0.002, 0.001, 0.0005])
    monkeypatch.setattr(run, "reference_kernel", lambda: next(refs))
    loop = run.Loop(cli, [job])
    loop.run(count=2)
    nominal = run.REF_NOMINAL_S
    assert loop.scaled == pytest.approx([loop.times[0] * 2 * nominal / 0.003,
                                         loop.times[1] * 2 * nominal / 0.0015])


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
    tr = spans.Tracer(clock=FakeClock([0, 10, 15, 25, 40, 50, 90, 100]))
    root = tr.enter("root")
    a = tr.enter("a")
    c = tr.enter("c")
    tr.exit(c)
    tr.exit(a)
    b = tr.enter("b")
    tr.exit(b)
    tr.exit(root)
    assert dict(tr.self_ns) == {"root": 100 - 30 - 40, "a": 30 - 10, "c": 10, "b": 40}
    assert dict(tr.total_ns) == {"root": 100, "a": 30, "c": 10, "b": 40}
    by_name = {name: span_id for _, span_id, _, name, _, _ in tr.spans}
    offline = spans.self_times(tr.spans)
    assert {name: offline[i] for name, i in by_name.items()} == dict(tr.self_ns)


def test_self_time_counts_overlapping_children_once():
    spans_in = [(0, 1, None, "p", 0, 100), (0, 2, 1, "x", 10, 50), (0, 3, 1, "y", 40, 120)]
    assert spans.self_times(spans_in) == {1: 100 - 90, 2: 40, 3: 80}


def test_install_rebinds_imported_names_and_reports_absent(tmp_path, monkeypatch):
    import gpsrb.oracles
    from gpsrb import projectors

    original = projectors.rb_defect
    monkeypatch.setattr(spans, "ENTRY_POINTS",
                        spans.ENTRY_POINTS + (("gpsrb.projectors", "no_such_function", "x", False, None),))
    tr = spans.Tracer()
    spans.install(tr)
    try:
        assert gpsrb.oracles.rb_defect is projectors.rb_defect is not original
        assert cli.scan_cutoffs is gpsrb.oracles.scan_cutoffs
        job = first_job("scan", "cutoff-z-small", tmp_path)
        tr.job = 1
        rc, out = execute(job)
    finally:
        tr.uninstall()
    assert projectors.rb_defect is original
    assert tr.absent == ["gpsrb.projectors.no_such_function"]
    assert verdict(job, rc, out) is None
    assert tr.calls["cli.main"] == 1 and tr.calls["oracles.scan"] == 1
    assert tr.calls["projectors.rb_defect"] > 0
    roots = [s for s in tr.spans if s[2] is None]
    assert [s[3] for s in roots] == ["cli.main"] and all(s[0] == 1 for s in tr.spans)
    values = spans.layer_values(tr, 1.0)
    assert set(values) == {name for name, _, _ in spans.PER_LAYER}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
