"""The benchmark's own tests: input determinism, self-time arithmetic and
the output gates.  Run with ``python3 -m pytest bench/tests``."""

import contextlib
import hashlib
import io
import json

import gates
import gen
from run import Run
from tracing import self_times, summarize

from matchext import cli
from matchext.decision import NkdParams
from matchext.graphio import read_graph6, write_graph6
from matchext.harness import run_census, valid_triples


def test_generator_is_deterministic_for_a_seed():
    for stream in gen.STREAMS:
        first = gen.census_batch(stream, 7, 3)
        assert gen.census_batch(stream, 7, 3) == first
        assert gen.census_batch(stream, 8, 3) != first
        assert gen.census_batch(stream, 7, 4) != first
    assert gen.decide_sweep(7, 0) == gen.decide_sweep(7, 0)
    assert gen.decide_sweep(7, 0)[0] != gen.decide_sweep(8, 0)[0]


def test_generator_writes_canonical_graph6_and_valid_triples():
    for line in gen.census_batch("small", 1, 0).decode().split():
        assert write_graph6(read_graph6(line)) == line
    lines, calls = gen.decide_sweep(1, 0)
    assert all(read_graph6(line).order == gen.DECIDE["order"] for line in lines)
    assert [t for _, t in calls] == [p.as_tuple() for p in valid_triples(14)]
    for order in range(16):
        assert gen.valid_triples(order) == [p.as_tuple() for p in valid_triples(order)]


def test_self_time_on_a_synthetic_span_tree():
    #        0: root [0, 100]
    #   1: [10, 40]   2: [30, 60]   4: [90, 120] (runs past its parent)
    #   3: [15, 20] under 1
    parent = [-1, 0, 0, 1, 0]
    start = [0, 10, 30, 15, 90]
    end = [100, 40, 60, 20, 120]
    # root: children cover [10, 60] and [90, 100] -> 100 - 60
    assert self_times(parent, start, end) == [40, 25, 30, 5, 30]
    trace = {"names": ["a", "b"], "name": [0, 1, 1, 0, 1], "parent": parent,
             "start_ns": start, "end_ns": end, "counters": {"b.hits": 3}}
    summary = summarize(trace)
    assert summary["a.spans"] == 2 and summary["b.spans"] == 3
    assert summary["a.self_s"] == (40 + 5) / 1e9
    assert summary["b.self_s"] == (25 + 30 + 30) / 1e9
    assert summary["b.hits"] == 3


def _report() -> bytes:
    lines = [write_graph6(read_graph6(line))
             for line in gen.census_batch("small", 1, 0).decode().split()[:20]]
    result = run_census(lines)
    return (json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n").encode()


def test_corrupted_census_report_counts_as_a_failure(tmp_path):
    report = _report()
    sha = hashlib.sha256(report).hexdigest()
    doc = json.loads(report)
    doc["violations_total"] = 1
    with_violation = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    run = Run(tmp_path / "work", 1)
    run.tally("good", gates.census_failures(0, report, 20, sha, report))
    run.tally("flipped byte", gates.census_failures(0, report.replace(b"20", b"21", 1), 20, sha))
    run.tally("violation", gates.census_failures(0, with_violation, 20))
    run.tally("differs from serial", gates.census_failures(0, report, 20, None, with_violation))
    run.tally("nonzero exit", gates.census_failures(1, report, 20))
    run.tally("truncated", gates.census_failures(0, report[:-40], 20))
    assert run.attempted == 6
    assert [f.split(":")[0] for f in run.failures] == [
        "flipped byte", "violation", "differs from serial", "nonzero exit", "truncated"]


def test_flipped_agreement_or_bad_witness_counts_as_a_failure(tmp_path):
    path = tmp_path / "p6.g6"
    path.write_text("EhCG\n")  # the path on six vertices: (1, 1, 1) fails
    graph, params = read_graph6("EhCG"), NkdParams(1, 1, 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--graph", str(path), "--n", "1", "--k", "1", "--d", "1",
                         "--method", "both", "--json"])
    good = json.loads(out.getvalue())
    assert code == 1 and good["agreement"] is True
    flipped = dict(good, agreement=False)
    forged = json.loads(out.getvalue())
    forged["verdicts"]["characterization"]["witness"]["subset"] = []
    run = Run(tmp_path / "work", 1)
    run.tally("good", gates.check_failures(code, out.getvalue(), graph, params))
    run.tally("flipped", gates.check_failures(code, json.dumps(flipped), graph, params))
    run.tally("forged", gates.check_failures(code, json.dumps(forged), graph, params))
    run.tally("crashed", gates.check_failures(2, "", graph, params))
    assert run.attempted == 4
    assert [f.split(":")[0] for f in run.failures] == ["flipped", "forged", "crashed"]
