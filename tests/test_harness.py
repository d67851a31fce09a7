import gc
import io
import json
import multiprocessing
import os
import weakref

import pytest

import matchext._engine as _engine
import matchext.harness as harness
from matchext import (
    CensusResult,
    NkdParams,
    ParameterError,
    SearchCapExceeded,
    TheoremReport,
    check_graph,
    family_blowup_bipartite,
    family_cliques_plus_edge,
    family_cliques_plus_edge_cone,
    family_gadget_chain,
    nkd_holds,
    run_census,
    valid_triples,
    write_graph6,
)
from matchext.harness import (
    check_A3,
    check_A4,
    check_A5,
    check_A6i,
    check_A6ii,
    check_B1,
    check_B2,
    check_C1,
    check_D1,
    check_D2,
    check_D3,
)
from conftest import (
    complete,
    complete_bipartite,
    connected_census,
    cycle,
    disconnected_sample,
)

# (applicable, inapplicable reasons) per rule over connected_census(6) plus
# the first 200 graphs of disconnected_sample(1000, seed=4242).  The counts
# pin each rule's precondition order: the first failing precondition is the
# one recorded, so a reordering moves counts between reasons.
PINNED_RULE_COUNTS = {
    "A3": (1755, {"not-an-nkd-graph": 2423}),
    "A4": (0, {"d!=0": 2513, "k<2": 1023, "n<=d": 587, "not-an-nkd-graph": 55}),
    "A5": (2, {"d!=0": 2513, "k<1": 682, "n<=d": 587, "not-an-nkd-graph": 394}),
    "A6i": (1, {"d!=0": 2513, "k<1": 554, "n<2": 896, "not-an-nkd-graph": 214}),
    "A6ii": (1, {"d!=0": 2513, "k<1": 554, "n<2": 896, "not-an-nkd-graph": 214}),
    "B1": (2, {"k<1": 1078, "n<=d": 2649, "not-an-nkd-graph": 449}),
    "B2": (0, {"k<2": 1474, "n<=d": 2649, "not-an-nkd-graph": 55}),
    "C1": (2, {"k<1": 2743, "n<=d": 984, "not-an-nkd-graph": 449}),
    "D1": (256, {"n<2": 2743, "not-an-nkd-graph": 1179}),
    "D2": (17, {"n<2": 951, "not-an-nkd-graph": 427, "not-bipartite": 2783}),
    "D3": (338, {"k<1": 2743, "not-an-nkd-graph": 1097}),
}


def test_valid_triples_order8():
    triples = valid_triples(8)
    assert NkdParams(0, 0, 0) in triples
    assert NkdParams(2, 1, 2) in triples
    for p in triples:
        assert p.n + 2 * p.k + p.d <= 6
        assert (8 - p.n - p.d) % 2 == 0
    assert triples == sorted(triples, key=NkdParams.as_tuple)


def test_valid_triples_tiny_orders():
    assert valid_triples(0) == []
    assert valid_triples(1) == []
    assert valid_triples(2) == [NkdParams(0, 0, 0)]


def test_check_a3_on_cliques_family():
    rep = check_A3(family_cliques_plus_edge(2, 1), NkdParams(2, 1, 2))
    assert rep.theorem == "A3" and rep.applicable == 1 and rep.passed
    assert rep.graphs_examined == 1


def test_check_a3_inapplicable_when_base_fails():
    rep = check_A3(family_cliques_plus_edge(2, 1), NkdParams(0, 1, 0))
    assert rep.applicable == 0
    assert rep.inapplicable == {"not-an-nkd-graph": 1}


def test_check_b1_skips_when_n_not_above_d():
    rep = check_B1(family_blowup_bipartite(1, 1), NkdParams(1, 2, 1))
    assert rep.applicable == 0
    assert rep.inapplicable == {"n<=d": 1}


def test_check_b1_vacuous_on_complete_graph():
    rep = check_B1(complete(7), NkdParams(1, 1, 0))
    assert rep.applicable == 1 and rep.passed


def test_check_a5_requires_defect_zero():
    rep = check_A5(family_cliques_plus_edge(2, 1), NkdParams(2, 1, 2))
    assert rep.inapplicable == {"d!=0": 1}
    assert check_A5(complete(7), NkdParams(1, 1, 0)).applicable == 1


def test_check_b2_and_a4():
    rep = check_B2(complete(8), NkdParams(2, 2, 0))
    assert rep.applicable == 1 and rep.passed
    rep = check_A4(complete(8), NkdParams(2, 2, 0))
    assert rep.applicable == 1 and rep.passed
    rep = check_B2(family_blowup_bipartite(1, 1), NkdParams(1, 2, 1))
    assert rep.inapplicable == {"n<=d": 1}
    rep = check_B2(complete(8), NkdParams(2, 1, 0))
    assert rep.inapplicable == {"k<2": 1}


def test_check_c1():
    rep = check_C1(complete(7), NkdParams(1, 1, 0))
    assert rep.applicable == 1 and rep.passed
    rep = check_C1(family_cliques_plus_edge(2, 1), NkdParams(2, 1, 2))
    assert rep.inapplicable == {"n<=d": 1}
    rep = check_C1(complete(6), NkdParams(0, 1, 0))
    assert rep.inapplicable == {"n<=d": 1}


def test_check_d1_iff_on_cliques_family():
    rep = check_D1(family_cliques_plus_edge(2, 1), NkdParams(2, 1, 2))
    assert rep.applicable == 1 and rep.passed


def test_check_d1_iff_on_cone_family():
    rep = check_D1(family_cliques_plus_edge_cone(2, 1), NkdParams(3, 1, 2))
    assert rep.applicable == 1 and rep.passed


def test_check_d1_needs_n_at_least_two():
    rep = check_D1(cycle(6), NkdParams(0, 1, 0))
    assert rep.inapplicable == {"n<2": 1}


def test_check_d2():
    rep = check_D2(complete_bipartite(4, 4), NkdParams(2, 1, 2))
    assert rep.applicable == 1 and rep.passed
    rep = check_D2(cycle(6), NkdParams(0, 1, 0))
    assert rep.inapplicable == {"n<2": 1}
    rep = check_D2(complete(6), NkdParams(2, 1, 0))
    assert rep.inapplicable == {"not-bipartite": 1}


def test_check_d3_on_cone_family():
    rep = check_D3(family_cliques_plus_edge_cone(2, 1), NkdParams(3, 1, 2))
    assert rep.applicable == 1 and rep.passed


def test_check_d3_degree_condition_excludes_gadget_edge():
    # every edge stays below the 2k degree bound, so the iff is vacuous even
    # though deleting the distinguished edge does destroy the parameters
    h = family_gadget_chain(2)
    rep = check_D3(h, NkdParams(1, 3, 3))
    assert rep.applicable == 1 and rep.passed
    rep = check_D3(h, NkdParams(1, 0, 3))
    assert rep.inapplicable == {"k<1": 1}


def test_check_a6_pair():
    rep = check_A6i(complete(8), NkdParams(2, 1, 0))
    assert rep.applicable == 1 and rep.passed
    rep = check_A6ii(complete(8), NkdParams(2, 1, 0))
    assert rep.applicable == 1 and rep.passed
    assert check_A6i(complete(8), NkdParams(2, 1, 2)).inapplicable == {"d!=0": 1}
    assert check_A6ii(cycle(6), NkdParams(0, 1, 0)).inapplicable == {"n<2": 1}


def test_violation_reporting_via_forced_disagreement(monkeypatch):
    # plumbing test: force the cached decider to lie; the fresh recheck says
    # the conclusion holds, which must abort instead of reporting
    h = complete(7)
    p = NkdParams(3, 0, 0)
    real = harness.nkd_holds

    def lying(g, q, cap=None):
        if q == NkdParams(1, 0, 0) and g.order == 7:
            return False
        return real(g, q, cap=cap)

    monkeypatch.setattr(harness, "nkd_holds", lying)
    with pytest.raises(RuntimeError, match="non-reproducible"):
        check_A3(h, p)


def test_violation_reporting_when_recheck_confirms(monkeypatch):
    h = complete(7)
    p = NkdParams(3, 0, 0)
    real_holds = harness.nkd_holds

    def lying(g, q, cap=None):
        if q == NkdParams(1, 0, 0) and g.order == 7:
            return False
        return real_holds(g, q, cap=cap)

    class LyingVerdict:
        holds = False

    monkeypatch.setattr(harness, "nkd_holds", lying)
    monkeypatch.setattr(
        harness, "is_nkd_by_characterization", lambda g, q, cap=None: LyingVerdict()
    )
    rep = check_A3(h, p)
    assert not rep.passed
    violation = rep.violations[0]
    assert violation.params == (3, 0, 0)
    assert violation.context == "lowered params (1,0,0)"
    assert "1,0,0" in violation.detail
    assert violation.graph6 == write_graph6(h)


def test_deletion_iff_recheck_and_reporting(monkeypatch):
    # K6 is a (2,1,0)-graph and every edge deletion keeps (0,1,0); force the
    # separator lookup to claim a decomposition for every edge
    h = complete(6)
    fake = object()
    monkeypatch.setattr(harness, "find_decomposition_witness", lambda *a, **k: fake)
    with pytest.raises(RuntimeError, match="at edge 0-1 of graph 0: cached and fresh"):
        check_D1(h, NkdParams(2, 1, 0))
    monkeypatch.setattr(harness, "_scan_decomposition_witness", lambda *a, **k: fake)
    rep = check_D1(h, NkdParams(2, 1, 0), graph_index=5)
    assert rep.applicable == 1
    assert len(rep.violations) == 2 * len(h.edges)
    first, second = rep.violations[:2]
    assert (first.graph_index, first.params, first.context) == (5, (2, 1, 0), "edge 0-1")
    assert first.detail == "separator decomposition exists but deletion succeeds"
    assert second.detail == "separator decomposition found at d = 0, which the size rule forbids"


def test_report_merge_and_to_dict():
    a = TheoremReport("A3", graphs_examined=1, applicable=2)
    a.skip("n<2")
    b = TheoremReport("A3", graphs_examined=1)
    b.skip("n<2")
    b.skip("d!=0")
    a.merge(b)
    assert a.graphs_examined == 2 and a.applicable == 2
    assert a.inapplicable == {"n<2": 2, "d!=0": 1}
    d = a.to_dict()
    assert d["passed"] is True
    assert d["inapplicable"] == {"d!=0": 1, "n<2": 2}


def test_check_graph_sweeps_all_triples():
    reports = check_graph(complete(6), theorems=("A3", "D1"))
    assert set(reports) == {"A3", "D1"}
    total = reports["A3"].applicable + sum(reports["A3"].inapplicable.values())
    assert total == len(valid_triples(6))
    assert reports["A3"].graphs_examined == 1


def test_rule_counts_pinned():
    graphs = connected_census(6) + disconnected_sample(1000, seed=4242)[:200]
    result = run_census([write_graph6(g) for g in graphs])
    assert result.passed
    counts = {tid: (rep.applicable, rep.inapplicable) for tid, rep in result.reports.items()}
    assert counts == PINNED_RULE_COUNTS


def test_every_theorem_id_has_a_named_checker():
    assert tuple(harness.CHECKERS) == harness.THEOREM_IDS
    for tid in harness.THEOREM_IDS:
        checker = harness.CHECKERS[tid]
        assert callable(checker) and checker.__name__ == f"check_{tid}"
        assert getattr(harness, f"check_{tid}") is checker
        assert checker.__doc__


def test_check_graph_dispatches_through_checkers_at_call_time(monkeypatch):
    real = harness.CHECKERS["D3"]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setitem(harness.CHECKERS, "D3", counting)
    reports = check_graph(complete(6))
    assert len(calls) == len(valid_triples(6))
    assert reports["D3"].applicable + sum(reports["D3"].inapplicable.values()) == len(calls)


def test_check_c1_builds_no_cone_when_inapplicable():
    g = cycle(6)
    rep = check_C1(g, NkdParams(2, 1, 0))
    assert rep.inapplicable == {"not-an-nkd-graph": 1}
    assert ("derived", "cone") not in g._cache


def test_derived_hosts_keep_no_tables_or_parent_links():
    graphs = [cycle(6), complete(5), family_cliques_plus_edge(2, 1),
              disconnected_sample(20, seed=7)[0]]
    for g in graphs:
        check_graph(g)
        hosts = [h for key, h in g._cache.items()
                 if isinstance(key, tuple) and key[0] == "derived"]
        assert hosts, g
        for h in hosts:
            # the summary was folded from the parent's tables, and the
            # link to the parent was dropped once it was built
            assert "char_summary" in h._cache
            assert not {"nu_table", "odd_table", "derived_from"} & set(h._cache)


def test_checked_graph_is_freed_without_the_cycle_collector():
    g = family_cliques_plus_edge(2, 1)
    check_graph(g)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_derived_summary_respects_table_limit(monkeypatch):
    g = cycle(5)
    monkeypatch.setattr(_engine, "TABLE_LIMIT", 5)
    assert not nkd_holds(g, NkdParams(1, 1, 0))
    cone = harness._derived(g, "cone")
    with pytest.raises(SearchCapExceeded, match="limited to 5 vertices"):
        nkd_holds(cone, NkdParams(2, 0, 0))


def test_run_census_small_stream_all_theorems():
    lines = [write_graph6(g) for g in connected_census(5)]
    result = run_census(lines)
    assert result.graphs == 31
    assert result.passed
    assert result.total_violations == 0
    assert not result.decode_errors
    for tid in harness.THEOREM_IDS:
        assert result.reports[tid].graphs_examined == 31


def test_run_census_empty_stream():
    result = run_census([])
    assert result.graphs == 0 and result.passed
    assert result.to_dict()["violations_total"] == 0


def test_run_census_reports_decode_errors_and_continues():
    lines = [write_graph6(complete(4)), "not graph6 at all!", write_graph6(cycle(5))]
    result = run_census(lines)
    assert result.graphs == 2
    assert len(result.decode_errors) == 1
    assert result.decode_errors[0][0] == 2


def test_run_census_skips_large_graphs_and_blank_lines():
    lines = ["", ">>graph6<<", write_graph6(complete(4)), write_graph6(complete(15))]
    result = run_census(lines, max_order=6)
    assert result.graphs == 1
    assert result.skipped_over_max_order == 1


def test_run_census_order_cap_refusal():
    with pytest.raises(SearchCapExceeded, match="14"):
        run_census([], max_order=30)
    assert run_census([], max_order=30, allow_large=True).graphs == 0


def test_run_census_unknown_theorem():
    with pytest.raises(ParameterError, match="Z9"):
        run_census([], theorems=("A3", "Z9"))


@pytest.mark.parametrize("jobs", [0, -1, 3])
def test_run_census_rejects_jobs_outside_cpu_count(monkeypatch, jobs):
    def refuse(*args, **kwargs):
        pytest.fail("pool or decode work started before the jobs check")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(harness, "read_graph6", refuse)
    lines = [write_graph6(g) for g in connected_census(4)]
    with pytest.raises(ParameterError, match="jobs rule"):
        run_census(lines, jobs=jobs)


def test_run_census_parallel_determinism():
    lines = [write_graph6(g) for g in connected_census(4)]
    lines.insert(2, "garbage")
    sequential = run_census(lines, theorems=("A3", "B1", "D1"))
    parallel = run_census(lines, theorems=("A3", "B1", "D1"), jobs=2)
    streamed = run_census((line for line in lines), theorems=("A3", "B1", "D1"), jobs=2)
    as_json = lambda r: json.dumps(r.to_dict(), sort_keys=True, indent=2)
    assert as_json(sequential) == as_json(parallel) == as_json(streamed)


def test_run_census_reads_the_stream_lazily(monkeypatch):
    read = 0

    def stream():
        nonlocal read
        for g in connected_census(4):
            read += 1
            yield write_graph6(g)

    real = harness.check_graph
    read_at_check = []

    def recording(*args, **kwargs):
        read_at_check.append(read)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "check_graph", recording)
    result = run_census(stream(), theorems=("A3",))
    assert result.graphs == len(read_at_check) == 10
    for i, lines_read in enumerate(read_at_check):
        assert lines_read <= i + 1


def test_run_census_numbers_lines_at_newlines_only():
    # \x0c is a line boundary for str.splitlines() but not for a text stream.
    result = run_census(io.StringIO("Dhc\x0cDhc\nDhc\nbad!\n"), theorems=("A3",))
    assert result.graphs == 1
    assert [line for line, _ in result.decode_errors] == [1, 3]


def test_census_result_summary_lines():
    result = run_census([write_graph6(complete(4))], theorems=("A3",))
    lines = result.summary_lines()
    assert lines[0] == "graphs examined: 1"
    assert any(line.startswith("A3") and "pass" in line for line in lines)
    assert lines[-1] == "violations total: 0"
