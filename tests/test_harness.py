import gc
import io
import json
import multiprocessing
import os
import weakref
from itertools import combinations

import pytest

import matchext._engine as _engine
import matchext.decision as decision
import matchext.harness as harness
import matchext.structure as structure
from matchext import (
    CensusResult,
    Graph,
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
    validate_params,
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
    GRAPH6_LINE_KINDS,
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


def _force_order7_not_100(monkeypatch, recheck_too: bool) -> None:
    """Force the cached decider to say an order-7 graph is not a
    (1,0,0)-graph, both for the graph's own verdict and for the hosts'
    unvalidated one; with ``recheck_too`` the fresh recheck says so as
    well."""
    real, real_host = harness.nkd_holds, harness._edited_holds

    def lying(g, q, cap=None):
        if q == NkdParams(1, 0, 0) and g.order == 7:
            return False
        return real(g, q, cap=cap)

    def lying_host(g, edit, n, k, d):
        if (n, k, d) == (1, 0, 0) and g.order == 7 and edit is None:
            return False
        return real_host(g, edit, n, k, d)

    class LyingVerdict:
        holds = False

    monkeypatch.setattr(harness, "nkd_holds", lying)
    monkeypatch.setattr(harness, "_edited_holds", lying_host)
    if recheck_too:
        monkeypatch.setattr(
            harness, "is_nkd_by_characterization", lambda g, q, cap=None: LyingVerdict()
        )


def test_violation_reporting_via_forced_disagreement(monkeypatch):
    # plumbing test: the fresh recheck says the conclusion holds, which must
    # abort instead of reporting
    _force_order7_not_100(monkeypatch, recheck_too=False)
    with pytest.raises(RuntimeError, match="non-reproducible"):
        check_A3(complete(7), NkdParams(3, 0, 0))


def test_violation_reporting_when_recheck_confirms(monkeypatch):
    h = complete(7)
    _force_order7_not_100(monkeypatch, recheck_too=True)
    rep = check_A3(h, NkdParams(3, 0, 0))
    assert not rep.passed
    violation = rep.violations[0]
    assert violation.params == (3, 0, 0)
    assert violation.context == "lowered params (1,0,0)"
    assert "1,0,0" in violation.detail
    assert violation.graph6 == write_graph6(h)


@pytest.mark.parametrize("line", [">>graph6<<F~~~w", "~??F~~~w"])
def test_violation_names_the_graph_by_its_canonical_graph6(monkeypatch, line):
    # the first line carries a header, or encodes K7 in the long form;
    # either way the report names the graph as write_graph6 does
    _force_order7_not_100(monkeypatch, recheck_too=True)
    result = run_census([line, write_graph6(cycle(5))], theorems=("A3",))
    violations = result.reports["A3"].violations
    assert violations and result.graphs == 2
    assert {(v.graph_index, v.graph6) for v in violations} == {(0, "F~~~w")}
    assert write_graph6(complete(7)) == "F~~~w"


def test_deletion_iff_recheck_and_reporting(monkeypatch):
    # K6 is a (2,1,0)-graph and every edge deletion keeps (0,1,0); force the
    # separator search, which the runner calls unvalidated, to claim a
    # decomposition for every edge
    h = complete(6)
    fake = object()
    monkeypatch.setattr(harness, "_separator_witness", lambda *a, **k: fake)
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


@pytest.mark.parametrize("checker, g, p, rule", [
    # d!=0 used to fire first and count the instance as inapplicable
    (check_A4, complete(6), NkdParams(0, 0, 1), "parity rule"),
    (check_D2, complete(6), NkdParams(2, 2, 0), "size rule"),
    (check_A3, cycle(5), NkdParams(0, 0, 0), "parity rule"),
    (check_D3, cycle(4), NkdParams(0, 2, 0), "size rule"),
])
def test_checkers_reject_invalid_triples_first(checker, g, p, rule):
    with pytest.raises(ParameterError, match=rule):
        checker(g, p)


def _summed_instances(g):
    """Every rule's one-graph report built as the sum of single-instance
    reports on a fresh copy of ``g``, which shares no cache with ``g``."""
    fresh = Graph(g.order, g.edges)
    totals = {tid: TheoremReport(tid, graphs_examined=1) for tid in harness.THEOREM_IDS}
    for p in valid_triples(g.order):
        for tid, total in totals.items():
            one = harness.CHECKERS[tid](fresh, p)
            assert one.graphs_examined == 1
            assert one.applicable + sum(one.inapplicable.values()) == 1
            total.applicable += one.applicable
            for reason, count in one.inapplicable.items():
                total.inapplicable[reason] = total.inapplicable.get(reason, 0) + count
            total.violations += one.violations
    return {tid: total.to_dict() for tid, total in totals.items()}


def test_check_graph_equals_summed_single_instances(census7, disconnected1000,
                                                    order8_sample):
    for g in census7 + disconnected1000[:200] + order8_sample[:100]:
        got = {tid: rep.to_dict() for tid, rep in check_graph(g).items()}
        assert got == _summed_instances(g), write_graph6(g)


def test_check_graph_keeps_one_report_per_rule(monkeypatch):
    built = []

    class CountingReport(TheoremReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.theorem)

    def no_merge(self, other):
        raise AssertionError("check_graph merged a report")

    monkeypatch.setattr(harness, "TheoremReport", CountingReport)
    monkeypatch.setattr(TheoremReport, "merge", no_merge)
    reports = check_graph(complete(6), theorems=("A3", "D1", "D2"))
    assert built == ["A3", "D1", "D2"]
    assert all(rep.graphs_examined == 1 for rep in reports.values())


def test_check_graph_rejects_unknown_and_repeated_theorem_ids():
    # the same ids the census refuses, by the same messages
    with pytest.raises(ParameterError, match="unknown theorem ids: 'A7'$"):
        check_graph(cycle(6), theorems=("A7",))
    with pytest.raises(ParameterError, match="repeated theorem ids: 'A3'$"):
        check_graph(cycle(6), theorems=("A3", "A3"))


def test_check_graph_two_colours_a_graph_once(monkeypatch):
    real = structure._two_colorable
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(structure, "_two_colorable", counting)
    g = complete_bipartite(3, 3)
    reports = check_graph(g, theorems=("D2",))
    assert len(calls) == 1 and calls[0] is g
    assert reports["D2"].applicable > 0


def test_check_graph_decides_the_own_verdict_once_per_triple(monkeypatch):
    real = harness.nkd_holds
    asked = []

    def counting(h, q, cap=None):
        if h is g:
            asked.append(q)
        return real(h, q, cap=cap)

    monkeypatch.setattr(harness, "nkd_holds", counting)
    # A3, A4 and B2 also ask about the same graph as a host, at other triples
    theorems = [tid for tid in harness.THEOREM_IDS if tid not in ("A3", "A4", "B2")]
    for g in (complete(6), cycle(7), family_cliques_plus_edge(2, 1)):
        asked.clear()
        reports = check_graph(g, theorems)
        assert asked == valid_triples(g.order), write_graph6(g)
        assert sum(rep.applicable for rep in reports.values()) > 0
    # a checker called alone still decides, and so validates, its triple
    asked.clear()
    g = complete(6)
    assert check_D1(g, NkdParams(2, 1, 0)).applicable == 1
    assert asked == [NkdParams(2, 1, 0)]


def test_check_graph_refuses_a_lower_cap():
    g = cycle(8)
    with pytest.raises(SearchCapExceeded, match="decider"):
        check_graph(g, cap=7)
    with pytest.raises(SearchCapExceeded, match="decider"):
        check_A3(g, NkdParams(2, 1, 0), cap=7)
    assert check_graph(g, cap=8)["A3"].graphs_examined == 1


def _hosts_in_scope(tid, g, p):
    """Whether instance (g, p) of rule ``tid`` passes its preconditions and
    names at least one host, read without the runner."""
    rule = harness.RULES[tid]
    return all(test(g, p) for _, test in rule.preconditions) and any(
        True for _ in rule.hosts(g, p))


def test_every_host_target_is_valid_on_its_host():
    # the runner decides hosts and searches separators without validating:
    # for every rule, order and valid triple whose preconditions pass, each
    # target must be a valid triple on its host and each edge an edge of G.
    # Per order, the complete graph less one edge (every edge meets a vertex
    # of degree >= order - 2 >= 2k, so D3 has hosts) and the path
    # (bipartite, so D2 has hosts) each have an edge and a non-edge from
    # order 3; at order 2 they are the empty graph and K2
    checked = dict.fromkeys(harness.THEOREM_IDS, 0)
    for order in range(2, 15):
        near_complete = Graph(order, [e for e in combinations(range(order), 2) if e != (0, 1)])
        for g in (near_complete, Graph(order, [(v, v + 1) for v in range(order - 1)])):
            for p in valid_triples(order):
                for tid, rule in harness.RULES.items():
                    if not all(test(g, p) for _, test in rule.preconditions):
                        continue
                    for context, edit, target, edge in rule.hosts(g, p):
                        host = g if edit is None else getattr(g, edit[0])(*edit[1:])
                        validate_params(host, target)
                        assert host.order == g.order + (context == "cone"), context
                        if rule.variant is not None:
                            assert g.has_edge(*edge), context
                        checked[tid] += 1
    assert all(checked.values()), checked


def test_edge_rules_refuse_at_the_search_cap_exactly_where_they_have_hosts():
    # order 15 passes the decider's default cap of 16 but not the search's
    # 14: an instance refuses, naming the search, once it is applicable and
    # has an edge in scope, and otherwise reports as it did without a search
    refused = {"D1": 0, "D3": 0}
    reported = {"D1": 0, "D3": 0}
    for g in (complete(15), cycle(15)):
        for p in valid_triples(15):
            for tid, check in (("D1", check_D1), ("D3", check_D3)):
                if _hosts_in_scope(tid, g, p) and nkd_holds(g, p):
                    with pytest.raises(SearchCapExceeded, match="decomposition search"):
                        check(g, p)
                    refused[tid] += 1
                else:
                    rep = check(g, p)
                    assert rep.passed and rep.graphs_examined == 1
                    reported[tid] += 1
    assert all(refused.values()) and all(reported.values())
    # an applicable D3 instance with no edge in scope: every degree is 2 < 2k
    assert check_D3(cycle(15), NkdParams(1, 2, 6)).applicable == 1


def test_cone_host_keeps_the_decider_cap():
    # C1's host has one vertex more than G, so a cap of G's order admits G
    # and refuses the cone
    g = complete(6)
    p = NkdParams(2, 1, 0)
    assert nkd_holds(g, p, cap=g.order)
    with pytest.raises(SearchCapExceeded, match="decider"):
        check_C1(g, p, cap=g.order)
    assert check_C1(g, p, cap=g.order + 1).applicable == 1


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
    assert not _cone_keys(g)


def _cone_keys(g):
    """The keys under which g caches anything about its cone: its rows,
    its verdicts and a built cone."""
    return [key for key in g._cache
            if isinstance(key, tuple) and ("cone",) in (key, key[0], key[1:])]


def test_derived_hosts_keep_no_tables_or_parent_links():
    graphs = [cycle(6), complete(5), family_cliques_plus_edge(2, 1),
              disconnected_sample(20, seed=7)[0]]
    built = 0
    for g in graphs:
        check_graph(g)
        edits = [key for key in g._cache if isinstance(key, tuple)
                 and key[:1] in (("add_edge",), ("delete_edge",), ("cone",))]
        assert edits, g
        hosts = [h for key, h in g._cache.items()
                 if isinstance(key, tuple) and key[0] == "host"]
        # every edit's rows were read from the parent's planes: the cone's
        # exact summary, the edited hosts' bound; a host was built only to
        # read its exact rows
        assert all(g._cache[edit] and g._cache[edit][0] for edit in edits), g
        for h in hosts:
            assert h.order == g.order and "char_summary" in h._cache
            assert not {"nu_table", "odd_table"} & set(h._cache)
            assert not any(value is g for value in h._cache.values())
        built += len(hosts)
    assert built


def _inconclusive_edits(g):
    """The edits of g whose bound, read afresh from g's planes, fails some
    target that a rule asks about on an applicable instance: every G + uv
    and G - uv whose host the runner must build.  The cone's rows are
    exact, so no cone is among them."""
    parent, bounds, out = Graph(g.order, g.edges), {}, set()
    for p in valid_triples(g.order):
        if not nkd_holds(parent, p):
            continue
        for rule in harness.RULES.values():
            if not all(test(parent, p) for _, test in rule.preconditions):
                continue
            for _, edit, target, _ in rule.hosts(parent, p):
                if edit is None or edit == ("cone",):
                    continue
                if edit not in bounds:
                    bounds[edit] = decision._edge_bound(parent, edit[0], edit[1:])
                if not decision._rows_hold(bounds[edit], *target.as_tuple()):
                    out.add(edit)
    return out


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000"])
def test_hosts_are_built_once_per_inconclusive_edit(fixture, request, monkeypatch):
    # a census decides each host as an edit of the graph and builds the
    # host graph only when the edit's bound cannot show a target holding,
    # then once, however many rules and triples ask about it
    graphs = [Graph(g.order, g.edges) for g in request.getfixturevalue(fixture)]
    want = [_inconclusive_edits(g) for g in graphs]
    calls = []
    for method in ("add_edge", "delete_edge", "cone"):
        def counting(self, *args, _real=getattr(Graph, method), _method=method):
            calls.append((self, (_method,) + args))
            return _real(self, *args)

        monkeypatch.setattr(Graph, method, counting)
    for g, edits in zip(graphs, want):
        calls.clear()
        assert all(rep.passed for rep in check_graph(g).values()), g
        assert all(parent is g for parent, _ in calls), g
        built = [edit for _, edit in calls]
        assert sorted(built) == sorted(edits), g
    assert any(want)


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
    with pytest.raises(SearchCapExceeded, match="limited to 5 vertices"):
        harness._edited_holds(g, ("cone",), 2, 0, 0)
    assert not _cone_keys(g)
    # in the runner the cone's rows meet the table limit before its
    # decider cap, which a cap of G's order would also refuse
    h = complete(5)
    with pytest.raises(SearchCapExceeded, match="limited to 5 vertices"):
        check_C1(h, NkdParams(1, 1, 0), cap=h.order)
    assert not _cone_keys(h)


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


def test_run_census_refuses_a_negative_max_order(monkeypatch):
    # a negative bound would skip every graph and still pass
    def refuse(*args, **kwargs):
        pytest.fail("a graph was decoded before the max order was checked")

    monkeypatch.setattr(harness, "read_graph6", refuse)
    with pytest.raises(ParameterError, match="max order must be non-negative, got -3"):
        run_census([write_graph6(cycle(4))], max_order=-3)
    assert run_census([], max_order=0).passed


def test_run_census_unknown_theorem():
    with pytest.raises(ParameterError, match="Z9"):
        run_census([], theorems=("A3", "Z9"))
    # an empty id, as from "--theorems A3,", is quoted so it shows
    with pytest.raises(ParameterError, match="unknown theorem ids: ''$"):
        run_census([], theorems=("A3", ""))


def test_run_census_rejects_repeated_theorem_ids_before_decoding(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a graph was decoded before the theorem ids were checked")

    monkeypatch.setattr(harness, "read_graph6", refuse)
    lines = [write_graph6(cycle(4)), write_graph6(complete(5))]
    with pytest.raises(ParameterError, match="repeated theorem ids: 'A3'$"):
        run_census(lines, theorems=("A3", "D1", "A3"))


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
    lines += [line for line, _ in GRAPH6_LINE_KINDS]
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
