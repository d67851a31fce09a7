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
from matchext.decision import _separator_witness
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
    _fold_summary,
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
    (1,0,0)-graph: for the graph's own verdict, validated and unvalidated,
    and for the hosts' unvalidated one; with ``recheck_too`` the fresh
    recheck says so as well."""
    real, real_host, real_holds = harness.nkd_holds, harness._edited_holds, harness._holds

    def lying(g, q, cap=None):
        if q == NkdParams(1, 0, 0) and g.order == 7:
            return False
        return real(g, q, cap=cap)

    def lying_holds(g, n, k, d):
        return not ((n, k, d) == (1, 0, 0) and g.order == 7) and real_holds(g, n, k, d)

    def lying_host(g, edit, n, k, d, cap=None):
        if (n, k, d) == (1, 0, 0) and g.order == 7 and edit is None:
            return False
        return real_host(g, edit, n, k, d, cap)

    class LyingVerdict:
        holds = False

    monkeypatch.setattr(harness, "nkd_holds", lying)
    monkeypatch.setattr(harness, "_holds", lying_holds)
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


@pytest.mark.parametrize("checker, g, p, edit, context, target", [
    (check_A4, complete(8), NkdParams(2, 2, 0), None, "shifted params (4,0,0)", "(4,0,0)"),
    (check_B1, Graph(8, [e for e in combinations(range(8), 2) if e != (2, 5)]),
     NkdParams(2, 1, 0), ("add_edge", 2, 5), "non-edge 2-5", "(2,0,0)"),
    (check_C1, complete(6), NkdParams(2, 1, 0), ("cone",), "cone", "(3,0,0)"),
])
def test_violation_context_names_each_host_kind(monkeypatch, checker, g, p, edit, context,
                                                target):
    # the context is named only for a confirmed violation: force one on the
    # rule's only host, and have the fresh recheck confirm it
    real_host = harness._edited_holds

    def lying_host(h, e, n, k, d, cap=None):
        return e != edit and real_host(h, e, n, k, d, cap)

    class LyingVerdict:
        holds = False

    monkeypatch.setattr(harness, "_edited_holds", lying_host)
    monkeypatch.setattr(harness, "is_nkd_by_characterization", lambda h, q, cap=None: LyingVerdict())
    rep = checker(g, p, graph_index=3)
    assert rep.applicable == 1
    assert [(v.graph_index, v.params, v.context, v.detail) for v in rep.violations] == [
        (3, p.as_tuple(), context, f"derived graph is not a {target}-graph")]


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
    # decomposition for every edge, and the runner to visit every edge,
    # which it would otherwise skip: no edge's forced set fits a separator
    h = complete(6)
    fake = object()
    monkeypatch.setattr(harness, "_separator_witness", lambda *a, **k: fake)
    monkeypatch.setattr(harness, "_bound_candidates", lambda g, *a: (1 << len(g.edges)) - 1)
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


def _summed_instances(g, theorems=harness.THEOREM_IDS):
    """The reports of the rules ``theorems`` built as the sum of
    single-instance reports, one checker call per rule and valid triple, on
    a fresh copy of ``g``, which shares no cache with ``g``."""
    fresh = Graph(g.order, g.edges)
    totals = {tid: TheoremReport(tid, graphs_examined=1) for tid in theorems}
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
    # check_graph's instance tables against the checkers on every instance:
    # all rules, then selections with and without the bipartite rule, so
    # that both kinds of table serve
    selections = [harness.THEOREM_IDS, ("D2", "A5"), ("C1", "D3", "A4")]
    for g in census7 + disconnected1000 + order8_sample:
        for theorems in selections if g.order <= 7 else selections[:1]:
            reports = check_graph(Graph(g.order, g.edges), theorems)
            got = {tid: rep.to_dict() for tid, rep in reports.items()}
            assert got == _summed_instances(g, theorems), (write_graph6(g), theorems)


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


def test_check_graph_decides_the_own_verdicts_in_one_pass(monkeypatch):
    real = harness.nkd_holds
    asked = []

    def counting(h, q, cap=None):
        if h is g:
            asked.append(q)
        return real(h, q, cap=cap)

    monkeypatch.setattr(harness, "nkd_holds", counting)
    for g in (complete(6), cycle(7), family_cliques_plus_edge(2, 1)):
        asked.clear()
        reports = check_graph(g)
        # no verdict is validated one triple at a time: each is decided
        # once into the verdict cache that the hosts read
        assert asked == [], write_graph6(g)
        fresh = Graph(g.order, g.edges)
        assert all(g._cache[("nkd",) + p.as_tuple()] is nkd_holds(fresh, p)
                   for p in valid_triples(g.order)), write_graph6(g)
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
    return rule.skip_reason(p, structure.is_bipartite(g)) is None and any(
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
                    if rule.skip_reason(p, structure.is_bipartite(g)) is not None:
                        continue
                    for edit, target in rule.hosts(g, p):
                        host = g if edit is None else getattr(g, edit[0])(*edit[1:])
                        validate_params(host, NkdParams(*target))
                        assert host.order == g.order + (edit == ("cone",)), edit
                        if rule.variant is not None:
                            assert g.has_edge(*edit[1:]), edit
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


@pytest.mark.parametrize("tid, p", [("D1", NkdParams(2, 0, 1)), ("D3", NkdParams(0, 1, 1))])
def test_edge_rules_refuse_at_the_search_cap_even_with_every_edge_filtered(tid, p):
    # on K15 these applicable instances visit no edge: no bound can rise past
    # the target, and every forced set outgrows the separator.  The search
    # cap still refuses them, as it did when every edge in scope was visited
    g = complete(15)
    rule = harness.RULES[tid]
    assert nkd_holds(g, p) and rule.skip_reason(p, False) is None
    assert rule.hosts.scope(g, p)
    assert not rule.hosts.scope(g, p) & (decision._bound_candidates(g, *rule.hosts.target(p))
                                         | decision._separator_candidates(g, p, rule.variant))
    with pytest.raises(SearchCapExceeded, match="decomposition search"):
        harness.CHECKERS[tid](g, p)
    assert harness.CHECKERS[tid](g, p, cap=15).applicable == 1


DELETION_RULES = [tid for tid, rule in harness.RULES.items()
                  if isinstance(rule.hosts, harness._Deletions)]


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_deletion_rules_skip_only_edges_that_cannot_disagree(fixture, request):
    # per edge, not per report: the fixtures hold no violations, so equal
    # reports could not show an edge dropped that a violation needs.  On
    # every applicable instance of an edge-deletion rule the runner visits
    # the edges in scope that either side keeps, in order.  Each side is
    # checked on its own, since where the rules hold the two agree: every
    # edge the bound side drops gives a host that holds the target, every
    # edge the separator side drops has no decomposition.  The bound side
    # is also checked for every valid target, g failing it or not
    assert sorted(DELETION_RULES) == ["A6i", "A6ii", "D1", "D2", "D3"]
    dropped = {"bound": 0, "separator": 0}
    for g in request.getfixturevalue(fixture):
        g = Graph(g.order, g.edges)
        # each dropped edge is decided on a host of a freshly built copy,
        # not by the filter under test
        fresh = {edge: Graph(g.order, g.edges).delete_edge(*edge) for edge in g.edges}
        bipartite = structure.is_bipartite(g)
        every = (1 << len(g.edges)) - 1
        for p in valid_triples(g.order):
            if not nkd_holds(g, p):
                continue
            for tid in DELETION_RULES:
                rule = harness.RULES[tid]
                if rule.skip_reason(p, bipartite) is not None:
                    continue
                bound = decision._bound_candidates(g, *rule.hosts.target(p))
                separator = (0 if rule.variant is None
                             else decision._separator_candidates(g, p, rule.variant))
                hosts = list(rule.hosts(g, p))
                kept = [(edit, target) for edit, target in hosts
                        if (bound | separator) >> g.edges.index(edit[1:]) & 1]
                assert list(rule.visited(g, p, None)) == kept, (write_graph6(g), tid, p)
                for edit, target in hosts:
                    i = g.edges.index(edit[1:])
                    if not bound >> i & 1:
                        dropped["bound"] += 1
                        assert nkd_holds(fresh[edit[1:]], NkdParams(*target)), (
                            write_graph6(g), tid, p, edit)
                    if rule.variant is not None and not separator >> i & 1:
                        dropped["separator"] += 1
                        assert _separator_witness(g, p, edit[1:], rule.variant) is None, (
                            write_graph6(g), tid, p, edit)
        for t in valid_triples(g.order):
            bound = decision._bound_candidates(g, *t.as_tuple())
            if not nkd_holds(g, t):
                assert bound == every, (write_graph6(g), t)
            for i, (u, v) in enumerate(g.edges):
                if not bound >> i & 1:
                    assert nkd_holds(fresh[u, v], t), (write_graph6(g), t, (u, v))
    assert all(dropped.values()), dropped


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
    g = complete(6)
    reports = check_graph(g)
    # the checker runs once per applicable instance, in triple order; every
    # other instance is counted without a call, and all add up
    assert calls == [p for p in valid_triples(6) if p.k >= 1 and nkd_holds(g, p)]
    assert len(calls) == reports["D3"].applicable > 0
    assert reports["D3"].applicable + sum(reports["D3"].inapplicable.values()) == len(valid_triples(6))


def test_check_c1_builds_no_cone_when_inapplicable():
    g = cycle(6)
    rep = check_C1(g, NkdParams(2, 1, 0))
    assert rep.inapplicable == {"not-an-nkd-graph": 1}
    assert not _cone_keys(g)


def _cone_keys(g):
    """The keys under which g caches anything about its cone: its
    verdicts and a built cone."""
    return [key for key in g._cache
            if isinstance(key, tuple) and ("cone",) in (key, key[0], key[1:])]


def test_derived_hosts_keep_no_tables_or_parent_links():
    # an edit is asked about only where a check can disagree, which on
    # cycle(6) is nowhere; on cycle(8) a D1 separator can exist at (2,1,2)
    # for every edge
    graphs = [cycle(8), complete(5), family_cliques_plus_edge(2, 1),
              disconnected_sample(20, seed=7)[0]]
    built = 0
    for g in graphs:
        check_graph(g)
        # the edits decided, read from the keys of their cached verdicts
        edits = {key[0] for key in g._cache if isinstance(key, tuple) and isinstance(key[0], tuple)}
        assert edits, g
        hosts = [h for key, h in g._cache.items()
                 if isinstance(key, tuple) and key[0] == "host"]
        # no edit keeps rows of its own: the cone and G + uv are read from
        # the parent's rows, G - uv from its edge's rise mask; a host was
        # built only to read its exact rows
        for edit in edits:
            assert edit not in g._cache, (g, edit)
        for h in hosts:
            assert h.order == g.order and "char_summary" in h._cache
            assert not {"nu_table", "odd_table"} & set(h._cache)
            assert not any(value is g for value in h._cache.values())
        built += len(hosts)
    assert built


def _inconclusive_edits(g):
    """The edits of g whose bound fails some target that a rule asks about
    on an applicable instance: every G + uv and G - uv whose host the
    runner must build.  The G + uv bound is g's own rows lifted by one row,
    row 0 kept, and the G - uv bound, g's nu with the host's odd counts, is
    the fold over the lists.  The cone's verdict from g's rows is exact, so
    no cone is among them."""
    parent, bounds, out = Graph(g.order, g.edges), {}, set()
    rows = decision._char_summary(parent)
    lifted = [rows[0]] + rows
    for p in valid_triples(g.order):
        if not nkd_holds(parent, p):
            continue
        for rule in harness.RULES.values():
            if rule.skip_reason(p, structure.is_bipartite(parent)) is not None:
                continue
            for edit, target in rule.hosts(parent, p):
                if edit is None or edit == ("cone",):
                    continue
                if edit not in bounds:
                    bounds[edit] = (lifted if edit[0] == "add_edge"
                                    else _fold_summary(parent, parent.delete_edge(*edit[1:])))
                if not decision._rows_hold(bounds[edit], *target):
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
    # in the runner the cone meets the table limit before its decider
    # cap, which a cap of G's order would also refuse
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
    assert run_census([], max_order=23, allow_large=True).graphs == 0
    # allow_large accepts the cost, not graphs whose cones pass the table limit
    with pytest.raises(SearchCapExceeded, match="table limit of 24 vertices"):
        run_census([], max_order=30, allow_large=True)


def test_run_census_refuses_a_max_order_past_the_table_limit(monkeypatch):
    # the cone of an order-24 graph, C1's host, has 25 vertices: such a
    # census used to check the first graph and then die mid-stream, so it
    # is refused before a pool starts or a graph is decoded
    lines = ["EhEG", write_graph6(cycle(25)), "DhC"]
    result = run_census(lines, max_order=23, allow_large=True)
    assert (result.graphs, result.skipped_over_max_order) == (2, 1) and result.passed

    def refuse(*args, **kwargs):
        pytest.fail("pool or decode work started before the max order was checked")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(harness, "read_graph6", refuse)
    for max_order, jobs in ((24, 1), (25, 1), (24, 2)):
        with pytest.raises(SearchCapExceeded,
                           match=f"census max order {max_order} exceeds 23: .* table limit of 24 vertices"):
            run_census(lines, max_order=max_order, jobs=jobs, allow_large=True)


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


def test_run_census_merges_pool_chunks_in_stream_order():
    # a stream of more than two chunks, with a decode error and a graph over
    # the max order on each side of the first chunk boundary: each worker
    # merges its own run of records, and the parent the runs in order
    chunk = harness.POOL_CHUNK
    graphs = [write_graph6(g) for g in connected_census(5)]
    lines = [graphs[i % len(graphs)] for i in range(2 * chunk + 10)]
    lines[chunk - 2], lines[chunk - 1] = write_graph6(complete(7)), "bad!"
    lines[chunk], lines[chunk + 1] = "bad?", write_graph6(cycle(8))
    serial = run_census(lines, theorems=("A3", "D1", "D3"), max_order=6)
    parallel = run_census(iter(lines), theorems=("A3", "D1", "D3"), max_order=6, jobs=2)
    assert serial.to_dict() == parallel.to_dict()
    assert [line for line, _ in serial.decode_errors] == [chunk, chunk + 1]
    assert (serial.graphs, serial.skipped_over_max_order) == (len(lines) - 4, 2)


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
