from itertools import combinations

import pytest

from matchext import (
    BlockedExtension,
    Graph,
    CharacterizationViolation,
    DecompositionWitness,
    NkdParams,
    NoKMatching,
    ParameterError,
    SearchCapExceeded,
    family_blowup_bipartite,
    family_cliques_plus_edge,
    family_cliques_plus_edge_cone,
    family_gadget_chain,
    find_decomposition_witness,
    is_k_extendable,
    is_n_critical,
    is_nkd_by_characterization,
    is_nkd_by_definition,
    nkd_holds,
    validate_params,
    valid_triples,
    verify_decomposition_witness,
    verify_witness,
)
from matchext.decision import _char_summary, _scan_decomposition_witness
from matchext.harness import _derived
from conftest import (
    complete,
    complete_bipartite,
    connected_census,
    cycle,
    disjoint_union,
    path,
    random_sample,
)


def decide_both(g, p):
    a = is_nkd_by_definition(g, p)
    b = is_nkd_by_characterization(g, p)
    assert a.holds == b.holds, (g, p, a, b)
    return a, b


# -- parameter validation -------------------------------------------------------

def test_nkd_params_rejects_negative():
    with pytest.raises(ParameterError):
        NkdParams(-1, 0, 0)
    with pytest.raises(ParameterError):
        NkdParams(0, 0, -2)


def test_validate_params_size_rule():
    g = disjoint_union(complete(3), complete(2))
    with pytest.raises(ParameterError, match="size rule.*5.*3"):
        validate_params(g, NkdParams(2, 1, 1))


def test_validate_params_parity_rule():
    validate_params(family_cliques_plus_edge(2, 1), NkdParams(2, 1, 2))
    validate_params(complete(6), NkdParams(1, 1, 1))
    with pytest.raises(ParameterError, match="parity"):
        validate_params(complete(6), NkdParams(1, 1, 0))


def test_deciders_reject_invalid_params():
    for decide in (is_nkd_by_definition, is_nkd_by_characterization, nkd_holds):
        with pytest.raises(ParameterError):
            decide(complete(6), NkdParams(1, 1, 0))


def test_decider_cap():
    g = complete(17)
    with pytest.raises(SearchCapExceeded, match="16"):
        is_nkd_by_definition(g, NkdParams(0, 1, 1))
    assert is_nkd_by_definition(g, NkdParams(0, 1, 1), cap=17).holds


# -- frozen example verdicts ------------------------------------------------------

def test_cliques_plus_edge_family_verdicts():
    h = family_cliques_plus_edge(2, 1)
    a, b = decide_both(h, NkdParams(2, 1, 2))
    assert a.holds and a.witness is None
    broken = h.delete_edge(6, 7)
    a, b = decide_both(broken, NkdParams(0, 1, 2))
    assert not a.holds
    assert a.witness == BlockedExtension(deleted=(), matching=((0, 1),), blocker=())
    assert b.witness == CharacterizationViolation(condition="i", subset=())
    assert verify_witness(broken, NkdParams(0, 1, 2), a.witness)
    assert verify_witness(broken, NkdParams(0, 1, 2), b.witness)


def test_cone_family_verdicts():
    h = family_cliques_plus_edge_cone(2, 1)
    assert decide_both(h, NkdParams(3, 1, 2))[0].holds
    broken = h.delete_edge(6, 7)
    assert not decide_both(broken, NkdParams(1, 1, 2))[0].holds


def test_blowup_family_verdicts():
    h = family_blowup_bipartite(1, 1)
    # the hub/clique blow-up first satisfies k=2 at defect d+2, not d: two
    # hub-to-clique edges into one clique strand the other d+1 cliques
    a, _ = decide_both(h, NkdParams(1, 2, 1))
    assert not a.holds
    assert a.witness == BlockedExtension(
        deleted=(0,), matching=((1, 3), (2, 4)), blocker=()
    )
    assert verify_witness(h, NkdParams(1, 2, 1), a.witness)
    assert decide_both(h, NkdParams(1, 2, 3))[0].holds
    assert decide_both(h, NkdParams(1, 1, 1))[0].holds
    assert not decide_both(h, NkdParams(3, 0, 1))[0].holds
    augmented = h.add_edge(0, 1)
    v = is_nkd_by_characterization(augmented, NkdParams(1, 1, 1))
    assert not v.holds
    assert verify_witness(augmented, NkdParams(1, 1, 1), v.witness)


def test_gadget_family_verdicts():
    h = family_gadget_chain(2)
    assert decide_both(h, NkdParams(1, 3, 3))[0].holds
    broken = h.delete_edge(10, 11)
    assert not decide_both(broken, NkdParams(1, 2, 3))[0].holds


def test_small_graph_verdicts():
    assert decide_both(complete(4), NkdParams(0, 1, 0))[0].holds
    assert decide_both(cycle(6), NkdParams(0, 1, 0))[0].holds
    assert not decide_both(path(4), NkdParams(0, 1, 0))[0].holds
    assert decide_both(complete_bipartite(4, 4), NkdParams(2, 1, 2))[0].holds


def test_no_k_matching_witness():
    from matchext import Graph

    # deleting the two dominating hubs leaves five isolated vertices
    g = Graph(
        7,
        [(0, v) for v in range(2, 7)] + [(1, v) for v in range(2, 7)] + [(0, 1)],
    )
    v = is_nkd_by_definition(g, NkdParams(2, 1, 1))
    assert not v.holds
    assert v.witness == NoKMatching(deleted=(0, 1))
    assert verify_witness(g, NkdParams(2, 1, 1), v.witness)


def test_aliases():
    assert is_k_extendable(cycle(6), 1).holds
    assert not is_k_extendable(path(4), 1).holds
    assert is_n_critical(complete(5), 3).holds
    with pytest.raises(ParameterError):
        is_k_extendable(cycle(5), 1)  # odd order cannot be 0-defect


def test_verify_witness_rejects_tampered():
    h = family_cliques_plus_edge(2, 1)
    broken = h.delete_edge(6, 7)
    p = NkdParams(0, 1, 2)
    assert not verify_witness(broken, p, NoKMatching(deleted=()))
    assert not verify_witness(
        broken, p, BlockedExtension(deleted=(), matching=((0, 1),), blocker=(2,))
    )
    assert not verify_witness(
        broken, p, CharacterizationViolation(condition="ii", subset=())
    )
    # malformed coordinates must come back False, not raise
    assert not verify_witness(broken, p, NoKMatching(deleted=(99,)))
    assert not verify_witness(
        broken, p, BlockedExtension(deleted=(), matching=((6, 7),), blocker=())
    )
    assert not verify_decomposition_witness(
        h,
        NkdParams(2, 1, 2),
        DecompositionWitness(
            separator=(0, 99),
            edge=(6, 7),
            variant="d1",
            odd_components=(),
            separator_matching=(),
        ),
    )


def test_witness_serialization():
    w = BlockedExtension(deleted=(0,), matching=((1, 3), (2, 4)), blocker=())
    assert w.to_dict() == {
        "kind": "blocked-extension",
        "deleted": [0],
        "matching": [[1, 3], [2, 4]],
        "blocker": [],
    }
    v = is_nkd_by_definition(family_cliques_plus_edge(2, 1), NkdParams(2, 1, 2))
    assert v.kv_lines() == ["holds: true"]


# -- decider equivalence (unit-sized; the full census runs in acceptance) --------

def test_decider_equivalence_small_census():
    for g in connected_census(5):
        for p in valid_triples(g.order):
            decide_both(g, p)


def test_every_returned_witness_reverifies():
    # systematic sweep: whenever either decider fails, its witness must pass
    # the independent invariant checks
    graphs = connected_census(5) + random_sample(25, [6, 7], seed=99)
    failures = 0
    for g in graphs:
        for p in valid_triples(g.order):
            for decide in (is_nkd_by_definition, is_nkd_by_characterization):
                verdict = decide(g, p)
                if not verdict.holds:
                    failures += 1
                    assert verdict.witness is not None
                    assert verify_witness(g, p, verdict.witness), (g, p, verdict)
    assert failures > 500


def test_every_decomposition_witness_reverifies():
    found = 0
    for g in random_sample(40, [7, 8], seed=123):
        for p in valid_triples(g.order):
            for u, v in g.edges:
                for variant, pre in (("d1", p.n >= 2), ("d3", p.k >= 1)):
                    if not pre:
                        continue
                    w = find_decomposition_witness(g, p, (u, v), variant)
                    if w is not None:
                        found += 1
                        assert verify_decomposition_witness(g, p, w), (g, p, w)
    assert found > 10


def test_decider_equivalence_random_spot():
    for g in random_sample(40, [6, 7], seed=3):
        for p in valid_triples(g.order):
            decide_both(g, p)
            assert nkd_holds(g, p) == is_nkd_by_definition(g, p).holds


def test_definition_decider_vs_naive_oracle():
    # slow third opinion written straight from the definition, sharing no
    # code with the deciders
    from itertools import combinations

    from conftest import brute_force_nu

    def naive(g, p):
        vertices = set(range(g.order))
        for removed in combinations(range(g.order), p.n):
            rest = vertices - set(removed)
            sub, ids = g.induced_subgraph(rest)
            matchings = [
                m for m in combinations(sub.edges, p.k)
                if len({x for e in m for x in e}) == 2 * p.k
            ]
            if not matchings:
                return False
            for m in matchings:
                covered = {x for e in m for x in e}
                rem, _ = sub.delete_vertices(covered)
                if rem.order - 2 * brute_force_nu(rem) > p.d:
                    return False
        return True

    for g in random_sample(30, [5, 6], seed=11):
        for p in valid_triples(g.order):
            assert is_nkd_by_definition(g, p).holds == naive(g, p), (g, p)


def test_downward_closure_spot():
    h = family_cliques_plus_edge(2, 1)
    for target in [(0, 1, 2), (2, 0, 2), (0, 0, 2)]:
        assert decide_both(h, NkdParams(*target))[0].holds


# -- separator decompositions -----------------------------------------------------

def test_d1_witness_found_and_verified():
    h = family_cliques_plus_edge(2, 1)
    p = NkdParams(2, 1, 2)
    w = find_decomposition_witness(h, p, (6, 7), "d1")
    assert w == DecompositionWitness(
        separator=(0, 1),
        edge=(6, 7),
        variant="d1",
        odd_components=((2,), (3, 4, 5)),
        separator_matching=((0, 1),),
    )
    assert verify_decomposition_witness(h, p, w)
    # deleting the distinguished edge indeed destroys the lowered parameters
    assert not nkd_holds(h.delete_edge(6, 7), NkdParams(0, 1, 2))


def test_d1_no_witness_for_safe_edge():
    h = family_cliques_plus_edge(2, 1)
    p = NkdParams(2, 1, 2)
    assert find_decomposition_witness(h, p, (0, 1), "d1") is None
    assert nkd_holds(h.delete_edge(0, 1), NkdParams(0, 1, 2))


def test_d1_impossible_at_defect_zero():
    assert find_decomposition_witness(complete(6), NkdParams(2, 1, 0), (0, 1), "d1") is None


def test_d3_witness_on_cone_family():
    h = family_cliques_plus_edge_cone(2, 1)
    p = NkdParams(3, 1, 2)
    w = find_decomposition_witness(h, p, (6, 7), "d3")
    assert w is not None
    assert w.separator == (0, 1, 8)
    assert w.separator_matching == ()
    assert verify_decomposition_witness(h, p, w)
    assert not nkd_holds(h.delete_edge(6, 7), NkdParams(3, 0, 2))


def test_d3_gadget_has_no_witness():
    h = family_gadget_chain(2)
    p = NkdParams(1, 3, 3)
    assert find_decomposition_witness(h, p, (10, 11), "d3") is None


def test_decomposition_witness_errors():
    h = family_cliques_plus_edge(2, 1)
    with pytest.raises(ParameterError, match="not an edge"):
        find_decomposition_witness(h, NkdParams(2, 1, 2), (0, 7), "d1")
    with pytest.raises(ParameterError, match="n >= 2"):
        find_decomposition_witness(h, NkdParams(0, 1, 2), (6, 7), "d1")
    with pytest.raises(ParameterError, match="k >= 1"):
        find_decomposition_witness(h, NkdParams(2, 0, 2), (6, 7), "d3")
    with pytest.raises(ParameterError, match="variant"):
        find_decomposition_witness(h, NkdParams(2, 1, 2), (6, 7), "d2")
    with pytest.raises(SearchCapExceeded):
        find_decomposition_witness(
            complete(15), NkdParams(2, 1, 1), (0, 1), "d1"
        )


def _separator_queries(g):
    for p in valid_triples(g.order):
        for edge in g.edges:
            for variant, pre in (("d1", p.n >= 2), ("d3", p.k >= 1)):
                if pre:
                    yield p, edge, variant


def test_separator_layer_matches_subset_scan(census7, disconnected1000, order8_sample):
    # the layer lookup against the per-query subset scan, on a fresh graph
    # so the scan shares no layer with the lookup
    found = 0
    for g in census7 + disconnected1000 + order8_sample[:40]:
        fresh = Graph(g.order, g.edges)
        for p, edge, variant in _separator_queries(g):
            got = find_decomposition_witness(g, p, edge, variant)
            want = _scan_decomposition_witness(fresh, p, edge, variant)
            assert (got and got.to_dict()) == (want and want.to_dict()), (g, p, edge, variant)
            found += got is not None
    assert found > 1000


def test_separator_layer_built_once_per_size():
    h = family_cliques_plus_edge(2, 1)
    assert find_decomposition_witness(h, NkdParams(2, 1, 2), (6, 7), "d1") is not None
    keys = set(h._cache)
    assert ("separator_layer", 2) in keys
    # same separator size 2: a miss and a hit answer from the built layer
    assert find_decomposition_witness(h, NkdParams(2, 1, 2), (0, 1), "d1") is None
    assert find_decomposition_witness(h, NkdParams(0, 2, 2), (6, 7), "d3") is not None
    assert set(h._cache) == keys


def _edits(g):
    """Every derived graph a census asks about: the cone, each G - uv and
    each G + uv."""
    yield ("cone",)
    for u, v in g.edges:
        yield ("delete_edge", u, v)
    for u, v in combinations(range(g.order), 2):
        if not g.has_edge(u, v):
            yield ("add_edge", u, v)


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_derived_summary_matches_fresh(fixture, request):
    # the summary folded from the parent's tables against one built from the
    # host's own tables; a fresh parent per graph keeps the session fixtures'
    # caches free of derived hosts
    for g in request.getfixturevalue(fixture):
        parent = Graph(g.order, g.edges)
        for edit in _edits(parent):
            h = _derived(parent, *edit)
            assert _char_summary(h) == _char_summary(Graph(h.order, h.edges)), (g, edit)


def test_decomposition_witness_kv_lines():
    h = family_cliques_plus_edge(2, 1)
    w = find_decomposition_witness(h, NkdParams(2, 1, 2), (6, 7), "d1")
    lines = w.kv_lines()
    assert lines[0] == "variant: d1"
    assert "separator: 0 1" in lines
    assert "edge-component: 6 7" in lines
