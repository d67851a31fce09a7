import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchext._engine as _engine
from matchext import (
    Matching,
    ParameterError,
    SearchCapExceeded,
    berge_violating_set,
    deficiency,
    enumerate_k_matchings,
    has_defect_matching,
    has_k_matching,
    maximum_matching,
    nu,
)
from matchext.matching import _berge_blocker
from conftest import (
    berge_blocker_by_flood_fill,
    brute_force_nu,
    complete,
    complete_bipartite,
    connected_census,
    cycle,
    disjoint_union,
    empty,
    path,
    random_graph,
)


@st.composite
def graphs(draw, max_order=8):
    order = draw(st.integers(0, max_order))
    pairs = list(combinations(range(order), 2))
    if not pairs:
        return empty(order)
    from matchext import Graph
    return Graph(order, draw(st.sets(st.sampled_from(pairs))))


# -- Matching type -------------------------------------------------------------

def test_matching_normalizes():
    m = Matching([(3, 2), (0, 1)])
    assert m.edges == ((0, 1), (2, 3))
    assert len(m) == 2
    assert m.vertices() == frozenset({0, 1, 2, 3})


def test_matching_rejects_overlap():
    with pytest.raises(ValueError, match="shares a vertex"):
        Matching([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        Matching([(1, 1)])


@pytest.mark.parametrize("pair", [(0, 1.0), ("a", "b"), (0,), (0, 1, 2), None])
def test_matching_rejects_non_integer_endpoints(pair):
    # rejected at construction, so validate never meets such an edge
    with pytest.raises(ValueError, match="a matching edge is a pair of vertex ids"):
        Matching([pair])


def test_matching_reads_endpoints_as_integer_ids():
    assert Matching([(True, 2)]).edges == ((1, 2),)
    assert type(Matching([(True, 2)]).edges[0][0]) is int


def test_matching_validate_membership():
    m = Matching([(0, 1)])
    m.validate(path(3))
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        Matching([(0, 2)]).validate(path(3))


# -- maximum matching ----------------------------------------------------------

@pytest.mark.parametrize(
    "g,size",
    [
        (complete(4), 2),
        (cycle(5), 2),
        (complete_bipartite(1, 3), 1),
        (path(4), 2),
        (empty(6), 0),
        (empty(0), 0),
        (complete(1), 0),
        (cycle(9), 4),
        (complete_bipartite(3, 5), 3),
        (disjoint_union(cycle(3), cycle(3), complete(2)), 3),
    ],
)
def test_maximum_matching_sizes(g, size):
    m = maximum_matching(g)
    m.validate(g)
    assert len(m) == size
    assert nu(g) == size


def test_maximum_matching_needs_shrinking():
    # two triangles joined by a path: greedy bipartite-style search fails
    # without odd-cycle handling
    g = disjoint_union(cycle(3), cycle(3)).add_edge(0, 3)
    assert nu(g) == 3
    petersen = Graph_petersen()
    assert nu(petersen) == 5


def Graph_petersen():
    from matchext import Graph

    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def test_maximum_matching_vs_brute_force_census():
    for g in connected_census(6):
        assert nu(g) == brute_force_nu(g), g


def test_maximum_matching_deterministic():
    g = Graph_petersen()
    assert maximum_matching(g).edges == maximum_matching(g).edges


@settings(max_examples=120, deadline=None)
@given(graphs())
def test_maximum_matching_matches_oracle(g):
    m = maximum_matching(g)
    m.validate(g)
    assert len(m) == brute_force_nu(g)


# -- deficiency and defect matchings -------------------------------------------

def test_deficiency_values():
    assert deficiency(complete_bipartite(1, 3)) == 2
    assert deficiency(complete(6)) == 0
    assert deficiency(disjoint_union(cycle(3), cycle(3), complete(2))) == 2


def test_has_defect_matching():
    star = complete_bipartite(1, 3)
    assert has_defect_matching(star, 2)
    assert not has_defect_matching(star, 0)
    assert has_defect_matching(cycle(5), 1)


def test_has_defect_matching_parameter_errors():
    with pytest.raises(ParameterError, match="parity"):
        has_defect_matching(cycle(5), 0)
    with pytest.raises(ParameterError, match="outside"):
        has_defect_matching(cycle(5), 7)
    with pytest.raises(ParameterError):
        has_defect_matching(cycle(5), -1)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_defect_monotonicity(g):
    for d in range(g.order % 2, g.order - 1, 2):
        if has_defect_matching(g, d):
            assert has_defect_matching(g, d + 2)


# -- subset-enumeration oracle ---------------------------------------------------

def test_berge_violating_set_star():
    assert berge_violating_set(complete_bipartite(1, 3), 0) == (0,)


def test_berge_violating_set_none():
    assert berge_violating_set(complete(4), 0) is None


def test_berge_violating_set_empty_set_witness():
    g = disjoint_union(cycle(3), cycle(3), complete(2))
    assert berge_violating_set(g, 0) == ()


def test_berge_violating_set_parity_error():
    with pytest.raises(ParameterError, match="parity"):
        berge_violating_set(cycle(5), 0)


def test_berge_cap():
    big_star = complete_bipartite(1, 20)
    with pytest.raises(SearchCapExceeded, match="20"):
        berge_violating_set(big_star, 1)
    assert berge_violating_set(big_star, 1, cap=21) == (0,)


def test_berge_flood_fills_above_the_table_limit():
    # order 25 is past the subset tables' limit: each subset is flood
    # filled, which answers at once when a small set violates
    star, edgeless = complete_bipartite(1, 24), empty(25)
    assert star.order > _engine.TABLE_LIMIT
    assert berge_violating_set(star, 1, cap=30) == (0,)
    assert berge_violating_set(edgeless, 1, cap=30) == ()
    for g in (star, edgeless):
        assert not {"odd_digits", "odd_table"} & set(g._cache)


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_berge_violating_set_matches_flood_fill(fixture, request):
    # the blocker read from the odd-count digits against a flood fill of
    # every subset: on the whole graph for every valid d, and on one proper
    # sub-mask per graph for every d of its parity
    found = 0
    for g in request.getfixturevalue(fixture):
        full = _engine.full_mask(g)
        for d in range(g.order % 2, g.order + 1, 2):
            got = berge_violating_set(g, d)
            assert got == berge_blocker_by_flood_fill(g, full, d), (g, d)
            found += got is not None
        sub = full ^ 1 << len(g.edges) % g.order
        size = sub.bit_count()
        for d in range(size % 2, size + 1, 2):
            assert _berge_blocker(g, sub, d) == berge_blocker_by_flood_fill(g, sub, d), (g, sub, d)
    assert found > 0


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_berge_equivalence(g):
    for d in range(g.order % 2, g.order + 1, 2):
        assert has_defect_matching(g, d) == (berge_violating_set(g, d) is None)


# -- k-matching enumeration ------------------------------------------------------

def test_enumerate_k4_perfect_matchings():
    found = [m.edges for m in enumerate_k_matchings(complete(4), 2)]
    assert found == [
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    ]


def test_enumerate_zero_matching():
    assert [m.edges for m in enumerate_k_matchings(empty(3), 0)] == [()]
    assert [m.edges for m in enumerate_k_matchings(complete(5), 0)] == [()]


def test_enumerate_above_nu_is_empty():
    assert list(enumerate_k_matchings(cycle(5), 3)) == []


def test_enumerate_is_deterministic_and_duplicate_free():
    g = complete(6)
    once = [m.edges for m in enumerate_k_matchings(g, 2)]
    twice = [m.edges for m in enumerate_k_matchings(g, 2)]
    assert once == twice
    assert len(set(once)) == len(once) == 45


@settings(max_examples=60, deadline=None)
@given(graphs(max_order=7), st.integers(0, 3))
def test_enumerate_counts_against_oracle(g, k):
    def count(i, used, left):
        if left == 0:
            return 1
        total = 0
        for j in range(i, len(g.edges)):
            u, v = g.edges[j]
            pair = (1 << u) | (1 << v)
            if not used & pair:
                total += count(j + 1, used | pair, left - 1)
        return total

    listed = list(enumerate_k_matchings(g, k))
    assert len(listed) == count(0, 0, k)
    for m in listed:
        assert len(m) == k
        m.validate(g)


def test_has_k_matching():
    assert has_k_matching(cycle(5), 2)
    assert not has_k_matching(cycle(5), 3)
    assert has_k_matching(complete_bipartite(3, 3), 3)


def test_nu_equals_enumeration_maximum_small_census():
    for g in connected_census(5):
        best = max(
            (k for k in range(g.order // 2 + 1)
             if next(iter(enumerate_k_matchings(g, k)), None) is not None),
            default=0,
        )
        assert nu(g) == best


def test_random_sample_blossom_vs_oracle():
    rng = random.Random(7)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.1, 0.9))
        assert nu(g) == brute_force_nu(g)


def test_blossom_vs_subset_table_full_census(census7):
    # two independent implementations of the matching number
    from matchext._engine import full_mask, nu_table

    for g in census7:
        assert nu(g) == nu_table(g)[full_mask(g)], g


def test_blossom_vs_networkx_beyond_brute_force():
    import networkx as nx

    rng = random.Random(2024)
    cases = [cycle(25), complete(13), disjoint_union(*[complete(5)] * 4)]
    cases += [random_graph(rng, rng.randint(12, 20), rng.uniform(0.1, 0.7))
              for _ in range(40)]
    for g in cases:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.order))
        nxg.add_edges_from(g.edges)
        expected = len(nx.max_weight_matching(nxg, maxcardinality=True))
        m = maximum_matching(g)
        m.validate(g)
        assert len(m) == expected, g


def test_enumerate_rejects_negative_size():
    with pytest.raises(ValueError, match="non-negative"):
        list(enumerate_k_matchings(complete(3), -1))
