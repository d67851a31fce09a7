import pytest

from matchext import (
    ParameterError,
    cliques_plus_edge_distinguished_edge,
    components,
    family_blowup_bipartite,
    family_cliques_plus_edge,
    family_cliques_plus_edge_cone,
    family_gadget_chain,
    gadget_chain_distinguished_edge,
    is_factor_critical,
    read_graph6,
    write_graph6,
)


def test_blowup_small_instance():
    g = family_blowup_bipartite(1, 1)
    assert g.order == 12
    # 3 hubs x 9 clique vertices crossing, plus 3 triangles
    assert g.edge_count == 36
    for hub in (0, 1, 2):
        assert g.degree(hub) == 9
    assert not g.has_edge(0, 1) and not g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_blowup_sizes():
    assert family_blowup_bipartite(2, 1).order == 15
    assert family_blowup_bipartite(1, 2).order == 18


def test_blowup_bounds():
    with pytest.raises(ParameterError):
        family_blowup_bipartite(0, 1)
    with pytest.raises(ParameterError):
        family_blowup_bipartite(1, 0)


def test_cliques_plus_edge_layout():
    g = family_cliques_plus_edge(2, 1)
    assert g.order == 8
    assert g.edge_count == 7
    assert cliques_plus_edge_distinguished_edge(2, 1) == (6, 7)
    assert g.has_edge(6, 7)
    assert family_cliques_plus_edge(1, 1).order == 5
    assert family_cliques_plus_edge(2, 2).order == 12


def test_cliques_plus_edge_component_structure():
    # d odd factor-critical components plus the single even edge
    for d, m in [(1, 1), (2, 1), (3, 1), (2, 2)]:
        g = family_cliques_plus_edge(d, m)
        profile = components(g)
        sizes = sorted(len(c) for c in profile)
        assert sizes == [2] + [2 * m + 1] * d
        odd_flags = [is_factor_critical(g.induced_subgraph(c)[0]) for c in profile if len(c) % 2]
        assert odd_flags == [True] * d
        assert profile.odd_count() == d


def test_cone_family():
    g = family_cliques_plus_edge_cone(2, 1)
    assert g.order == 9
    assert g.edge_count == 15
    assert g.degree(8) == 8
    assert family_cliques_plus_edge_cone(1, 1).order == 6


def test_gadget_chain_layout():
    g = family_gadget_chain(2)
    assert g.order == 12
    assert g.edge_count == 23
    assert gadget_chain_distinguished_edge(2) == (10, 11)
    assert g.has_edge(10, 11)
    assert family_gadget_chain(1).order == 7


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_gadget_chain_attachment_degrees(copies):
    g = family_gadget_chain(copies)
    u, v = gadget_chain_distinguished_edge(copies)
    assert g.degree(u) == 2 * copies + 1
    assert g.degree(v) == 2 * copies + 1


def test_gadget_chain_bounds():
    with pytest.raises(ParameterError):
        family_gadget_chain(0)


def test_generated_graphs_round_trip():
    instances = [
        family_blowup_bipartite(1, 1),
        family_blowup_bipartite(2, 2),
        family_cliques_plus_edge(3, 1),
        family_cliques_plus_edge_cone(2, 1),
        family_gadget_chain(3),
    ]
    for g in instances:
        assert read_graph6(write_graph6(g)) == g
