import re
from itertools import combinations

import pytest

from matchext import Graph, GraphConstructionError, build
from conftest import complete, complete_bipartite, cycle, empty


def test_build_normalizes_k4():
    g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert g.order == 4
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert g == complete(4)


def test_build_rejects_self_loop():
    with pytest.raises(GraphConstructionError, match=r"self-loop \(0, 0\)"):
        Graph(3, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(GraphConstructionError, match=r"duplicate edge \(0, 1\)"):
        Graph(2, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphConstructionError, match=r"\(0, 5\)"):
        Graph(3, [(0, 5)])
    with pytest.raises(GraphConstructionError):
        Graph(0, [(0, 0)])


@pytest.mark.parametrize("pair", [(0, 1.0), (0, "1"), (None, 1), (0, 1, 2), (0,), 5],
                         ids=["float", "str", "none", "triple", "single", "not-a-pair"])
def test_build_rejects_a_pair_that_is_not_two_ids(pair):
    with pytest.raises(GraphConstructionError, match=re.escape(repr(pair))):
        Graph(3, [pair])


def test_queries():
    g = cycle(4)
    assert g.neighbors(0) == frozenset({1, 3})
    assert g.degree(2) == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(-1, 0)
    assert not g.has_edge(0, -1) and not g.has_edge(0, g.order)
    assert g.edge_count == 4


def test_delete_vertices_complete():
    g, old_ids = complete(4).delete_vertices({0})
    assert g == complete(3)
    assert old_ids == (1, 2, 3)


def test_delete_vertices_identity():
    c5 = cycle(5)
    g, old_ids = c5.delete_vertices(set())
    assert g == c5
    assert old_ids == (0, 1, 2, 3, 4)


def test_delete_vertices_bipartite_side():
    g, old_ids = complete_bipartite(3, 3).delete_vertices({0, 1, 2})
    assert g == empty(3)
    assert old_ids == (3, 4, 5)


def test_delete_vertices_out_of_range():
    with pytest.raises(GraphConstructionError, match="9"):
        complete(4).delete_vertices({9})


@pytest.mark.parametrize("method", ["delete_vertices", "induced_subgraph"])
@pytest.mark.parametrize("member, message", [
    (0.5, "a vertex id is an integer, got 0.5"),
    (1.0, "a vertex id is an integer, got 1.0"),
    ("1", "a vertex id is an integer, got '1'"),
    (-1, "vertex -1 is outside 0..3"),
    (4, "vertex 4 is outside 0..3"),
])
def test_vertex_sets_reject_ids_that_are_not_vertices(method, member, message):
    # a float equal to a vertex would match it in a set, and one that is
    # not would drop out silently; either way the set names no vertex
    with pytest.raises(GraphConstructionError) as info:
        getattr(complete(4), method)([0, member])
    assert str(info.value) == message


def test_vertex_sets_read_ids_as_integers():
    g, old_ids = complete(4).delete_vertices([True])
    assert g == complete(3) and old_ids == (0, 2, 3)
    assert all(type(v) is int for v in old_ids)


@pytest.mark.parametrize("method", ["degree", "neighbors"])
@pytest.mark.parametrize("v", [-1, -4, 4])
def test_rows_reject_ids_outside_the_graph(method, v):
    # a negative id must not wrap around to the last vertex's row
    with pytest.raises(GraphConstructionError, match=f"vertex {v} is outside 0..3"):
        getattr(cycle(4), method)(v)


def test_induced_subgraph():
    g, old_ids = complete(5).induced_subgraph({1, 3, 4})
    assert g == complete(3)
    assert old_ids == (1, 3, 4)


def test_add_edge():
    g = cycle(4).add_edge(0, 2)
    assert g.edge_count == 5
    assert g.has_edge(0, 2)
    with pytest.raises(GraphConstructionError, match=r"\(0, 2\)"):
        g.add_edge(2, 0)
    with pytest.raises(GraphConstructionError):
        g.add_edge(1, 1)
    with pytest.raises(GraphConstructionError):
        g.add_edge(0, 7)


def test_delete_edge():
    g = complete(2).delete_edge(0, 1)
    assert g == empty(2)
    with pytest.raises(GraphConstructionError, match=r"\(0, 1\)"):
        g.delete_edge(0, 1)


def test_cone():
    assert complete(3).cone() == complete(4)
    g = cycle(5)
    coned = g.cone()
    assert coned.order == g.order + 1
    assert coned.edge_count == g.edge_count + g.order
    assert coned.degree(g.order) == g.order


def _fields(g):
    return g.order, g.edges, g.adjacency


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_edited_graphs_equal_fresh_builds(fixture, request):
    # an edit must give the fields a fresh construction of the edited edge
    # list gives, whichever way round its endpoints are named
    for g in request.getfixturevalue(fixture):
        coned = g.cone()
        apex = g.order
        assert _fields(coned) == _fields(Graph(apex + 1, g.edges + tuple((v, apex) for v in range(apex))))
        for u, v in combinations(range(g.order), 2):
            if g.has_edge(u, v):
                rest = [e for e in g.edges if e != (u, v)]
                for a, b in ((u, v), (v, u)):
                    assert _fields(g.delete_edge(a, b)) == _fields(Graph(g.order, rest)), (g, a, b)
            else:
                for a, b in ((u, v), (v, u)):
                    edited = g.add_edge(a, b)
                    assert _fields(edited) == _fields(Graph(g.order, g.edges + ((u, v),))), (g, a, b)
                    assert edited._cache == {} and edited._cache is not g._cache


def test_edits_read_endpoints_as_integer_ids():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.add_edge(True, 3).edges == ((0, 1), (1, 2), (1, 3), (2, 3))
    assert all(type(x) is int for edge in g.add_edge(True, 3).edges for x in edge)
    assert _fields(g.delete_edge(True, 2)) == _fields(Graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("method, u, v, error, message", [
    ("add_edge", 0, 0, GraphConstructionError, "cannot add edge (0, 0)"),
    ("add_edge", 0, 4, GraphConstructionError, "cannot add edge (0, 4)"),
    ("add_edge", -1, 2, GraphConstructionError, "cannot add edge (-1, 2)"),
    ("add_edge", 1, 0, GraphConstructionError, "edge (0, 1) is already present"),
    ("add_edge", 2, 1, GraphConstructionError, "edge (1, 2) is already present"),
    ("add_edge", 0, 2.0, TypeError, None),
    ("add_edge", "0", 2, TypeError, None),
    ("delete_edge", 0, 2, GraphConstructionError, "edge (0, 2) is not present"),
    ("delete_edge", 2, 0, GraphConstructionError, "edge (0, 2) is not present"),
    ("delete_edge", 0, 9, GraphConstructionError, "edge (0, 9) is not present"),
    ("delete_edge", -1, 0, GraphConstructionError, "edge (-1, 0) is not present"),
    ("delete_edge", 1, 1, GraphConstructionError, "edge (1, 1) is not present"),
    ("delete_edge", 1.0, 0, TypeError, None),
    ("delete_edge", None, 1, TypeError, None),
])
def test_invalid_edits_raise_before_building(method, u, v, error, message):
    # the messages of the edits that rebuilt the whole edge list; a
    # non-integer id fails in the membership test, before any row is read
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(error) as info:
        getattr(g, method)(u, v)
    if message is not None:
        assert str(info.value) == message


def test_derived_graphs_are_new_values():
    g = cycle(4)
    g.add_edge(0, 2)
    g.delete_edge(0, 1)
    g.delete_vertices({3})
    assert g == cycle(4)


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])
    assert a != Graph(4, [(0, 1), (1, 2)])
    assert repr(a) == "Graph(order=3, edges=2)"
