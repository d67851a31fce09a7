"""The subset tables built from the component table, against flood fill."""

import random

import pytest

import matchext._engine as _engine
from matchext import Graph
from conftest import random_graph


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample", "order12"])
def test_component_and_odd_tables_match_flood_fill(fixture, request):
    if fixture == "order12":
        rng = random.Random(12)
        graphs = [random_graph(rng, 12, p) for p in (0.15, 0.25, 0.4)]
    else:
        graphs = request.getfixturevalue(fixture)
    for g in graphs:
        # a fresh graph per case keeps the tables off the session fixtures
        g = Graph(g.order, g.edges)
        adj = _engine.adjacency_masks(g)
        lc, odd = _engine.component_table(g), _engine.odd_table(g)
        assert lc.itemsize == 4
        for m in range(1 << g.order):
            assert lc[m] == _engine.spread(adj, m & -m, m), (g, m)
            assert odd[m] == _engine.odd_component_count(adj, m), (g, m)
