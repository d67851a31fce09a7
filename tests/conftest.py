"""Shared fixtures: small named graphs, censuses, and independent oracles."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import pytest

import matchext._engine as _engine
from matchext import Graph
from matchext.decision import _NEG


# -- small named graphs -------------------------------------------------------

def complete(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))

def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])

def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])

def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])

def empty(n: int) -> Graph:
    return Graph(n, [])

def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.order
    return Graph(offset, edges)


#: One line of each kind a graph6 stream may hold, with its record: the
#: graph6 the line decodes to, None for a line holding no record, or
#: "decode error".
GRAPH6_LINE_KINDS = [
    ("Dhc", "Dhc"),
    ("Dhc  ", "Dhc"),
    ("  Dhc", "Dhc"),
    (">>graph6<<Dhc", "Dhc"),
    (">>graph6<<", None),
    ("Dhc\x0cbad", "decode error"),
    ("bad!", "decode error"),
    ("", None),
]


# -- independent matching oracle (recursion over edges, no package code) ------

def brute_force_nu(g: Graph) -> int:
    edges = g.edges

    def rec(i: int, used: int) -> int:
        if i >= len(edges):
            return 0
        best = rec(i + 1, used)
        u, v = edges[i]
        pair = (1 << u) | (1 << v)
        if not used & pair:
            best = max(best, 1 + rec(i + 1, used | pair))
        return best

    return rec(0, 0)


# -- independent Berge blocker oracle (flood fill of every subset) -------------

def berge_blocker_by_flood_fill(g: Graph, mask: int, d: int):
    """Smallest (then lexicographically least) T inside ``mask`` such that
    ``mask - T`` has more than |T| + d odd components, or None: every
    subset tried in that order, its rest's components flood filled."""
    adj = [0] * g.order
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    adj = tuple(adj)
    vertices = [v for v in range(g.order) if mask >> v & 1]
    for size in range(len(vertices) + 1):
        for subset in combinations(vertices, size):
            rest = mask
            for v in subset:
                rest &= ~(1 << v)
            if _engine.odd_component_count(adj, rest) > size + d:
                return subset
    return None


# -- summary rows by a fold over the 2^n lists ---------------------------------

def _fold_summary(matched, split):
    """The summary rows by a fold over the 2^n lists, with the matching
    numbers of graph ``matched`` and the odd counts of graph ``split`` on the
    same vertices: each mask raises the entry at its matching number and
    size, and each row is then raised to the rows of larger matchings.  The
    oracle for the plane rows, which list nothing."""
    nu, odd = _engine.nu_table(matched), _engine.odd_table(split)
    full = _engine.full_mask(matched)
    rows = [[_NEG] * (matched.order + 2) for _ in range(nu[full] + 1)]
    # odd is indexed by mask, so reversed it lines up V - M with M
    for mask, k, o in zip(range(full + 1), nu, reversed(odd)):
        s = mask.bit_count()
        if o - s > rows[k][s]:
            rows[k][s] = o - s
    for upper, row in zip(rows[:0:-1], rows[-2::-1]):
        row[:] = map(max, row, upper)
    return rows


# -- censuses ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _atlas_graphs() -> tuple:
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for nxg in graph_atlas_g()[1:]:
        order = nxg.number_of_nodes()
        ids = {node: i for i, node in enumerate(sorted(nxg.nodes()))}
        g = Graph(order, [(ids[u], ids[v]) for u, v in nxg.edges()])
        connected = order > 0 and nx.is_connected(nxg)
        out.append((g, connected))
    return tuple(out)


def connected_census(max_order: int = 7) -> list[Graph]:
    """Every connected graph up to isomorphism with at most ``max_order``
    vertices (orders 1..7 supported via the standard atlas)."""
    return [g for g, conn in _atlas_graphs() if conn and g.order <= max_order]


def random_graph(rng: random.Random, order: int, p: float) -> Graph:
    edges = [e for e in combinations(range(order), 2) if rng.random() < p]
    return Graph(order, edges)


def random_sample(count: int, orders, seed: int) -> list[Graph]:
    """Fixed-seed random graphs with mixed densities."""
    rng = random.Random(seed)
    orders = list(orders)
    out = []
    while len(out) < count:
        order = rng.choice(orders)
        p = rng.uniform(0.1, 0.9)
        out.append(random_graph(rng, order, p))
    return out


def disconnected_sample(count: int, seed: int, max_order: int = 7) -> list[Graph]:
    """Fixed-seed disconnected graphs built as disjoint unions of two random
    parts (the interesting edge-deletion families are disconnected)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        order = rng.randint(4, max_order)
        left = rng.randint(1, order - 1)
        g = disjoint_union(
            random_graph(rng, left, rng.uniform(0.2, 0.9)),
            random_graph(rng, order - left, rng.uniform(0.2, 0.9)),
        )
        out.append(g)
    return out


@pytest.fixture(scope="session")
def census7() -> list[Graph]:
    return connected_census(7)


@pytest.fixture(scope="session")
def census6() -> list[Graph]:
    return connected_census(6)


@pytest.fixture(scope="session")
def order8_sample() -> list[Graph]:
    return random_sample(500, [8], seed=88)


@pytest.fixture(scope="session")
def mixed_sample8() -> list[Graph]:
    return random_sample(1000, range(1, 9), seed=1007)


@pytest.fixture(scope="session")
def disconnected1000() -> list[Graph]:
    return disconnected_sample(1000, seed=4242)


@pytest.fixture(scope="session")
def order12_dense() -> list[Graph]:
    """Three seeded order-12 graphs of density 0.5-0.6."""
    rng = random.Random(12)
    return [random_graph(rng, 12, rng.uniform(0.5, 0.6)) for _ in range(3)]
