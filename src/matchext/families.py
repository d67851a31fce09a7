"""Generators for the counterexample families used by the rule censuses.

Each generator fixes a documented vertex-id layout with the distinguished
vertices last, so instances are deterministic fixtures.  Helper functions
report the distinguished edge of each family.
"""

from __future__ import annotations

from .errors import ParameterError
from .graph import Edge, Graph


def _clique_edges(vertices) -> list[Edge]:
    vs = list(vertices)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def family_blowup_bipartite(d: int, m: int) -> Graph:
    """Three independent hub vertices 0, 1, 2 joined to ``d + 2`` disjoint
    cliques of odd size ``2m + 1`` (a clique blow-up of one side of a
    complete bipartite graph).  Requires ``d >= 1`` and ``m >= 1``."""
    if d < 1 or m < 1:
        raise ParameterError(f"blow-up family needs d >= 1 and m >= 1, got d={d}, m={m}")
    q = 2 * m + 1
    edges: list[Edge] = []
    for c in range(d + 2):
        clique = range(3 + c * q, 3 + (c + 1) * q)
        edges += _clique_edges(clique)
        edges += [(hub, w) for hub in (0, 1, 2) for w in clique]
    return Graph(3 + (d + 2) * q, edges)


def family_cliques_plus_edge(d: int, m: int) -> Graph:
    """Disjoint union of ``d`` cliques of size ``2m + 1`` and a single edge;
    the bare-edge endpoints are the last two vertex ids."""
    if d < 1 or m < 1:
        raise ParameterError(
            f"cliques-plus-edge family needs d >= 1 and m >= 1, got d={d}, m={m}"
        )
    q = 2 * m + 1
    edges: list[Edge] = []
    for c in range(d):
        edges += _clique_edges(range(c * q, (c + 1) * q))
    edges.append((d * q, d * q + 1))
    return Graph(d * q + 2, edges)


def cliques_plus_edge_distinguished_edge(d: int, m: int) -> Edge:
    q = 2 * m + 1
    return (d * q, d * q + 1)


def family_cliques_plus_edge_cone(d: int, m: int) -> Graph:
    """Cone of :func:`family_cliques_plus_edge`; the apex is the last id and
    the distinguished edge keeps its endpoints."""
    return family_cliques_plus_edge(d, m).cone()


def family_gadget_chain(copies: int) -> Graph:
    """``copies`` disjoint 5-vertex gadgets (a 5-cycle with two crossing
    chords), plus an edge ``uv`` whose endpoints are joined to the two
    chord-sharing gadget vertices in every copy.  ``u`` and ``v`` are the
    last two ids.

    Gadget layout per copy at base ``b``: cycle b, b+1, b+2, b+3, b+4 with
    chords (b+1, b+3) and (b+2, b+4); ``u`` and ``v`` attach to b+2 and b+3.
    """
    if copies < 1:
        raise ParameterError(f"gadget chain needs copies >= 1, got {copies}")
    u = 5 * copies
    v = u + 1
    edges: list[Edge] = [(u, v)]
    for c in range(copies):
        b = 5 * c
        edges += [
            (b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b + 4), (b, b + 4),
            (b + 1, b + 3), (b + 2, b + 4),
        ]
        edges += [(u, b + 2), (u, b + 3), (v, b + 2), (v, b + 3)]
    return Graph(5 * copies + 2, edges)


def gadget_chain_distinguished_edge(copies: int) -> Edge:
    return (5 * copies, 5 * copies + 1)
