"""Immutable simple-graph values and elementary derived-graph operations.

Vertex ids are dense integers ``0..order-1``.  Every operation that changes
a graph (vertex deletion, edge addition/removal, coning) returns a new
value; instances are safe to share between threads or processes.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

from .errors import GraphConstructionError

Edge = tuple[int, int]


class Graph:
    """A simple undirected graph, normalized and immutable after construction.

    ``edges`` is a sorted tuple of ``(u, v)`` pairs with ``u < v``; each edge
    is stored exactly once.  ``adjacency[v]`` is v's bitmask row: bit w is
    set when vw is an edge.  Construction rejects self-loops, duplicate edges, out-of-range or
    non-integer endpoints and pairs that are not two ids, naming the
    offending pair.
    """

    def __init__(self, order: int, edges: Iterable[Edge] = ()):
        if order < 0:
            raise GraphConstructionError(f"order must be non-negative, got {order}")
        rows = [0] * order
        normalized: list[Edge] = []
        for pair in edges:
            try:
                u, v = map(operator.index, pair)
            except (TypeError, ValueError):
                raise GraphConstructionError(
                    f"an edge is a pair of vertex ids, got {pair!r}"
                ) from None
            if not (0 <= u < order and 0 <= v < order):
                raise GraphConstructionError(
                    f"edge ({u}, {v}) references a vertex outside 0..{order - 1}"
                )
            if u == v:
                raise GraphConstructionError(f"self-loop ({u}, {v}) is not allowed")
            if u > v:
                u, v = v, u
            if rows[u] >> v & 1:
                raise GraphConstructionError(f"duplicate edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            normalized.append((u, v))
        self.order: int = order
        self.edges: tuple[Edge, ...] = tuple(sorted(normalized))
        self.adjacency: tuple[int, ...] = tuple(rows)
        self._cache: dict = {}

    # -- queries ---------------------------------------------------------

    def vertices(self) -> range:
        return range(self.order)

    def neighbors(self, v: int) -> frozenset[int]:
        row = self.adjacency[self._vertex(v)]
        return frozenset(w for w in range(row.bit_length()) if row >> w & 1)

    def degree(self, v: int) -> int:
        return self.adjacency[self._vertex(v)].bit_count()

    def _vertex(self, v: int) -> int:
        """``v`` as a vertex id; one that is not an integer in 0..order-1
        raises, naming it, where a row lookup would wrap or misread it."""
        try:
            v = operator.index(v)
        except TypeError:
            raise GraphConstructionError(f"a vertex id is an integer, got {v!r}") from None
        if not 0 <= v < self.order:
            raise GraphConstructionError(f"vertex {v} is outside 0..{self.order - 1}")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.order and 0 <= v < self.order and bool(self.adjacency[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.order, self.edges))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={len(self.edges)})"

    # -- derived graphs --------------------------------------------------

    def delete_vertices(self, members: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
        """Induced subgraph on the complement of ``members``.

        Remaining vertices are relabeled densely in increasing order of their
        old ids.  Returns ``(graph, old_ids)`` where ``old_ids[new] == old``,
        so witnesses computed on the result can be mapped back.
        """
        drop = {self._vertex(v) for v in members}
        keep = [v for v in range(self.order) if v not in drop]
        return self._induced_on(keep)

    def induced_subgraph(self, members: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
        """Induced subgraph on ``members``, relabeled densely (same map
        convention as :meth:`delete_vertices`)."""
        keep = sorted({self._vertex(v) for v in members})
        return self._induced_on(keep)

    def _induced_on(self, keep: list[int]) -> tuple[Graph, tuple[int, ...]]:
        new_id = {old: new for new, old in enumerate(keep)}
        edges = [
            (new_id[u], new_id[v])
            for u, v in self.edges
            if u in new_id and v in new_id
        ]
        return Graph(len(keep), edges), tuple(keep)

    def add_edge(self, u: int, v: int) -> Graph:
        """New graph with the edge ``uv`` added; ``uv`` must not be present."""
        if not (0 <= u < self.order and 0 <= v < self.order) or u == v:
            raise GraphConstructionError(f"cannot add edge ({u}, {v})")
        if u > v:
            u, v = v, u
        if self.has_edge(u, v):
            raise GraphConstructionError(f"edge ({u}, {v}) is already present")
        return Graph(self.order, self.edges + ((u, v),))

    def delete_edge(self, u: int, v: int) -> Graph:
        """New graph with the edge ``uv`` removed; ``uv`` must be present."""
        if not self.has_edge(u, v):
            raise GraphConstructionError(
                f"edge ({min(u, v)}, {max(u, v)}) is not present"
            )
        e = (min(u, v), max(u, v))
        return Graph(self.order, [f for f in self.edges if f != e])

    def cone(self) -> Graph:
        """Add one new vertex (id ``order``) adjacent to every vertex."""
        apex = self.order
        return Graph(apex + 1, self.edges + tuple((v, apex) for v in range(apex)))


def build(order: int, edge_list: Iterable[Edge]) -> Graph:
    """Construct a normalized :class:`Graph`; alias for the constructor."""
    return Graph(order, edge_list)
