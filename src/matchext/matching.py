"""Maximum matching, deficiency, defect-d existence, and k-matching enumeration."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from . import _engine
from .errors import ParameterError, SearchCapExceeded
from .graph import Edge, Graph

#: berge_violating_set's default order cap: it reads odd-count planes up to
#: ``_engine.TABLE_LIMIT`` and flood fills every vertex subset above it.
SUBSET_SEARCH_CAP = 20


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges.

    Edges are normalized to ``u < v`` and sorted.  Endpoints are read as
    integer ids (``operator.index``, as :class:`Graph` reads them) and
    disjointness is enforced at construction, both raising ValueError;
    membership in a host graph via :meth:`validate`.
    """

    edges: tuple[Edge, ...]

    def __init__(self, edges=()):
        normalized = []
        for pair in edges:
            try:
                u, v = map(operator.index, pair)
            except (TypeError, ValueError):
                raise ValueError(f"a matching edge is a pair of vertex ids, got {pair!r}") from None
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        seen: set[int] = set()
        for u, v in normalized:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) in matching")
            if u in seen or v in seen:
                raise ValueError(f"edge ({u}, {v}) shares a vertex with another edge")
            seen.update((u, v))
        object.__setattr__(self, "edges", tuple(normalized))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def vertices(self) -> frozenset[int]:
        return frozenset(x for e in self.edges for x in e)

    def validate(self, g: Graph) -> None:
        """Raise ValueError unless every edge belongs to ``g``."""
        for u, v in self.edges:
            if not g.has_edge(u, v):
                raise ValueError(f"matching edge ({u}, {v}) is not an edge of the graph")


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching of ``g``, found by augmenting-path search with
    odd-cycle shrinking (correct on non-bipartite graphs).  Deterministic."""
    mate = _engine.max_matching_pairs(g.order, [_engine.bits_of(row) for row in g.adjacency])
    return Matching((v, mate[v]) for v in range(g.order) if mate[v] > v)


def nu(g: Graph) -> int:
    """Maximum matching size; cached on the graph instance."""
    return _engine.cached(g, "nu", lambda: len(maximum_matching(g)))


def deficiency(g: Graph) -> int:
    """Number of vertices missed by a maximum matching: ``|V| - 2*nu``."""
    return g.order - 2 * nu(g)


def _check_defect(g: Graph, d: int) -> None:
    if not 0 <= d <= g.order:
        raise ParameterError(f"defect {d} is outside 0..{g.order}")
    if (g.order - d) % 2:
        raise ParameterError(
            f"parity: order {g.order} and defect {d} must have the same parity"
        )


def has_defect_matching(g: Graph, d: int) -> bool:
    """Whether some matching covers exactly ``|V| - d`` vertices.

    Requires ``0 <= d <= |V|`` and ``|V| == d (mod 2)``; violations raise
    ParameterError rather than returning False.  Equivalent to
    ``deficiency(g) <= d`` (downsize a maximum matching to hit d exactly).
    """
    _check_defect(g, d)
    return deficiency(g) <= d


def berge_violating_set(
    g: Graph, d: int, cap: int | None = None
) -> tuple[int, ...] | None:
    """A vertex set S with more than ``|S| + d`` odd components left after
    deletion, or None if every subset obeys the bound.

    Subsets are tried in increasing size, lexicographically within a size,
    and the first violator is returned; note the empty set is a possible
    answer, distinct from None.  The search is exhaustive, over 2^n-bit
    planes (:func:`_berge_blocker`), hence the order cap (default 20,
    overridable by passing ``cap`` explicitly).
    """
    _check_defect(g, d)
    limit = SUBSET_SEARCH_CAP if cap is None else cap
    if g.order > limit:
        raise SearchCapExceeded(
            f"subset enumeration is capped at {limit} vertices, graph has "
            f"{g.order}; pass a larger cap to accept the cost"
        )
    return _berge_blocker(g, _engine.full_mask(g), d)


def _berge_blocker(g: Graph, mask: int, d: int) -> tuple[int, ...] | None:
    """Smallest (then lexicographically least) T inside ``mask`` such that
    ``mask - T`` has more than |T| + d odd components, or None.

    Up to ``_engine.TABLE_LIMIT`` vertices it is read from the odd-count
    digit planes: for each size t in turn, the kept sets X inside ``mask``
    of size |mask| - t with more than t + d odd components.  Reversed, X
    lies at V - X = T + (V - mask), which shares V - mask with every other
    candidate, so the least T is the least of those masks
    (:func:`_engine.first_mask`).  Above the limit each subset is flood
    filled."""
    vertices = _engine.bits_of(mask)
    order = g.order
    if order > _engine.TABLE_LIMIT:
        for size in range(len(vertices) + 1):
            for subset in combinations(vertices, size):
                rest = mask & ~_engine.mask_of(subset)
                if _engine.odd_component_count(g.adjacency, rest) > size + d:
                    return subset
        return None
    digits = _engine.odd_digits(g)
    inside = _engine.every_mask(order)
    for v, held in enumerate(_engine.vertex_planes(order)):
        if not mask >> v & 1:
            inside &= ~held
    sizes = _engine.size_planes(order)
    for t in range(len(vertices) + 1):
        kept = inside & sizes[len(vertices) - t] & _engine.count_above(digits, t + d, order)
        if kept:
            first = _engine.first_mask(_engine.reversed_plane(kept, order), order)
            return tuple(_engine.bits_of(first & mask))
    return None


def enumerate_k_matchings(g: Graph, k: int) -> Iterator[Matching]:
    """All matchings of size exactly ``k``, each once, in canonical order.

    Edges are scanned in sorted order and matchings are emitted in
    lexicographic order of their sorted edge tuples.  ``k = 0`` yields
    exactly the empty matching.
    """
    if k < 0:
        raise ValueError(f"matching size must be non-negative, got {k}")
    return (Matching(edges) for edges, _ in _matchings_in_mask(g.edges, _engine.full_mask(g), k))


def _matchings_in_mask(edges: tuple[Edge, ...], mask: int, k: int) -> Iterator[tuple[tuple[Edge, ...], int]]:
    """Size-k matchings using only vertices of ``mask``, canonical order,
    yielded with their covered-vertex mask."""
    avail = [
        (e, (1 << e[0]) | (1 << e[1]))
        for e in edges
        if (mask >> e[0]) & 1 and (mask >> e[1]) & 1
    ]
    chosen: list[Edge] = []

    def rec(start: int, used: int):
        if len(chosen) == k:
            yield tuple(chosen), used
            return
        remaining = k - len(chosen)
        for i in range(start, len(avail) - remaining + 1):
            e, pair = avail[i]
            if used & pair:
                continue
            chosen.append(e)
            yield from rec(i + 1, used | pair)
            chosen.pop()

    return rec(0, 0)


def has_k_matching(g: Graph, k: int) -> bool:
    """Whether the graph contains a matching of ``k`` edges."""
    return nu(g) >= k
