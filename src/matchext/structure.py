"""Connected components, odd-component counts, and factor-criticality tests."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from . import _engine
from .errors import ParameterError
from .graph import Graph
from .matching import maximum_matching


class ComponentProfile:
    """The connected components of a graph, with their parities.

    Components are tuples of vertex ids (host coordinates), ordered by their
    smallest vertex.
    """

    def __init__(self, components: tuple[tuple[int, ...], ...]):
        self.components = components

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def is_odd(self, index: int) -> bool:
        return len(self.components[index]) % 2 == 1

    def odd_count(self) -> int:
        return sum(1 for c in self.components if len(c) % 2 == 1)


def components(g: Graph) -> ComponentProfile:
    """Connected components of ``g`` in deterministic order."""
    masks = _engine.component_split(g.adjacency, _engine.full_mask(g))
    return ComponentProfile(tuple(tuple(_engine.bits_of(m)) for m in masks))


def odd_count_after_deletion(g: Graph, members: Iterable[int]) -> int:
    """The number of odd components of ``g`` minus the given vertex set."""
    drop = set(members)
    for v in drop:
        if not 0 <= v < g.order:
            raise ParameterError(f"vertex {v} is outside 0..{g.order - 1}")
    rest = _engine.full_mask(g) & ~_engine.mask_of(drop)
    return _engine.odd_component_count(g.adjacency, rest)


def is_connected(g: Graph) -> bool:
    if g.order == 0:
        return False
    full = _engine.full_mask(g)
    return _engine.spread(g.adjacency, 1, full) == full


def is_bipartite(g: Graph) -> bool:
    """Two-colorability by BFS layering; cached on the graph instance."""
    return _engine.cached(g, "bipartite", lambda: _two_colorable(g))


def _two_colorable(g: Graph) -> bool:
    color = [-1] * g.order
    for start in range(g.order):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in _engine.bits_of(g.adjacency[v]):
                if color[u] == -1:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def is_factor_critical(g: Graph) -> bool:
    """Whether deleting any single vertex leaves a perfectly matchable graph.

    Requires connectivity and odd order; the connectivity check is explicit
    so callers get a cheap, well-named reason for failure.
    """
    if g.order % 2 == 0:
        return False
    if not is_connected(g):
        return False
    if g.order == 1:
        return True
    want = (g.order - 1) // 2
    for v in range(g.order):
        sub, _ = g.delete_vertices((v,))
        if len(maximum_matching(sub)) != want:
            return False
    return True


def is_n_factor_critical(g: Graph, n: int) -> bool:
    """Whether deleting any ``n`` vertices leaves a perfectly matchable graph.

    Direct exhaustive check over all n-subsets (the decision layer offers the
    same predicate through the parameter-triple decider; the two are
    cross-checked in the test suite).  Requires ``|V| >= n`` and
    ``|V| == n (mod 2)``.
    """
    if n < 0:
        raise ParameterError(f"n must be non-negative, got {n}")
    if g.order < n:
        raise ParameterError(f"cannot delete {n} of {g.order} vertices")
    if (g.order - n) % 2:
        raise ParameterError(
            f"parity: order {g.order} and n {n} must have the same parity"
        )
    want = (g.order - n) // 2
    for subset in combinations(range(g.order), n):
        sub, _ = g.delete_vertices(subset)
        if len(maximum_matching(sub)) != want:
            return False
    return True
