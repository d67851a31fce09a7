"""Shared algorithmic core: blossom matching and per-graph bitmask tables.

Graphs are immutable, so every table computed here is memoised on the host
instance (``g._cache``) and never invalidated.  Vertex subsets are plain
Python ints used as bitmasks.

The matching table is built bit-parallel, one 2^n-bit plane per matching
size (:func:`nu_table`).  The odd-count tables rest on
:func:`component_table`, which builds each entry from smaller entries with
no flood fill.  The flood fill (:func:`spread`,
:func:`component_split`, :func:`odd_component_count`) stays for the oracles
and slow paths that must not read the tables.
"""

from __future__ import annotations

from array import array
from collections import deque

from .errors import SearchCapExceeded
from .graph import Graph

# Hard ceiling for the 2^n subset tables; anything bigger would not fit in
# memory regardless of how much patience the caller declares.
TABLE_LIMIT = 24


def cached(g: Graph, key, builder):
    cache = g._cache
    if key not in cache:
        cache[key] = builder()
    return cache[key]


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    def build():
        masks = [0] * g.order
        for u, v in g.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    return cached(g, "adj_masks", build)


def full_mask(g: Graph) -> int:
    return (1 << g.order) - 1


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def masks_of_size(order: int, size: int):
    """Every ``size``-vertex subset of ``range(order)`` as a bitmask, in
    increasing numeric order (Gosper's next-combination step)."""
    if size == 0:
        yield 0
        return
    m, end = (1 << size) - 1, 1 << order
    while m < end:
        yield m
        low = m & -m
        up = m + low
        m = (((up ^ m) >> 2) // low) | up


def spread(adj: tuple[int, ...], seed: int, mask: int) -> int:
    """Vertices of ``mask`` reachable from the ``seed`` bits within ``mask``."""
    comp = seed & mask
    frontier = comp
    while frontier:
        grown = 0
        m = frontier
        while m:
            b = m & -m
            grown |= adj[b.bit_length() - 1]
            m ^= b
        frontier = grown & mask & ~comp
        comp |= frontier
    return comp


def component_split(adj: tuple[int, ...], mask: int) -> list[int]:
    """Connected components of the induced subgraph on ``mask``, each a
    bitmask, ordered by lowest vertex."""
    comps = []
    rest = mask
    while rest:
        comp = spread(adj, rest & -rest, rest)
        comps.append(comp)
        rest &= ~comp
    return comps


def odd_component_count(adj: tuple[int, ...], mask: int) -> int:
    return sum(1 for c in component_split(adj, mask) if c.bit_count() & 1)


def _require_table(g: Graph):
    if g.order > TABLE_LIMIT:
        raise SearchCapExceeded(
            f"exhaustive subset tables are limited to {TABLE_LIMIT} vertices, "
            f"graph has {g.order}"
        )


#: masks per step of the plane-to-table conversion in :func:`nu_table`
_CHUNK = 1 << 16
#: hex digit characters to their values, one byte each
_HEX_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def nu_table(g: Graph) -> list[int]:
    """Maximum matching size of every induced subgraph, indexed by bitmask.

    Built bit-parallel: a Python int of 2^n bits holds one bit per subset,
    and plane P_j is the set of masks M with ``nu[M] >= j``.  With Z_b the
    masks lacking vertex b, ``nu[M] >= j + 1`` exactly when some edge ab of
    G[M] has ``nu[M - a - b] >= j``, so P_{j+1} is the OR over edges ab of
    ``(P_j & Z_a & Z_b) << (2^a + 2^b)``.  The planes are grown one vertex
    at a time, which needs only the edges at the new vertex v: a mask
    M + v, with M over the vertices below v, is in P_{j+1} when M is (v
    unmatched) or when M = X + b with X in P_j and b a neighbour of v, that
    is ``(P_j & Z_b) << 2^b``.  Growth stops at the first empty plane.

    Plane membership is nested, so ``nu[M]`` is the number of planes that
    hold M; its binary digits are ORs of the differences of consecutive
    planes.  Each digit's bit string, read as hexadecimal, puts that digit
    in one nibble per mask, and the shifted sum is ``nu`` in hexadecimal:
    no value exceeds 12 below ``TABLE_LIMIT`` = 24, so a nibble holds it.
    The conversion runs ``_CHUNK`` masks at a time and caches nothing but
    the table; the planes are gone when it returns.
    """

    def build():
        _require_table(g)
        size = 1 << g.order
        digits = _count_digits(_nu_planes(adjacency_masks(g), g.order))
        width = min(size, _CHUNK)
        low = (1 << width) - 1
        table = [0] * size
        for start in range(0, size, width):
            nibbles = sum(int(format(p >> start & low, "b"), 16) << t
                          for t, p in enumerate(digits))
            table[start:start + width] = (
                format(nibbles, f"0{width}x").encode().translate(_HEX_VALUES)[::-1])
        return table

    return cached(g, "nu_table", build)


def _nu_planes(adj: tuple[int, ...], order: int) -> list[int]:
    """``planes[j - 1]``: the 2^order-bit set of masks M with ``nu[M] >= j``,
    for every j up to the graph's matching number (see :func:`nu_table`)."""
    planes: list[int] = []
    lacking: list[int] = []  # lacking[b]: the masks below vertex v without b
    for v in range(order):
        width = 1 << v
        steps = [(lacking[b], 1 << b) for b in bits_of(adj[v] & (width - 1))]
        below, grown = (1 << width) - 1, []  # P_0 over the vertices below v
        for plane in planes + [0]:
            top = plane
            for z, shift in steps:
                top |= (below & z) << shift
            if not top:
                break
            grown.append(plane | top << width)
            below = plane
        planes = grown
        if v + 1 < order:
            lacking = [z | z << width for z in lacking] + [(1 << width) - 1]
    return planes


def _count_digits(planes: list[int]) -> list[int]:
    """The binary digits of each mask's plane count, least significant
    first, from nested planes: the masks in exactly j planes are P_j minus
    P_{j+1}, and they carry the digits of j."""
    digits = [0] * len(planes).bit_length()
    for j, plane in enumerate(planes, 1):
        exact = plane ^ planes[j] if j < len(planes) else plane
        for t in range(j.bit_length()):
            if j >> t & 1:
                digits[t] |= exact
    return digits


def component_table(g: Graph) -> array:
    """The component of the lowest vertex in every induced subgraph, as a
    vertex mask, indexed by bitmask; 4 bytes per subset.

    Each entry is built from smaller ones.  With v the lowest vertex of M
    and R = M - v, the components of G[R] are ``table[R]``, then
    ``table[R']`` with R' = R minus that component, and so on; v's
    component is v plus those that touch v's neighbours.  The walk stops
    once R holds no neighbour of v.  Chasing the same way from M lists the
    components of G[M] in order of lowest vertex.
    """

    def build():
        _require_table(g)
        adj = adjacency_masks(g)
        table = array("I", [0]) * (1 << g.order)
        for mask in range(1, 1 << g.order):
            low = mask & -mask
            near = adj[low.bit_length() - 1]
            comp, rest = low, mask ^ low
            while rest & near:
                c = table[rest]
                if c & near:
                    comp |= c
                rest ^= c
            table[mask] = comp
        return table

    return cached(g, "comp_table", build)


def odd_table(g: Graph) -> list[int]:
    """Odd-component count of every induced subgraph, indexed by bitmask:
    the lowest vertex's component from :func:`component_table` plus the
    count on the rest."""

    def build():
        lc = component_table(g)
        table = [0] * (1 << g.order)
        for mask in range(1, 1 << g.order):
            c = lc[mask]
            table[mask] = table[mask ^ c] + (c.bit_count() & 1)
        return table

    return cached(g, "odd_table", build)


def factor_critical_mask(g: Graph, comp_mask: int) -> bool:
    """Whether the induced subgraph on ``comp_mask`` (assumed connected) is
    factor-critical.  Cached per graph, keyed by the vertex mask."""
    fc = g._cache.setdefault("fc_mask", {})
    got = fc.get(comp_mask)
    if got is None:
        size = comp_mask.bit_count()
        if size % 2 == 0:
            got = False
        elif size == 1:
            got = True
        else:
            nu = nu_table(g)
            want = (size - 1) // 2
            got = all(
                nu[comp_mask ^ (1 << v)] == want for v in bits_of(comp_mask)
            )
        fc[comp_mask] = got
    return got


# -- blossom maximum matching ------------------------------------------------


def max_matching_pairs(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum matching by alternating-tree search with odd-cycle shrinking.

    ``adj`` is an adjacency list; returns ``mate`` with ``mate[v]`` the
    partner of ``v`` or -1.  Deterministic: vertices and neighbours are
    scanned in increasing order.
    """
    mate = [-1] * n
    # greedy seed to cut down the number of augmentation phases
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if mate[x] == -1:
                break
            x = parent[mate[x]]
        x = b
        while True:
            x = base[x]
            if seen[x]:
                return x
            x = parent[mate[x]]

    def mark_path(v: int, b: int, child: int):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting_path(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # even vertex reached: an odd cycle closes; shrink it
                    cur_base = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, cur_base, to)
                    mark_path(to, cur_base, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        return to
                    in_queue[mate[to]] = True
                    queue.append(mate[to])
        return -1

    for root in range(n):
        if mate[root] != -1:
            continue
        finish = find_augmenting_path(root)
        if finish == -1:
            continue
        v = finish
        while v != -1:
            pv = parent[v]
            next_v = mate[pv]
            mate[v] = pv
            mate[pv] = v
            v = next_v
    return mate
