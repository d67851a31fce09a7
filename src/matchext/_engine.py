"""Shared algorithmic core: blossom matching and per-graph bitmask tables.

Graphs are immutable, so every table computed here is memoised on the host
instance (``g._cache``) and never invalidated.  Vertex subsets are plain
Python ints used as bitmasks.

Both counts are built bit-parallel, as Python ints with one bit per
subset, and the planes are cached: the matching planes P_j, the masks with
``nu >= j`` (:func:`nu_planes`), and the binary digit planes of the
odd-component count, from pairwise connectivity planes over 2^16-mask
chunks (:func:`odd_digits`).  The deciders and the summary bounds of edited
hosts read the planes, with the size planes (:func:`size_planes`), the
vertex planes (:func:`vertex_planes`), the reversal that maps mask M to
V - M (:func:`reversed_plane`), a bit-sliced comparison with a constant
(:func:`count_above`) and the lexicographically first mask of a plane
(:func:`first_mask`).  No program path reads a 2^n list: :func:`nu_table`
and :func:`odd_table`, one byte per mask (:func:`_table`), are the tests'
pointwise views.  The flood fill (:func:`spread`, :func:`component_split`,
:func:`odd_component_count`) stays for the oracles and slow paths that must
not read the tables.
"""

from __future__ import annotations

import functools
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


def full_mask(g: Graph) -> int:
    return (1 << g.order) - 1


def every_mask(order: int) -> int:
    """The 2^order-bit plane that holds every mask."""
    return (1 << (1 << order)) - 1


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


#: masks per chunk: the odd-count planes are built over the vertices below
#: log2(_CHUNK), one chunk of masks at a time
_CHUNK = 1 << 16
#: binary digit characters to their values, one byte each
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
#: every byte to the byte holding its 8 bits in reverse order
_REVERSED_BITS = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


@functools.cache
def size_planes(order: int) -> tuple[int, ...]:
    """``planes[s]``: the 2^order-bit set of masks of size s, for every s
    from 0 to ``order``.  Adding vertex v doubles every plane: the masks
    without v keep their size, the masks with v gain one."""
    planes = [1]
    for v in range(order):
        width = 1 << v
        planes = [low | high << width for low, high in zip(planes + [0], [0] + planes)]
    return tuple(planes)


@functools.cache
def vertex_planes(order: int) -> tuple[int, ...]:
    """``planes[v]``: the 2^order-bit set of masks holding vertex v, for
    every v below ``order``.  Adding vertex w doubles every plane and adds
    w's own, the upper half of the doubled range."""
    planes: list[int] = []
    for w in range(order):
        width = 1 << w
        planes = [p | p << width for p in planes] + [((1 << width) - 1) << width]
    return tuple(planes)


def first_mask(plane: int, order: int) -> int:
    """The lexicographically least of the equal-size masks that the nonzero
    ``plane`` holds.  Of two such masks the one holding the least vertex
    of their difference comes first, so going through v = 0, 1, ... and
    keeping the masks that hold v whenever any do leaves exactly that one."""
    for held in vertex_planes(order):
        if plane & held:
            plane &= held
    return plane.bit_length() - 1


def count_above(digits: list[int], bound: int, order: int) -> int:
    """The masks at which the counter ``digits`` (binary digit planes,
    least significant first) exceeds ``bound`` >= 0: a bit-sliced
    comparison from the top digit down, keeping the masks still equal to
    ``bound`` so far and collecting those that pass it at a 0 digit of
    ``bound``."""
    if bound >> len(digits):
        return 0
    above, equal = 0, every_mask(order)
    for t in range(len(digits) - 1, -1, -1):
        if bound >> t & 1:
            equal &= digits[t]
        else:
            above |= equal & digits[t]
            equal &= ~digits[t]
    return above


def reversed_plane(plane: int, order: int) -> int:
    """``plane`` over the 2^order masks read backwards, so that the bit of
    mask M moves to V - M: a plane indexed by a kept set becomes one indexed
    by the deleted set.  The bytes are read in the opposite order, each
    with its bits reversed; below 8 bits the bit string is reversed."""
    if order < 3:
        return int(format(plane, f"0{1 << order}b")[::-1], 2)
    data = plane.to_bytes(1 << order - 3, "big").translate(_REVERSED_BITS)
    return int.from_bytes(data, "little")


def _count_planes(planes) -> list[int]:
    """The number of ``planes`` that hold each mask, as binary digit
    planes, least significant first: a bit-sliced counter, to which each
    plane adds one at the masks it holds."""
    digits: list[int] = []
    for plane in planes:
        t = 0
        while plane:
            if t == len(digits):
                digits.append(plane)
                break
            digits[t], plane = digits[t] ^ plane, digits[t] & plane
            t += 1
    return digits


def _table(digits: list[int], order: int) -> list[int]:
    """The counter ``digits`` over all 2^order masks as a list, for the
    tests' pointwise views.  A digit plane's bit string, its characters
    translated to bytes 0 and 1 and read as a big-endian int, puts that
    digit in the byte lane of its mask; the shifted digits sum to the
    count, and no count exceeds ``TABLE_LIMIT`` = 24, so a byte holds it."""
    lanes = 0
    for t, plane in enumerate(digits):
        bits = format(plane, "b").encode().translate(_BIT_VALUES)
        lanes |= int.from_bytes(bits, "big") << t
    return list(lanes.to_bytes(1 << order, "little"))


def nu_planes(g: Graph) -> list[int]:
    """``planes[j - 1]``: plane P_j, the 2^n-bit set of masks M with
    ``nu[M] >= j``, for every j up to the graph's matching number.

    A Python int of 2^n bits holds one bit per subset.  With Z_b the masks
    lacking vertex b, ``nu[M] >= j + 1`` exactly when some edge ab of G[M]
    has ``nu[M - a - b] >= j``, so P_{j+1} is the OR over edges ab of
    ``(P_j & Z_a & Z_b) << (2^a + 2^b)``.  The planes are grown one vertex
    at a time, which needs only the edges at the new vertex v: a mask
    M + v, with M over the vertices below v, is in P_{j+1} when M is (v
    unmatched) or when M = X + b with X in P_j and b a neighbour of v, that
    is ``(P_j & Z_b) << 2^b``.  Growth stops at the first empty plane.
    """

    def build():
        _require_table(g)
        return _nu_planes(g.adjacency, g.order)

    return cached(g, "nu_planes", build)


def nu_table(g: Graph) -> list[int]:
    """Maximum matching size of every induced subgraph, indexed by bitmask.

    ``nu[M]`` is the number of the cached planes (:func:`nu_planes`) that
    hold M: a bit-sliced counter adds them into binary digit planes, which
    :func:`_table` converts to the list.
    """
    return cached(g, "nu_table", lambda: _table(_count_planes(nu_planes(g)), g.order))


def _nu_planes(adj: tuple[int, ...], order: int) -> list[int]:
    """The planes of :func:`nu_planes`, from the adjacency masks."""
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


def odd_digits(g: Graph) -> list[int]:
    """The binary digits, least significant first, of the odd-component
    count of every induced subgraph, as 2^n-bit planes.

    Built from connectivity planes, one chunk of ``_CHUNK`` masks at a
    time.  The low vertices are those below c = log2(``_CHUNK``); each
    chunk fixes the set H of high vertices it holds, and the components of
    G[H] are always present nodes.  :func:`_odd_digits` counts, for every
    set X of low vertices, the odd components of G[X + H], and each chunk's
    digits are placed at its offset.  Up to order c there is one chunk,
    with H empty.
    """

    def build():
        _require_table(g)
        adj = g.adjacency
        low = min(g.order, _CHUNK.bit_length() - 1)
        chunks = [_odd_digits(adj, low, component_split(adj, start))
                  for start in range(0, 1 << g.order, 1 << low)]
        digits = []
        for t in range(max(map(len, chunks))):
            # adjacent pieces pair up, each pair a piece twice as wide
            pieces, width = [c[t] if t < len(c) else 0 for c in chunks], 1 << low
            while len(pieces) > 1:
                pieces = [lo | hi << width for lo, hi in zip(pieces[::2], pieces[1::2])]
                width <<= 1
            digits.append(pieces[0])
        return digits

    return cached(g, "odd_digits", build)


def odd_table(g: Graph) -> list[int]:
    """Odd-component count of every induced subgraph, indexed by bitmask:
    the cached digit planes (:func:`odd_digits`) converted by
    :func:`_table`."""
    return cached(g, "odd_table", lambda: _table(odd_digits(g), g.order))


def _odd_digits(adj: tuple[int, ...], low: int, fixed: list[int]) -> list[int]:
    """The binary digits, least significant first, of the odd-component
    count of G[X + H] for every mask X over the vertices below ``low``, as
    2^low-bit planes; ``fixed`` lists the components of G[H].

    The nodes are those components and then the low vertices.
    ``conn[a][b]`` is the set of masks X in which nodes a and b are both
    present and connected in G[X + H]; ``conn[a][a]`` is where a is
    present.  Adding vertex v doubles every plane: masks without v keep
    it, and with reach[a] the OR of ``conn[a][u]`` over the nodes u
    adjacent to v, masks with v add ``reach[a] & reach[b]`` and connect a
    to v on reach[a].  A node counts at X when no earlier node is
    connected to it and its component is odd: the XOR of ``conn[a][b]``
    over the odd-sized nodes b.
    """
    nodes = list(fixed)
    conn = [[int(a == b) for b in range(len(nodes))] for a in range(len(nodes))]
    for v in range(low):
        width = 1 << v
        near = [u for u, node in enumerate(nodes) if adj[v] & node]
        reach = []
        for row in conn:
            r = 0
            for u in near:
                r |= row[u]
            reach.append(r)
        for a, row in enumerate(conn):
            ra = reach[a]
            for b in range(a, len(row)):
                c = row[b]
                row[b] = conn[b][a] = c | (c | ra & reach[b]) << width
            row.append(ra << width)
        conn.append([r << width for r in reach] + [((1 << width) - 1) << width])
        nodes.append(1 << v)
    odd = [b for b, node in enumerate(nodes) if node.bit_count() & 1]
    counted = []
    for a, row in enumerate(conn):
        earlier = 0
        for c in row[:a]:
            earlier |= c
        parity = 0
        for b in odd:
            parity ^= row[b]
        counted.append(parity & ~earlier)
    return _count_planes(counted)


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
