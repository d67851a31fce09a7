"""Parameter-triple deciders with machine-checkable witnesses.

A graph is an (n, k, d)-graph when deleting any n vertices leaves a subgraph
that contains a k-matching and every such k-matching extends to a matching
covering all but d of the remaining vertices.  Two independent deciders are
provided: one straight from that definition, and one from the subset-count
characterization (for every S with |S| >= n the deletion leaves at most
|S| - n + d odd components, and for every S with |S| >= n + 2k whose induced
subgraph contains a k-matching it leaves at most |S| - n - 2k + d).

Both are exhaustive and therefore capped by graph order; pass an explicit
``cap`` to accept the exponential cost on larger graphs.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from functools import reduce
from itertools import accumulate, combinations

from . import _engine
from .errors import ParameterError, SearchCapExceeded
from .graph import Edge, Graph
from .matching import Matching, _berge_blocker, _matchings_in_mask, maximum_matching
from .structure import components, is_factor_critical, odd_count_after_deletion

DECIDER_CAP = 16
WITNESS_SEARCH_CAP = 14

_NEG = -(1 << 30)


# The records here are named tuples: immutable, equal and hashed by value,
# and cheap to define, which keeps the package's import fast.


class NkdParams(namedtuple("NkdParams", "n k d")):
    """The triple (n, k, d): vertices deleted, matching size, allowed defect."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, d: int):
        for name, value in (("n", n), ("k", k), ("d", d)):
            if not isinstance(value, int) or value < 0:
                raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
        return tuple.__new__(cls, (n, k, d))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, which would skip validation
        return cls(*iterable)

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


def validate_params(g: Graph, params: NkdParams) -> None:
    """Check the two graph-relative rules; raises ParameterError naming the
    violated rule, returns None when both hold."""
    n, k, d = params.as_tuple()
    if n + 2 * k + d > g.order - 2:
        raise ParameterError(
            f"size rule violated: n + 2k + d = {n + 2 * k + d} exceeds "
            f"order - 2 = {g.order - 2}"
        )
    if (g.order - n - d) % 2:
        raise ParameterError(
            f"parity rule violated: order - n - d = {g.order - n - d} is odd"
        )


@functools.cache
def _valid_triples(order: int) -> tuple[NkdParams, ...]:
    """Every (n, k, d) satisfying the size and parity rules for this order,
    sorted by (n, k, d), built once per order; the frozen triples are
    shared by every graph of that order."""
    out = []
    for n in range(max(order - 1, 0)):
        for d in range(max(order - 1 - n, 0)):
            if (order - n - d) % 2:
                continue
            for k in range((order - 2 - n - d) // 2 + 1):
                out.append(NkdParams(n, k, d))
    out.sort(key=NkdParams.as_tuple)
    return tuple(out)


# -- witnesses ---------------------------------------------------------------


class NoKMatching(namedtuple("NoKMatching", "deleted")):
    """Deleting ``deleted`` (an n-set) leaves no k-matching."""

    __slots__ = ()
    kind = "no-k-matching"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "deleted": list(self.deleted)}


class BlockedExtension(namedtuple("BlockedExtension", "deleted matching blocker")):
    """After deleting ``deleted``, the k-matching ``matching`` cannot be
    extended to a defect-d matching; ``blocker`` is a vertex set T of the
    remainder with more than |T| + d odd components left after its removal."""

    __slots__ = ()
    kind = "blocked-extension"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "deleted": list(self.deleted),
            "matching": [list(e) for e in self.matching],
            "blocker": list(self.blocker),
        }


class CharacterizationViolation(namedtuple("CharacterizationViolation", "condition subset")):
    """A subset breaking characterization condition "i" or "ii"."""

    __slots__ = ()
    kind = "characterization-violation"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "condition": self.condition, "subset": list(self.subset)}


Witness = NoKMatching | BlockedExtension | CharacterizationViolation


class Verdict(namedtuple("Verdict", "holds witness", defaults=(None,))):
    """Decision result; carries a witness exactly when the property fails."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }

    def kv_lines(self) -> list[str]:
        lines = [f"holds: {'true' if self.holds else 'false'}"]
        if self.witness is not None:
            lines += witness_kv_lines(self.witness)
        return lines


def witness_kv_lines(w: Witness) -> list[str]:
    """Key-value text serialization (see README for the schema)."""
    lines = [f"witness: {w.kind}"]
    if isinstance(w, NoKMatching):
        lines.append(f"deleted: {_ints(w.deleted)}")
    elif isinstance(w, BlockedExtension):
        lines.append(f"deleted: {_ints(w.deleted)}")
        lines.append(f"matching: {_edges(w.matching)}")
        lines.append(f"blocker: {_ints(w.blocker)}")
    elif isinstance(w, CharacterizationViolation):
        lines.append(f"condition: {w.condition}")
        lines.append(f"subset: {_ints(w.subset)}")
    return lines


def _ints(values) -> str:
    return " ".join(map(str, values)) if values else "(empty)"


def _edges(edges) -> str:
    return " ".join(f"{u}-{v}" for u, v in edges) if edges else "(empty)"


# -- deciders ----------------------------------------------------------------


def _check_cap(order: int, cap: int | None, default: int, what: str) -> None:
    limit = default if cap is None else cap
    if order > limit:
        raise SearchCapExceeded(
            f"the exhaustive {what} is capped at {limit} vertices, graph has "
            f"{order}; pass a larger cap to accept the cost"
        )


def is_nkd_by_definition(g: Graph, params: NkdParams, cap: int | None = None) -> Verdict:
    """Decide straight from the definition, reading only the matching planes.

    The definition fails exactly when some n-set S leaves no k-matching, or
    some n-set S and k-matching M of G - S leave G - S - V(M) with
    deficiency above d.  The sets T = S + V(M) of the second case are
    exactly the (n + 2k)-sets with ``nu[T] >= k``: a k-matching of G[T]
    covers 2k of its vertices and the other n form S.  So the verdict is
    read from two planes, of the violating n-sets and (n + 2k)-sets.

    Only on failure is a witness named, for the first violation in
    deterministic order: deleted subsets lexicographic, matchings in
    canonical enumeration order; the blocking set of an inextensible
    matching is the smallest-first lexicographically least one.  All three
    are read from the planes as well.
    """
    validate_params(g, params)
    _check_cap(g.order, cap, DECIDER_CAP, "decider")
    short, blocked = _violating_sets(g, *params.as_tuple())
    if not short and not blocked:
        return Verdict(True)
    return _first_violation(g, params, short, blocked)


def _violating_sets(g: Graph, n: int, k: int, d: int) -> tuple[int, int]:
    """The short n-sets S (no k-matching in G - S) and the blocked
    (n + 2k)-sets T (``nu[T] >= k``, deficiency of G - T above d), as
    2^n-bit planes.

    Both are read from the matching planes, with L_s the masks of size s
    and rev(P) the plane P indexed by complement: the short sets are
    ``L_n & ~rev(P_k)`` and the blocked ones ``L_{n+2k} & P_k &
    ~rev(P_need)``."""
    order = g.order
    sizes = _engine.size_planes(order)
    matched = _matching_plane(g, k)
    short = sizes[n] & ~_engine.reversed_plane(matched, order)
    # deficiency |V - T| - 2 nu[V - T] > d, with |V - T| - d even
    need = (order - n - 2 * k - d) // 2
    blocked = sizes[n + 2 * k] & matched & ~_engine.reversed_plane(_matching_plane(g, need), order)
    return short, blocked


def _matching_plane(g: Graph, j: int) -> int:
    """P_j, the masks M with ``nu[M] >= j``: every mask for j = 0, none
    past the matching number."""
    if j == 0:
        return _engine.every_mask(g.order)
    planes = _engine.nu_planes(g)
    return planes[j - 1] if j <= len(planes) else 0


def _critical_plane(g: Graph, j: int) -> int:
    """The masks R with ``nu[R] = j`` that no vertex deletion lowers:
    ``P_j & ~P_{j+1}`` less each mask holding a w with R - w outside P_j.
    By Gallai's lemma their |R| - 2j components are all factor-critical."""

    def build():
        matched = _matching_plane(g, j)
        plane = matched & ~_matching_plane(g, j + 1)
        for w, held in enumerate(_engine.vertex_planes(g.order)):
            plane &= ~held | (matched & ~held) << (1 << w)
        return plane

    return _engine.cached(g, ("critical", j), build)


def _first_violation(g: Graph, params: NkdParams, short: int, blocked: int) -> Verdict:
    """The first violation, named from the planes of :func:`_violating_sets`.

    D_j is the plane of the sets X for which some j-matching M of G - X
    makes X + V(M) blocked: D_0 is the blocked plane, and D_{j+1} the OR
    over the edges uv of ``(D_j & C_u & C_v) >> (2^u + 2^v)``, with C_v
    the masks holding v.  A k-matching M of G - S fails to extend exactly
    when S + V(M) is blocked, so the first failing n-set S is the least
    mask of ``short | D_k`` (:func:`_engine.first_mask`).  Its first
    inextensible matching in canonical order (``g.edges`` is sorted, so
    tuple order) is built in one pass over the edges: with U the vertices
    of the j edges taken so far, edge uv is taken when it misses S + U and
    S + U + uv lies in D_{k-j-1}.  Each edge taken leaves a completion by
    later edges, so no branch is a dead end."""
    order, k = g.order, params.k
    holding = _engine.vertex_planes(order)
    reach = [blocked]
    for _ in range(k):
        plane = 0
        if reach[-1]:
            for u in range(order):
                with_u = reach[-1] & holding[u]
                for v in _engine.bits_of(g.adjacency[u] & -(2 << u)):  # the edges uv with u < v
                    plane |= (with_u & holding[v]) >> ((1 << u) + (1 << v))
        reach.append(plane)
    smask = _engine.first_mask(short | reach[k], order)
    deleted = tuple(_engine.bits_of(smask))
    if short >> smask & 1:
        return Verdict(False, NoKMatching(deleted))
    covered, matching = smask, []
    for edge in g.edges:
        if len(matching) == k:
            break
        pair = (1 << edge[0]) | (1 << edge[1])
        if not covered & pair and reach[k - 1 - len(matching)] >> (covered | pair) & 1:
            matching.append(edge)
            covered |= pair
    blocker = _berge_blocker(g, _engine.full_mask(g) ^ covered, params.d)
    if blocker is None:
        raise AssertionError("no blocking set found for a deficient subgraph")
    return Verdict(False, BlockedExtension(deleted, tuple(matching), blocker))


def _char_summary(g: Graph) -> list[list[int]]:
    """summary[k][s]: the largest value of (odd components after deleting S)
    minus |S| over subsets S of size exactly s whose induced subgraph has a
    k-matching.

    The rows are exact, read from the graph's own planes
    (:func:`_plane_rows`) without a 2^n list.  Their maximisers are cached
    with them, as ``"maximisers"``, for the G - uv rises
    (:func:`_deletion_rises`)."""

    def build():
        rows, g._cache["maximisers"] = _plane_rows(g)
        return rows

    return _engine.cached(g, "char_summary", build)


def _plane_rows(g: Graph) -> tuple[list[list[int]], list[int]]:
    """The summary rows of g from its matching planes P_1, P_2, ... and its
    odd count's digit planes, and per row the plane of its maximisers.
    Reversed, the digits give the odd count of V - S at S.  Row k at size s
    is the largest count over ``P_k & L_s``, with P_0 every mask and L_s
    the masks of size s, minus s; the maximum is taken bit-sliced, keeping
    from the top digit down the candidates that hold it whenever any does.
    Those left are the maximisers at (k, s); the size planes are disjoint,
    so one union per row keeps them all.  P_k holds every mask with a
    larger matching, so the rows need no fold."""
    order = g.order
    # the reversed digit planes from the top down, each with its value
    weighted = [(_engine.reversed_plane(digit, order), 1 << t)
                for t, digit in reversed(list(enumerate(_engine.odd_digits(g))))]
    sizes = _engine.size_planes(order)
    rows, maximisers = [], []
    for k, plane in enumerate([_engine.every_mask(order)] + _engine.nu_planes(g)):
        row, top = [_NEG] * (order + 2), 0
        for s in range(2 * k, order + 1):
            held = plane & sizes[s]
            if held:
                best = 0
                for digit, value in weighted:
                    if held & digit:
                        held &= digit
                        best |= value
                row[s] = best - s
                top |= held
        rows.append(row)
        maximisers.append(top)
    return rows, maximisers


def _edited_holds(g: Graph, edit: tuple | None, n: int, k: int, d: int,
                  cap: int | None = None) -> bool:
    """:func:`_holds` on the host ``edit`` of ``g`` (:func:`_apply_edit`),
    its verdict cached on g per edit and target and read from g's own
    summary rows, lifted by one row: ``lifted = [rows[0]] + rows``.

    Adding uv raises no odd count, and a mask gains a matching edge only
    through uv, so G + uv's row j is at most g's row j - 1 and its row 0 at
    most g's row 0: ``lifted`` bounds G + uv's summary entry by entry.  In
    the cone, a mask S + a (a the apex) leaves G - S, and ``nu[S + a]`` is
    ``nu[S]`` plus one unless S is perfectly matchable, so over the masks
    holding a the cone's row j at size s + 1 is g's row j - 1 at size s,
    minus 1, for every s from 2j - 1 up: every size a threshold reads.  A
    mask without the apex leaves one component, so by the parity rule it
    breaks no threshold of a valid target, and the cone's verdict from
    these rows is exact.  A G - uv host holds the target when its edge is
    outside :func:`_bound_candidates`.  A bound never fails a target that
    holds, so only when G + uv's does, or the edge is a candidate, is the
    host built, once, cached on g and decided on its exact rows; no cone
    is built.  The cone alone has an order above g's, so on each call it
    alone is checked against the table limit and then the decider cap,
    the policy on a host's order whether or not its planes are built."""
    if edit is None:
        return _holds(g, n, k, d)
    cone = edit[0] == "cone"
    if cone:
        _engine._require_table(g.order + 1)
        _check_cap(g.order + 1, cap, DECIDER_CAP, "decider")
    key = (edit, n, k, d)
    holds = g._cache.get(key)
    if holds is None:
        if edit[0] == "delete_edge":
            holds = not _bound_candidates(g, n, k, d) >> g.edges.index(edit[1:]) & 1
        else:
            rows = _char_summary(g)
            lifted = [rows[0]] + rows
            if cone:
                lifted = [[_NEG] + [x - 1 for x in row] for row in lifted]
            holds = _rows_hold(lifted, n, k, d)
        if not holds and not cone:
            host = _engine.cached(g, ("host",) + edit, lambda: _apply_edit(g, edit))
            holds = _rows_hold(_char_summary(host), n, k, d)
        g._cache[key] = holds
    return holds


def _require_cone_table(max_order: int) -> None:
    """Refuse a census max order whose graphs' cones would pass the table limit."""
    if max_order + 1 > _engine.TABLE_LIMIT:
        raise SearchCapExceeded(
            f"census max order {max_order} exceeds {_engine.TABLE_LIMIT - 1}: the cone of a "
            f"graph of that order passes the table limit of {_engine.TABLE_LIMIT} vertices")


def _apply_edit(g: Graph, edit: tuple | None) -> Graph:
    """The host ``edit`` of ``g``: g itself for None, else ``g.add_edge(u,
    v)``, ``g.delete_edge(u, v)`` or ``g.cone()`` for ``(method, *args)``."""
    return g if edit is None else getattr(g, edit[0])(*edit[1:])


def _deletion_rises(g: Graph) -> dict[tuple[int, int], int]:
    """Where G - uv's summary can exceed g's, for every edge uv of g: by
    entry (k, s), the mask over the positions in ``g.edges`` of the edges
    at which it can.  Deleting uv raises no ``nu`` and raises the odd count
    of R by 2 exactly on the bridge plane B (:func:`_bridge_plane`), so
    over g's matching planes G - uv's rows are an upper bound on its
    summary.  At a fixed size s every odd count of V - S has the parity of
    order - s, so that bound's entry (k, s) is g's own plus 2 exactly when
    g's maximisers at (k, s) (:func:`_char_summary`) meet rev(B), and g's
    own otherwise.

    The vertices are swept in increasing order, one sweep of joined planes
    each over g's own edges, and every edge uv with u < v is read from v's
    sweep, with u's parity plane kept from its own.  Only the parity planes
    outlive a sweep, so the pass holds O(order) planes and caches none."""
    order = g.order
    _char_summary(g)  # caches the maximisers with the rows
    # a maximiser S of V - S's count lines up with R = V - S when reversed
    tops = [_engine.reversed_plane(top, order) for top in g._cache["maximisers"]]
    sizes = _engine.size_planes(order)
    position = {edge: i for i, edge in enumerate(g.edges)}
    parity, rises = [0] * order, {}
    for v in range(order):
        joined = _joined_planes(order, g.edges, v)
        parity[v] = reduce(operator.xor, joined)
        for u in _engine.bits_of(g.adjacency[v] & ((1 << v) - 1)):
            bridge, bit = _bridge_plane(g, u, v, joined, parity), 1 << position[u, v]
            for k, top in enumerate(tops):
                rising = top & bridge
                if rising:
                    for s in range(2 * k, order + 1):
                        if rising & sizes[order - s]:
                            rises[k, s] = rises.get((k, s), 0) | bit
    return rises


def _bridge_plane(g: Graph, u: int, v: int, joined: list[int], parity) -> int:
    """B, the masks R holding u and v in which uv is a bridge of G[R]
    between two odd parts, read from ``joined``, v's joined planes over
    G's own edges (:func:`_joined_planes`), and ``parity[x]``, the XOR of
    x's joined planes, for x = u and v.  With M = R - u, uv is a bridge
    exactly when v's component in G[M] holds no other neighbour w of u, so
    M lies outside every J_v[w]; v's part is that component, odd on P_v.
    Once the two parts are apart, u's component in G[R] is their union, so
    u's part is odd exactly when that component is even, off P_u."""
    near = 0
    for w in _engine.bits_of(g.adjacency[u] & ~(1 << v)):
        near |= joined[w]
    lacking_u = ~_engine.vertex_planes(g.order)[u]
    return ((parity[v] & ~near & lacking_u) << (1 << u)) & ~parity[u]


def _joined_planes(order: int, edges: list[Edge], source: int) -> list[int]:
    """``joined[w]``: the masks M holding ``source`` and w in which w is
    joined to ``source`` by ``edges`` inside M.  The source's plane is the
    masks holding it; an edge ab joins a on the masks that hold a and join
    b.  The edges are swept until no plane grows."""
    holding = _engine.vertex_planes(order)
    joined = [0] * order
    joined[source] = holding[source]
    while True:
        before = joined.copy()
        for a, b in edges:
            joined[a] |= joined[b] & holding[a]
            joined[b] |= joined[a] & holding[b]
        if joined == before:
            return joined


def _rows_hold(rows: list[list[int]], n: int, k: int, d: int) -> bool:
    """Condition "i" on row 0 from size n, and condition "ii" on row k from
    size n + 2k; past the last row no subset has a k-matching."""
    return max(rows[0][n:]) <= d - n and (
        k >= len(rows) or max(rows[k][n + 2 * k:]) <= d - n - 2 * k)


def _bound_candidates(g: Graph, n: int, k: int, d: int) -> int:
    """The edges uv of g at which G - uv can fail (n, k, d), as a mask over
    the positions in ``g.edges``; every other G - uv holds it
    (:func:`_edited_holds`).

    When g fails the target, every edge.  Otherwise G - uv's summary is at
    most g's rows plus 2 at the entries of :func:`_deletion_rises`.  Every
    entry has the parity of the order, since odd(G[R]) = |R| (mod 2), and
    so do both thresholds, d - n and d - n - 2k, so an entry at most its
    threshold passes it by rising 2 only when it equals it.  The host can
    fail only at the edges that rose at such a tight entry that the target
    reads; with none, the rises are not built."""
    if not _holds(g, n, k, d):
        return (1 << len(g.edges)) - 1
    order, rows = g.order, _char_summary(g)
    tight = [(0, s) for s in range(n, order + 1) if rows[0][s] == d - n]
    if k < len(rows):
        tight += [(k, s) for s in range(n + 2 * k, order + 1) if rows[k][s] == d - n - 2 * k]
    mask = 0
    if tight:
        rises = _engine.cached(g, "deletion_rises", lambda: _deletion_rises(g))
        for entry in tight:
            mask |= rises.get(entry, 0)
    return mask


def _separator_candidates(g: Graph, params: NkdParams, variant: str) -> int:
    """The edges uv of g for which :func:`_separator_witness` can find a
    separator decomposition, as a mask over the positions in ``g.edges``:
    none when order - 2 - s - d is odd or negative, s the separator's size,
    and otherwise the edges whose forced set has at most s vertices
    (:func:`_forced_fits`), the search's own two tests."""
    size = _separator_sizes(params.n, params.k, variant)[1]
    rest = g.order - 2 - size - params.d
    return 0 if rest < 0 or rest % 2 else _forced_fits(g)[size]


def _forced_fits(g: Graph) -> list[int]:
    """``fits[s]``: the edges uv of g whose forced set, every other
    neighbour of u and v, has at most s vertices, as a mask over the
    positions in ``g.edges``, for s from 0 to the order; cached on g."""

    def build():
        fits = [0] * (g.order + 1)
        rows = g.adjacency
        for i, (u, v) in enumerate(g.edges):
            fits[(rows[u] | rows[v]).bit_count() - 2] |= 1 << i
        return list(accumulate(fits, operator.or_))

    return _engine.cached(g, "forced_fits", build)


def nkd_holds(g: Graph, params: NkdParams, cap: int | None = None) -> bool:
    """Boolean-only characterization decision, cached on the graph instance.

    Same answer as :func:`is_nkd_by_characterization` without witness
    extraction; used where deciders are called in bulk.  The triple is
    validated on a miss only: a cached verdict exists only for a triple
    already validated on this graph.  The cap is checked on every call.
    """
    _check_cap(g.order, cap, DECIDER_CAP, "decider")
    if ("nkd", params.n, params.k, params.d) not in g._cache:
        validate_params(g, params)
    return _holds(g, params.n, params.k, params.d)


def _holds(g: Graph, n: int, k: int, d: int) -> bool:
    """:func:`nkd_holds` without the cap check or any validation, for a
    triple known to be valid on ``g``: the rule runner's host targets."""
    key = ("nkd", n, k, d)
    holds = g._cache.get(key)
    if holds is None:
        holds = g._cache[key] = _rows_hold(_char_summary(g), n, k, d)
    return holds


def is_nkd_by_characterization(g: Graph, params: NkdParams, cap: int | None = None) -> Verdict:
    """Decide via the subset-count characterization.

    Condition "i" for every subset of size at least n, and condition "ii"
    for every subset of size at least n + 2k whose induced subgraph
    contains a k-matching, are read from the summary rows.  Failure returns
    the first violation in size-then-lexicographic subset order (condition
    "i" tested before "ii" on each subset).  The rows name its size s; the
    sets of size s that break "i", and those with a k-matching that break
    "ii", are read as planes from the odd-count digits, and the witness is
    the least mask of their union.
    """
    validate_params(g, params)
    _check_cap(g.order, cap, DECIDER_CAP, "decider")
    n, k, d = params.as_tuple()
    rows = _char_summary(g)
    if _rows_hold(rows, n, k, d):
        return Verdict(True)
    size = next(s for s in range(n, g.order + 1) if rows[0][s] > d - n or (
        s >= n + 2 * k and k < len(rows) and rows[k][s] > d - n - 2 * k))
    order = g.order
    digits = _engine.odd_digits(g)
    layer = _engine.size_planes(order)[size]

    def deleting(bound: int) -> int:
        # the sets S of this size whose deletion leaves more than ``bound``
        # odd components: reversed, the kept set V - S lines up with S
        return layer & _engine.reversed_plane(_engine.count_above(digits, bound, order), order)

    first = deleting(size - n + d)
    second = 0
    if size >= n + 2 * k:
        second = _matching_plane(g, k) & deleting(size - n - 2 * k + d)
    mask = _engine.first_mask(first | second, order)
    condition = "i" if first >> mask & 1 else "ii"
    return Verdict(False, CharacterizationViolation(condition, tuple(_engine.bits_of(mask))))


def is_k_extendable(g: Graph, k: int, cap: int | None = None) -> Verdict:
    """Alias for the (0, k, 0) decision: every k-matching extends to a
    perfect matching."""
    return is_nkd_by_definition(g, NkdParams(0, k, 0), cap=cap)


def is_n_critical(g: Graph, n: int, cap: int | None = None) -> Verdict:
    """Alias for the (n, 0, 0) decision: deleting any n vertices leaves a
    perfectly matchable graph."""
    return is_nkd_by_definition(g, NkdParams(n, 0, 0), cap=cap)


# -- witness re-verification (independent of the table-driven search) --------


def verify_witness(g: Graph, params: NkdParams, witness: Witness) -> bool:
    """Re-check a failure witness against its defining inequalities using the
    matching/structure layer only (augmenting-path matching and flood-fill
    component counts), independent of the subset tables that produced it.
    Malformed witnesses yield False rather than an exception."""
    try:
        return _verify_witness(g, params, witness)
    except (TypeError, ValueError):
        return False


def _verify_witness(g: Graph, params: NkdParams, witness: Witness) -> bool:
    n, k, d = params.as_tuple()

    def nu_without(removed) -> int:
        sub, _ = g.delete_vertices(removed)
        return len(maximum_matching(sub))

    def distinct(vertices) -> bool:
        # each a vertex of g, none repeated: a repeat would count twice
        return len(set(vertices)) == len(vertices) and all(0 <= v < g.order for v in vertices)

    if isinstance(witness, NoKMatching):
        return (len(witness.deleted) == n and distinct(witness.deleted)
                and nu_without(witness.deleted) < k)

    if isinstance(witness, BlockedExtension):
        if len(witness.deleted) != n or len(witness.matching) != k:
            return False
        body = Matching(witness.matching)
        body.validate(g)
        # the deleted set, the matched vertices and the blocker are disjoint
        removed = (*witness.deleted, *(v for edge in body for v in edge), *witness.blocker)
        if not distinct(removed):
            return False
        return odd_count_after_deletion(g, removed) > len(witness.blocker) + d

    if isinstance(witness, CharacterizationViolation):
        if not distinct(witness.subset):
            return False
        size = len(witness.subset)
        o = odd_count_after_deletion(g, witness.subset)
        if witness.condition == "i":
            return size >= n and o > size - n + d
        if witness.condition == "ii":
            if size < n + 2 * k:
                return False
            sub, _ = g.induced_subgraph(witness.subset)
            if len(maximum_matching(sub)) < k:
                return False
            return o > size - n - 2 * k + d
    return False


# -- separator decompositions (edge-deletion rules) ---------------------------


class DecompositionWitness(namedtuple(
        "DecompositionWitness", "separator edge variant odd_components separator_matching")):
    """A separator S of size n - 2 + 2k whose removal leaves d factor-critical
    odd components plus the bare distinguished edge.

    ``variant`` records which matching requirement the separator met inside
    its induced subgraph: "d1" demands a k-matching, "d3" a (k-1)-matching;
    ``separator_matching`` is the first such matching in canonical order.
    All coordinates are in the host graph's vertex ids.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "separator": list(self.separator),
            "edge": list(self.edge),
            "variant": self.variant,
            "odd_components": [list(c) for c in self.odd_components],
            "separator_matching": [list(e) for e in self.separator_matching],
        }

    def kv_lines(self) -> list[str]:
        lines = [
            f"variant: {self.variant}",
            f"separator: {_ints(self.separator)}",
            f"separator-matching: {_edges(self.separator_matching)}",
        ]
        for comp in self.odd_components:
            lines.append(f"odd-component: {_ints(comp)}")
        lines.append(f"edge-component: {self.edge[0]} {self.edge[1]}")
        return lines


def find_decomposition_witness(
    g: Graph,
    params: NkdParams,
    edge: Edge,
    variant: str,
    cap: int | None = None,
) -> DecompositionWitness | None:
    """Search for the separator witnessing that deleting ``edge`` destroys
    the shifted parameters (n-2, k, d) for variant "d1", or (n, k-1, d) for
    variant "d3".

    Returns the lexicographically first subset of size n - 2 + 2k avoiding
    the edge's endpoints whose induced subgraph holds the required matching
    while the rest of the graph splits into exactly d factor-critical odd
    components plus the bare edge, or None when no such separator exists.

    For uv to be bare, S holds the forced set F, every other neighbour of u
    and v, so only the supersets of F are scanned.  Each candidate is then
    two bit tests on the matching planes: S must lie in P_need, and the
    rest R = V - S - uv, of the fixed size r, in the critical plane of
    level j = (r - d) / 2 (:func:`_critical_plane`), whose masks split into
    exactly r - 2j factor-critical components.
    """
    edge, variant = _decomposition_query(g, params, edge, variant, cap)
    return _separator_witness(g, params, edge, variant, cap)


def _separator_witness(g: Graph, params: NkdParams, edge: Edge, variant: str,
                       cap: int | None = None) -> DecompositionWitness | None:
    """The search of :func:`find_decomposition_witness` for a query known
    to be valid (``edge`` an edge of g in increasing order, ``variant``
    lower-case), checking only the search cap, on every call."""
    _check_cap(g.order, cap, WITNESS_SEARCH_CAP, "decomposition search")
    need, size = _separator_sizes(params.n, params.k, variant)
    uv_mask = (1 << edge[0]) | (1 << edge[1])
    forced = (g.adjacency[edge[0]] | g.adjacency[edge[1]]) & ~uv_mask
    j, odd = divmod(g.order - 2 - size - params.d, 2)
    if forced.bit_count() > size or odd or j < 0:
        return None
    critical, matched = _critical_plane(g, j), _matching_plane(g, need)
    full = _engine.full_mask(g)
    free = [1 << w for w in _engine.bits_of(full & ~uv_mask & ~forced)]
    # S = F + X comes out in lexicographic order: of two equal-size sets the
    # one holding the least vertex of their symmetric difference is first,
    # and adding the same disjoint F to both leaves that difference as it is
    for x in map(sum, combinations(free, size - forced.bit_count())):
        smask = forced | x
        rest = full & ~smask & ~uv_mask
        if critical >> rest & 1 and matched >> smask & 1:
            return _decomposition_witness(g, tuple(_engine.bits_of(smask)), smask,
                                          edge, variant, need)
    return None


def _decomposition_query(g: Graph, params: NkdParams, edge: Edge, variant: str,
                         cap: int | None) -> tuple[Edge, str]:
    """Validate a separator query; returns (edge, variant) with the edge's
    endpoints in increasing order and the variant lower-cased."""
    if not isinstance(variant, str) or variant.lower() not in ("d1", "d3"):
        raise ParameterError(f"variant must be 'd1' or 'd3', got {variant!r}")
    variant = variant.lower()
    n, k = params.n, params.k
    if variant == "d1" and n < 2:
        raise ParameterError(f"the d1 search needs n >= 2, got n={n}")
    if variant == "d3" and k < 1:
        raise ParameterError(f"the d3 search needs k >= 1, got k={k}")
    validate_params(g, params)
    _check_cap(g.order, cap, WITNESS_SEARCH_CAP, "decomposition search")
    try:
        u, v = map(operator.index, edge)
    except (TypeError, ValueError):
        raise ParameterError(f"an edge is a pair of vertex ids, got {edge!r}") from None
    if not g.has_edge(u, v):
        raise ParameterError(f"({u}, {v}) is not an edge of the graph")
    return (min(u, v), max(u, v)), variant


def _separator_sizes(n: int, k: int, variant: str) -> tuple[int, int]:
    """(need, size) of a separator query: the matching size the separator
    must hold, k for "d1" and k - 1 for "d3", and its order n - 2 + 2k."""
    return (k if variant == "d1" else k - 1), n - 2 + 2 * k


def _decomposition_witness(g: Graph, subset: tuple[int, ...], smask: int,
                           edge: Edge, variant: str, need: int) -> DecompositionWitness:
    uv_mask = (1 << edge[0]) | (1 << edge[1])
    rest = _engine.full_mask(g) & ~smask
    comps = _engine.component_split(g.adjacency, rest)
    odd_comps = tuple(tuple(_engine.bits_of(c)) for c in comps if c != uv_mask)
    inner = next(_matchings_in_mask(g.edges, smask, need))[0]
    return DecompositionWitness(subset, edge, variant, odd_comps, inner)


def _scan_decomposition_witness(
    g: Graph,
    params: NkdParams,
    edge: Edge,
    variant: str,
    cap: int | None = None,
) -> DecompositionWitness | None:
    """Subset-scan oracle for :func:`find_decomposition_witness`: the same
    answer, searched afresh per query without the forced set or any subset
    table.

    Scans all subsets of size n - 2 + 2k avoiding the edge's endpoints, in
    lexicographic order, and returns the first whose removal leaves, by
    flood fill, exactly d odd components plus the bare edge, each odd one
    factor-critical (:func:`is_factor_critical` on its induced subgraph),
    while the subset's own induced subgraph holds the required matching
    (:func:`maximum_matching`).
    """
    edge, variant = _decomposition_query(g, params, edge, variant, cap)
    need, size = _separator_sizes(params.n, params.k, variant)
    others = [w for w in range(g.order) if w not in edge]
    full = _engine.full_mask(g)
    uv_mask = (1 << edge[0]) | (1 << edge[1])

    def induced(mask: int) -> Graph:
        return g.induced_subgraph(_engine.bits_of(mask))[0]

    for subset in combinations(others, size):
        smask = _engine.mask_of(subset)
        comps = _engine.component_split(g.adjacency, full & ~smask)
        if len(comps) != params.d + 1 or uv_mask not in comps:
            continue
        if all(c.bit_count() & 1 and is_factor_critical(induced(c))
               for c in comps if c != uv_mask) and len(maximum_matching(induced(smask))) >= need:
            return _decomposition_witness(g, subset, smask, edge, variant, need)
    return None


def verify_decomposition_witness(g: Graph, params: NkdParams, w: DecompositionWitness) -> bool:
    """Independent re-check of a decomposition witness via the public
    matching/structure operations.  Malformed witnesses yield False."""
    try:
        return _verify_decomposition_witness(g, params, w)
    except (TypeError, ValueError):
        return False


def _verify_decomposition_witness(g: Graph, params: NkdParams, w: DecompositionWitness) -> bool:
    n, k, d = params.as_tuple()
    if w.variant not in ("d1", "d3"):
        return False
    # ids are integer vertices of g: a float or an id out of range would
    # equal, or index, a vertex it is not
    u, v = map(operator.index, w.edge)
    separator = tuple(map(operator.index, w.separator))
    claimed = [tuple(map(operator.index, c)) for c in w.odd_components]
    if not all(0 <= x < g.order for x in separator + sum(claimed, ())) or not g.has_edge(u, v):
        return False
    members = set(separator)
    if not len(members) == len(separator) == n - 2 + 2 * k or {u, v} & members:
        return False
    need = k if w.variant == "d1" else k - 1
    inner = Matching(w.separator_matching)
    inner.validate(g)
    if len(inner) != need or not inner.vertices() <= members:
        return False
    sub, old_ids = g.delete_vertices(separator)
    profile = components(sub)
    comps = [tuple(old_ids[x] for x in comp) for comp in profile]
    if tuple(sorted((u, v))) not in [tuple(sorted(c)) for c in comps if len(c) == 2]:
        return False
    odd = [c for c in comps if len(c) % 2 == 1]
    if len(comps) != d + 1 or len(odd) != d:
        return False
    if sorted(odd) != sorted(claimed):
        return False
    for comp in odd:
        piece, _ = g.induced_subgraph(comp)
        if not is_factor_critical(piece):
            return False
    sep, _ = g.induced_subgraph(separator)
    return len(maximum_matching(sep)) >= need
