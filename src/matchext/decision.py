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

from dataclasses import dataclass
from itertools import combinations
from typing import Union

from . import _engine
from .errors import ParameterError, SearchCapExceeded
from .graph import Edge, Graph
from .matching import Matching, _berge_blocker, _matchings_in_mask

DECIDER_CAP = 16
WITNESS_SEARCH_CAP = 14

_NEG = -(1 << 30)


@dataclass(frozen=True)
class NkdParams:
    """The triple (n, k, d): vertices deleted, matching size, allowed defect."""

    n: int
    k: int
    d: int

    def __post_init__(self):
        for name in ("n", "k", "d"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.d)


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


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class NoKMatching:
    """Deleting ``deleted`` (an n-set) leaves no k-matching."""

    deleted: tuple[int, ...]

    kind = "no-k-matching"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "deleted": list(self.deleted)}


@dataclass(frozen=True)
class BlockedExtension:
    """After deleting ``deleted``, the k-matching ``matching`` cannot be
    extended to a defect-d matching; ``blocker`` is a vertex set T of the
    remainder with more than |T| + d odd components left after its removal."""

    deleted: tuple[int, ...]
    matching: tuple[Edge, ...]
    blocker: tuple[int, ...]

    kind = "blocked-extension"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "deleted": list(self.deleted),
            "matching": [list(e) for e in self.matching],
            "blocker": list(self.blocker),
        }


@dataclass(frozen=True)
class CharacterizationViolation:
    """A subset breaking characterization condition "i" or "ii"."""

    condition: str
    subset: tuple[int, ...]

    kind = "characterization-violation"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "condition": self.condition, "subset": list(self.subset)}


Witness = Union[NoKMatching, BlockedExtension, CharacterizationViolation]


@dataclass(frozen=True)
class Verdict:
    """Decision result; carries a witness exactly when the property fails."""

    holds: bool
    witness: Witness | None = None

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


def _check_cap(g: Graph, cap: int | None, default: int, what: str) -> None:
    limit = default if cap is None else cap
    if g.order > limit:
        raise SearchCapExceeded(
            f"the exhaustive {what} is capped at {limit} vertices, graph has "
            f"{g.order}; pass a larger cap to accept the cost"
        )


def is_nkd_by_definition(g: Graph, params: NkdParams, cap: int | None = None) -> Verdict:
    """Decide straight from the definition by scanning every n-subset and
    every k-matching of its complement.

    Failure returns the first violation in deterministic order: deleted
    subsets lexicographic, matchings in canonical enumeration order; the
    blocking set of an inextensible matching is the smallest-first
    lexicographically least one.
    """
    validate_params(g, params)
    _check_cap(g, cap, DECIDER_CAP, "decider")
    n, k, d = params.as_tuple()
    nu = _engine.nu_table(g)
    full = _engine.full_mask(g)
    for subset in combinations(range(g.order), n):
        rest = full & ~_engine.mask_of(subset)
        if nu[rest] < k:
            return Verdict(False, NoKMatching(subset))
        for medges, mmask in _matchings_in_mask(g.edges, rest, k):
            rem = rest & ~mmask
            if rem.bit_count() - 2 * nu[rem] > d:
                blocker = _berge_blocker(g, rem, d)
                if blocker is None:
                    raise AssertionError("no blocking set found for a deficient subgraph")
                return Verdict(False, BlockedExtension(subset, medges, blocker))
    return Verdict(True)


def _char_summary(g: Graph) -> list[list[int]]:
    """summary[k][s]: the largest value of (odd components after deleting S)
    minus |S| over subsets S of size s whose induced subgraph has a
    k-matching; suffix-maximised over s so row lookups answer "any size >= s".

    A graph built by ``harness._derived`` carries a ``"derived_from"`` link
    to its parent; its summary is folded from the parent's tables with
    per-edit corrections (:func:`_derived_tables`) instead of its own, and
    the link is dropped so that no parent <-> child cycle survives."""

    def build():
        link = g._cache.pop("derived_from", None)
        if link is None:
            nu, odd = _engine.nu_table(g), _engine.odd_table(g)
        else:
            nu, odd = _derived_tables(g, *link)
        full = _engine.full_mask(g)
        top = nu[full]
        rows = [[_NEG] * (g.order + 2) for _ in range(top + 1)]
        for mask in range(full + 1):
            s = mask.bit_count()
            value = odd[full & ~mask] - s
            row = rows[nu[mask]]
            if value > row[s]:
                row[s] = value
        # a subset with a k-matching also has every smaller matching
        for kk in range(top - 1, -1, -1):
            upper = rows[kk + 1]
            row = rows[kk]
            for s in range(g.order + 1):
                if upper[s] > row[s]:
                    row[s] = upper[s]
        # suffix max over sizes
        for row in rows:
            for s in range(g.order - 1, -1, -1):
                if row[s + 1] > row[s]:
                    row[s] = row[s + 1]
        return rows

    return _engine.cached(g, "char_summary", build)


def _derived_tables(h: Graph, parent: Graph, method: str, args: tuple) -> tuple[list[int], list[int]]:
    """The ``nu`` and ``odd`` values of ``h == getattr(parent, method)(*args)``,
    corrected from the parent's tables rather than rebuilt.

    The two lists are transient copies for one summary fold and are never
    cached on ``h``.  Only subsets M holding both ends of an edited edge uv
    change.  ``nu[M]`` gains the edge (G + uv) or takes one matching step
    at u without it (G - uv).  The odd count changes only when u's
    component C without uv misses v: then uv merges C with v's component
    (G + uv) or was a bridge (G - uv), and the count is that of u's
    component in ``h`` plus the parent's count on the rest, which the edit
    does not touch.  For the cone with apex a, ``nu[M + a]`` is ``nu[M]``
    plus one when M leaves a vertex exposed, and R + a is connected.
    """
    _engine._require_table(h)
    nu, odd = _engine.nu_table(parent), _engine.odd_table(parent)
    if method == "cone":
        return (nu + [k + (m.bit_count() > 2 * k) for m, k in enumerate(nu)],
                odd + [(m.bit_count() + 1) & 1 for m in range(len(odd))])
    u, v = args
    adj_h = _engine.adjacency_masks(h)
    adj = _engine.adjacency_masks(parent) if method == "add_edge" else adj_h
    bu, bv = 1 << u, 1 << v
    both = bu | bv
    rest = _engine.full_mask(h) ^ both
    nu_h, odd_h = nu.copy(), odd.copy()
    x = rest
    while True:
        m = x | both
        k = nu[m]
        if method == "add_edge":
            if nu[x] >= k:
                nu_h[m] = k + 1
        elif nu[m ^ bu] < k:
            # every maximum matching of G[M] covers u: keep k only if one
            # uses an edge of u other than uv
            ws = adj_h[u] & m
            while ws:
                b = ws & -ws
                if nu[m ^ bu ^ b] == k - 1:
                    break
                ws ^= b
            else:
                nu_h[m] = k - 1
        # grow C layer by layer, stopping once a layer reaches v
        c = layer = bu
        while layer:
            grown = 0
            while layer:
                b = layer & -layer
                grown |= adj[b.bit_length() - 1]
                layer ^= b
            if grown & bv:
                break
            layer = grown & m & ~c
            c |= layer
        else:
            if method == "add_edge":
                c = _engine.spread(adj_h, c | bv, m)
            odd_h[m] = odd[m ^ c] + (c.bit_count() & 1)
        if not x:
            return nu_h, odd_h
        x = (x - 1) & rest


def _characterization_holds(g: Graph, n: int, k: int, d: int) -> bool:
    rows = _char_summary(g)
    if rows[0][n] > d - n:
        return False
    if k >= len(rows) or n + 2 * k > g.order:
        return True
    return rows[k][n + 2 * k] <= d - n - 2 * k


def nkd_holds(g: Graph, params: NkdParams, cap: int | None = None) -> bool:
    """Boolean-only characterization decision, cached on the graph instance.

    Same answer as :func:`is_nkd_by_characterization` without witness
    extraction; used where deciders are called in bulk.
    """
    validate_params(g, params)
    _check_cap(g, cap, DECIDER_CAP, "decider")
    return _engine.cached(g, ("nkd",) + params.as_tuple(),
                          lambda: _characterization_holds(g, *params.as_tuple()))


def is_nkd_by_characterization(g: Graph, params: NkdParams, cap: int | None = None) -> Verdict:
    """Decide via the subset-count characterization.

    Condition "i" is checked for every subset of size at least n and
    condition "ii" for every subset of size at least n + 2k whose induced
    subgraph contains a k-matching, with no pruning shortcuts.  Failure
    returns the first violation in size-then-lexicographic subset order
    (condition "i" tested before "ii" on each subset).
    """
    validate_params(g, params)
    _check_cap(g, cap, DECIDER_CAP, "decider")
    n, k, d = params.as_tuple()
    if _characterization_holds(g, n, k, d):
        return Verdict(True)
    nu = _engine.nu_table(g)
    odd = _engine.odd_table(g)
    full = _engine.full_mask(g)
    for size in range(n, g.order + 1):
        for subset in combinations(range(g.order), size):
            mask = _engine.mask_of(subset)
            o = odd[full & ~mask]
            if o > size - n + d:
                return Verdict(False, CharacterizationViolation("i", subset))
            if size >= n + 2 * k and nu[mask] >= k and o > size - n - 2 * k + d:
                return Verdict(False, CharacterizationViolation("ii", subset))
    raise AssertionError("summary table reported a violation the scan cannot find")


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
    except ValueError:
        return False


def _verify_witness(g: Graph, params: NkdParams, witness: Witness) -> bool:
    from .matching import maximum_matching
    from .structure import odd_count_after_deletion

    n, k, d = params.as_tuple()

    def nu_without(removed) -> int:
        sub, _ = g.delete_vertices(removed)
        return len(maximum_matching(sub))

    if isinstance(witness, NoKMatching):
        return len(witness.deleted) == n and nu_without(witness.deleted) < k

    if isinstance(witness, BlockedExtension):
        if len(witness.deleted) != n or len(witness.matching) != k:
            return False
        body = Matching(witness.matching)
        body.validate(g)
        deleted = set(witness.deleted)
        if deleted & body.vertices():
            return False
        removed = deleted | body.vertices()
        blocker = set(witness.blocker)
        if blocker & removed:
            return False
        o = odd_count_after_deletion(g, removed | blocker)
        return o > len(blocker) + d

    if isinstance(witness, CharacterizationViolation):
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


@dataclass(frozen=True)
class DecompositionWitness:
    """A separator S of size n - 2 + 2k whose removal leaves d factor-critical
    odd components plus the bare distinguished edge.

    ``variant`` records which matching requirement the separator met inside
    its induced subgraph: "d1" demands a k-matching, "d3" a (k-1)-matching;
    ``separator_matching`` is the first such matching in canonical order.
    All coordinates are in the host graph's vertex ids.
    """

    separator: tuple[int, ...]
    edge: Edge
    variant: str
    odd_components: tuple[tuple[int, ...], ...]
    separator_matching: tuple[Edge, ...]

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
    The answer is a lookup into the graph's separator layer for that size
    (see :func:`_separator_layer`), built on first use and cached.
    """
    edge, variant, need, size = _decomposition_query(g, params, edge, variant, cap)
    uv_mask = (1 << edge[0]) | (1 << edge[1])
    for subset, smask, nu_s in _separator_layer(g, size).get((params.d, uv_mask), ()):
        if nu_s >= need:
            return _decomposition_witness(g, subset, smask, edge, variant, need)
    return None


def _decomposition_query(g: Graph, params: NkdParams, edge: Edge, variant: str,
                         cap: int | None) -> tuple[Edge, str, int, int]:
    """Validate a separator query; returns (edge, variant, need, size) with
    the edge's endpoints in increasing order, the variant lower-cased,
    ``need`` the matching size the separator must hold and ``size`` its
    order."""
    variant = variant.lower()
    if variant not in ("d1", "d3"):
        raise ParameterError(f"variant must be 'd1' or 'd3', got {variant!r}")
    n, k = params.n, params.k
    if variant == "d1" and n < 2:
        raise ParameterError(f"the d1 search needs n >= 2, got n={n}")
    if variant == "d3" and k < 1:
        raise ParameterError(f"the d3 search needs k >= 1, got k={k}")
    validate_params(g, params)
    _check_cap(g, cap, WITNESS_SEARCH_CAP, "decomposition search")
    u, v = edge
    if not g.has_edge(u, v):
        raise ParameterError(f"({u}, {v}) is not an edge of the graph")
    need = k if variant == "d1" else k - 1
    return (min(u, v), max(u, v)), variant, need, n - 2 + 2 * k


def _decomposition_witness(g: Graph, subset: tuple[int, ...], smask: int,
                           edge: Edge, variant: str, need: int) -> DecompositionWitness:
    uv_mask = (1 << edge[0]) | (1 << edge[1])
    rest = _engine.full_mask(g) & ~smask
    comps = _engine.component_split(_engine.adjacency_masks(g), rest)
    odd_comps = tuple(tuple(_engine.bits_of(c)) for c in comps if c != uv_mask)
    inner = next(_matchings_in_mask(g.edges, smask, need))[0]
    return DecompositionWitness(subset, edge, variant, odd_comps, inner)


def _separator_layer(g: Graph, size: int) -> dict[tuple[int, int], list]:
    """Every separator S of ``size`` vertices such that G - S is exactly one
    bare edge plus factor-critical odd components.

    Keyed by (number of odd components, edge mask); each list holds
    ``(subset, smask, nu[S])`` in lexicographic subset order, so the first
    entry meeting a matching requirement is the one a subset scan finds.
    Built once per (graph, size) with one flood fill per component.
    """

    def build():
        nu = _engine.nu_table(g)
        adj = _engine.adjacency_masks(g)
        full = _engine.full_mask(g)
        layer: dict[tuple[int, int], list] = {}
        for subset in combinations(range(g.order), size):
            smask = _engine.mask_of(subset)
            rest = full & ~smask
            edge = odd = 0
            while rest:
                comp = _engine.spread(adj, rest & -rest, rest)
                rest ^= comp
                bits = comp.bit_count()
                if bits & 1:
                    if not _engine.factor_critical_mask(g, comp):
                        break
                    odd += 1
                elif edge or bits != 2:
                    break
                else:
                    edge = comp
            else:
                if edge:
                    layer.setdefault((odd, edge), []).append((subset, smask, nu[smask]))
        return layer

    return _engine.cached(g, ("separator_layer", size), build)


def _scan_decomposition_witness(
    g: Graph,
    params: NkdParams,
    edge: Edge,
    variant: str,
    cap: int | None = None,
) -> DecompositionWitness | None:
    """Subset-scan oracle for :func:`find_decomposition_witness`: the same
    answer, searched afresh per query without the separator layer.

    Scans all subsets of size n - 2 + 2k avoiding the edge's endpoints, in
    lexicographic order, and returns the first whose induced subgraph holds
    the required matching while the rest of the graph splits into exactly d
    factor-critical odd components plus the bare edge.
    """
    edge, variant, need, size = _decomposition_query(g, params, edge, variant, cap)
    d = params.d
    others = [w for w in range(g.order) if w not in edge]
    nu = _engine.nu_table(g)
    adj = _engine.adjacency_masks(g)
    full = _engine.full_mask(g)
    uv_mask = (1 << edge[0]) | (1 << edge[1])
    for subset in combinations(others, size):
        smask = _engine.mask_of(subset)
        if nu[smask] < need:
            continue
        comps = _engine.component_split(adj, full & ~smask)
        if len(comps) != d + 1 or uv_mask not in comps:
            continue
        if all(
            c.bit_count() & 1 and _engine.factor_critical_mask(g, c)
            for c in comps
            if c != uv_mask
        ):
            return _decomposition_witness(g, subset, smask, edge, variant, need)
    return None


def verify_decomposition_witness(g: Graph, params: NkdParams, w: DecompositionWitness) -> bool:
    """Independent re-check of a decomposition witness via the public
    matching/structure operations.  Malformed witnesses yield False."""
    try:
        return _verify_decomposition_witness(g, params, w)
    except ValueError:
        return False


def _verify_decomposition_witness(g: Graph, params: NkdParams, w: DecompositionWitness) -> bool:
    from .matching import maximum_matching
    from .structure import components, is_factor_critical

    n, k, d = params.as_tuple()
    u, v = w.edge
    if not g.has_edge(u, v):
        return False
    if len(w.separator) != n - 2 + 2 * k or {u, v} & set(w.separator):
        return False
    need = k if w.variant == "d1" else k - 1
    inner = Matching(w.separator_matching)
    inner.validate(g)
    if len(inner) != need or not inner.vertices() <= set(w.separator):
        return False
    sub, old_ids = g.delete_vertices(w.separator)
    profile = components(sub)
    comps = [tuple(old_ids[x] for x in comp) for comp in profile]
    if tuple(sorted((u, v))) not in [tuple(sorted(c)) for c in comps if len(c) == 2]:
        return False
    odd = [c for c in comps if len(c) % 2 == 1]
    if len(comps) != d + 1 or len(odd) != d:
        return False
    if sorted(odd) != sorted(w.odd_components):
        return False
    for comp in odd:
        piece, _ = g.induced_subgraph(comp)
        if not is_factor_critical(piece):
            return False
    sep, _ = g.induced_subgraph(w.separator)
    return len(maximum_matching(sep)) >= need
