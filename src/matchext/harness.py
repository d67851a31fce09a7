"""Executable checkers for the recursive parameter rules, run over censuses.

Each checker takes a graph and a parameter triple, classifies the instance
as applicable or inapplicable (recording the unmet precondition by name),
and asserts the rule's conclusion on the derived graphs.  The census runner
sweeps every valid triple of every stream graph through a selection of
checkers and aggregates deterministic reports; a violation is re-checked
from scratch on freshly built graphs before being reported.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field

from .decision import (
    NkdParams,
    WITNESS_SEARCH_CAP,
    _scan_decomposition_witness,
    find_decomposition_witness,
    is_nkd_by_characterization,
    nkd_holds,
    validate_params,
)
from .errors import FormatError, ParameterError, SearchCapExceeded
from .graph import Edge, Graph
from .graphio import read_graph6, write_graph6
from .structure import is_bipartite

THEOREM_IDS = ("A3", "A4", "A5", "A6i", "A6ii", "B1", "B2", "C1", "D1", "D2", "D3")

#: Census refusal threshold: the decomposition searches inside D1/D3 make
#: anything larger impractical without an explicit override.
CENSUS_ORDER_CAP = WITNESS_SEARCH_CAP


@dataclass
class Violation:
    graph_index: int
    graph6: str
    params: tuple[int, int, int]
    context: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "graph_index": self.graph_index,
            "graph6": self.graph6,
            "params": list(self.params),
            "context": self.context,
            "detail": self.detail,
        }


@dataclass
class TheoremReport:
    theorem: str
    graphs_examined: int = 0
    applicable: int = 0
    inapplicable: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def skip(self, reason: str) -> None:
        self.inapplicable[reason] = self.inapplicable.get(reason, 0) + 1

    def merge(self, other: "TheoremReport") -> None:
        self.graphs_examined += other.graphs_examined
        self.applicable += other.applicable
        for reason, count in other.inapplicable.items():
            self.inapplicable[reason] = self.inapplicable.get(reason, 0) + count
        self.violations.extend(other.violations)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "graphs_examined": self.graphs_examined,
            "applicable": self.applicable,
            "inapplicable": dict(sorted(self.inapplicable.items())),
            "violations": [v.to_dict() for v in self.violations],
            "passed": self.passed,
        }


# -- shared helpers ----------------------------------------------------------


def _params_ok(g: Graph, p: NkdParams) -> bool:
    try:
        validate_params(g, p)
        return True
    except ParameterError:
        return False


def _derived(g: Graph, kind: str, *args) -> Graph:
    """Derived graphs cached on the parent so their subset tables are shared
    across checkers and triples."""
    key = ("derived", kind) + args
    cache = g._cache
    if key not in cache:
        if kind == "del_edge":
            cache[key] = g.delete_edge(*args)
        elif kind == "add_edge":
            cache[key] = g.add_edge(*args)
        elif kind == "cone":
            cache[key] = g.cone()
        else:
            raise ValueError(kind)
    return cache[key]


def _recheck_holds(g: Graph, p: NkdParams, cap: int | None) -> bool:
    """Decide again from scratch: a freshly built graph carries no caches, so
    a violation caused by a stale table would fail to reproduce."""
    fresh = Graph(g.order, g.edges)
    return is_nkd_by_characterization(fresh, p, cap=cap).holds


class _Ctx:
    """Reporting context for one (graph, params) check."""

    def __init__(self, g: Graph, graph_index: int, graph_ref: str | None):
        self.g = g
        self.index = graph_index
        self._ref = graph_ref

    @property
    def ref(self) -> str:
        if self._ref is None:
            self._ref = write_graph6(self.g)
        return self._ref

    def violation(self, rep: TheoremReport, p: NkdParams, context: str, detail: str):
        rep.violations.append(
            Violation(self.index, self.ref, p.as_tuple(), context, detail)
        )


def _conclusion(ctx: _Ctx, rep: TheoremReport, host: Graph, p: NkdParams,
                target: NkdParams, context: str, cap: int | None) -> None:
    """Assert that ``host`` satisfies ``target``; report (after an
    independent recheck) when it does not."""
    if nkd_holds(host, target, cap=cap):
        return
    if _recheck_holds(host, target, cap):
        raise RuntimeError(
            f"non-reproducible violation at {context}: cached decision said "
            f"fails, fresh decision says holds"
        )
    ctx.violation(
        rep, p, context,
        f"derived graph is not a ({target.n},{target.k},{target.d})-graph",
    )


# -- individual checkers -----------------------------------------------------


def _edge_addition(tid: str, g: Graph, p: NkdParams, cap, ctx: _Ctx,
                   require_d0: bool) -> TheoremReport:
    rep = TheoremReport(tid, graphs_examined=1)
    if require_d0 and p.d != 0:
        rep.skip("d!=0")
        return rep
    if not p.n > p.d:
        rep.skip("n<=d")
        return rep
    if p.k < 1:
        rep.skip("k<1")
        return rep
    if not _params_ok(g, p):
        rep.skip("invalid-params")
        return rep
    if not nkd_holds(g, p, cap=cap):
        rep.skip("not-an-nkd-graph")
        return rep
    rep.applicable = 1
    target = NkdParams(p.n, p.k - 1, p.d)
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if g.has_edge(u, v):
                continue
            added = _derived(g, "add_edge", u, v)
            _conclusion(ctx, rep, added, p, target, f"non-edge {u}-{v}", cap)
    return rep


def check_B1(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """n > d, k >= 1: adding any missing edge keeps (n, k-1, d)."""
    return _edge_addition("B1", g, p, cap, _Ctx(g, graph_index, graph_ref), False)


def check_A5(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """The d = 0 restriction of the edge-addition rule, reported separately."""
    return _edge_addition("A5", g, p, cap, _Ctx(g, graph_index, graph_ref), True)


def _param_shift(tid: str, g: Graph, p: NkdParams, cap, ctx: _Ctx,
                 require_d0: bool) -> TheoremReport:
    rep = TheoremReport(tid, graphs_examined=1)
    if require_d0 and p.d != 0:
        rep.skip("d!=0")
        return rep
    if not p.n > p.d:
        rep.skip("n<=d")
        return rep
    if p.k < 2:
        rep.skip("k<2")
        return rep
    if not _params_ok(g, p):
        rep.skip("invalid-params")
        return rep
    target = NkdParams(p.n + 2, p.k - 2, p.d)
    if not _params_ok(g, target):
        rep.skip("target-params-invalid")
        return rep
    if not nkd_holds(g, p, cap=cap):
        rep.skip("not-an-nkd-graph")
        return rep
    rep.applicable = 1
    _conclusion(ctx, rep, g, p, target, f"shifted params ({target.n},{target.k},{target.d})", cap)
    return rep


def check_B2(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """n > d, k >= 2: the same graph also satisfies (n+2, k-2, d)."""
    return _param_shift("B2", g, p, cap, _Ctx(g, graph_index, graph_ref), False)


def check_A4(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """The d = 0 restriction of the parameter-shift rule."""
    return _param_shift("A4", g, p, cap, _Ctx(g, graph_index, graph_ref), True)


def check_A3(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """Downward closure: (n, k, d) implies (n', k', d) for n' <= n of the
    same parity and k' <= k."""
    ctx = _Ctx(g, graph_index, graph_ref)
    rep = TheoremReport("A3", graphs_examined=1)
    if not _params_ok(g, p):
        rep.skip("invalid-params")
        return rep
    if not nkd_holds(g, p, cap=cap):
        rep.skip("not-an-nkd-graph")
        return rep
    rep.applicable = 1
    for n2 in range(p.n % 2, p.n + 1, 2):
        for k2 in range(p.k + 1):
            target = NkdParams(n2, k2, p.d)
            if not _params_ok(g, target):
                continue  # cannot happen: constraints only loosen
            _conclusion(ctx, rep, g, p, target, f"lowered params ({n2},{k2},{p.d})", cap)
    return rep


def check_C1(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """k > 0, n > d: adding a dominating vertex gives (n+1, k-1, d)."""
    ctx = _Ctx(g, graph_index, graph_ref)
    rep = TheoremReport("C1", graphs_examined=1)
    if p.k < 1:
        rep.skip("k<1")
        return rep
    if not p.n > p.d:
        rep.skip("n<=d")
        return rep
    if not _params_ok(g, p):
        rep.skip("invalid-params")
        return rep
    coned = _derived(g, "cone")
    target = NkdParams(p.n + 1, p.k - 1, p.d)
    if not _params_ok(coned, target):
        rep.skip("target-params-invalid")
        return rep
    if not nkd_holds(g, p, cap=cap):
        rep.skip("not-an-nkd-graph")
        return rep
    rep.applicable = 1
    _conclusion(ctx, rep, coned, p, target, "cone", cap)
    return rep


def _edge_deletion_universal(tid: str, g: Graph, p: NkdParams, cap, ctx: _Ctx,
                             target: NkdParams, preconditions) -> TheoremReport:
    rep = TheoremReport(tid, graphs_examined=1)
    for ok, reason in preconditions:
        if not ok:
            rep.skip(reason)
            return rep
    if not _params_ok(g, p):
        rep.skip("invalid-params")
        return rep
    if not nkd_holds(g, p, cap=cap):
        rep.skip("not-an-nkd-graph")
        return rep
    rep.applicable = 1
    for u, v in g.edges:
        deleted = _derived(g, "del_edge", u, v)
        _conclusion(ctx, rep, deleted, p, target, f"edge {u}-{v}", cap)
    return rep


def check_A6i(g: Graph, p: NkdParams, cap: int | None = None,
              graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """d = 0, n >= 2, k >= 1: deleting any edge keeps (n-2, k, 0)."""
    return _edge_deletion_universal(
        "A6i", g, p, cap, _Ctx(g, graph_index, graph_ref),
        NkdParams(max(p.n - 2, 0), p.k, p.d),
        [(p.d == 0, "d!=0"), (p.n >= 2, "n<2"), (p.k >= 1, "k<1")],
    )


def check_A6ii(g: Graph, p: NkdParams, cap: int | None = None,
               graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """d = 0, n >= 2, k >= 1: deleting any edge keeps (n, k-1, 0)."""
    return _edge_deletion_universal(
        "A6ii", g, p, cap, _Ctx(g, graph_index, graph_ref),
        NkdParams(p.n, max(p.k - 1, 0), p.d),
        [(p.d == 0, "d!=0"), (p.n >= 2, "n<2"), (p.k >= 1, "k<1")],
    )


def check_D2(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """Bipartite, n >= 2: deleting any edge keeps (n-2, k, d)."""
    return _edge_deletion_universal(
        "D2", g, p, cap, _Ctx(g, graph_index, graph_ref),
        NkdParams(max(p.n - 2, 0), p.k, p.d),
        [(is_bipartite(g), "not-bipartite"), (p.n >= 2, "n<2")],
    )


def _recheck_iff(g: Graph, p: NkdParams, edge: Edge, variant: str,
                 target: NkdParams, cap) -> tuple[bool, bool]:
    """Recompute the two sides of a deletion iff on freshly built graphs; the
    separator side uses the subset scan, not the separator layer, so a wrong
    layer cannot confirm its own answer."""
    fresh = Graph(g.order, g.edges)
    fails = not is_nkd_by_characterization(
        fresh.delete_edge(*edge), target, cap=cap
    ).holds
    witness = _scan_decomposition_witness(fresh, p, edge, variant, cap=cap)
    return fails, witness is not None


def _edge_deletion_iff(tid: str, g: Graph, p: NkdParams, cap, ctx: _Ctx,
                       variant: str, target: NkdParams, degree_bound: int | None,
                       preconditions) -> TheoremReport:
    rep = TheoremReport(tid, graphs_examined=1)
    for ok, reason in preconditions:
        if not ok:
            rep.skip(reason)
            return rep
    if not _params_ok(g, p):
        rep.skip("invalid-params")
        return rep
    if not nkd_holds(g, p, cap=cap):
        rep.skip("not-an-nkd-graph")
        return rep
    rep.applicable = 1
    for u, v in g.edges:
        if degree_bound is not None and max(g.degree(u), g.degree(v)) < degree_bound:
            continue  # outside the rule's scope
        deleted = _derived(g, "del_edge", u, v)
        fails = not nkd_holds(deleted, target, cap=cap)
        witness = find_decomposition_witness(g, p, (u, v), variant, cap=cap)
        if fails != (witness is not None):
            re_fails, re_witness = _recheck_iff(g, p, (u, v), variant, target, cap)
            if re_fails != fails or re_witness != (witness is not None):
                raise RuntimeError(
                    f"non-reproducible violation at edge {u}-{v} of graph "
                    f"{ctx.index}: cached and fresh runs disagree"
                )
            side = (
                "deletion fails but no separator decomposition exists"
                if fails
                else "separator decomposition exists but deletion succeeds"
            )
            ctx.violation(rep, p, f"edge {u}-{v}", side)
        if p.d == 0 and witness is not None:
            ctx.violation(
                rep, p, f"edge {u}-{v}",
                "separator decomposition found at d = 0, which the size rule forbids",
            )
    return rep


def check_D1(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """n >= 2: deleting an edge destroys (n-2, k, d) exactly when a separator
    decomposition for that edge exists (k-matching variant)."""
    return _edge_deletion_iff(
        "D1", g, p, cap, _Ctx(g, graph_index, graph_ref), "d1",
        NkdParams(max(p.n - 2, 0), p.k, p.d), None,
        [(p.n >= 2, "n<2")],
    )


def check_D3(g: Graph, p: NkdParams, cap: int | None = None,
             graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
    """k >= 1: for edges with an endpoint of degree >= 2k, deleting the edge
    destroys (n, k-1, d) exactly when a separator decomposition exists
    ((k-1)-matching variant)."""
    return _edge_deletion_iff(
        "D3", g, p, cap, _Ctx(g, graph_index, graph_ref), "d3",
        NkdParams(p.n, max(p.k - 1, 0), p.d), 2 * p.k,
        [(p.k >= 1, "k<1")],
    )


CHECKERS = {
    "A3": check_A3,
    "A4": check_A4,
    "A5": check_A5,
    "A6i": check_A6i,
    "A6ii": check_A6ii,
    "B1": check_B1,
    "B2": check_B2,
    "C1": check_C1,
    "D1": check_D1,
    "D2": check_D2,
    "D3": check_D3,
}


# -- census runner -----------------------------------------------------------


def valid_triples(order: int) -> list[NkdParams]:
    """All (n, k, d) satisfying the size and parity rules for this order,
    sorted by (n, k, d)."""
    out = []
    for n in range(max(order - 1, 0)):
        for d in range(max(order - 1 - n, 0)):
            if (order - n - d) % 2:
                continue
            for k in range((order - 2 - n - d) // 2 + 1):
                out.append(NkdParams(n, k, d))
    out.sort(key=NkdParams.as_tuple)
    return out


@dataclass
class CensusResult:
    graphs: int
    skipped_over_max_order: int
    decode_errors: list[tuple[int, str]]
    reports: dict[str, TheoremReport]

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.reports.values())

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def to_dict(self) -> dict:
        return {
            "graphs": self.graphs,
            "skipped_over_max_order": self.skipped_over_max_order,
            "decode_errors": [
                {"line": line, "error": msg} for line, msg in self.decode_errors
            ],
            "theorems": {tid: rep.to_dict() for tid, rep in self.reports.items()},
            "violations_total": self.total_violations,
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"graphs examined: {self.graphs}",
            f"decode errors: {len(self.decode_errors)}",
            f"skipped (over max order): {self.skipped_over_max_order}",
        ]
        for tid, rep in self.reports.items():
            status = "pass" if rep.passed else "FAIL"
            lines.append(
                f"{tid:<5} {status}  applicable={rep.applicable}  "
                f"violations={len(rep.violations)}"
            )
        lines.append(f"violations total: {self.total_violations}")
        return lines


def check_graph(g: Graph, theorems=THEOREM_IDS, cap: int | None = None,
                graph_index: int = 0, graph_ref: str | None = None) -> dict[str, TheoremReport]:
    """Run the selected checkers over every valid triple of one graph."""
    if graph_ref is None:
        graph_ref = write_graph6(g)
    out = {tid: TheoremReport(tid, graphs_examined=1) for tid in theorems}
    for p in valid_triples(g.order):
        for tid in theorems:
            instance = CHECKERS[tid](
                g, p, cap=cap, graph_index=graph_index, graph_ref=graph_ref
            )
            instance.graphs_examined = 0
            out[tid].merge(instance)
    return out


def _census_worker(payload):
    index, lineno, line, theorems, max_order, cap = payload
    try:
        g = read_graph6(line)
    except FormatError as exc:
        return (index, lineno, None, str(exc), None)
    if g.order > max_order:
        return (index, lineno, line.strip(), None, None)
    return (index, lineno, line.strip(), None, check_graph(
        g, theorems, cap=cap, graph_index=index, graph_ref=line.strip()
    ))


def run_census(lines, theorems=THEOREM_IDS, max_order: int | None = None,
               cap: int | None = None, jobs: int = 1,
               allow_large: bool = False) -> CensusResult:
    """Run checkers over a graph6 stream.

    ``lines`` is any iterable of graph6 lines; blank lines and a leading
    '>>graph6<<' header are ignored.  Decode failures become per-line
    diagnostics and processing continues.  Graphs larger than ``max_order``
    are counted but not processed.  ``jobs > 1`` fans graphs out to worker
    processes; reports are aggregated in input order either way.  ``jobs``
    must lie in 1..os.cpu_count().
    """
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ParameterError(
            f"jobs rule violated: jobs must be between 1 and the CPU count "
            f"{cpus}, got {jobs}"
        )
    unknown = [t for t in theorems if t not in CHECKERS]
    if unknown:
        raise ParameterError(f"unknown theorem ids: {', '.join(unknown)}")
    theorems = tuple(theorems)
    if max_order is None:
        max_order = CENSUS_ORDER_CAP
    if max_order > CENSUS_ORDER_CAP and not allow_large:
        raise SearchCapExceeded(
            f"census max order {max_order} exceeds the default cap of "
            f"{CENSUS_ORDER_CAP}; pass allow_large to accept the cost"
        )
    effective_cap = cap if cap is not None else max(max_order + 1, CENSUS_ORDER_CAP)

    payloads = []
    index = 0
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped == ">>graph6<<":
            continue
        payloads.append((index, lineno, raw, theorems, max_order, effective_cap))
        index += 1

    if jobs > 1 and len(payloads) > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_census_worker, payloads, chunksize=16)
    else:
        results = [_census_worker(p) for p in payloads]

    reports = {tid: TheoremReport(tid) for tid in theorems}
    decode_errors: list[tuple[int, str]] = []
    graphs = 0
    skipped = 0
    for _index, lineno, _ref, error, per_theorem in results:
        if error is not None:
            decode_errors.append((lineno, error))
            continue
        if per_theorem is None:
            skipped += 1
            continue
        graphs += 1
        for tid in theorems:
            reports[tid].merge(per_theorem[tid])
    return CensusResult(graphs, skipped, decode_errors, reports)
