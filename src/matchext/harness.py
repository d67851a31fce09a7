"""Executable checkers for the recursive parameter rules, run over censuses.

Every rule is one :class:`Rule` spec in the ``RULES`` table: its ordered
preconditions, the hosts it speaks about as edits of the graph (the graph
itself with lowered or shifted parameters, the graph with one edge added or
deleted, or the cone) with a target triple for each, and, for the two
edge-deletion iff rules D1/D3, the separator-decomposition variant.  One
runner, :func:`_run_rule`, rejects an invalid triple with ParameterError,
classifies a valid instance as applicable or inapplicable (recording the
first unmet precondition by name, then ``not-an-nkd-graph``) and checks the
conclusion on every host; a violation is re-checked from scratch on freshly
built graphs before being reported.  ``CHECKERS`` maps each id to
``check_<id>``, which adds one instance into the report it is given (or a
fresh one-graph report).  The census gives each rule one report per graph,
which every valid triple adds into, decides the graph's own verdict once
per triple for all rules, and merges those reports in stream order.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable

from . import _engine
from .decision import (
    DECIDER_CAP,
    NkdParams,
    WITNESS_SEARCH_CAP,
    _apply_edit,
    _check_cap,
    _edited_holds,
    _scan_decomposition_witness,
    _separator_sizes,
    _separator_witness,
    is_nkd_by_characterization,
    nkd_holds,
)
from .errors import FormatError, ParameterError, SearchCapExceeded
from .graph import Graph
from .graphio import graph6_records, read_graph6, write_graph6
from .structure import is_bipartite

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


# -- rule table --------------------------------------------------------------


def _lowered(g: Graph, p: NkdParams):
    for n2 in range(p.n % 2, p.n + 1, 2):
        for k2 in range(p.k + 1):
            yield f"lowered params ({n2},{k2},{p.d})", None, NkdParams(n2, k2, p.d), None


def _shifted(g: Graph, p: NkdParams):
    target = NkdParams(p.n + 2, p.k - 2, p.d)
    yield f"shifted params ({target.n},{target.k},{target.d})", None, target, None


def _added_edges(g: Graph, p: NkdParams):
    target = NkdParams(p.n, p.k - 1, p.d)
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if not g.has_edge(u, v):
                yield f"non-edge {u}-{v}", ("add_edge", u, v), target, (u, v)


def _cone(g: Graph, p: NkdParams):
    yield "cone", ("cone",), NkdParams(p.n + 1, p.k - 1, p.d), None


def _deleted_edges(dn: int, dk: int, degree_bound=None):
    """Hosts G - uv for every edge uv, with target (n - dn, k - dk, d); with
    ``degree_bound(p)`` only edges having an endpoint of at least that
    degree are in the rule's scope."""

    def hosts(g: Graph, p: NkdParams):
        target = NkdParams(p.n - dn, p.k - dk, p.d)
        rows = g.adjacency
        bound = 0 if degree_bound is None else degree_bound(p)
        for u, v in g.edges:
            if rows[u].bit_count() >= bound or rows[v].bit_count() >= bound:
                yield f"edge {u}-{v}", ("delete_edge", u, v), target, (u, v)

    return hosts


@dataclass(frozen=True)
class Rule:
    """One recursive parameter rule.

    ``preconditions`` are (reason, test(g, p)) pairs tried in order; the
    first failing test names the skip reason.  ``hosts(g, p)`` yields
    (context, edit, target triple, edge) for every graph the rule speaks
    about, as an edit of g: None for g itself, ``("add_edge", u, v)``,
    ``("delete_edge", u, v)`` or ``("cone",)``.  Without a ``variant`` each
    host must satisfy its target; with one ("d1" or "d3") the target fails
    on G - edge exactly when a separator decomposition of that variant
    exists for the edge.
    """

    doc: str
    preconditions: tuple
    hosts: Callable
    variant: str | None = None


_D0 = ("d!=0", lambda g, p: p.d == 0)
_N_ABOVE_D = ("n<=d", lambda g, p: p.n > p.d)
_N2 = ("n<2", lambda g, p: p.n >= 2)
_K1 = ("k<1", lambda g, p: p.k >= 1)
_K2 = ("k<2", lambda g, p: p.k >= 2)
_BIPARTITE = ("not-bipartite", lambda g, p: is_bipartite(g))

RULES = {
    "A3": Rule(
        "Downward closure: (n, k, d) implies (n', k', d) for n' <= n of the "
        "same parity and k' <= k.",
        (), _lowered,
    ),
    "A4": Rule("The d = 0 restriction of the parameter-shift rule.",
               (_D0, _N_ABOVE_D, _K2), _shifted),
    "A5": Rule("The d = 0 restriction of the edge-addition rule, reported separately.",
               (_D0, _N_ABOVE_D, _K1), _added_edges),
    "A6i": Rule("d = 0, n >= 2, k >= 1: deleting any edge keeps (n-2, k, 0).",
                (_D0, _N2, _K1), _deleted_edges(2, 0)),
    "A6ii": Rule("d = 0, n >= 2, k >= 1: deleting any edge keeps (n, k-1, 0).",
                 (_D0, _N2, _K1), _deleted_edges(0, 1)),
    "B1": Rule("n > d, k >= 1: adding any missing edge keeps (n, k-1, d).",
               (_N_ABOVE_D, _K1), _added_edges),
    "B2": Rule("n > d, k >= 2: the same graph also satisfies (n+2, k-2, d).",
               (_N_ABOVE_D, _K2), _shifted),
    "C1": Rule("k > 0, n > d: adding a dominating vertex gives (n+1, k-1, d).",
               (_K1, _N_ABOVE_D), _cone),
    "D1": Rule(
        "n >= 2: deleting an edge destroys (n-2, k, d) exactly when a separator "
        "decomposition for that edge exists (k-matching variant).",
        (_N2,), _deleted_edges(2, 0), "d1",
    ),
    "D2": Rule("Bipartite, n >= 2: deleting any edge keeps (n-2, k, d).",
               (_BIPARTITE, _N2), _deleted_edges(2, 0)),
    "D3": Rule(
        "k >= 1: for edges with an endpoint of degree >= 2k, deleting the edge "
        "destroys (n, k-1, d) exactly when a separator decomposition exists "
        "((k-1)-matching variant).",
        (_K1,), _deleted_edges(0, 1, degree_bound=lambda p: 2 * p.k), "d3",
    ),
}

THEOREM_IDS = tuple(RULES)


def _run_rule(tid: str, g: Graph, p: NkdParams, cap: int | None, graph_index: int,
              rep: TheoremReport, holds: bool | None) -> None:
    """Add one instance of rule ``tid`` into ``rep``.  ``holds`` is the
    graph's own verdict on ``p``, as :func:`nkd_holds` decided it with this
    ``cap``; when it is None it is decided here first, and that is the
    instance's only validation of its triple, so an invalid triple raises
    before any precondition runs.  An unmet precondition is still the
    reason recorded, ahead of ``not-an-nkd-graph``.

    Every host target is valid when the triple is and the preconditions
    pass, and every edge comes from the graph, so hosts are decided as
    edits of g by :func:`_edited_holds` and searched by
    :func:`_separator_witness`, unvalidated.  The graph's own verdict
    passed the decider cap, and so does every host of its order, so the
    cap is checked again only on the cone, after the table limit that its
    rows meet first; the search cap is checked once, after the first host
    is decided.  A
    violation is decided again on a host rebuilt by the same edit of a
    freshly built copy of g, which carries no caches, and its separator
    side by the subset scan, so a wrong separator search cannot confirm its
    own answer."""
    if holds is None:
        holds = nkd_holds(g, p, cap=cap)
    rule = RULES[tid]
    for reason, test in rule.preconditions:
        if not test(g, p):
            rep.skip(reason)
            return
    if not holds:
        rep.skip("not-an-nkd-graph")
        return
    rep.applicable += 1

    def violation(context: str, detail: str) -> None:
        rep.violations.append(Violation(graph_index, write_graph6(g), p.as_tuple(), context, detail))

    def host_holds(edit, target: NkdParams) -> bool:
        if edit == ("cone",):
            _engine._require_table(g.order + 1)
            _check_cap(g.order + 1, cap, DECIDER_CAP, "decider")
        return _edited_holds(g, edit, target.n, target.k, target.d)

    if rule.variant is None:
        for context, edit, target, edge in rule.hosts(g, p):
            if host_holds(edit, target):
                continue
            fresh = _apply_edit(Graph(g.order, g.edges), edit)
            if is_nkd_by_characterization(fresh, target, cap=cap).holds:
                raise RuntimeError(
                    f"non-reproducible violation at {context}: cached decision said "
                    f"fails, fresh decision says holds"
                )
            violation(context, f"derived graph is not a ({target.n},{target.k},{target.d})-graph")
        return
    need, size = _separator_sizes(p.n, p.k, rule.variant)
    for i, (context, edit, target, edge) in enumerate(rule.hosts(g, p)):
        fails = not host_holds(edit, target)
        if not i:
            _check_cap(g.order, cap, WITNESS_SEARCH_CAP, "decomposition search")
        witness = _separator_witness(g, p.d, edge, rule.variant, need, size)
        if fails != (witness is not None):
            fresh = Graph(g.order, g.edges)
            re_fails = not is_nkd_by_characterization(_apply_edit(fresh, edit), target, cap=cap).holds
            re_witness = _scan_decomposition_witness(fresh, p, edge, rule.variant, cap=cap)
            if re_fails != fails or (re_witness is None) != (witness is None):
                raise RuntimeError(
                    f"non-reproducible violation at {context} of graph "
                    f"{graph_index}: cached and fresh runs disagree"
                )
            violation(context, "deletion fails but no separator decomposition exists"
                      if fails else "separator decomposition exists but deletion succeeds")
        if p.d == 0 and witness is not None:
            violation(context, "separator decomposition found at d = 0, which the size rule forbids")


def _checker(tid: str):
    def check(g: Graph, p: NkdParams, cap: int | None = None, graph_index: int = 0,
              report: TheoremReport | None = None, holds: bool | None = None) -> TheoremReport:
        if report is None:
            report = TheoremReport(tid, graphs_examined=1)
        _run_rule(tid, g, p, cap, graph_index, report, holds)
        return report

    check.__name__ = check.__qualname__ = f"check_{tid}"
    check.__doc__ = RULES[tid].doc
    return check


#: ``check_graph`` dispatches through this dict at call time, so an entry
#: replaced in place (for example by a tracer) is the one that runs.
CHECKERS = {tid: _checker(tid) for tid in RULES}
(check_A3, check_A4, check_A5, check_A6i, check_A6ii, check_B1, check_B2,
 check_C1, check_D1, check_D2, check_D3) = CHECKERS.values()


# -- census runner -----------------------------------------------------------


def valid_triples(order: int) -> list[NkdParams]:
    """All (n, k, d) satisfying the size and parity rules for this order,
    sorted by (n, k, d)."""
    return list(_valid_triples(order))


@functools.cache
def _valid_triples(order: int) -> tuple[NkdParams, ...]:
    """:func:`valid_triples` as a tuple built once per order; the frozen
    triples are shared by every graph of that order."""
    out = []
    for n in range(max(order - 1, 0)):
        for d in range(max(order - 1 - n, 0)):
            if (order - n - d) % 2:
                continue
            for k in range((order - 2 - n - d) // 2 + 1):
                out.append(NkdParams(n, k, d))
    out.sort(key=NkdParams.as_tuple)
    return tuple(out)


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


def _theorem_ids(theorems) -> tuple[str, ...]:
    """``theorems`` as a tuple; ParameterError names any unknown or repeated
    id."""
    theorems = tuple(theorems)
    unknown = [t for t in theorems if t not in CHECKERS]
    if unknown:
        raise ParameterError(f"unknown theorem ids: {', '.join(map(repr, unknown))}")
    repeated = dict.fromkeys(t for t in theorems if theorems.count(t) > 1)
    if repeated:
        raise ParameterError(f"repeated theorem ids: {', '.join(map(repr, repeated))}")
    return theorems


def check_graph(g: Graph, theorems=THEOREM_IDS, cap: int | None = None,
                graph_index: int = 0) -> dict[str, TheoremReport]:
    """Run the selected checkers over every valid triple of one graph.  The
    graph's own verdict is decided once per triple and handed to each.
    Unknown or repeated theorem ids raise ParameterError."""
    out = {tid: TheoremReport(tid, graphs_examined=1) for tid in _theorem_ids(theorems)}
    for p in _valid_triples(g.order) if out else ():
        holds = nkd_holds(g, p, cap=cap)
        for tid, report in out.items():
            CHECKERS[tid](g, p, cap=cap, graph_index=graph_index, report=report,
                          holds=holds)
    return out


def _census_worker(item, theorems, max_order, cap):
    """Decode and check one numbered graph6 record: ``(lineno, decode error,
    per-theorem reports)``, with no reports for a graph over ``max_order``."""
    index, (lineno, record) = item
    try:
        g = read_graph6(record)
    except FormatError as exc:
        return lineno, str(exc), None
    if g.order > max_order:
        return lineno, None, None
    return lineno, None, check_graph(g, theorems, cap=cap, graph_index=index)


def run_census(lines, theorems=THEOREM_IDS, max_order: int | None = None,
               jobs: int = 1, allow_large: bool = False) -> CensusResult:
    """Run checkers over a graph6 stream.

    ``lines`` is any iterable of graph6 lines, such as an open text file,
    and is consumed lazily: each graph is decoded, checked and merged into
    the reports as its result arrives, so memory holds the reports, not the
    stream.  Records are read by :func:`graphio.graph6_records`, which
    numbers every line.  Decode failures become per-line diagnostics
    and processing continues.  Graphs larger than ``max_order`` are counted
    but not processed; the deciders' order cap is ``max_order + 1`` or
    ``CENSUS_ORDER_CAP``, whichever is larger.  ``jobs > 1`` checks graphs
    in a pool of worker processes; results are merged in input order either
    way.  ``jobs`` must lie in 1..os.cpu_count(), and ``max_order`` must
    not be negative.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ParameterError(
            f"jobs rule violated: jobs must be between 1 and the CPU count "
            f"{cpus}, got {jobs}"
        )
    theorems = _theorem_ids(theorems)
    if max_order is None:
        max_order = CENSUS_ORDER_CAP
    if max_order < 0:
        raise ParameterError(f"census max order must be non-negative, got {max_order}")
    if max_order > CENSUS_ORDER_CAP and not allow_large:
        raise SearchCapExceeded(
            f"census max order {max_order} exceeds the default cap of "
            f"{CENSUS_ORDER_CAP}; pass allow_large to accept the cost"
        )
    work = functools.partial(_census_worker, theorems=theorems, max_order=max_order,
                             cap=max(max_order + 1, CENSUS_ORDER_CAP))
    items = enumerate(graph6_records(lines))

    result = CensusResult(0, 0, [], {tid: TheoremReport(tid) for tid in theorems})
    pool = multiprocessing.Pool(jobs) if jobs > 1 else None
    with pool or contextlib.nullcontext():
        results = pool.imap(work, items, chunksize=16) if pool else map(work, items)
        for lineno, error, per_theorem in results:
            if error is not None:
                result.decode_errors.append((lineno, error))
            elif per_theorem is None:
                result.skipped_over_max_order += 1
            else:
                result.graphs += 1
                for tid in theorems:
                    result.reports[tid].merge(per_theorem[tid])
    return result
