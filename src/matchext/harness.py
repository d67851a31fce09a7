"""Executable checkers for the recursive parameter rules, run over censuses.

Every rule is one :class:`Rule` spec in the ``RULES`` table: its ordered
preconditions, the host graphs it speaks about (the same graph with lowered
or shifted parameters, each graph with one edge added or deleted, or the
cone) with a target triple for each, and, for the two edge-deletion iff
rules D1/D3, the separator-decomposition variant.  One runner,
:func:`_run_rule`, classifies an instance as applicable or inapplicable
(recording the first unmet precondition by name, then ``invalid-params``,
then ``not-an-nkd-graph``) and checks the conclusion on every host; a
violation is re-checked from scratch on freshly built graphs before being
reported.  ``check_<id>`` are thin callables over that runner, and
``CHECKERS`` maps each id to its checker.  The census runner sweeps every
valid triple of every stream graph through a selection of checkers and
aggregates deterministic reports.
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
    NkdParams,
    WITNESS_SEARCH_CAP,
    _scan_decomposition_witness,
    find_decomposition_witness,
    is_nkd_by_characterization,
    nkd_holds,
    validate_params,
)
from .errors import FormatError, ParameterError, SearchCapExceeded
from .graph import Graph
from .graphio import read_graph6, write_graph6
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


def _params_ok(g: Graph, p: NkdParams) -> bool:
    try:
        validate_params(g, p)
        return True
    except ParameterError:
        return False


def _derived(g: Graph, method: str, *args) -> Graph:
    """``getattr(g, method)(*args)``, cached on the parent so the derived
    graph's decisions are shared across rules and triples.  The host is
    linked to its parent (``"derived_from"``), so that its characterization
    summary is built from the parent's tables; building the summary drops
    the link."""

    def build():
        host = getattr(g, method)(*args)
        host._cache["derived_from"] = (g, method, args)
        return host

    return _engine.cached(g, ("derived", method) + args, build)


def _lowered(g: Graph, p: NkdParams):
    for n2 in range(p.n % 2, p.n + 1, 2):
        for k2 in range(p.k + 1):
            yield f"lowered params ({n2},{k2},{p.d})", g, NkdParams(n2, k2, p.d), None


def _shifted(g: Graph, p: NkdParams):
    target = NkdParams(p.n + 2, p.k - 2, p.d)
    yield f"shifted params ({target.n},{target.k},{target.d})", g, target, None


def _added_edges(g: Graph, p: NkdParams):
    target = NkdParams(p.n, p.k - 1, p.d)
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if not g.has_edge(u, v):
                yield f"non-edge {u}-{v}", _derived(g, "add_edge", u, v), target, (u, v)


def _cone(g: Graph, p: NkdParams):
    yield "cone", _derived(g, "cone"), NkdParams(p.n + 1, p.k - 1, p.d), None


def _deleted_edges(dn: int, dk: int, degree_bound=None):
    """Hosts G - uv for every edge uv, with target (n - dn, k - dk, d); with
    ``degree_bound(p)`` only edges having an endpoint of at least that
    degree are in the rule's scope."""

    def hosts(g: Graph, p: NkdParams):
        target = NkdParams(p.n - dn, p.k - dk, p.d)
        bound = 0 if degree_bound is None else degree_bound(p)
        for u, v in g.edges:
            if max(g.degree(u), g.degree(v)) >= bound:
                yield f"edge {u}-{v}", _derived(g, "delete_edge", u, v), target, (u, v)

    return hosts


@dataclass(frozen=True)
class Rule:
    """One recursive parameter rule.

    ``preconditions`` are (reason, test(g, p)) pairs tried in order; the
    first failing test names the skip reason.  ``hosts(g, p)`` yields
    (context, host graph, target triple, edge) for every graph the rule
    speaks about.  Without a ``variant`` each host must satisfy its target;
    with one ("d1" or "d3") the target fails on G - edge exactly when a
    separator decomposition of that variant exists for the edge.
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


def _run_rule(tid: str, g: Graph, p: NkdParams, cap: int | None,
              graph_index: int, graph_ref: str | None) -> TheoremReport:
    """Classify one (graph, params) instance of rule ``tid`` and check its
    conclusion on every host.  A violation is decided again from scratch on
    freshly built graphs, which carry no caches, before it is reported; the
    separator side is rechecked with the subset scan, so a wrong separator
    layer cannot confirm its own answer."""
    rule = RULES[tid]
    rep = TheoremReport(tid, graphs_examined=1)
    for reason, test in rule.preconditions + (("invalid-params", _params_ok),):
        if not test(g, p):
            rep.skip(reason)
            return rep
    if not nkd_holds(g, p, cap=cap):
        rep.skip("not-an-nkd-graph")
        return rep
    rep.applicable = 1

    def violation(context: str, detail: str) -> None:
        ref = write_graph6(g) if graph_ref is None else graph_ref
        rep.violations.append(Violation(graph_index, ref, p.as_tuple(), context, detail))

    for context, host, target, edge in rule.hosts(g, p):
        if rule.variant is None:
            if nkd_holds(host, target, cap=cap):
                continue
            if is_nkd_by_characterization(Graph(host.order, host.edges), target, cap=cap).holds:
                raise RuntimeError(
                    f"non-reproducible violation at {context}: cached decision said "
                    f"fails, fresh decision says holds"
                )
            violation(context, f"derived graph is not a ({target.n},{target.k},{target.d})-graph")
            continue
        fails = not nkd_holds(host, target, cap=cap)
        witness = find_decomposition_witness(g, p, edge, rule.variant, cap=cap)
        if fails != (witness is not None):
            fresh = Graph(g.order, g.edges)
            re_fails = not is_nkd_by_characterization(
                fresh.delete_edge(*edge), target, cap=cap
            ).holds
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
    return rep


def _checker(tid: str):
    def check(g: Graph, p: NkdParams, cap: int | None = None,
              graph_index: int = 0, graph_ref: str | None = None) -> TheoremReport:
        return _run_rule(tid, g, p, cap, graph_index, graph_ref)

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
    out = {tid: TheoremReport(tid, graphs_examined=1) for tid in theorems}
    for p in valid_triples(g.order):
        for tid in theorems:
            instance = CHECKERS[tid](
                g, p, cap=cap, graph_index=graph_index, graph_ref=graph_ref
            )
            instance.graphs_examined = 0
            out[tid].merge(instance)
    return out


def _census_worker(item, theorems, max_order, cap):
    """Decode and check one numbered stream line: ``(lineno, decode error,
    per-theorem reports)``, with no reports for a graph over ``max_order``."""
    index, (lineno, line) = item
    try:
        g = read_graph6(line)
    except FormatError as exc:
        return lineno, str(exc), None
    if g.order > max_order:
        return lineno, None, None
    return lineno, None, check_graph(g, theorems, cap=cap, graph_index=index,
                                     graph_ref=line.strip())


def run_census(lines, theorems=THEOREM_IDS, max_order: int | None = None,
               jobs: int = 1, allow_large: bool = False) -> CensusResult:
    """Run checkers over a graph6 stream.

    ``lines`` is any iterable of graph6 lines, such as an open text file,
    and is consumed lazily: each graph is decoded, checked and merged into
    the reports as its result arrives, so memory holds the reports, not the
    stream.  Blank lines and a '>>graph6<<' header are ignored but still
    counted in line numbers.  Decode failures become per-line diagnostics
    and processing continues.  Graphs larger than ``max_order`` are counted
    but not processed; the deciders' order cap is ``max_order + 1`` or
    ``CENSUS_ORDER_CAP``, whichever is larger.  ``jobs > 1`` checks graphs
    in a pool of worker processes; results are merged in input order either
    way.  ``jobs`` must lie in 1..os.cpu_count().
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
    work = functools.partial(_census_worker, theorems=theorems, max_order=max_order,
                             cap=max(max_order + 1, CENSUS_ORDER_CAP))
    items = enumerate((lineno, raw) for lineno, raw in enumerate(lines, start=1)
                      if raw.strip() not in ("", ">>graph6<<"))

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
