"""Executable checkers for the recursive parameter rules, run over censuses.

Every rule is one :class:`Rule` spec in the ``RULES`` table: its ordered
preconditions, the (edit, target) pairs it speaks about (the graph itself
with lowered or shifted parameters, the graph with one edge added or
deleted, or the cone, each with a target triple) and, for the two
edge-deletion iff rules D1/D3, the separator-decomposition variant.
``CHECKERS`` maps each id to ``check_<id>``, one loop over those pairs
(see :func:`_checker`) that adds one instance into the report it is given
(or a fresh one-graph report); :mod:`decision` makes every check on a host.
A violation is re-checked on freshly built graphs, and only then is its
context named.  A checker visits only the pairs at which its check can
disagree (:meth:`Rule.visited`).  The census gives each rule one report per
graph, decides the graph's own verdict on each triple once for all rules,
into the verdict cache that the hosts read too, runs a checker only on the
instances it applies to and counts the others from a table per order
(:func:`check_graph`), and merges those reports in stream order.
"""

from __future__ import annotations

import functools
import operator
import os
from collections import namedtuple
from itertools import accumulate, islice

from ._engine import bits_of
from .decision import (
    DECIDER_CAP,
    NkdParams,
    WITNESS_SEARCH_CAP,
    _apply_edit,
    _bound_candidates,
    _check_cap,
    _edited_holds,
    _holds,
    _require_cone_table,
    _scan_decomposition_witness,
    _separator_candidates,
    _separator_witness,
    _valid_triples,
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


class Violation(namedtuple("Violation", "graph_index graph6 params context detail")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "params": list(self.params)}


class TheoremReport:
    """One rule's tally: instances examined and applicable, the reasons
    the others were skipped, and the violations found."""

    def __init__(self, theorem: str, graphs_examined: int = 0, applicable: int = 0,
                 inapplicable: dict[str, int] | None = None,
                 violations: list[Violation] | None = None):
        self.theorem = theorem
        self.graphs_examined = graphs_examined
        self.applicable = applicable
        self.inapplicable = {} if inapplicable is None else inapplicable
        self.violations = [] if violations is None else violations

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

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
            yield None, (n2, k2, p.d)


def _shifted(g: Graph, p: NkdParams):
    yield None, (p.n + 2, p.k - 2, p.d)


def _added_edges(g: Graph, p: NkdParams):
    target = (p.n, p.k - 1, p.d)
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if not g.has_edge(u, v):
                yield ("add_edge", u, v), target


def _cone(g: Graph, p: NkdParams):
    yield ("cone",), (p.n + 1, p.k - 1, p.d)


class _Deletions(namedtuple("_Deletions", "dn dk degree", defaults=(0,))):
    """Hosts G - uv with target (n - dn, k - dk, d) for every edge uv in
    the rule's scope: every edge, or with ``degree`` only the edges having
    an endpoint of degree at least ``degree * k``."""

    __slots__ = ()

    def __call__(self, g: Graph, p: NkdParams):
        target = self.target(p)
        for i in bits_of(self.scope(g, p)):
            yield ("delete_edge",) + g.edges[i], target

    def target(self, p: NkdParams) -> tuple[int, int, int]:
        return p.n - self.dn, p.k - self.dk, p.d

    def scope(self, g: Graph, p: NkdParams) -> int:
        """The edges in scope, as a mask over the positions in ``g.edges``."""
        return _degree_scope(g)[self.degree * p.k]


def _degree_scope(g: Graph) -> list[int]:
    """``scope[b]``: the edges of g having an endpoint of degree at least
    b, as a mask over the positions in ``g.edges``, for b from 0 to the
    order; cached on g."""
    scope = g._cache.get("degree_scope")
    if scope is None:
        by_degree = [0] * (g.order + 1)
        rows = g.adjacency
        for i, (u, v) in enumerate(g.edges):
            by_degree[max(rows[u].bit_count(), rows[v].bit_count())] |= 1 << i
        scope = g._cache["degree_scope"] = list(accumulate(reversed(by_degree), operator.or_))[::-1]
    return scope


class Rule(namedtuple("Rule", "doc preconditions hosts variant bipartite",
                      defaults=(None, False))):
    """One recursive parameter rule.

    ``preconditions`` are (reason, test(p)) pairs on the triple, tried in
    order after ``bipartite``, which asks that the graph be bipartite
    (:meth:`skip_reason`).  ``hosts(g, p)`` yields (edit, target) for every
    graph the rule speaks about, the target a plain (n, k, d) tuple: edit
    None for g itself, ``("add_edge", u, v)``, ``("delete_edge", u, v)``
    or ``("cone",)``.  Without a ``variant`` each host must satisfy its
    target; with one ("d1" or "d3") the target fails on G - uv exactly when
    a separator decomposition of that variant exists for the edge uv.
    """

    __slots__ = ()

    def skip_reason(self, p: NkdParams, bipartite: bool) -> str | None:
        """The first unmet precondition of triple ``p`` on a graph that is
        ``bipartite`` or not, or None when all pass.  They read nothing else
        of the graph, so every graph of one order and bipartiteness shares
        the answers."""
        if self.bipartite and not bipartite:
            return "not-bipartite"
        return next((reason for reason, test in self.preconditions if not test(p)), None)

    def visited(self, g: Graph, p: NkdParams, cap: int | None):
        """The pairs of ``hosts(g, p)`` at which the check can come out
        true on either side, in order; at every other pair the host holds
        its target and has no separator decomposition.  For an edge
        deletion they are the edges in scope at which G - uv can fail the
        target (:func:`decision._bound_candidates`) or, for a ``variant``, a
        separator can exist (:func:`decision._separator_candidates`); with
        a ``variant`` and an edge in scope the search cap is checked first,
        whether or not an edge is left.  Otherwise they are every pair."""
        hosts = self.hosts
        if isinstance(hosts, _Deletions):
            target, scope = hosts.target(p), hosts.scope(g, p)
            if not scope:
                return ()
            if self.variant is not None:
                _check_cap(g.order, cap, WITNESS_SEARCH_CAP, "decomposition search")
            visit = _bound_candidates(g, *target)
            if self.variant is not None:
                visit |= _separator_candidates(g, p, self.variant)
            edges = g.edges
            return [(("delete_edge",) + edges[i], target) for i in bits_of(scope & visit)]
        return hosts(g, p)


def _context(rule: Rule, edit: tuple | None, target: tuple[int, int, int]) -> str:
    """The host's name in a violation report."""
    if edit is None:
        shift = "lowered" if rule.hosts is _lowered else "shifted"
        return f"{shift} params ({target[0]},{target[1]},{target[2]})"
    if edit[0] == "cone":
        return "cone"
    return f"{'non-edge' if edit[0] == 'add_edge' else 'edge'} {edit[1]}-{edit[2]}"


_D0 = ("d!=0", lambda p: p.d == 0)
_N_ABOVE_D = ("n<=d", lambda p: p.n > p.d)
_N2 = ("n<2", lambda p: p.n >= 2)
_K1 = ("k<1", lambda p: p.k >= 1)
_K2 = ("k<2", lambda p: p.k >= 2)

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
                (_D0, _N2, _K1), _Deletions(2, 0)),
    "A6ii": Rule("d = 0, n >= 2, k >= 1: deleting any edge keeps (n, k-1, 0).",
                 (_D0, _N2, _K1), _Deletions(0, 1)),
    "B1": Rule("n > d, k >= 1: adding any missing edge keeps (n, k-1, d).",
               (_N_ABOVE_D, _K1), _added_edges),
    "B2": Rule("n > d, k >= 2: the same graph also satisfies (n+2, k-2, d).",
               (_N_ABOVE_D, _K2), _shifted),
    "C1": Rule("k > 0, n > d: adding a dominating vertex gives (n+1, k-1, d).",
               (_K1, _N_ABOVE_D), _cone),
    "D1": Rule(
        "n >= 2: deleting an edge destroys (n-2, k, d) exactly when a separator "
        "decomposition for that edge exists (k-matching variant).",
        (_N2,), _Deletions(2, 0), "d1",
    ),
    "D2": Rule("Bipartite, n >= 2: deleting any edge keeps (n-2, k, d).",
               (_N2,), _Deletions(2, 0), bipartite=True),
    "D3": Rule(
        "k >= 1: for edges with an endpoint of degree >= 2k, deleting the edge "
        "destroys (n, k-1, d) exactly when a separator decomposition exists "
        "((k-1)-matching variant).",
        (_K1,), _Deletions(0, 1, degree=2), "d3",
    ),
}

THEOREM_IDS = tuple(RULES)


def _checker(tid: str):
    """``check_<tid>``: add one instance of rule ``tid`` into ``report`` (a
    fresh one-graph report when None) and return it.  Unless the caller
    passes ``applicable``, having found that the preconditions pass and
    that g holds ``p`` with this ``cap``, the graph's own verdict is
    decided here first, and that is the instance's only validation of its
    triple, so an invalid triple raises before any precondition runs; an
    unmet precondition is still the reason recorded, ahead of
    ``not-an-nkd-graph``.

    Every host target is valid when the triple is and the preconditions
    pass, and every edge comes from the graph, so hosts are decided as edits
    of g by :func:`_edited_holds` and searched by :func:`_separator_witness`
    unvalidated; each checks its own caps.  Only the pairs at which the
    check can disagree are visited (:meth:`Rule.visited`).  A violation is
    decided again on a host rebuilt by the same edit of a freshly built
    copy of g, which carries no caches, and its separator side by the
    subset scan, so a wrong separator search cannot confirm its own
    answer."""
    rule = RULES[tid]
    variant = rule.variant

    def check(g: Graph, p: NkdParams, cap: int | None = None, graph_index: int = 0,
              report: TheoremReport | None = None, applicable: bool = False) -> TheoremReport:
        if report is None:
            report = TheoremReport(tid, graphs_examined=1)
        if not applicable:
            holds = nkd_holds(g, p, cap=cap)
            reason = rule.skip_reason(p, rule.bipartite and is_bipartite(g))
            if reason is None and not holds:
                reason = "not-an-nkd-graph"
            if reason is not None:
                report.skip(reason)
                return report
        report.applicable += 1
        for edit, target in rule.visited(g, p, cap):
            fails = not _edited_holds(g, edit, *target, cap)
            witness = None if variant is None else _separator_witness(g, p, edit[1:], variant, cap)
            if fails != (witness is not None):
                fresh = Graph(g.order, g.edges)
                re_fails = not is_nkd_by_characterization(
                    _apply_edit(fresh, edit), NkdParams(*target), cap=cap).holds
                re_witness = (None if variant is None
                              else _scan_decomposition_witness(fresh, p, edit[1:], variant, cap=cap))
                if re_fails != fails or (re_witness is None) != (witness is None):
                    raise RuntimeError(f"non-reproducible violation at {_context(rule, edit, target)} "
                                       f"of graph {graph_index}: cached and fresh runs disagree")
                if variant is None:
                    detail = f"derived graph is not a ({target[0]},{target[1]},{target[2]})-graph"
                else:
                    detail = ("deletion fails but no separator decomposition exists" if fails
                              else "separator decomposition exists but deletion succeeds")
                report.violations.append(Violation(
                    graph_index, write_graph6(g), p.as_tuple(), _context(rule, edit, target), detail))
            if p.d == 0 and witness is not None:
                report.violations.append(Violation(
                    graph_index, write_graph6(g), p.as_tuple(), _context(rule, edit, target),
                    "separator decomposition found at d = 0, which the size rule forbids"))
        return report

    check.__name__ = check.__qualname__ = f"check_{tid}"
    check.__doc__ = rule.doc
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


class CensusResult:
    """A census's tally: graphs examined or skipped, the records that did
    not decode, and one report per rule."""

    def __init__(self, graphs: int, skipped_over_max_order: int,
                 decode_errors: list[tuple[int, str]], reports: dict[str, TheoremReport]):
        self.graphs = graphs
        self.skipped_over_max_order = skipped_over_max_order
        self.decode_errors = decode_errors
        self.reports = reports

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.reports.values())

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def add(self, lineno: int, error: str | None, per_theorem: dict | None) -> None:
        """Count one record's result (:func:`_census_worker`)."""
        if error is not None:
            self.decode_errors.append((lineno, error))
        elif per_theorem is None:
            self.skipped_over_max_order += 1
        else:
            self.graphs += 1
            for tid, report in self.reports.items():
                report.merge(per_theorem[tid])

    def merge(self, other: "CensusResult") -> None:
        """Add the result of the records that follow this one's."""
        self.graphs += other.graphs
        self.skipped_over_max_order += other.skipped_over_max_order
        self.decode_errors.extend(other.decode_errors)
        for tid, report in self.reports.items():
            report.merge(other.reports[tid])

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


@functools.cache
def _instances(theorems: tuple[str, ...], order: int, bipartite: bool):
    """The instance table of the rules ``theorems`` on the graphs of one
    order that are ``bipartite`` or not: each valid triple, as NkdParams
    and as a tuple, with the ids of the rules whose preconditions pass on
    it, and per rule the count of each skip reason of the others.  Callers
    must not change it."""
    table, skips = [], {tid: {} for tid in theorems}
    for p in _valid_triples(order):
        passing = []
        for tid in theorems:
            reason = RULES[tid].skip_reason(p, bipartite)
            if reason is None:
                passing.append(tid)
            else:
                skips[tid][reason] = skips[tid].get(reason, 0) + 1
        table.append((p, p.as_tuple(), tuple(passing)))
    return tuple(table), skips


def check_graph(g: Graph, theorems=THEOREM_IDS, cap: int | None = None,
                graph_index: int = 0) -> dict[str, TheoremReport]:
    """Run the selected checkers over every valid triple of one graph, with
    the reports :func:`check_<id>` would add up to.  The decider cap is
    checked once, and the graph's own verdict on each valid triple is read
    from its verdict cache (:func:`decision._holds`).  A rule's checker
    runs only on the triples whose preconditions pass, read from the
    order's instance table (:func:`_instances`), and where the graph holds;
    the table's skip counts are added in one step, and
    ``not-an-nkd-graph`` is counted for the other passing triples.  The
    graph is two-coloured only when a selected rule asks for a bipartite
    graph.  Unknown or repeated theorem ids raise ParameterError."""
    theorems = _theorem_ids(theorems)
    colour = any(RULES[tid].bipartite for tid in theorems) and bool(_valid_triples(g.order))
    table, skips = _instances(theorems, g.order, colour and is_bipartite(g))
    out = {tid: TheoremReport(tid, graphs_examined=1, inapplicable=dict(skips[tid]))
           for tid in theorems}
    if table and out:
        _check_cap(g.order, cap, DECIDER_CAP, "decider")
        for p, triple, passing in table:
            if _holds(g, *triple):
                for tid in passing:
                    CHECKERS[tid](g, p, cap=cap, graph_index=graph_index, report=out[tid],
                                  applicable=True)
            else:
                for tid in passing:
                    out[tid].skip("not-an-nkd-graph")
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


#: consecutive records per task of a ``jobs > 1`` census
POOL_CHUNK = 64


def _census_records(items, theorems, max_order, cap) -> CensusResult:
    """Check numbered records one at a time, as :func:`_census_worker`
    does, and add each into one result: the whole stream of a serial
    census, or one pool task's run of records."""
    part = _census_result(theorems)
    for item in items:
        part.add(*_census_worker(item, theorems, max_order, cap))
    return part


def _census_result(theorems) -> CensusResult:
    return CensusResult(0, 0, [], {tid: TheoremReport(tid) for tid in theorems})


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
    ``CENSUS_ORDER_CAP``, whichever is larger.  ``jobs > 1`` checks runs
    of ``POOL_CHUNK`` consecutive records in a pool of worker processes,
    each merged there into one result; results are merged in input order
    either way.  ``jobs`` must lie in 1..os.cpu_count(), and ``max_order`` must
    not be negative, nor so large that a graph's cone passes the table limit.
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
    _require_cone_table(max_order)
    census = functools.partial(_census_records, theorems=theorems, max_order=max_order,
                               cap=max(max_order + 1, CENSUS_ORDER_CAP))
    items = enumerate(graph6_records(lines))
    if jobs == 1:
        return census(items)
    import multiprocessing  # only a pool needs it: a serial census starts faster

    # each task is a run of consecutive records, cut from the stream as the
    # pool asks for it, and comes back as one result
    result = _census_result(theorems)
    with multiprocessing.Pool(jobs) as pool:
        for part in pool.imap(census, iter(lambda: list(islice(items, POOL_CHUNK)), [])):
            result.merge(part)
    return result
