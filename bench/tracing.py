"""Span tracing from outside the program, for the benchmark's traced run.

``install`` replaces the module-level names that matchext's callers look up
(for example ``harness.nkd_holds``, which harness imported by name, and the
entries of ``harness.CHECKERS``, through which ``check_graph`` dispatches)
with wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Cached tables and decisions are looked
up on the graph first; a hit is a counter, not a span.  Spans live in flat
arrays in memory and are written once, when the traced run ends.

Span names are ``<module>.<function>``, with ``engine`` for ``_engine``
(metric names start with a letter) and one ``graph.derive`` for
``delete_edge``, ``add_edge`` and ``cone``.  The traced run is serial: pool
workers would not share the span arrays.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter_ns
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.end.append(0)
            open_spans.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_spans.pop()

        return wrapper

    def cached_span(self, name: str, fn, key, entries: bool = False):
        """Like :meth:`span` for a function memoised in ``g._cache`` under
        ``key(g, *args)``: a hit only counts ``<name>.hits``."""
        traced = self.span(name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            if key(g, *args) in g._cache:
                counters[name + ".hits"] += 1
                return fn(g, *args, **kwargs)
            if entries:
                counters["engine.table_entries"] += 1 << g.order
            return traced(g, *args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "counters": dict(self.counters),
                },
                fh,
            )


def install(tracer: Tracer):
    """Wrap matchext's layer boundaries in place; returns the traced
    ``cli.main``.  Meant for a process that exits after the traced run."""
    from matchext import _engine, cli, decision, graph, harness

    read_graph6 = tracer.span("graphio.read_graph6", harness.read_graph6)
    harness.read_graph6 = cli.read_graph6 = read_graph6

    _engine.nu_table = tracer.cached_span(
        "engine.nu_table", _engine.nu_table, lambda g: "nu_table", entries=True
    )
    _engine.odd_table = tracer.cached_span(
        "engine.odd_table", _engine.odd_table, lambda g: "odd_table", entries=True
    )
    decision._char_summary = tracer.cached_span(
        "decision.char_summary", decision._char_summary, lambda g: "char_summary"
    )
    harness.nkd_holds = tracer.cached_span(
        "decision.nkd_holds", decision.nkd_holds,
        lambda g, params, *rest: ("nkd",) + params.as_tuple(),
    )

    search = tracer.span("decision.find_decomposition_witness",
                         decision.find_decomposition_witness)

    def find_decomposition_witness(*args, **kwargs):
        found = search(*args, **kwargs)
        if found is not None:
            tracer.counters["decision.find_decomposition_witness.found"] += 1
        return found

    harness.find_decomposition_witness = find_decomposition_witness

    by_char = tracer.span("decision.is_nkd_by_characterization",
                          decision.is_nkd_by_characterization)
    harness.is_nkd_by_characterization = cli.is_nkd_by_characterization = by_char
    cli.is_nkd_by_definition = tracer.span("decision.is_nkd_by_definition",
                                           decision.is_nkd_by_definition)

    for method in ("delete_edge", "add_edge", "cone"):
        setattr(graph.Graph, method,
                tracer.span("graph.derive", getattr(graph.Graph, method)))

    for tid, checker in list(harness.CHECKERS.items()):
        harness.CHECKERS[tid] = tracer.span(f"harness.rule.{tid}", checker)
    harness.check_graph = tracer.span("harness.check_graph", harness.check_graph)
    cli.run_census = tracer.span("harness.run_census", harness.run_census)
    return tracer.span("cli.main", cli.main)


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of it that its children cover
    (children clipped to the parent, overlaps counted once)."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            s, e = max(start[c], lo), min(end[c], hi)
            if e <= s:
                continue
            if run_hi is not None and s <= run_hi:
                run_hi = max(run_hi, e)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = s, e
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


def summarize(trace: dict) -> dict[str, float]:
    """Per-name span counts and self seconds, plus the counters."""
    selfs = self_times(trace["parent"], trace["start_ns"], trace["end_ns"])
    out: dict[str, float] = defaultdict(float)
    for nid, self_ns in zip(trace["name"], selfs):
        name = trace["names"][nid]
        out[name + ".spans"] += 1
        out[name + ".self_s"] += self_ns / 1e9
    for key, value in trace["counters"].items():
        out[key] += value
    return dict(out)
