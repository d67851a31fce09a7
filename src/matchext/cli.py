"""Command-line front end.

Exit codes: 0 the property holds / the task completed; 1 the property fails
(a witness is printed); 2 usage or parameter error; 3 input decode error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import families
from .decision import (
    NkdParams,
    find_decomposition_witness,
    is_nkd_by_characterization,
    is_nkd_by_definition,
)
from .errors import (
    FormatError,
    GraphConstructionError,
    ParameterError,
    SearchCapExceeded,
)
from .graph import Graph
from .graphio import graph6_records, read_edge_list, read_graph6, write_edge_list, write_graph6
from .harness import CENSUS_ORDER_CAP, THEOREM_IDS, run_census

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_DECODE = 3

#: Documented environment override for the census default order bound; the
#: CLI never requires it to be set.
MAX_ORDER_ENV = "MATCHEXT_MAX_ORDER"

_FORMATS = ("g6", "el")
_SUFFIXES = {".g6": "g6", ".graph6": "g6", ".el": "el", ".edges": "el"}


def _open_input(path: str):
    """Undecodable bytes become lone surrogates, which readers reject as input,
    whether they come from a file or from stdin."""
    if path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(errors="surrogateescape")
        return contextlib.nullcontext(sys.stdin)
    return open(path, errors="surrogateescape")


def _pick_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    suffix = os.path.splitext(path)[1].lower()
    fmt = _SUFFIXES.get(suffix)
    if fmt is None:
        raise ParameterError(
            f"cannot infer graph format from {path!r}; pass --format g6|el"
        )
    return fmt


def _load_graph(path: str, explicit_format: str | None) -> Graph:
    """The edge list, or the first graph6 record, of the input."""
    fmt = _pick_format(path, explicit_format)
    with _open_input(path) as stream:
        if fmt == "el":
            try:
                return read_edge_list(stream.read())
            except GraphConstructionError as exc:
                raise FormatError(f"invalid graph in input: {exc}") from exc
        for lineno, record in graph6_records(stream):
            try:
                return read_graph6(record)
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}", exc.offset) from None
    raise FormatError("no graph6 line found in input")


def _write_graph(g: Graph, path: str, fmt: str) -> None:
    text = write_graph6(g) + "\n" if fmt == "g6" else write_edge_list(g)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as out:
            out.write(text)


def _cap_from(args) -> int | None:
    if getattr(args, "allow_large", False):
        return 10**9
    return None


def cmd_check(args) -> int:
    g = _load_graph(args.graph, args.format)
    params = NkdParams(args.n, args.k, args.d)
    cap = _cap_from(args)
    verdicts = {}
    if args.method in ("definition", "both"):
        verdicts["definition"] = is_nkd_by_definition(g, params, cap=cap)
    if args.method in ("characterization", "both"):
        verdicts["characterization"] = is_nkd_by_characterization(g, params, cap=cap)

    agree = len({v.holds for v in verdicts.values()}) == 1
    holds = next(iter(verdicts.values())).holds and agree

    if args.json:
        payload = {
            "order": g.order,
            "edges": len(g.edges),
            "params": list(params.as_tuple()),
            "verdicts": {m: v.to_dict() for m, v in verdicts.items()},
            "agreement": agree,
            "holds": holds,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"graph: {g.order} vertices, {len(g.edges)} edges")
        print(f"params: n={params.n} k={params.k} d={params.d}")
        for method, verdict in verdicts.items():
            print(f"{method}: {'holds' if verdict.holds else 'fails'}")
            if verdict.witness is not None:
                for line in verdict.kv_lines()[1:]:
                    print(f"  {line}")
        if len(verdicts) == 2:
            print(f"agreement: {'yes' if agree else 'NO'}")
    return EXIT_OK if holds else EXIT_FAILS


def cmd_family(args) -> int:
    name = args.name
    if name == "blowup":
        _need(args, "d", "m")
        g = families.family_blowup_bipartite(args.d, args.m)
        note = "independent hub vertices: 0 1 2"
    elif name == "cliques-plus-edge":
        _need(args, "d", "m")
        g = families.family_cliques_plus_edge(args.d, args.m)
        e = families.cliques_plus_edge_distinguished_edge(args.d, args.m)
        note = f"distinguished edge: {e[0]} {e[1]}"
    elif name == "cliques-plus-edge-cone":
        _need(args, "d", "m")
        g = families.family_cliques_plus_edge_cone(args.d, args.m)
        e = families.cliques_plus_edge_distinguished_edge(args.d, args.m)
        note = f"distinguished edge: {e[0]} {e[1]}; apex: {g.order - 1}"
    elif name == "gadget-chain":
        _need(args, "copies")
        g = families.family_gadget_chain(args.copies)
        e = families.gadget_chain_distinguished_edge(args.copies)
        note = f"distinguished edge: {e[0]} {e[1]}"
    else:
        raise ParameterError(f"unknown family {name!r}")
    fmt = args.format or _SUFFIXES.get(os.path.splitext(args.out)[1].lower(), "g6")
    _write_graph(g, args.out, fmt)
    print(f"{name}: {g.order} vertices, {len(g.edges)} edges -> {args.out}")
    print(note)
    return EXIT_OK


def _need(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ParameterError(f"family {args.name!r} requires --{name}")


def cmd_witness(args) -> int:
    g = _load_graph(args.graph, args.format)
    params = NkdParams(args.n, args.k, args.d)
    u, v = args.edge
    witness = find_decomposition_witness(
        g, params, (u, v), args.variant, cap=_cap_from(args)
    )
    if witness is None:
        if args.json:
            print(json.dumps({"witness": None}, indent=2))
        else:
            print("no witness")
        return EXIT_FAILS
    if args.json:
        print(json.dumps({"witness": witness.to_dict()}, sort_keys=True, indent=2))
    else:
        for line in witness.kv_lines():
            print(line)
    return EXIT_OK


def cmd_census(args) -> int:
    raw_order = os.environ.get(MAX_ORDER_ENV, str(CENSUS_ORDER_CAP))
    try:
        default_order = int(raw_order)
    except ValueError:
        raise ParameterError(f"{MAX_ORDER_ENV} must be an integer, got {raw_order!r}") from None
    max_order = args.max_order if args.max_order is not None else default_order
    if args.theorems == "":
        raise ParameterError("--theorems must name at least one rule")
    theorems = THEOREM_IDS if args.theorems is None else tuple(args.theorems.split(","))
    if args.report:
        _refuse_unwritable(args.report)
    with _open_input(args.input) as stream:
        result = run_census(
            stream,
            theorems=theorems,
            max_order=max_order,
            jobs=args.jobs,
            allow_large=args.allow_large,
        )
    for line in result.summary_lines():
        print(line)
    if args.report:
        with open(args.report, "w") as out:
            out.write(json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n")
        print(f"report written to {args.report}")
    if result.total_violations:
        return EXIT_FAILS
    if result.decode_errors:
        return EXIT_DECODE
    return EXIT_OK


def _refuse_unwritable(path: str) -> None:
    """Open ``path`` for appending, as the report will be written, and
    remove the file again if this made it, so that a census whose report
    cannot be written is refused before it reads a graph."""
    made = not os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ParameterError(f"cannot write the report to {path}: {exc.strerror}") from None
    if made:
        os.remove(path)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchext",
        description="Matching-extendability deciders, witnesses, families, censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the (n, k, d) property for one graph")
    p.add_argument("--graph", required=True, help="input file, or - for stdin")
    p.add_argument("--format", choices=_FORMATS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("definition", "characterization", "both"),
                   default="both")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the exhaustive-search order cap")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("family", help="generate a named graph family instance")
    p.add_argument("name", choices=("blowup", "cliques-plus-edge",
                                    "cliques-plus-edge-cone", "gadget-chain"))
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--copies", type=int)
    p.add_argument("--out", required=True, help="output file, or - for stdout")
    p.add_argument("--format", choices=_FORMATS)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("witness", help="search for a separator decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=_FORMATS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--edge", type=int, nargs=2, required=True, metavar=("U", "V"))
    p.add_argument("--variant", choices=("d1", "d3"), required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("census", help="run rule checkers over a graph6 stream")
    p.add_argument("--input", default="-", help="graph6 file, or - for stdin")
    p.add_argument("--max-order", type=int, default=None,
                   help=f"skip larger graphs (default {CENSUS_ORDER_CAP}, "
                        f"or ${MAX_ORDER_ENV})")
    p.add_argument("--theorems", default=None,
                   help="comma-separated rule ids (default: all)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", default=None, help="write the full JSON report here")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=cmd_census)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, GraphConstructionError, SearchCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, UnicodeDecodeError) as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
