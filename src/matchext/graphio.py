"""graph6 and plain edge-list readers/writers.

graph6 is the compact ASCII line format used by the standard small-graph
generators: the order is one byte (value 63 + n, n <= 62) or '~' followed
by three bytes holding 18 bits (63 <= n <= 258047), then the upper triangle
of the adjacency matrix in column order, packed 6 bits per byte, each byte
offset by 63.  Larger orders (the 8-byte form) are rejected.

The edge-list format is one header line ``order edge_count`` followed by one
``u v`` line per edge, 0-indexed.
"""

from __future__ import annotations

from .errors import FormatError
from .graph import Graph

_G6_MAX_ORDER = 258047
_HEADER = ">>graph6<<"


def write_graph6(g: Graph) -> str:
    """Canonical graph6 line (no trailing newline, no format header)."""
    n = g.order
    if n > _G6_MAX_ORDER:
        raise FormatError(f"graph6 supports at most {_G6_MAX_ORDER} vertices, got {n}")
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~", chr(63 + ((n >> 12) & 63)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def read_graph6(line: str) -> Graph:
    """Decode one graph6 line.  Errors carry the character offset.

    A leading '>>graph6<<' file header is tolerated and skipped; padding
    bits must be zero so that decoding followed by encoding is the
    identity on canonical input.
    """
    s = line.rstrip("\r\n").removeprefix(_HEADER)
    if not s:
        raise FormatError("empty graph6 line", offset=0)
    vals = []
    for pos, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise FormatError(
                f"invalid graph6 byte {ch!r} at offset {pos}", offset=pos
            )
        vals.append(code - 63)
    if vals[0] < 63:
        n = vals[0]
        data = vals[1:]
        data_start = 1
    else:
        if len(vals) < 4:
            raise FormatError(
                f"truncated graph6 order field at offset {len(s)}", offset=len(s)
            )
        if vals[1] == 63:
            raise FormatError(
                "graph6 orders above 258047 are not supported", offset=1
            )
        n = (vals[1] << 12) | (vals[2] << 6) | (vals[3])
        data = vals[4:]
        data_start = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) < nbytes:
        raise FormatError(
            f"truncated graph6 line: expected {nbytes} adjacency bytes, got "
            f"{len(data)} (offset {len(s)})",
            offset=len(s),
        )
    if len(data) > nbytes:
        raise FormatError(
            f"trailing data at offset {data_start + nbytes}",
            offset=data_start + nbytes,
        )
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[k // 6]
            if (byte >> (5 - k % 6)) & 1:
                edges.append((i, j))
            k += 1
    if nbits % 6:
        pad = data[-1] & ((1 << (6 - nbits % 6)) - 1)
        if pad:
            raise FormatError(
                f"nonzero padding bits at offset {data_start + nbytes - 1}",
                offset=data_start + nbytes - 1,
            )
    return Graph(n, edges)


def graph6_records(lines):
    """``(line_number, record)`` for every graph6 record in ``lines``, any
    iterable of text lines such as an open text file.  Lines are numbered
    from 1; a record is a line stripped of surrounding whitespace and of one
    leading '>>graph6<<' header, and lines left empty hold none.  Records are
    not decoded."""
    for lineno, line in enumerate(lines, start=1):
        record = line.strip().removeprefix(_HEADER)
        if record:
            yield lineno, record


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.order} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format; header and edge counts must agree."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"edge-list header must be 'order edge_count', got {lines[0]!r}")
    try:
        order, count = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"non-integer edge-list header {lines[0]!r}") from None
    body = lines[1:]
    if len(body) != count:
        raise FormatError(
            f"inconsistent counts: header says {count} edges, found {len(body)}"
        )
    edges = []
    for idx, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"line {idx}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {idx}: non-integer endpoint in {ln!r}") from None
        edges.append((u, v))
    return Graph(order, edges)
