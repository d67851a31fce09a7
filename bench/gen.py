"""Seeded, stdlib-only input generator for the benchmark.

Every input is a function of (stream, seed, index) alone: the same arguments
give the same graph6 bytes on every machine and Python version, because
``random.Random`` seeded with a string is deterministic and the graph6
encoder below is the standard one.  Nothing here imports matchext, so a
change to the program cannot change the inputs it is measured on.

Densities follow a golden-ratio sequence with a seeded offset, so every
batch covers its density range evenly and batches of different seeds carry
the same mix of sparse and dense graphs; only the edges themselves differ.
"""

from __future__ import annotations

import random
from itertools import combinations

_GOLDEN = 0.6180339887498949

#: Census streams, as the geng-style streams matchext is run on:
#: ``orders`` cycle in turn, ``unions`` of every 10 graphs per order are
#: disjoint unions of two random parts of density 0.2-0.9 (the criterion-6
#: shape), the rest are single random graphs of density in ``density``.
STREAMS = {
    "small": {"orders": (4, 5, 6, 7, 8), "unions": 5, "density": (0.1, 0.9), "batch": 800},
    "order10": {"orders": (9, 10), "unions": 3, "density": (0.1, 0.9), "batch": 40},
}

#: ``check`` sweeps: every valid (n, k, d) of one order, spread over
#: ``graphs`` random graphs whose densities tile ``density``.  Above density
#: 0.6 whether a triple holds flips from graph to graph, and a holding one
#: costs the definition decider up to seconds instead of milliseconds, so
#: a 20-second run's throughput spread by 15-20% between seeds (2-vCPU Xeon).
DECIDE = {"order": 14, "graphs": 4, "density": (0.5, 0.6)}


def graph6(order: int, edges) -> str:
    """The graph6 line of a simple graph on ``0..order-1`` (order <= 62)."""
    if not 0 <= order <= 62:
        raise ValueError(f"order {order} is outside 0..62")
    present = set(edges)
    out = [chr(63 + order)]
    acc = nbits = 0
    for j in range(1, order):
        for i in range(j):
            acc = (acc << 1) | ((i, j) in present)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def _random_edges(rng: random.Random, order: int, p: float, offset: int = 0):
    return [
        (u + offset, v + offset)
        for u, v in combinations(range(order), 2)
        if rng.random() < p
    ]


def census_batch(stream: str, seed: int, index: int) -> bytes:
    """Batch ``index`` of a census stream, as graph6 file bytes."""
    spec = STREAMS[stream]
    rng = random.Random(f"census/{stream}/{seed}/{index}")
    offset = rng.random()
    orders = spec["orders"]
    lo, hi = spec["density"]
    lines = []
    for i in range(spec["batch"]):
        order = orders[i % len(orders)]
        q = (offset + i * _GOLDEN) % 1.0
        if (i // len(orders)) % 10 < spec["unions"]:
            left = rng.randint(1, order - 1)
            edges = _random_edges(rng, left, 0.2 + 0.7 * q) + _random_edges(
                rng, order - left, rng.uniform(0.2, 0.9), left
            )
        else:
            edges = _random_edges(rng, order, lo + (hi - lo) * q)
        lines.append(graph6(order, edges))
    return ("\n".join(lines) + "\n").encode("ascii")


def valid_triples(order: int) -> list[tuple[int, int, int]]:
    """Every (n, k, d) with n + 2k + d <= order - 2 and order - n - d even,
    sorted; the rule matchext's parameter validation enforces."""
    return sorted(
        (n, k, d)
        for n in range(order - 1)
        for d in range(order - 1 - n)
        if (order - n - d) % 2 == 0
        for k in range((order - 2 - n - d) // 2 + 1)
    )


def decide_sweep(seed: int, index: int) -> tuple[list[str], list[tuple[int, tuple[int, int, int]]]]:
    """Sweep ``index``: the graph6 lines of its graphs, and the calls to
    make, each a (graph position, triple) pair.  Every valid triple is
    called once; triple ``i`` goes to graph ``i mod graphs``."""
    order, count = DECIDE["order"], DECIDE["graphs"]
    lo, hi = DECIDE["density"]
    rng = random.Random(f"decide/{seed}/{index}")
    offset = rng.random()
    lines = [
        graph6(order, _random_edges(rng, order, lo + (hi - lo) * (j + offset) / count))
        for j in range(count)
    ]
    calls = [(i % count, t) for i, t in enumerate(valid_triples(order))]
    return lines, calls
