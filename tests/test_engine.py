"""The subset tables against slower references: the odd-component table
against flood fill, the bit-parallel matching table against the subset DP
that tries every neighbour."""

import random
from itertools import combinations

import pytest

import matchext._engine as _engine
from matchext import Graph, SearchCapExceeded
from conftest import complete, cycle, empty, random_graph


def _graphs(fixture, request):
    if fixture == "order12":
        rng = random.Random(12)
        return [random_graph(rng, 12, p) for p in (0.15, 0.25, 0.4)]
    if fixture == "orders0to16":
        rng = random.Random(16)
        graphs = [empty(0), empty(1)]
        graphs += [make(order) for order in range(2, 12) for make in (empty, complete)]
        return graphs + [random_graph(rng, order, rng.uniform(0.1, 0.9))
                         for order in range(2, 17) for _ in range(3 if order < 14 else 1)]
    return request.getfixturevalue(fixture)


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample", "order12"])
def test_fixture_odd_tables_match_flood_fill(fixture, request):
    for g in _graphs(fixture, request):
        # a fresh graph per case keeps the tables off the session fixtures
        g = Graph(g.order, g.edges)
        adj = g.adjacency
        odd = _engine.odd_table(g)
        for m in range(1 << g.order):
            assert odd[m] == _engine.odd_component_count(adj, m), (g, m)


@pytest.mark.parametrize("chunk", [_engine._CHUNK, 1 << 2], ids=["one-chunk", "chunks-of-4"])
def test_odd_table_matches_flood_fill(chunk, monkeypatch, request):
    # with chunks of 4 masks every graph above order 2 spans several chunks,
    # each fixing components of the vertices from 2 up, as orders 17-24 do
    monkeypatch.setattr(_engine, "_CHUNK", chunk)
    for g in _graphs("orders0to16", request):
        g = Graph(g.order, g.edges)
        adj = g.adjacency
        got = _engine.odd_table(g)
        assert type(got) is list and len(got) == 1 << g.order, g
        assert got == [_engine.odd_component_count(adj, m) for m in range(1 << g.order)], g


def test_odd_table_refuses_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("built part of a table past the limit")

    monkeypatch.setattr(_engine, "TABLE_LIMIT", 5)
    for name in ("component_split", "_odd_digits"):
        monkeypatch.setattr(_engine, name, build)
    g = cycle(6)
    with pytest.raises(SearchCapExceeded, match="limited to 5 vertices"):
        _engine.odd_table(g)
    assert g._cache == {}


def test_check_at_order_14_builds_no_component_table(monkeypatch, capsys):
    from matchext import cli

    g = random_graph(random.Random(14), 14, 0.55)
    monkeypatch.setattr(cli, "_load_graph", lambda path, fmt: g)
    exits = set()
    for n, k, d in [(0, 1, 0), (2, 2, 0), (1, 3, 1), (4, 0, 2), (0, 6, 0)]:
        exits.add(cli.main(["check", "--graph", "g.g6", "--n", str(n), "--k", str(k),
                            "--d", str(d), "--method", "both"]))
    capsys.readouterr()
    assert exits == {cli.EXIT_OK, cli.EXIT_FAILS}
    # the failing triples' witnesses are read from the planes as well
    assert {"nu_planes", "odd_digits"} <= set(g._cache)
    assert not {"nu_table", "odd_table"} & set(g._cache)


def _nu_by_every_neighbour(g):
    """The matching table by the plain subset DP: the lowest vertex is
    unmatched or matched to whichever in-mask neighbour does best."""
    adj = g.adjacency
    table = [0] * (1 << g.order)
    for mask in range(1, 1 << g.order):
        low = mask & -mask
        rest = mask ^ low
        table[mask] = max([table[rest]] + [
            1 + table[rest ^ (1 << w)]
            for w in _engine.bits_of(adj[low.bit_length() - 1] & rest)
        ])
    return table


@pytest.mark.parametrize("fixture", ["census7", "order8_sample", "order12", "orders0to16"])
def test_nu_table_matches_every_neighbour_dp(fixture, request):
    # every entry, not only the full mask: each one is read off the planes
    for g in _graphs(fixture, request):
        g = Graph(g.order, g.edges)
        got = _engine.nu_table(g)
        assert type(got) is list and got == _nu_by_every_neighbour(g), g


def test_nu_table_refuses_before_allocating(monkeypatch):
    def allocate(*args):
        raise AssertionError("built part of a table past the limit")

    monkeypatch.setattr(_engine, "TABLE_LIMIT", 5)
    monkeypatch.setattr(_engine, "_nu_planes", allocate)
    g = cycle(6)
    with pytest.raises(SearchCapExceeded, match="limited to 5 vertices"):
        _engine.nu_table(g)
    assert g._cache == {}


def test_size_planes_hold_every_subset_of_each_size():
    for order in range(9):
        planes = _engine.size_planes(order)
        assert len(planes) == order + 1, order
        for size, plane in enumerate(planes):
            want = sum(1 << _engine.mask_of(c) for c in combinations(range(order), size))
            assert plane == want, (order, size)


def test_reversed_plane_moves_each_mask_to_its_complement():
    # orders below 3 span less than a byte and reverse the bit string
    rng = random.Random(3)
    for order in range(12):
        full = (1 << order) - 1
        for plane in [0, (1 << (1 << order)) - 1] + [rng.getrandbits(1 << order) for _ in range(4)]:
            want = sum(1 << (full ^ m) for m in range(1 << order) if plane >> m & 1)
            assert _engine.reversed_plane(plane, order) == want, (order, plane)


@pytest.mark.parametrize("chunk", [_engine._CHUNK, 1 << 4], ids=["one-chunk", "chunks-of-16"])
def test_tables_convert_the_cached_planes(chunk, monkeypatch):
    # nu[M] counts the planes holding M, odd[M] reads M's bit of each digit
    # plane, and neither table builds a plane again
    monkeypatch.setattr(_engine, "_CHUNK", chunk)
    g = random_graph(random.Random(10), 10, 0.3)
    planes, digits = _engine.nu_planes(g), _engine.odd_digits(g)

    def rebuild(*args):
        raise AssertionError("a plane was built twice")

    monkeypatch.setattr(_engine, "_nu_planes", rebuild)
    monkeypatch.setattr(_engine, "_odd_digits", rebuild)
    nu, odd = _engine.nu_table(g), _engine.odd_table(g)
    for m in range(1 << g.order):
        assert nu[m] == sum(plane >> m & 1 for plane in planes), m
        assert odd[m] == sum((digit >> m & 1) << t for t, digit in enumerate(digits)), m
    assert len(planes) == nu[-1] and len(digits) == max(odd).bit_length()
