import random
from functools import reduce
from itertools import combinations
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchext._engine as _engine
from matchext import (
    BlockedExtension,
    Graph,
    CharacterizationViolation,
    DecompositionWitness,
    NkdParams,
    NoKMatching,
    ParameterError,
    SearchCapExceeded,
    Verdict,
    check_graph,
    family_blowup_bipartite,
    family_cliques_plus_edge,
    family_cliques_plus_edge_cone,
    family_gadget_chain,
    find_decomposition_witness,
    is_k_extendable,
    is_n_critical,
    is_nkd_by_characterization,
    is_nkd_by_definition,
    nkd_holds,
    read_graph6,
    validate_params,
    valid_triples,
    verify_decomposition_witness,
    verify_witness,
)
import matchext.decision as decision
from matchext.decision import (
    _char_summary,
    _edited_holds,
    _rows_hold,
    _scan_decomposition_witness,
)
from matchext.matching import _matchings_in_mask
from matchext.structure import components, odd_count_after_deletion
from conftest import (
    _fold_summary,
    berge_blocker_by_flood_fill,
    complete,
    complete_bipartite,
    connected_census,
    cycle,
    disjoint_union,
    path,
    random_graph,
    random_sample,
)


def decide_both(g, p):
    a = is_nkd_by_definition(g, p)
    b = is_nkd_by_characterization(g, p)
    assert a.holds == b.holds, (g, p, a, b)
    return a, b


# -- parameter validation -------------------------------------------------------

def test_nkd_params_rejects_negative():
    with pytest.raises(ParameterError):
        NkdParams(-1, 0, 0)
    with pytest.raises(ParameterError):
        NkdParams(0, 0, -2)
    # a copy with one field changed is validated as well
    assert NkdParams(1, 0, 0)._replace(k=2) == NkdParams(1, 2, 0)
    with pytest.raises(ParameterError, match="k must be"):
        NkdParams(1, 0, 0)._replace(k=-1)


def test_validate_params_size_rule():
    g = disjoint_union(complete(3), complete(2))
    with pytest.raises(ParameterError, match="size rule.*5.*3"):
        validate_params(g, NkdParams(2, 1, 1))


def test_validate_params_parity_rule():
    validate_params(family_cliques_plus_edge(2, 1), NkdParams(2, 1, 2))
    validate_params(complete(6), NkdParams(1, 1, 1))
    with pytest.raises(ParameterError, match="parity"):
        validate_params(complete(6), NkdParams(1, 1, 0))


def test_deciders_reject_invalid_params():
    for decide in (is_nkd_by_definition, is_nkd_by_characterization, nkd_holds):
        with pytest.raises(ParameterError):
            decide(complete(6), NkdParams(1, 1, 0))


def test_cached_verdict_still_refuses_invalid_triples_and_lower_caps():
    g = complete(8)
    assert nkd_holds(g, NkdParams(0, 1, 0))
    assert ("nkd", 0, 1, 0) in g._cache
    with pytest.raises(ParameterError, match="parity"):
        nkd_holds(g, NkdParams(1, 1, 0))
    with pytest.raises(ParameterError, match="size"):
        nkd_holds(g, NkdParams(2, 2, 2))
    with pytest.raises(SearchCapExceeded, match="capped at 7"):
        nkd_holds(g, NkdParams(0, 1, 0), cap=7)
    assert nkd_holds(g, NkdParams(0, 1, 0), cap=8)


def test_decider_cap():
    g = complete(17)
    with pytest.raises(SearchCapExceeded, match="16"):
        is_nkd_by_definition(g, NkdParams(0, 1, 1))
    assert is_nkd_by_definition(g, NkdParams(0, 1, 1), cap=17).holds


# -- frozen example verdicts ------------------------------------------------------

def test_cliques_plus_edge_family_verdicts():
    h = family_cliques_plus_edge(2, 1)
    a, b = decide_both(h, NkdParams(2, 1, 2))
    assert a.holds and a.witness is None
    broken = h.delete_edge(6, 7)
    a, b = decide_both(broken, NkdParams(0, 1, 2))
    assert not a.holds
    assert a.witness == BlockedExtension(deleted=(), matching=((0, 1),), blocker=())
    assert b.witness == CharacterizationViolation(condition="i", subset=())
    assert verify_witness(broken, NkdParams(0, 1, 2), a.witness)
    assert verify_witness(broken, NkdParams(0, 1, 2), b.witness)


def test_cone_family_verdicts():
    h = family_cliques_plus_edge_cone(2, 1)
    assert decide_both(h, NkdParams(3, 1, 2))[0].holds
    broken = h.delete_edge(6, 7)
    assert not decide_both(broken, NkdParams(1, 1, 2))[0].holds


def test_blowup_family_verdicts():
    h = family_blowup_bipartite(1, 1)
    # the hub/clique blow-up first satisfies k=2 at defect d+2, not d: two
    # hub-to-clique edges into one clique strand the other d+1 cliques
    a, _ = decide_both(h, NkdParams(1, 2, 1))
    assert not a.holds
    assert a.witness == BlockedExtension(
        deleted=(0,), matching=((1, 3), (2, 4)), blocker=()
    )
    assert verify_witness(h, NkdParams(1, 2, 1), a.witness)
    assert decide_both(h, NkdParams(1, 2, 3))[0].holds
    assert decide_both(h, NkdParams(1, 1, 1))[0].holds
    assert not decide_both(h, NkdParams(3, 0, 1))[0].holds
    augmented = h.add_edge(0, 1)
    v = is_nkd_by_characterization(augmented, NkdParams(1, 1, 1))
    assert not v.holds
    assert verify_witness(augmented, NkdParams(1, 1, 1), v.witness)


def test_gadget_family_verdicts():
    h = family_gadget_chain(2)
    assert decide_both(h, NkdParams(1, 3, 3))[0].holds
    broken = h.delete_edge(10, 11)
    assert not decide_both(broken, NkdParams(1, 2, 3))[0].holds


def test_small_graph_verdicts():
    assert decide_both(complete(4), NkdParams(0, 1, 0))[0].holds
    assert decide_both(cycle(6), NkdParams(0, 1, 0))[0].holds
    assert not decide_both(path(4), NkdParams(0, 1, 0))[0].holds
    assert decide_both(complete_bipartite(4, 4), NkdParams(2, 1, 2))[0].holds


def test_no_k_matching_witness():
    from matchext import Graph

    # deleting the two dominating hubs leaves five isolated vertices
    g = Graph(
        7,
        [(0, v) for v in range(2, 7)] + [(1, v) for v in range(2, 7)] + [(0, 1)],
    )
    v = is_nkd_by_definition(g, NkdParams(2, 1, 1))
    assert not v.holds
    assert v.witness == NoKMatching(deleted=(0, 1))
    assert verify_witness(g, NkdParams(2, 1, 1), v.witness)


def test_aliases():
    assert is_k_extendable(cycle(6), 1).holds
    assert not is_k_extendable(path(4), 1).holds
    assert is_n_critical(complete(5), 3).holds
    with pytest.raises(ParameterError):
        is_k_extendable(cycle(5), 1)  # odd order cannot be 0-defect


@pytest.mark.parametrize("code, triple, witness", [
    ("GdxV^k", (2, 0, 0), CharacterizationViolation("i", (0, 0))),
    ("GbLyLC", (2, 1, 2), BlockedExtension((7, 7), ((1, 5),), ())),
    ("GdxV^k", (2, 0, 0), NoKMatching(("a", "b"))),
    ("GdxV^k", (2, 0, 0), CharacterizationViolation("i", ("a", "b"))),
    ("GdxV^k", (2, 0, 0), BlockedExtension(("a", "b"), (), ())),
    ("GwCW?C", (2, 1, 2), DecompositionWitness((0, 1), ("6", "7"), "d1", ((2,), (3, 4, 5)), ())),
])
def test_verify_witness_rejects_repeated_vertices(code, triple, witness):
    # the triple holds, so a witness naming a vertex twice, or a vertex that
    # is not an integer, must not pass; a malformed one yields False
    g, p = read_graph6(code), NkdParams(*triple)
    assert nkd_holds(g, p) and is_nkd_by_definition(g, p).holds
    verify = verify_decomposition_witness if isinstance(witness, DecompositionWitness) else verify_witness
    assert not verify(g, p, witness)


def test_verify_witness_rejects_tampered():
    h = family_cliques_plus_edge(2, 1)
    broken = h.delete_edge(6, 7)
    p = NkdParams(0, 1, 2)
    assert not verify_witness(broken, p, NoKMatching(deleted=()))
    assert not verify_witness(
        broken, p, BlockedExtension(deleted=(), matching=((0, 1),), blocker=(2,))
    )
    assert not verify_witness(
        broken, p, CharacterizationViolation(condition="ii", subset=())
    )
    # malformed coordinates must come back False, not raise
    assert not verify_witness(broken, p, NoKMatching(deleted=(99,)))
    assert not verify_witness(
        broken, p, BlockedExtension(deleted=(), matching=((6, 7),), blocker=())
    )
    assert not verify_decomposition_witness(
        h,
        NkdParams(2, 1, 2),
        DecompositionWitness(
            separator=(0, 99),
            edge=(6, 7),
            variant="d1",
            odd_components=(),
            separator_matching=(),
        ),
    )


def test_witness_serialization():
    w = BlockedExtension(deleted=(0,), matching=((1, 3), (2, 4)), blocker=())
    assert w.to_dict() == {
        "kind": "blocked-extension",
        "deleted": [0],
        "matching": [[1, 3], [2, 4]],
        "blocker": [],
    }
    v = is_nkd_by_definition(family_cliques_plus_edge(2, 1), NkdParams(2, 1, 2))
    assert v.kv_lines() == ["holds: true"]


# -- decider equivalence (unit-sized; the full census runs in acceptance) --------

def test_decider_equivalence_small_census():
    for g in connected_census(5):
        for p in valid_triples(g.order):
            decide_both(g, p)


def test_every_returned_witness_reverifies():
    # systematic sweep: whenever either decider fails, its witness must pass
    # the independent invariant checks
    graphs = connected_census(5) + random_sample(25, [6, 7], seed=99)
    failures = 0
    for g in graphs:
        for p in valid_triples(g.order):
            for decide in (is_nkd_by_definition, is_nkd_by_characterization):
                verdict = decide(g, p)
                if not verdict.holds:
                    failures += 1
                    assert verdict.witness is not None
                    assert verify_witness(g, p, verdict.witness), (g, p, verdict)
    assert failures > 500


def test_every_decomposition_witness_reverifies():
    found = 0
    for g in random_sample(40, [7, 8], seed=123):
        for p in valid_triples(g.order):
            for u, v in g.edges:
                for variant, pre in (("d1", p.n >= 2), ("d3", p.k >= 1)):
                    if not pre:
                        continue
                    w = find_decomposition_witness(g, p, (u, v), variant)
                    if w is not None:
                        found += 1
                        assert verify_decomposition_witness(g, p, w), (g, p, w)
    assert found > 10


@pytest.mark.parametrize("family, triple, variant, change", [
    (family_cliques_plus_edge_cone, (3, 1, 2), "d3", {"variant": "banana"}),
    (family_cliques_plus_edge_cone, (3, 1, 2), "d3", {"variant": None}),
    (family_cliques_plus_edge_cone, (3, 1, 2), "d3", {"variant": 3}),
    (family_cliques_plus_edge_cone, (3, 1, 2), "d3", {"variant": "D3"}),
    (family_cliques_plus_edge, (2, 1, 2), "d1", {"separator": (0, 1.0)}),
    (family_cliques_plus_edge, (2, 1, 2), "d1", {"separator": (0, 0)}),
    (family_cliques_plus_edge, (2, 1, 2), "d1", {"separator": (0, -7)}),
    (family_cliques_plus_edge, (2, 1, 2), "d1", {"odd_components": ((2.0,), (3, 4, 5))}),
    (family_cliques_plus_edge, (2, 1, 2), "d1", {"odd_components": ((-6,), (3, 4, 5))}),
    (family_cliques_plus_edge, (2, 1, 2), "d1", {"edge": (6.0, 7)}),
])
def test_decomposition_witness_with_a_foreign_variant_or_id_is_rejected(
        family, triple, variant, change):
    # the witness of edge 6-7 verifies; with a variant that is neither "d1"
    # nor "d3", or an id that is not a vertex of the graph, it must not
    g, p = family(2, 1), NkdParams(*triple)
    w = find_decomposition_witness(g, p, (6, 7), variant)
    assert verify_decomposition_witness(g, p, w)
    assert not verify_decomposition_witness(g, p, w._replace(**change))


def test_decider_equivalence_random_spot():
    for g in random_sample(40, [6, 7], seed=3):
        for p in valid_triples(g.order):
            decide_both(g, p)
            assert nkd_holds(g, p) == is_nkd_by_definition(g, p).holds


def test_definition_decider_vs_naive_oracle():
    # slow third opinion written straight from the definition, sharing no
    # code with the deciders
    from itertools import combinations

    from conftest import brute_force_nu

    def naive(g, p):
        vertices = set(range(g.order))
        for removed in combinations(range(g.order), p.n):
            rest = vertices - set(removed)
            sub, ids = g.induced_subgraph(rest)
            matchings = [
                m for m in combinations(sub.edges, p.k)
                if len({x for e in m for x in e}) == 2 * p.k
            ]
            if not matchings:
                return False
            for m in matchings:
                covered = {x for e in m for x in e}
                rem, _ = sub.delete_vertices(covered)
                if rem.order - 2 * brute_force_nu(rem) > p.d:
                    return False
        return True

    for g in random_sample(30, [5, 6], seed=11):
        for p in valid_triples(g.order):
            assert is_nkd_by_definition(g, p).holds == naive(g, p), (g, p)


def _plane_fixture(fixture, request) -> list[Graph]:
    if fixture == "order17":
        # its planes span two chunks of 2^16 masks, its cone's four
        return [random_graph(random.Random(17), 17, 0.25)]
    return request.getfixturevalue(fixture)


def _some_triples(order: int) -> list[NkdParams]:
    """Every valid triple, or every seventh at order 17, where a scan
    walks 2^17 masks."""
    return valid_triples(order)[::7 if order == 17 else 1]


def _scan_definition(g, p):
    """The definition checked literally, for every n-subset S in
    lexicographic order and every k-matching of G - S in canonical order:
    the oracle for the definition decider, which walks neither."""
    nu = _engine.nu_table(g)
    for subset in combinations(range(g.order), p.n):
        rest = _engine.full_mask(g) & ~_engine.mask_of(subset)
        if nu[rest] < p.k:
            return Verdict(False, NoKMatching(subset))
        for medges, mmask in _matchings_in_mask(g.edges, rest, p.k):
            rem = rest & ~mmask
            if rem.bit_count() - 2 * nu[rem] > p.d:
                blocker = berge_blocker_by_flood_fill(g, rem, p.d)
                assert blocker is not None, (g, p, subset, medges)
                return Verdict(False, BlockedExtension(subset, medges, blocker))
    return Verdict(True)


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample",
                                     "order12_dense", "order17"])
def test_definition_pass_matches_the_scan(fixture, request):
    # the violating sets decide, and the planes name the witness; the
    # verdict and witness must be the S-by-S scan's on every triple, and on
    # every seventh at order 17, whose planes span two 2^16-mask chunks
    kinds = set()
    for g in _plane_fixture(fixture, request):
        g = Graph(g.order, g.edges)
        for p in _some_triples(g.order):
            got = is_nkd_by_definition(g, p, cap=g.order)
            assert got == _scan_definition(g, p), (g, p)
            kinds.add(type(got.witness))
    want = {type(None), NoKMatching, BlockedExtension}
    # a dense order-12 graph keeps a k-matching after any n deletions
    assert kinds == (want - {NoKMatching} if fixture == "order12_dense" else want)


def _scan_characterization(g, p):
    """Every subset of every size from n upward, in size-then-lexicographic
    order, condition "i" tested before "ii" on each subset: the oracle for
    the characterization witness, which scans one size only."""
    n, k, d = p.as_tuple()
    nu, odd = _engine.nu_table(g), _engine.odd_table(g)
    full = _engine.full_mask(g)
    for size in range(n, g.order + 1):
        for subset in combinations(range(g.order), size):
            mask = _engine.mask_of(subset)
            o = odd[full & ~mask]
            if o > size - n + d:
                return Verdict(False, CharacterizationViolation("i", subset))
            if size >= n + 2 * k and nu[mask] >= k and o > size - n - 2 * k + d:
                return Verdict(False, CharacterizationViolation("ii", subset))
    return Verdict(True)


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample",
                                     "order12_dense", "order17"])
def test_characterization_witness_matches_the_scan(fixture, request):
    # the summary rows pick the witness's size and the planes name it;
    # verdict and witness must be the all-sizes scan's on every triple (every
    # seventh at order 17), both conditions must occur, and some witness
    # must lie above size n, where the two scans differ
    conditions, above_n = set(), 0
    for g in _plane_fixture(fixture, request):
        g = Graph(g.order, g.edges)
        for p in _some_triples(g.order):
            got = is_nkd_by_characterization(g, p, cap=g.order)
            assert got == _scan_characterization(g, p), (g, p)
            if not got.holds:
                conditions.add(got.witness.condition)
                above_n += len(got.witness.subset) > p.n
    assert conditions == {"i", "ii"}
    assert above_n > 0


def _decide_workload_graphs(seed: int = 1) -> list[Graph]:
    """The four order-14 graphs of the benchmark's first decide sweep for
    ``seed``: densities tiling 0.5-0.6 from a seeded offset."""
    rng = random.Random(f"decide/{seed}/0")
    offset = rng.random()
    return [random_graph(rng, 14, 0.5 + 0.1 * (j + offset) / 4) for j in range(4)]


def test_definition_witness_matches_the_scan_at_order_14():
    # holding triples cost the scan every n-set and matching, so only the
    # failing ones, whose witness the table-read n-set search locates
    failing = 0
    for g in _decide_workload_graphs():
        for p in valid_triples(g.order):
            if any(decision._violating_sets(g, *p.as_tuple())):
                failing += 1
                assert is_nkd_by_definition(g, p) == _scan_definition(g, p), (g, p)
    assert failing >= 40


def test_characterization_witness_matches_the_scan_at_order_14():
    # the failing triples only, as above; the scan stops at the witness
    failing = 0
    for g in _decide_workload_graphs():
        for p in valid_triples(g.order):
            if not nkd_holds(g, p):
                failing += 1
                assert is_nkd_by_characterization(g, p) == _scan_characterization(g, p), (g, p)
    assert failing >= 40


def _double_star(order: int) -> Graph:
    """Two adjacent hubs joined to every other vertex: deleting the hubs
    leaves no edge."""
    return Graph(order, [(0, 1)] + [(h, v) for h in (0, 1) for v in range(2, order)])


def test_definition_verdict_reads_only_the_matching_table(monkeypatch):
    """A holding triple and a NoKMatching failure are decided from the
    matching planes alone.  A BlockedExtension witness also reads the
    odd-count digits, through the blocker search that names it."""
    hubs = _double_star(7)

    def refuse(*args):
        raise AssertionError("the definition decider read a table other than nu")

    for name in ("odd_table", "odd_digits"):
        monkeypatch.setattr(_engine, name, refuse)
    monkeypatch.setattr(decision, "_char_summary", refuse)
    g = family_cliques_plus_edge(2, 1)
    assert is_nkd_by_definition(g, NkdParams(2, 1, 2)) == Verdict(True)
    got = is_nkd_by_definition(hubs, NkdParams(2, 1, 1))
    assert got == Verdict(False, NoKMatching(deleted=(0, 1)))
    # the verdict and the NoKMatching witness read the planes only
    assert set(g._cache) == {"nu_planes"}
    assert set(hubs._cache) == {"nu_planes"}
    with pytest.raises(AssertionError, match="other than nu"):
        is_nkd_by_definition(g, NkdParams(2, 1, 0))


def test_holding_triple_builds_no_list():
    # both deciders read a holding verdict from the planes, so a holding
    # order-14 check converts no plane into a 2^n list
    g = _decide_workload_graphs()[0]
    p = NkdParams(2, 2, 2)
    assert is_nkd_by_definition(g, p) == is_nkd_by_characterization(g, p) == Verdict(True)
    assert {"nu_planes", "odd_digits", "char_summary"} <= set(g._cache)
    assert not {"nu_table", "odd_table"} & set(g._cache)


@pytest.mark.parametrize("graph, triple, kind, condition", [
    ("double star", (2, 1, 0), NoKMatching, "i"),
    ("workload", (4, 2, 0), BlockedExtension, "ii"),
    ("workload", (6, 0, 0), BlockedExtension, "i"),
])
def test_failing_check_builds_no_list(graph, triple, kind, condition):
    # the witnesses are read from the planes too, so a failing order-14
    # check converts no plane into a 2^n list either
    g = _double_star(14) if graph == "double star" else _decide_workload_graphs()[0]
    g = Graph(g.order, g.edges)
    p = NkdParams(*triple)
    by_definition, by_characterization = is_nkd_by_definition(g, p), is_nkd_by_characterization(g, p)
    assert type(by_definition.witness) is kind
    assert by_characterization.witness.condition == condition
    assert verify_witness(g, p, by_definition.witness)
    assert verify_witness(g, p, by_characterization.witness)
    assert {"nu_planes", "odd_digits", "char_summary"} <= set(g._cache)
    assert not {"nu_table", "odd_table"} & set(g._cache)


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample", "order17"])
def test_plane_rows_match_the_list_fold(fixture, request):
    # a base graph's rows and its built cone's, each from its own planes,
    # against the fold on a fresh copy; the cone of an order-17 graph has
    # planes of several chunks
    for g in _plane_fixture(fixture, request):
        parent = Graph(g.order, g.edges)
        for h in (parent, parent.cone()):
            fresh = Graph(h.order, h.edges)
            assert _char_summary(h) == _fold_summary(fresh, fresh), (g, h.order)


def _scan_violating_sets(g, n, k, d):
    """The short n-sets and blocked (n + 2k)-sets by a test of every mask
    against the matching table: the oracle for the plane-read sets."""
    nu, full = _engine.nu_table(g), _engine.full_mask(g)
    need = (g.order - n - 2 * k - d) // 2
    short = [m for m in range(full + 1) if m.bit_count() == n and nu[full ^ m] < k]
    blocked = [m for m in range(full + 1)
               if m.bit_count() == n + 2 * k and nu[m] >= k and nu[full ^ m] < need]
    return short, blocked


def _masks_of(plane: int, order: int) -> list[int]:
    """The masks a 2^order-bit plane holds, in increasing order."""
    return [m for m, bit in enumerate(format(plane, f"0{1 << order}b")[::-1]) if bit == "1"]


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample", "order17"])
def test_violating_sets_match_a_per_mask_scan(fixture, request):
    seen = set()
    for g in _plane_fixture(fixture, request):
        g = Graph(g.order, g.edges)
        for p in _some_triples(g.order):
            short, blocked = decision._violating_sets(g, *p.as_tuple())
            got = (_masks_of(short, g.order), _masks_of(blocked, g.order))
            assert got == _scan_violating_sets(g, *p.as_tuple()), (g, p)
            seen.add((bool(short), bool(blocked)))
    # holding, blocked only and both; short only does not occur at order 17
    want = {(False, False), (False, True), (True, True)}
    assert seen == (want if fixture == "order17" else want | {(True, False)})


def test_downward_closure_spot():
    h = family_cliques_plus_edge(2, 1)
    for target in [(0, 1, 2), (2, 0, 2), (0, 0, 2)]:
        assert decide_both(h, NkdParams(*target))[0].holds


# -- separator decompositions -----------------------------------------------------

def test_d1_witness_found_and_verified():
    h = family_cliques_plus_edge(2, 1)
    p = NkdParams(2, 1, 2)
    w = find_decomposition_witness(h, p, (6, 7), "d1")
    assert w == DecompositionWitness(
        separator=(0, 1),
        edge=(6, 7),
        variant="d1",
        odd_components=((2,), (3, 4, 5)),
        separator_matching=((0, 1),),
    )
    assert verify_decomposition_witness(h, p, w)
    # deleting the distinguished edge indeed destroys the lowered parameters
    assert not nkd_holds(h.delete_edge(6, 7), NkdParams(0, 1, 2))


def test_d1_no_witness_for_safe_edge():
    h = family_cliques_plus_edge(2, 1)
    p = NkdParams(2, 1, 2)
    assert find_decomposition_witness(h, p, (0, 1), "d1") is None
    assert nkd_holds(h.delete_edge(0, 1), NkdParams(0, 1, 2))


def test_d1_impossible_at_defect_zero():
    assert find_decomposition_witness(complete(6), NkdParams(2, 1, 0), (0, 1), "d1") is None


def test_d3_witness_on_cone_family():
    h = family_cliques_plus_edge_cone(2, 1)
    p = NkdParams(3, 1, 2)
    w = find_decomposition_witness(h, p, (6, 7), "d3")
    assert w is not None
    assert w.separator == (0, 1, 8)
    assert w.separator_matching == ()
    assert verify_decomposition_witness(h, p, w)
    assert not nkd_holds(h.delete_edge(6, 7), NkdParams(3, 0, 2))


def test_d3_gadget_has_no_witness():
    h = family_gadget_chain(2)
    p = NkdParams(1, 3, 3)
    assert find_decomposition_witness(h, p, (10, 11), "d3") is None


def test_decomposition_witness_errors():
    h = family_cliques_plus_edge(2, 1)
    with pytest.raises(ParameterError, match="not an edge"):
        find_decomposition_witness(h, NkdParams(2, 1, 2), (0, 7), "d1")
    with pytest.raises(ParameterError, match="n >= 2"):
        find_decomposition_witness(h, NkdParams(0, 1, 2), (6, 7), "d1")
    with pytest.raises(ParameterError, match="k >= 1"):
        find_decomposition_witness(h, NkdParams(2, 0, 2), (6, 7), "d3")
    with pytest.raises(ParameterError, match="variant"):
        find_decomposition_witness(h, NkdParams(2, 1, 2), (6, 7), "d2")
    with pytest.raises(ParameterError, match="variant"):
        find_decomposition_witness(h, NkdParams(2, 1, 2), (6, 7), None)
    for bad in ((5, 6, 7), ("6", "7"), (6.0, 7.0), 6):
        with pytest.raises(ParameterError, match="pair of vertex ids"):
            find_decomposition_witness(h, NkdParams(2, 1, 2), bad, "d1")
    with pytest.raises(SearchCapExceeded):
        find_decomposition_witness(
            complete(15), NkdParams(2, 1, 1), (0, 1), "d1"
        )


def _separator_queries(g):
    for p in valid_triples(g.order):
        for edge in g.edges:
            for variant, pre in (("d1", p.n >= 2), ("d3", p.k >= 1)):
                if pre:
                    yield p, edge, variant


def _witnesses_agreeing_with_scan(graphs) -> int:
    # every separator query on each graph against the per-query subset
    # scan on a fresh graph, which shares no cache with the search
    found = 0
    for g in graphs:
        fresh = Graph(g.order, g.edges)
        for p, edge, variant in _separator_queries(g):
            got = find_decomposition_witness(g, p, edge, variant)
            want = _scan_decomposition_witness(fresh, p, edge, variant)
            assert (got and got.to_dict()) == (want and want.to_dict()), (g, p, edge, variant)
            found += got is not None
    return found


def test_separator_search_matches_subset_scan(census7, disconnected1000, order8_sample):
    assert _witnesses_agreeing_with_scan(census7 + disconnected1000 + order8_sample[:40]) > 1000
    # edges whose forced sets are empty or small, so the scan is widest
    sparse = [disjoint_union(*[complete(2)] * 5), cycle(12), family_cliques_plus_edge(3, 1),
              family_cliques_plus_edge_cone(2, 1), family_gadget_chain(2)]
    assert _witnesses_agreeing_with_scan(sparse) > 500


def test_oracles_read_no_odd_planes(monkeypatch):
    g = family_cliques_plus_edge(2, 1)
    p, edge = NkdParams(2, 1, 0), (6, 7)
    failures = [is_nkd_by_characterization(g, p).witness, is_nkd_by_definition(g, p).witness]
    assert all(failures)
    dp = NkdParams(2, 1, 2)
    found = find_decomposition_witness(g, dp, edge, "d1")
    assert found is not None

    def refuse(g):
        raise AssertionError("an oracle read a subset table")

    monkeypatch.setattr(_engine, "odd_digits", refuse)
    monkeypatch.setattr(_engine, "nu_table", refuse)
    fresh = Graph(g.order, g.edges)
    with pytest.raises(AssertionError, match="subset table"):
        _engine.odd_table(fresh)
    # the search reads the matching planes, and the subset scan no table
    assert find_decomposition_witness(Graph(g.order, g.edges), dp, edge, "d1") == found
    assert _scan_decomposition_witness(fresh, dp, edge, "d1") == found
    assert all(verify_witness(fresh, p, w) for w in failures)
    assert verify_decomposition_witness(fresh, dp, found)
    assert components(fresh).components == ((0, 1, 2), (3, 4, 5), (6, 7))
    assert odd_count_after_deletion(fresh, (0, 1)) == 2
    assert odd_count_after_deletion(fresh, (6,)) == 3
    assert not {"nu_planes", "nu_table", "odd_digits", "odd_table"} & set(fresh._cache)


def test_separator_search_reads_only_the_matching_planes(monkeypatch):
    def refuse(*args):
        raise AssertionError("the separator search read more than the matching planes")

    for owner, name in ((_engine, "nu_table"), (_engine, "odd_table"),
                        (decision, "_char_summary")):
        monkeypatch.setattr(owner, name, refuse)
    h = family_cliques_plus_edge(2, 1)
    # the rest of a 2-set separator has 4 vertices, so d = 2 asks level 1
    w = find_decomposition_witness(h, NkdParams(2, 1, 2), (6, 7), "d1")
    assert w is not None and w.separator == (0, 1)
    assert set(h._cache) == {"nu_planes", ("critical", 1)}
    # the forced set {2, ..., 5} of edge 0-1 outgrows the separator size 2,
    # so the search answers before building any table
    g = complete(6)
    assert find_decomposition_witness(g, NkdParams(2, 1, 0), (0, 1), "d1") is None
    assert g._cache == {}


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_critical_plane_matches_a_per_mask_scan(fixture, request):
    # level j holds the masks R with nu[R] = j that no vertex deletion
    # lowers, read from the list of a fresh copy that shares no planes
    for g in request.getfixturevalue(fixture):
        g = Graph(g.order, g.edges)
        nu = _engine.nu_table(Graph(g.order, g.edges))
        for j in range(nu[-1] + 1):
            want = [m for m in range(1 << g.order) if nu[m] == j
                    and all(nu[m & ~(1 << w)] == j for w in _engine.bits_of(m))]
            assert _masks_of(decision._critical_plane(g, j), g.order) == want, (g, j)


@pytest.mark.parametrize("family, witnessed", [(family_cliques_plus_edge(3, 2), True),
                                               (family_gadget_chain(3), False)],
                         ids=["cliques-plus-edge-3-2", "gadget-chain-3"])
def test_separator_search_matches_the_scan_above_the_census_cap(family, witnessed):
    # order 17: every seventh valid triple on the distinguished edge, whose
    # forced set is empty in the clique family, so the search is widest;
    # the gadget chain's edge has a witness at no valid triple
    g, edge, found = Graph(family.order, family.edges), (15, 16), 0
    for p in _some_triples(g.order):
        for variant, pre in (("d1", p.n >= 2), ("d3", p.k >= 1)):
            if pre:
                got = find_decomposition_witness(g, p, edge, variant, cap=17)
                want = _scan_decomposition_witness(family, p, edge, variant, cap=17)
                assert (got and got.to_dict()) == (want and want.to_dict()), (p, variant)
                found += got is not None
    assert (found > 0) == witnessed


def _edits(g):
    """Every edit of g whose host a census asks about: the cone, each G - uv
    and each G + uv."""
    yield ("cone",)
    for u, v in g.edges:
        yield ("delete_edge", u, v)
    for u, v in combinations(range(g.order), 2):
        if not g.has_edge(u, v):
            yield ("add_edge", u, v)


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_derived_summary_matches_fresh(fixture, request):
    # the host an edit builds against a fresh copy's summary, before any
    # decision; then every valid triple decided as an edit of the parent
    # against the copy.  No edit keeps rows of its own: the cone and G + uv
    # are read from the parent's lifted rows (``_lifted`` below), G - uv
    # from its edge's rise mask.  A fresh parent per graph keeps the shared
    # fixtures' caches free of hosts
    triples = {order: valid_triples(order) for order in range(1, 10)}
    for g in request.getfixturevalue(fixture):
        parent = Graph(g.order, g.edges)
        for edit in _edits(parent):
            h = getattr(parent, edit[0])(*edit[1:])
            fresh = Graph(h.order, h.edges)
            assert _char_summary(h) == _char_summary(fresh), (g, edit)
            params = triples[h.order]
            decided = [_edited_holds(parent, edit, *p.as_tuple()) for p in params]
            want = [_rows_hold(_char_summary(fresh), *p.as_tuple()) for p in params]
            assert decided == want, (g, edit)
            assert edit not in parent._cache, (g, edit)


def _lifted(g):
    """g's summary rows lifted by one row, row 0 kept: entry by entry an
    upper bound on the summary of every G + uv."""
    rows = _char_summary(g)
    return [rows[0]] + rows


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_lifted_rows_bound_every_added_edge_and_decide_the_cone(fixture, request):
    # adding uv raises no odd count and adds a matching edge only through
    # uv, so every freshly built G + uv's summary lies at or below the
    # parent's lifted rows.  The cone's verdict read from those rows equals
    # the definition decider's on a freshly built cone, on every valid
    # triple of its order, n = 0 included; no cone is built for it, and
    # none of the parent's planes is converted into a list
    for g in request.getfixturevalue(fixture):
        parent = Graph(g.order, g.edges)
        lifted = _lifted(parent)
        for u, v in combinations(range(g.order), 2):
            if parent.has_edge(u, v):
                continue
            exact = _char_summary(Graph(g.order, g.edges).add_edge(u, v))
            assert len(exact) <= len(lifted), (g, u, v)
            for row, exact_row in zip(lifted, exact):
                assert all(map(int.__ge__, row, exact_row)), (g, u, v)
        cone = Graph(g.order, g.edges).cone()
        for p in valid_triples(cone.order):
            got = _edited_holds(parent, ("cone",), *p.as_tuple())
            assert got is is_nkd_by_definition(cone, p).holds, (g, p)
        assert ("host", "cone") not in parent._cache, g
        assert not {"nu_table", "odd_table"} & set(parent._cache), g


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_deletion_rises_match_the_list_fold(fixture, request):
    # deleting uv raises no matching number, so the parent's nu with the
    # host's odd bounds G - uv's summary.  An edge's bit is set in the rise
    # mask of entry (k, s) exactly when that fold exceeds the parent's
    # entry there, and it never exceeds it by more than 2; reading the
    # rises converts none of the parent's planes
    for g in request.getfixturevalue(fixture):
        parent, base = Graph(g.order, g.edges), Graph(g.order, g.edges)
        rises, rows = decision._deletion_rises(parent), _char_summary(parent)
        for i, edge in enumerate(parent.edges):
            fold = _fold_summary(base, base.delete_edge(*edge))
            assert len(fold) == len(rows), (g, edge)
            for k, (fold_row, row) in enumerate(zip(fold, rows)):
                for s, (entry, own) in enumerate(zip(fold_row, row)):
                    rose = rises.get((k, s), 0) >> i & 1
                    assert rose == (entry > own) and entry <= own + 2, (g, edge, k, s)
        assert not {"nu_table", "odd_table"} & set(parent._cache), g


def _two_sweep_bridge_plane(g, u, v):
    """The bridge plane with both parts grown from their own end over the
    edges of G - uv: u outside v's part, and both parts' parity odd."""
    uv = (min(u, v), max(u, v))
    edges = [e for e in g.edges if e != uv]
    from_v, from_u = (decision._joined_planes(g.order, edges, source) for source in (v, u))
    return ~from_v[u] & reduce(xor, from_v) & reduce(xor, from_u)


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample", "order17"])
def test_bridge_plane_matches_the_two_sweep_formula(fixture, request):
    # the plane read from one sweep from v over the parent's own edges and
    # the parity of u's component must equal the two-sweep plane on every
    # edge, read from either end
    if fixture == "order17":
        graphs = [family_cliques_plus_edge(3, 2), family_gadget_chain(3)]
        assert {g.order for g in graphs} == {17}
    else:
        graphs = request.getfixturevalue(fixture)
    for g in graphs:
        parent = Graph(g.order, g.edges)
        joined = [decision._joined_planes(g.order, parent.edges, x) for x in range(g.order)]
        parity = [reduce(xor, planes) for planes in joined]
        for u, v in parent.edges:
            for a, b in ((u, v), (v, u)):
                got = decision._bridge_plane(parent, a, b, joined[b], parity)
                assert got == _two_sweep_bridge_plane(g, a, b), (g, a, b)


def _cached_planes(g) -> int:
    """How many 2^order-bit planes g's cache holds, in its values and the
    lists, tuples and dicts among them; row entries are small numbers."""
    def count(value):
        if isinstance(value, int):
            return value > 1 << (g.order + 1)
        if isinstance(value, dict):
            value = list(value.values())
        return sum(map(count, value)) if isinstance(value, (list, tuple)) else 0

    return count(list(g._cache.values()))


def test_deletion_rises_keep_no_sweep_planes(order12_dense):
    # every G - uv host is decided from one sweep of joined planes per
    # vertex, and none of those planes stays cached on the graph: about
    # order^2 of them would, against its few matching, digit and maximiser
    # planes.  The rise map beside them holds edge masks, not planes
    for g in order12_dense:
        g = Graph(g.order, g.edges)
        for p in valid_triples(g.order):
            decision._bound_candidates(g, *p.as_tuple())
        rises = g._cache.pop("deletion_rises")
        assert all(0 < mask < 1 << len(g.edges) for mask in rises.values()), g
        planes = len(_engine.nu_planes(g)) + len(_engine.odd_digits(g)) + len(g._cache["maximisers"])
        assert _cached_planes(g) == planes <= 2 * g.order, g


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10**6), st.floats(0.0, 1.0))
def test_summary_entries_have_the_parity_of_the_order(order, seed, density):
    # odd(G[R]) = |R| (mod 2), so (odd components of V - S) - |S| has the
    # parity of the order; the deletion filter relies on it, and on the
    # thresholds d - n and d - n - 2k of a valid triple sharing it
    g = random_graph(random.Random(seed), order, density)
    for row in _char_summary(g):
        for entry in row:
            assert entry == decision._NEG or (entry - order) % 2 == 0, (g, row)
    for p in valid_triples(order):
        assert (p.d - p.n - order) % 2 == 0


@pytest.mark.parametrize("fixture", ["census7", "disconnected1000", "order8_sample"])
def test_check_graph_caches_the_definition_verdict_per_triple(fixture, request):
    # a census decides the graph's own verdict on every valid triple into
    # the verdict cache that its hosts read; each cached verdict against
    # the definition decider on a fresh copy.  A4 applies to few triples,
    # so its checker adds little
    for g in request.getfixturevalue(fixture):
        g, fresh = Graph(g.order, g.edges), Graph(g.order, g.edges)
        check_graph(g, theorems=("A4",))
        params = valid_triples(g.order)
        assert [g._cache[("nkd",) + p.as_tuple()] for p in params] == [
            is_nkd_by_definition(fresh, p).holds for p in params], g


@pytest.mark.parametrize("code, edit, triple, holds", [
    ("C?", ("add_edge", 0, 1), (0, 0, 2), True),
    ("Ck", ("delete_edge", 0, 1), (0, 1, 0), True),
    ("C@", ("delete_edge", 2, 3), (0, 0, 0), False),
    ("A?", ("cone",), (1, 0, 0), False),
])
def test_inconclusive_bound_is_decided_exactly(code, edit, triple, holds):
    # edits whose bound does not show the target holding: G + uv's lifted
    # rows, or the G - uv edge's rise mask.  The answer comes from the
    # exact rows of a host built once for the purpose, which keeps no
    # lists.  The cone's rows are exact, so its failing target is decided
    # without a host.  No edit keeps rows of its own
    g = read_graph6(code)
    fresh = decision._apply_edit(Graph(g.order, g.edges), edit)
    assert is_nkd_by_definition(fresh, NkdParams(*triple)).holds is holds
    if edit[0] == "add_edge":
        assert not _rows_hold(_lifted(g), *triple)
    elif edit[0] == "delete_edge":
        assert decision._bound_candidates(g, *triple) >> g.edges.index(edit[1:]) & 1
    assert _edited_holds(g, edit, *triple) is holds
    assert edit not in g._cache
    if edit[0] == "cone":
        assert ("host",) + edit not in g._cache
        return
    h = g._cache[("host",) + edit]
    assert h._cache["char_summary"] == _char_summary(fresh)
    assert not {"nu_table", "odd_table"} & set(h._cache)
    assert _edited_holds(g, edit, *triple) is holds
    assert g._cache[("host",) + edit] is h


def test_decomposition_witness_kv_lines():
    h = family_cliques_plus_edge(2, 1)
    w = find_decomposition_witness(h, NkdParams(2, 1, 2), (6, 7), "d1")
    lines = w.kv_lines()
    assert lines[0] == "variant: d1"
    assert "separator: 0 1" in lines
    assert "edge-component: 6 7" in lines
