import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchext import (
    ParameterError,
    components,
    family_cliques_plus_edge,
    is_bipartite,
    is_connected,
    is_factor_critical,
    is_n_critical,
    is_n_factor_critical,
    odd_count_after_deletion,
)
from conftest import (
    complete,
    complete_bipartite,
    connected_census,
    cycle,
    disjoint_union,
    empty,
    path,
    random_graph,
)


def test_components_ordering_and_parity():
    g = family_cliques_plus_edge(2, 1)
    profile = components(g)
    assert profile.components == ((0, 1, 2), (3, 4, 5), (6, 7))
    assert [profile.is_odd(i) for i in range(3)] == [True, True, False]
    assert profile.odd_count() == 2


def test_components_trivial_cases():
    assert len(components(complete(6))) == 1
    profile = components(empty(3))
    assert profile.components == ((0,), (1,), (2,))
    assert profile.odd_count() == 3
    assert len(components(empty(0))) == 0


def test_odd_count_after_deletion():
    assert odd_count_after_deletion(complete_bipartite(3, 3), {0, 1, 2}) == 3
    assert odd_count_after_deletion(cycle(5), set()) == 1
    assert odd_count_after_deletion(family_cliques_plus_edge(2, 1), set()) == 2
    with pytest.raises(ParameterError):
        odd_count_after_deletion(cycle(5), {9})


def test_is_connected():
    assert is_connected(cycle(4))
    assert not is_connected(disjoint_union(cycle(3), cycle(3)))
    assert is_connected(complete(1))
    assert not is_connected(empty(0))


def test_is_bipartite():
    assert is_bipartite(complete_bipartite(3, 3))
    assert is_bipartite(cycle(6))
    assert not is_bipartite(cycle(5))
    assert is_bipartite(empty(4))
    assert not is_bipartite(disjoint_union(cycle(6), cycle(3)))


def test_is_factor_critical():
    assert is_factor_critical(cycle(5))
    assert is_factor_critical(complete(5))
    assert is_factor_critical(complete(1))
    assert not is_factor_critical(path(3))
    assert not is_factor_critical(complete(4))
    # disconnected odd-order graph
    assert not is_factor_critical(disjoint_union(cycle(3), complete(4)))


def test_is_n_factor_critical():
    assert is_n_factor_critical(complete(5), 3)
    assert is_n_factor_critical(cycle(5), 1)
    assert not is_n_factor_critical(cycle(5), 3)
    assert is_n_factor_critical(complete(4), 2)


def test_is_n_factor_critical_parameter_errors():
    with pytest.raises(ParameterError, match="parity"):
        is_n_factor_critical(cycle(5), 2)
    with pytest.raises(ParameterError):
        is_n_factor_critical(complete(4), 5)
    with pytest.raises(ParameterError):
        is_n_factor_critical(complete(4), -1)


def test_factor_critical_three_ways():
    # single-vertex test == n-subset test with n=1 == decision on (1, 0, 0)
    for g in connected_census(6):
        if g.order % 2 == 0:
            continue
        direct = is_factor_critical(g)
        assert direct == is_n_factor_critical(g, 1)
        if g.order >= 3:
            assert direct == is_n_critical(g, 1).holds


def test_component_profile_parities():
    # the odd components are the factor-critical cliques, the even one the edge
    g = family_cliques_plus_edge(2, 2)
    profile = components(g)
    for i, comp in enumerate(profile):
        assert profile.is_odd(i) == is_factor_critical(g.induced_subgraph(comp)[0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 10**6))
def test_component_sizes_partition_vertices(order, seed):
    g = random_graph(random.Random(seed), order, 0.4)
    profile = components(g)
    all_vertices = sorted(v for comp in profile for v in comp)
    assert all_vertices == list(range(order))
    assert profile.odd_count() % 2 == order % 2


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6), st.data())
def test_two_extra_deletions_bound_odd_count_change(order, seed, data):
    g = random_graph(random.Random(seed), order, 0.4)
    x, y = data.draw(
        st.lists(st.integers(0, order - 1), min_size=2, max_size=2, unique=True)
    )
    removable = [v for v in range(order) if v not in (x, y)]
    subset = data.draw(st.sets(st.sampled_from(removable)) if removable else st.just(set()))
    before = odd_count_after_deletion(g, subset)
    after = odd_count_after_deletion(g, set(subset) | {x, y})
    # Deleting a vertex removes at most its own odd component, splits that
    # component into at most deg(v) parts, and keeps the odd count's parity
    # equal to the parity of the remaining vertex count.
    assert before - 2 <= after <= before + g.degree(x) + g.degree(y)
    assert (after - before) % 2 == 0
