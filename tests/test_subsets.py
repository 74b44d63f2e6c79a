import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espider._subsets import is_forest, subset_type_census
from espider.graphs import enumerate_trees

from oracles import naive_subset_census


def test_no_edges():
    assert subset_type_census(3, []) == {(1, 1, 1): 1}


def test_single_edge():
    expect = {(1, 1): 1, (2,): -1}
    assert subset_type_census(2, [(0, 1)]) == expect


def test_triangle_has_cycle_edges():
    edges = [(0, 1), (1, 2), (0, 2)]
    assert not is_forest(3, edges)
    assert subset_type_census(3, edges) == naive_subset_census(3, edges)


def test_trees_match_naive_oracle():
    for n in range(1, 12):
        for t in enumerate_trees(n):
            edges = sorted(t.edges)
            assert subset_type_census(n, edges) == naive_subset_census(n, edges)


graph_cases = st.integers(3, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e))),
            min_size=0, max_size=9, unique=True)))


@given(graph_cases)
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_random_graphs(case):
    n, edges = case
    assert subset_type_census(n, edges) == naive_subset_census(n, edges)


@st.composite
def forest_cases(draw):
    """A forest on shuffled labels: each vertex after the first hangs off an
    earlier one or starts a new component."""
    n = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        p = draw(st.one_of(st.none(), st.integers(0, v - 1)))
        if p is not None:
            edges.append((labels[p], labels[v]) if draw(st.booleans())
                         else (labels[v], labels[p]))
    return n, draw(st.permutations(edges))


@given(forest_cases())
@settings(max_examples=80, deadline=None)
def test_forests_match_naive_oracle(case):
    n, edges = case
    assert is_forest(n, edges)
    assert subset_type_census(n, edges) == naive_subset_census(n, edges)


def test_repeated_edge_is_a_cycle():
    edges = [(0, 1), (0, 1), (1, 2)]
    assert not is_forest(3, edges)
    assert subset_type_census(3, edges) == naive_subset_census(3, edges)


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        subset_type_census(0, [])
    with pytest.raises(ValueError):
        subset_type_census(2, [(0, 2)])
    with pytest.raises(ValueError):
        subset_type_census(2, [(1, 1)])
