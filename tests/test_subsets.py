import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espider import _subsets
from espider.graphs import Tree, enumerate_trees
from espider.partitions import MAX_PACKED_WEIGHT, pack, partitions_of, unpack

from oracles import connected_partition_types, naive_subset_census


def subset_type_census(n, edges):
    """The census with its packed keys read back as partition tuples."""
    return {unpack(k): c for k, c in _subsets.subset_type_census(n, edges).items()}


def walk(order, parent, sign=-1):
    """The rooted walk over an order, read back the same way, without the
    entries that cancel to zero."""
    census = _subsets.rooted_census(order, parent, sign)
    return {unpack(k): c for k, c in census.items() if c}


def tree_census(t, sign=-1):
    """The walk over a tree's own order."""
    return walk(t._order, t._parent, sign)


def rooted_at(t, root):
    """(order, parent) of t rooted at ``root``, by a walk out from it."""
    adj = [[] for _ in range(t.n)]
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * t.n
    parent[root] = root
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] == -1:
                parent[y] = x
                order.append(y)
    return order, parent


def test_no_edges():
    assert subset_type_census(3, []) == {(1, 1, 1): 1}


def test_single_edge():
    expect = {(1, 1): 1, (2,): -1}
    assert subset_type_census(2, [(0, 1)]) == expect


def test_triangle_has_cycle_edges():
    edges = [(0, 1), (1, 2), (0, 2)]
    assert subset_type_census(3, edges) == naive_subset_census(3, edges)


def test_trees_match_naive_oracle():
    # each enumerated tree, and a copy relabelled v -> v + 1 (mod n) that
    # the checked constructor builds: both walk from a centroid, but the
    # copy's order comes from its own walk out from vertex 0 and lists
    # other labels
    for n in range(1, 12):
        for t in enumerate_trees(n):
            naive = naive_subset_census(n, sorted(t.edges))
            u = Tree(n, [((a + 1) % n, (b + 1) % n) for a, b in t.edges])
            if n >= 3:
                assert (u._order, u._parent) != (t._order, t._parent), t
            assert tree_census(t) == naive, t
            assert tree_census(u) == naive, u


def test_walk_from_every_root():
    # a tree keeps its order from a centroid; the walk must give the same
    # census from any root: signed, unsigned and pruned to each type
    for n in range(1, 9):
        for t in enumerate_trees(n):
            edges = sorted(t.edges)
            signed = naive_subset_census(n, edges)
            plain = naive_subset_census(n, edges, sign=1)
            present = connected_partition_types(n, edges)
            for root in range(n):
                order, parent = rooted_at(t, root)
                assert walk(order, parent) == signed, (t, root)
                assert walk(order, parent, 1) == plain, (t, root)
                for typ in partitions_of(n):
                    pruned = _subsets.rooted_census(
                        order, parent, 1, _subsets.fits_in(typ.parts))
                    assert pruned.get(pack(typ.parts), 0) == \
                        plain.get(typ.parts, 0), (t, root, typ)
                    assert bool(pruned.get(pack(typ.parts))) == \
                        (typ.parts in present), (t, root, typ)


def test_unsigned_walk_counts_subsets_by_type():
    # sign +1: the plain count of edge subsets per type, whose types are the
    # tree's connected-partition types and whose counts add up to 2^|E|
    for n in range(1, 10):
        for t in enumerate_trees(n):
            edges = sorted(t.edges)
            counts = tree_census(t, 1)
            assert counts == naive_subset_census(n, edges, sign=1), t
            assert set(counts) == connected_partition_types(n, edges), t
            assert sum(counts.values()) == 2 ** (n - 1), t


def test_interleaved_walks_agree_with_naive_oracle():
    # signed, unsigned and pruned walks take turns on each tree, so a leaf
    # map that one walk changed would show in the next one's counts
    for n in range(1, 10):
        for t in enumerate_trees(n):
            edges = sorted(t.edges)
            signed = naive_subset_census(n, edges)
            plain = naive_subset_census(n, edges, sign=1)
            for typ in partitions_of(n):
                pruned = _subsets.rooted_census(
                    t._order, t._parent, 1, _subsets.fits_in(typ.parts))
                got = pruned.get(pack(typ.parts), 0)
                assert got == plain.get(typ.parts, 0), (t, typ)
                for key, c in pruned.items():
                    assert 0 <= c <= plain.get(unpack(key), 0), (t, typ)
                assert tree_census(t) == signed, (t, typ)
                assert tree_census(t, 1) == plain, (t, typ)


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
    assert subset_type_census(n, edges) == naive_subset_census(n, edges)


def test_repeated_edge_is_a_cycle():
    edges = [(0, 1), (0, 1), (1, 2)]
    assert subset_type_census(3, edges) == naive_subset_census(3, edges)


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        subset_type_census(0, [])
    with pytest.raises(ValueError):
        subset_type_census(MAX_PACKED_WEIGHT + 1, [])
    with pytest.raises(ValueError):
        subset_type_census(2, [(0, 2)])
    with pytest.raises(ValueError):
        subset_type_census(2, [(1, 1)])
