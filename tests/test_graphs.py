import copy
import pickle
import random

import pytest

from espider.graphs import (Spider, Tree, TreeKeys, _centre_form,
                            _diameter_sequences, _parents, _shift_tables,
                            enumerate_spiders, enumerate_trees,
                            first_missing_type, has_connected_partition,
                            line_graph, mn_tree, reduce_to_spider,
                            spider_mod_type_info, spider_to_tree)
from espider.partitions import Partition, partitions_of

from oracles import (ahu_canonical, component_sizes_without,
                     connected_partition_types, free_tree_count_by_prufer,
                     free_trees_unpruned, height_is_diameter,
                     rooted_level_sequences)


def test_spider_basics():
    s = Spider([2, 1, 1])
    assert s.n == 5 and s.d == 3
    assert str(s) == "S[2,1,1]"
    assert Spider.parse("S[3,2,1]").n == 7
    with pytest.raises(ValueError):
        Spider([])


def test_spider_to_tree_examples():
    t = spider_to_tree(Spider([1]))
    assert t.n == 2 and t.edges == frozenset({(0, 1)})
    t = spider_to_tree(Spider([2, 1, 1]))
    assert t.n == 5 and t.degree(0) == 3
    t = spider_to_tree(Spider([3, 2, 1]))
    assert t.n == 7 and t.degree(0) == 3
    assert len(t.edges) == 6


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(3, [(0, 1)])  # too few edges
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (1, 2), (0, 2)])  # cycle, disconnected vertex
    with pytest.raises(ValueError):
        Tree(2, [(0, 0)])
    with pytest.raises(ValueError):
        Tree(2, [(0, 5)])
    with pytest.raises(ValueError):
        Tree(3, [(0, 1), (1, 0), (1, 2)])  # an edge given twice


def test_pickle_and_deepcopy_round_trip():
    for obj in (Partition([3, 1, 1]), Partition(), Spider([4, 2, 1]),
                mn_tree(2), Tree(1, [])):
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(back) is type(obj) and back == obj
            assert repr(back) == repr(obj) and hash(back) == hash(obj)
    t = pickle.loads(pickle.dumps(mn_tree(2)))
    assert [t.degree(v) for v in range(t.n)] == \
        [mn_tree(2).degree(v) for v in range(t.n)]
    with pytest.raises(AttributeError):
        t.n = 3


def test_tree_text_round_trip():
    t = mn_tree(2)
    assert Tree.from_text(t.to_text()) == t


def test_connected_partition_vs_subset_oracle_small():
    for n in range(2, 10):
        for t in enumerate_trees(n):
            types = connected_partition_types(t.n, sorted(t.edges))
            for lam in partitions_of(n):
                assert has_connected_partition(t, lam) == (lam.parts in types), \
                    (t, lam)


@pytest.mark.slow
def test_connected_partition_vs_subset_oracle_full():
    # the n = 10..12 tail of the same sweep
    for n in range(10, 13):
        for t in enumerate_trees(n):
            types = connected_partition_types(t.n, sorted(t.edges))
            for lam in partitions_of(n):
                assert has_connected_partition(t, lam) == (lam.parts in types), \
                    (t, lam)


def test_connected_partitions_of_large_trees():
    # 200 vertices: the count of 1s outgrows a packed field's guard bit;
    # a tree past the packed-key cap of 255 vertices is refused
    path = Tree(200, [(v, v + 1) for v in range(199)])
    for parts in ([1] * 200, [2] + [1] * 198, [3] * 66 + [2]):
        assert has_connected_partition(path, Partition(parts)), parts
    star = spider_to_tree(Spider([1] * 199))  # one block can hold the hub
    assert has_connected_partition(star, Partition([3] + [1] * 197))
    assert not has_connected_partition(star, Partition([2, 2] + [1] * 196))
    with pytest.raises(ValueError):
        has_connected_partition(Tree(256, [(v, v + 1) for v in range(255)]),
                                Partition([256]))


def test_trivial_types_always_present():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            assert has_connected_partition(t, Partition([n]))
            assert has_connected_partition(t, Partition([1] * n))


def test_spider_packing_equals_tree_search():
    for n in range(2, 12):
        for s in enumerate_spiders(n):
            t = spider_to_tree(s)
            for lam in partitions_of(n):
                assert s.has_connected_partition(lam) == \
                    has_connected_partition(t, lam), (s, lam)


def test_mod_type_info_vs_brute_force():
    for n in range(2, 11):
        for s in enumerate_spiders(n):
            types = connected_partition_types(n, sorted(spider_to_tree(s).edges))
            for m in range(2, n + 1):
                info = spider_mod_type_info(s, m)
                assert info.has_type == (info.type_partition.parts in types), \
                    (s, m)


def test_known_connected_partition_facts():
    assert first_missing_type(Spider([1, 1, 1])) == Partition([2, 2])
    assert first_missing_type(Spider([6, 4, 1, 1])) is None
    assert Spider([2, 2, 2]).has_connected_partition(Partition([2, 2, 2, 1]))
    assert first_missing_type(Spider([15, 12, 2, 1])) is None


def test_first_missing_is_revlex_first():
    t = spider_to_tree(Spider([1, 1, 1]))
    assert first_missing_type(t) == Partition([2, 2])


def test_tree_first_missing_matches_per_type_loop():
    # a tree looks every type up in one unpruned walk; asking for each type
    # in turn, reverse-lexicographically, must stop at the same one
    for n in range(1, 11):
        for t in enumerate_trees(n):
            want = next((typ for typ in partitions_of(n)
                         if not has_connected_partition(t, typ)), None)
            assert first_missing_type(t) == want, t
    with pytest.raises(ValueError):
        first_missing_type(Tree(256, [(v, v + 1) for v in range(255)]))


def test_subtree_reduction_examples():
    s = Spider([3, 2, 1])
    t = spider_to_tree(s)
    assert reduce_to_spider(t, 0) == s  # the center is a fixed point
    with pytest.raises(ValueError):
        reduce_to_spider(t, 1)  # degree 2
    t2 = mn_tree(2)
    spiders = {str(reduce_to_spider(t2, v))
               for v in range(t2.n) if t2.degree(v) >= 3}
    assert spiders == {"S[4,1,1]", "S[3,2,1]"}
    t4 = mn_tree(4)
    spiders = {str(reduce_to_spider(t4, v))
               for v in range(t4.n) if t4.degree(v) >= 3}
    assert spiders == {"S[6,3,1]", "S[5,4,1]"}


def test_subtree_reduction_preserves_missing_types():
    # a type present in the tree is present in every reduced spider
    for n in range(3, 11):
        for t in enumerate_trees(n):
            hubs = [v for v in range(n) if t.degree(v) >= 3]
            if not hubs:
                continue
            tree_types = connected_partition_types(n, sorted(t.edges))
            for v in hubs:
                sp = reduce_to_spider(t, v)
                for lam in partitions_of(n):
                    if lam.parts in tree_types:
                        assert sp.has_connected_partition(lam), (t, v, lam)


def _relabelled(t, rng):
    """t under a random permutation of its vertices, through the checked
    constructor, so its order comes from that constructor's own walk over
    other labels."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    return perm, Tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


def test_reductions_match_union_find():
    # every reduced spider of every tree with n <= 12, and of a relabelling
    # of it, against the pieces union-find leaves when v is deleted
    rng = random.Random(15)
    for n in range(1, 13):
        for t in enumerate_trees(n):
            perm, u = _relabelled(t, rng)
            for tree in (t, u):
                edges = sorted(tree.edges)
                hubs = [v for v in range(n)
                        if sum(v in e for e in edges) >= 3]
                assert [(v, list(legs))
                        for v, legs in tree.reductions()] == \
                    [(v, component_sizes_without(n, edges, v))
                     for v in hubs], tree
            assert sorted((perm[v], sp) for v, sp in t.reductions()) == \
                u.reductions(), (t, perm)


def test_connected_partitions_survive_relabelling():
    rng = random.Random(9)
    for n in range(1, 10):
        for t in enumerate_trees(n):
            _, u = _relabelled(t, rng)
            for lam in partitions_of(n):
                assert t.has_connected_partition(lam) == \
                    u.has_connected_partition(lam), (t, u, lam)


def test_leg_combining_preserves_types():
    for n in range(3, 13):
        for s in enumerate_spiders(n):
            if s.d < 2:
                continue
            present = [lam for lam in partitions_of(n)
                       if s.has_connected_partition(lam)]
            for i in range(s.d):
                for j in range(i + 1, s.d):
                    s2 = Spider(s.legs.combine_parts(i, j))
                    for lam in present:
                        assert s2.has_connected_partition(lam), (s, s2, lam)


def test_line_graph_examples():
    p4 = spider_to_tree(Spider([3]))
    lg = line_graph(p4)
    assert lg.n == 3 and len(lg.edges) == 2  # a path again
    lg = line_graph(spider_to_tree(Spider([1, 1, 1])))
    assert lg.n == 3 and len(lg.edges) == 3  # triangle
    net = line_graph(spider_to_tree(Spider([2, 2, 2])))
    assert net.n == 6 and len(net.edges) == 6
    degs = sorted(sum(v in e for e in net.edges) for v in range(6))
    assert degs == [1, 1, 1, 3, 3, 3]


def test_mn_tree_shape():
    t = mn_tree(1)
    assert t.n == 5
    assert sum(1 for v in range(5) if t.degree(v) == 3) == 1
    for n in (2, 3, 4):
        t = mn_tree(n)
        assert t.n == 2 * n + 3
        assert sum(1 for v in range(t.n) if t.degree(v) == 3) == 2


def test_enumerate_spiders():
    assert [str(s) for s in enumerate_spiders(4)] == \
        ["S[3]", "S[2,1]", "S[1,1,1]"]
    assert sum(1 for _ in enumerate_spiders(5)) == 5
    assert [str(s) for s in enumerate_spiders(2)] == ["S[1]"]
    assert [str(s) for s in enumerate_spiders(8, legs=3)] == \
        ["S[5,1,1]", "S[4,2,1]", "S[3,3,1]", "S[3,2,2]"]


def test_enumerate_trees_counts():
    # OEIS A000055
    known = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
    for n, expect in zip(range(1, 15), known):
        assert sum(1 for _ in enumerate_trees(n)) == expect


def test_height_is_diameter_matches_bfs():
    # the pruned walk keeps exactly the rooted sequences whose height is
    # the diameter found by two breadth-first searches, with that height;
    # the former filter, the reference below, agrees with the searches
    def farthest(adj, src):
        dist = {src: 0}
        order = [src]
        for v in order:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    order.append(w)
        return order[-1], dist[order[-1]]

    for n in range(2, 12):
        kept = []
        for seq in rooted_level_sequences(n):
            adj = [[] for _ in seq]
            for v, p in enumerate(_parents(seq)):
                if v:
                    adj[p].append(v)
                    adj[v].append(p)
            diameter = farthest(adj, farthest(adj, 0)[0])[1]
            assert height_is_diameter(seq) == (max(seq) == diameter), seq
            if max(seq) == diameter:
                kept.append((seq, diameter))
        assert [(tuple(seq), h) for seq, h in _diameter_sequences(n)] == \
            kept, n


def test_diameter_sequences_match_successor_and_filter():
    # the pruned walk against the former unpruned successor rule and
    # filter, past the sizes the search above covers
    for n in range(1, 15):
        assert [tuple(seq) for seq, _ in _diameter_sequences(n)] == \
            [seq for seq in rooted_level_sequences(n)
             if height_is_diameter(seq)], n


def test_enumerate_trees_matches_unpruned_enumerator():
    # skipping rootings whose height is below the diameter keeps every
    # representative, its labels and its place in the order
    for n in range(1, 13):
        assert [sorted(t.edges) for t in enumerate_trees(n)] == \
            free_trees_unpruned(n), n


def test_enumerate_trees_vs_prufer_oracle():
    for n in range(2, 9):
        assert sum(1 for _ in enumerate_trees(n)) == free_tree_count_by_prufer(n)


def test_enumerate_trees_pairwise_non_isomorphic():
    for n in range(2, 11):
        trees = list(enumerate_trees(n))
        ahu = {ahu_canonical(t.n, sorted(t.edges)) for t in trees}
        assert len(ahu) == len(trees)


def test_canonical_form_matches_ahu():
    # on every sequence the enumerator keeps, the form built from the
    # sequence's blocks is an isomorphism invariant and a complete one, and
    # it is the level sequence of a tree with those edges
    for n in range(1, 11):
        shift = _shift_tables(n // 2 + 1)
        pairs = set()
        for seq, h in _diameter_sequences(n):
            parents = _parents(seq)
            edges = [(parents[v], v) for v in range(1, n)]
            form = _centre_form(seq, h, shift)
            rooted = _parents(form)
            assert ahu_canonical(n, [(rooted[v], v) for v in range(1, n)]) \
                == ahu_canonical(n, edges), seq
            pairs.add((form, ahu_canonical(n, edges)))
        assert len({f for f, _ in pairs}) == len(pairs), n
        assert len({a for _, a in pairs}) == len(pairs), n


def test_enumerate_trees_deterministic():
    a = [sorted(t.edges) for t in enumerate_trees(9)]
    b = [sorted(t.edges) for t in enumerate_trees(9)]
    assert a == b


def test_enumerated_trees_match_the_checked_constructor():
    # the representatives are built without the constructor's checks, and
    # re-root the enumerator's order in place of the constructor's walk;
    # each must be the tree the checked constructor builds from its edges,
    # with the same reductions, and in both the degrees must be the edge
    # counts and the order must start at a centroid and put every vertex
    # after its parent
    for n in range(1, 11):
        for t in enumerate_trees(n):
            checked = Tree(n, sorted(t.edges))
            assert t == checked
            assert t.reductions() == checked.reductions(), t
            incident = [sum(v in e for e in t.edges) for v in range(n)]
            for tree in (t, checked):
                assert [tree.degree(v) for v in range(n)] == incident, tree
                root = tree._order[0]
                assert sorted(tree._order) == list(range(n))
                assert root == tree._parent[root]
                assert all(2 * size <= n for size in
                           component_sizes_without(n, sorted(tree.edges),
                                                   root)), tree
                place = {v: i for i, v in enumerate(tree._order)}
                for v in tree._order[1:]:
                    p = tree._parent[v]
                    assert place[p] < place[v], tree
                    assert tuple(sorted((p, v))) in tree.edges, tree


def test_tree_keys_equal_exactly_for_isomorphic_trees():
    # every tree with n <= 10 under three random relabellings: keys agree
    # with the centroid parenthesis encoding of tests/oracles
    rng = random.Random(7)
    key = TreeKeys()
    classes = {}
    for n in range(1, 11):
        for t in enumerate_trees(n):
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                edges = [(perm[u], perm[v]) for u, v in t.edges]
                classes.setdefault(key(Tree(n, edges)), set()).add(
                    ahu_canonical(n, edges))
    assert all(len(forms) == 1 for forms in classes.values())
    assert len(classes) == len(set().union(*classes.values())) == 201

