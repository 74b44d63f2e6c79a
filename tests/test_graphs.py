import copy
import pickle

import pytest

from espider.graphs import (SimpleGraph, Spider, Tree, _canonical_form,
                            _height_is_diameter, _parents,
                            _rooted_level_sequences, enumerate_spiders,
                            enumerate_trees, first_missing_type,
                            graph_has_connected_partition,
                            has_connected_partition, line_graph, mn_tree,
                            reduce_to_spider, spider_mod_type_info,
                            spider_to_tree)
from espider.partitions import Partition, partitions_of

from oracles import (ahu_canonical, connected_partition_types,
                     free_tree_count_by_prufer, free_trees_unpruned)


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
    degs = sorted(len(net.adj[v]) for v in range(6))
    assert degs == [1, 1, 1, 3, 3, 3]


def test_complete_spiders_have_complete_line_graphs():
    for n in range(3, 11):
        for s in enumerate_spiders(n):
            if first_missing_type(s) is not None:
                continue
            lg = line_graph(spider_to_tree(s))
            for lam in partitions_of(lg.n):
                assert graph_has_connected_partition(lg, lam), (s, lam)


def test_graph_connected_partition_small_cases():
    triangle = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert graph_has_connected_partition(triangle, Partition([2, 1]))
    assert graph_has_connected_partition(triangle, Partition([1, 1, 1]))
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert not graph_has_connected_partition(star, Partition([2, 2]))
    c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert graph_has_connected_partition(c4, Partition([2, 2]))


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
        for seq in _rooted_level_sequences(n):
            adj = [[] for _ in seq]
            for v, p in enumerate(_parents(seq)):
                if v:
                    adj[p].append(v)
                    adj[v].append(p)
            diameter = farthest(adj, farthest(adj, 0)[0])[1]
            assert _height_is_diameter(seq) == (max(seq) == diameter), seq


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
    # on every sequence the enumerator keeps, the form taken from the
    # sequence's leading path is an isomorphism invariant and a complete one
    for n in range(1, 11):
        pairs = set()
        for seq in _rooted_level_sequences(n):
            if _height_is_diameter(seq):
                parents = _parents(seq)
                edges = [(parents[v], v) for v in range(1, n)]
                pairs.add((_canonical_form(seq), ahu_canonical(n, edges)))
        assert len({f for f, _ in pairs}) == len(pairs), n
        assert len({a for _, a in pairs}) == len(pairs), n


def test_enumerate_trees_deterministic():
    a = [sorted(t.edges) for t in enumerate_trees(9)]
    b = [sorted(t.edges) for t in enumerate_trees(9)]
    assert a == b


def test_enumerated_trees_match_the_checked_constructor():
    # the representatives are built without the constructor's checks; each
    # must be the tree the checked constructor builds from its edges, with
    # the same adjacency order when the edges come in the order the
    # enumeration inserts them, (parent, v) by increasing v
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert t == Tree(n, sorted(t.edges))
            checked = Tree(n, sorted(t.edges, key=lambda e: e[1]))
            assert list(t.edges) == list(checked.edges), t
            assert t.adj == checked.adj, t


def test_as_spider_routing():
    assert spider_to_tree(Spider([3, 2])).as_spider() == Spider([5])
    assert spider_to_tree(Spider([2, 1, 1])).as_spider() == Spider([2, 1, 1])
    assert mn_tree(2).as_spider() is None
    assert Tree(1, []).as_spider() is None
