import contextlib
import io
import random

import pytest

from espider import cli, symfunc
from espider import csf as csf_module
from espider.csf import (OracleBoundError, coeff_four_leg, coeff_mq, coeff_three_two,
                         coeff_two_powers, csf_oracle, path_csf,
                         path_e_coefficient, spider_csf, three_two_key,
                         tree_csf)
from espider.graphs import (SimpleGraph, Spider, Tree, enumerate_spiders,
                            enumerate_trees, mn_tree, spider_to_tree)
from espider.partitions import Partition, pack, partitions_of, unpack
from espider.symfunc import EExpansion

from oracles import count_colorings


def path_tree(n):
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def E(pairs):
    terms = {Partition(k): v for k, v in pairs}
    return EExpansion(next(iter(terms)).n, terms)


def test_oracle_base_cases():
    assert csf_oracle(Tree(1, [])) == E([((1,), 1)])
    assert csf_oracle(path_tree(2)) == E([((2,), 2)])
    claw = csf_oracle(Spider([1, 1, 1]))
    assert claw.coefficient(Partition([2, 2])) == -2
    assert claw == E([((4,), 4), ((3, 1), 5), ((2, 2), -2), ((2, 1, 1), 1)])


def test_oracle_unpacks_each_power_sum_key_once(monkeypatch):
    # p->e reads its rows by packed key: a key is unpacked only when its row
    # is first built.  The path's census holds all 77 partitions of 12, so
    # the second tree finds every row it needs already there.
    calls = []

    def counted_unpack(key):
        calls.append(key)
        return unpack(key)

    monkeypatch.setattr(symfunc, "_E_ROWS", {})
    monkeypatch.setattr(symfunc, "unpack", counted_unpack)
    assert csf_oracle(path_tree(12)) == path_csf(12)
    keys = sorted(pack(lam.parts) for lam in partitions_of(12))
    assert sorted(calls) == keys
    calls.clear()
    broom = Tree(12, [(0, 1), (0, 2), (0, 3)]
                 + [(i, i + 1) for i in range(3, 11)])
    oracle = csf_oracle(broom)
    assert calls == []
    assert oracle == tree_csf(broom)  # a spider: the leg-unhooking engine


def test_oracle_bound_enforced():
    with pytest.raises(OracleBoundError):
        csf_oracle(path_tree(21))
    # raising the bound explicitly is allowed
    assert csf_oracle(path_tree(21), max_n=21).degree == 21
    with pytest.raises(OracleBoundError):
        csf_oracle(SimpleGraph(15, [(i, i + 1) for i in range(14)] + [(0, 14)]))
    # a forest given as a SimpleGraph takes the general-graph bound, 14
    two_paths = SimpleGraph(15, [(i, i + 1) for i in range(14) if i != 7])
    with pytest.raises(OracleBoundError):
        csf_oracle(two_paths)
    assert csf_oracle(two_paths, max_n=15) == path_csf(8) * path_csf(7)


def test_path_coefficient_examples():
    assert path_e_coefficient(3, Partition([3])) == 3
    assert path_e_coefficient(3, Partition([2, 1])) == 1
    assert path_e_coefficient(3, Partition([1, 1, 1])) == 0
    assert path_e_coefficient(5, Partition([3, 2])) == 7
    with pytest.raises(ValueError):
        path_e_coefficient(4, Partition([3]))


def test_path_closed_form_matches_oracle():
    for n in range(1, 10):
        oracle = csf_oracle(path_tree(n))
        for lam in partitions_of(n):
            assert path_e_coefficient(n, lam) == oracle.coefficient(lam), \
                (n, lam)


def test_path_csf_small_values():
    assert path_csf(1) == E([((1,), 1)])
    assert path_csf(2) == E([((2,), 2)])
    assert path_csf(4) == E([((4,), 4), ((3, 1), 2), ((2, 2), 2)])


def test_path_recurrence_matches_closed_form():
    for n in range(1, 31):
        closed = EExpansion(n, {lam: path_e_coefficient(n, lam)
                                for lam in partitions_of(n)})
        assert path_csf(n) == closed, n


def empty_memo(monkeypatch):
    """Give the spider engine an empty memo, and no running census, until
    the test ends."""
    monkeypatch.setattr(csf_module, "_spiders", {})
    monkeypatch.setattr(csf_module, "_reads_left", {})
    monkeypatch.setattr(csf_module, "_census", None)
    return csf_module._spiders


def test_large_spider_counts_colourings(monkeypatch):
    empty_memo(monkeypatch)
    s = Spider([20, 10, 5, 4])
    X = spider_csf(s)
    for k in (s.n, s.n + 1):
        assert X.evaluate_chromatic(k) == k * (k - 1) ** (s.n - 1), k


def test_product_example():
    lhs = path_csf(2) * path_csf(3)
    assert lhs == E([((2, 2, 1), 2), ((3, 2), 6)])


def test_disjoint_union_law():
    for a in range(1, 7):
        for b in range(1, 7):
            edges = [(i, i + 1) for i in range(a - 1)]
            edges += [(a + i, a + i + 1) for i in range(b - 1)]
            forest = SimpleGraph(a + b, edges)
            assert csf_oracle(forest) == path_csf(a) * path_csf(b), (a, b)


def _triple_deletion_holds(n, edges, v, v1, v2):
    e1, e2 = tuple(sorted((v, v1))), tuple(sorted((v, v2)))
    e3 = tuple(sorted((v1, v2)))
    base = set(map(lambda e: tuple(sorted(e)), edges)) - {e1, e2}
    g = csf_oracle(SimpleGraph(n, edges))
    g23 = csf_oracle(SimpleGraph(n, base | {e2, e3}))
    g1 = csf_oracle(SimpleGraph(n, base | {e1}))
    g3 = csf_oracle(SimpleGraph(n, base | {e3}))
    return g == g23 + g1 - g3


def test_triple_deletion_law():
    claw = spider_to_tree(Spider([1, 1, 1]))
    assert _triple_deletion_holds(4, sorted(claw.edges), 0, 1, 2)
    rng = random.Random(7)
    found = 0
    while found < 3:
        n = rng.randint(5, 9)
        t = rng.choice(list(enumerate_trees(n)))
        hubs = [v for v in range(n) if t.degree(v) >= 2]
        v = rng.choice(hubs)
        nb = sorted(w for e in t.edges if v in e for w in e if w != v)
        v1, v2 = nb[0], nb[1]
        if tuple(sorted((v1, v2))) in t.edges:
            continue
        assert _triple_deletion_holds(n, sorted(t.edges), v, v1, v2), (t, v)
        found += 1


def test_spider_engine_examples():
    assert spider_csf(Spider([3])) == path_csf(4)
    assert spider_csf(Spider([1, 1, 1])) == csf_oracle(Spider([1, 1, 1]))
    assert spider_csf(Spider([2, 1, 1])).coefficient(Partition([3, 2])) == 1


def test_spider_engine_equivalence(monkeypatch):
    empty_memo(monkeypatch)
    for n in range(2, 11):
        for s in enumerate_spiders(n):
            assert spider_csf(s) == csf_oracle(s), s


def test_spider_predecessor_start_matches_fallback(monkeypatch):
    # census order starts each spider from its memoized predecessor;
    # reverse order and a fresh memo per spider take the full sum
    spiders = [s for n in range(2, 13) for s in enumerate_spiders(n)]
    empty_memo(monkeypatch)
    forward = [spider_csf(s).terms for s in spiders]
    empty_memo(monkeypatch)
    backward = [spider_csf(s).terms for s in reversed(spiders)]
    fresh = []
    for s in spiders:
        empty_memo(monkeypatch)
        fresh.append(spider_csf(s).terms)
    assert forward == backward[::-1] == fresh


def test_census_order_costs_two_products_per_spider(monkeypatch):
    spiders = [s for n in range(4, 13) for s in enumerate_spiders(n)]
    for n in range(1, 13):
        path_csf(n)  # paths are memoized process-wide; warm them first
    calls = []
    product = csf_module.add_product
    monkeypatch.setattr(csf_module, "add_product",
                        lambda *a: calls.append(1) or product(*a))
    empty_memo(monkeypatch)
    for s in spiders:
        spider_csf(s)
    assert len(calls) == 2 * sum(1 for s in spiders if s.d >= 3)


STANDALONE_MEMO = (([20, 10, 5, 4], 9), ([12, 10, 8, 6, 4], 31))


def test_spider_memo_holds_no_predecessors(monkeypatch):
    # a standalone expansion memoizes only the spiders its sum asks for
    for legs, entries in STANDALONE_MEMO:
        memo = empty_memo(monkeypatch)
        spider_csf(Spider(legs))
        assert len(memo) == entries, legs


def census(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["census", "spiders", *argv]) == 0
    return out.getvalue()


def test_census_memo_drops_top_size_spiders(monkeypatch):
    memo = empty_memo(monkeypatch)
    census("4..20", "--mode", "with_expansion")
    # every spider, of the top size or smaller, went after its last reader
    assert not memo and not csf_module._reads_left
    # the census is over: later calls memoize every spider again
    assert csf_module._census is None
    for legs, entries in STANDALONE_MEMO:
        monkeypatch.setattr(csf_module, "_spiders", {})
        spider_csf(Spider(legs))
        assert len(csf_module._spiders) == entries, legs


class ReadLog(dict):
    """A spider memo that counts the reads of each entry."""

    def __init__(self):
        super().__init__()
        self.stored, self.reads = [], {}

    def __setitem__(self, key, value):
        assert key not in self.reads, f"{key} computed twice"
        self.stored.append(key)
        self.reads[key] = 0
        super().__setitem__(key, value)

    def _read(self, key, value):
        if value is not None:
            self.reads[key] += 1
        return value

    def get(self, key, default=None):
        return self._read(key, super().get(key, default))

    def __getitem__(self, key):
        return self._read(key, super().__getitem__(key))

    def pop(self, key, *default):
        return self._read(key, super().pop(key, *default))


class CountLog(dict):
    """Read counts that remember the count each entry was given."""

    def __init__(self):
        super().__init__()
        self.given = {}

    def __setitem__(self, key, value):
        if key not in self:
            self.given.setdefault(key, value)
        super().__setitem__(key, value)


@pytest.mark.parametrize("legs", [(), ("--legs", "3"), ("--legs", "4")])
def test_census_memo_counts_every_read(monkeypatch, legs):
    # replay: each spider a census memoizes is read exactly as often as the
    # count it was given, and none is left when the census ends
    empty_memo(monkeypatch)
    memo, counts = ReadLog(), CountLog()
    monkeypatch.setattr(csf_module, "_spiders", memo)
    monkeypatch.setattr(csf_module, "_reads_left", counts)
    census("4..14", "--mode", "with_expansion", *legs)
    assert memo.stored
    assert memo.reads == counts.given
    assert not memo and not counts


@pytest.mark.parametrize("argv", [
    ("4..16", "--mode", "with_expansion"),
    ("4..16",),
    ("4..16", "--mode", "with_expansion", "--legs", "4"),
    ("4..16", "--mode", "with_expansion", "--legs", "3"),
    ("9..16", "--mode", "with_expansion"),
    ("4..16", "--mode", "with_expansion", "--resume"),
])
def test_census_memo_drops_no_product(monkeypatch, tmp_path, argv):
    # a census that drops each spider after its last reader does the
    # products of one that keeps every spider, also when it starts past
    # n = 4 or resumes from half a journal
    for n in range(1, 17):
        path_csf(n)
    resume = argv[-1] == "--resume"
    if resume:
        journal = tmp_path / "census.jsonl"
        census(*argv, str(journal))
        lines = journal.read_text().splitlines(keepends=True)
        half = "".join(lines[:len(lines) // 2])
        argv += (str(journal),)
    calls = []
    product = csf_module.add_product
    monkeypatch.setattr(csf_module, "add_product",
                        lambda *a: calls.append(1) or product(*a))
    counts, top = [], []
    for hook in (cli._census_top, lambda *a: None):
        monkeypatch.setattr(cli, "_census_top", hook)
        memo = empty_memo(monkeypatch)
        if resume:
            journal.write_text(half)
        calls.clear()
        census(*argv)
        counts.append(len(calls))
        top.append(sum(1 for legs in memo if sum(legs) == 15))
    assert counts[0] == counts[1] > 0, counts
    if "with_expansion" in argv and not resume:
        # every reader ran, so no 16-vertex spider is left, --legs or not
        assert top[0] == 0 < top[1]
    if argv == ("4..16", "--mode", "with_expansion"):
        assert counts[0] == 2 * sum(1 for n in range(4, 17)
                                    for s in enumerate_spiders(n) if s.d >= 3)


def test_tree_engine_matches_the_oracle_without_running_it(monkeypatch):
    # every tree with n <= 12, spiders and paths given as trees included,
    # once with a memo per call and once through one fresh process memo
    trees = [t for n in range(1, 13) for t in enumerate_trees(n)]
    want = [csf_oracle(t) for t in trees]

    def refuse(*args):
        raise AssertionError("the tree engine ran the oracle")

    monkeypatch.setattr(csf_module, "csf_oracle", refuse)
    monkeypatch.setattr(csf_module, "rooted_census", refuse)
    assert [csf_module._tree_csf(t._order, t._parent, csf_module._TreeMemo())
            for t in trees] == want
    monkeypatch.setattr(csf_module, "_trees", csf_module._TreeMemo())
    assert [tree_csf(t) for t in trees] == want
    assert len(csf_module._trees.entries) > 700


def _pendant_paths(t, v):
    """The bare paths hanging off v in t, each as its vertices from v out."""
    adj = {u: [] for u in range(t.n)}
    for a, b in t.edges:
        adj[a].append(b)
        adj[b].append(a)
    paths = []
    for w in adj[v]:
        walk = [v, w]
        while len(adj[walk[-1]]) == 2:
            walk.append(next(u for u in adj[walk[-1]] if u != walk[-2]))
        if len(adj[walk[-1]]) == 1:
            paths.append(walk[1:])
    return paths


def _hung(t, v, gone, x):
    """t without the vertices ``gone``, with a path of x vertices hung at
    v, relabelled, through the checked constructor."""
    keep = [u for u in range(t.n) if u not in gone]
    label = {u: i for i, u in enumerate(keep)}
    edges = [(label[a], label[b]) for a, b in t.edges
             if a in label and b in label]
    tail = label[v]
    for i in range(len(keep), len(keep) + x):
        edges.append((tail, i))
        tail = i
    return Tree(len(keep) + x, edges)


def test_two_hub_trees_hand_their_spiders_straight_over(monkeypatch):
    # a two-hub tree unhooked at a hub of degree 3 leaves spiders at the
    # other hub, handed to the spider engine as legs read from the tree's
    # branch sizes: each must be the legs of a tree T(x, 0) rebuilt from the
    # edges, and expand as that tree does, for every two-hub tree n <= 11
    real = csf_module._spider_csf
    handed = []
    depth = [0]

    def spy(legs):
        if not depth[0]:  # what the tree engine hands over, not the rest
            handed.append(tuple(sorted(legs, reverse=True)))
        depth[0] += 1
        try:
            return real(legs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(csf_module, "_spider_csf", spy)
    checked = 0
    for n in range(1, 12):
        for t in enumerate_trees(n):
            hubs = [v for v in range(n) if t.degree(v) >= 3]
            if len(hubs) != 2 or 3 not in map(t.degree, hubs):
                continue
            rebuilt = {}  # the legs of every spider T(x, 0), and the tree
            for v in hubs:
                paths = sorted(_pendant_paths(t, v), key=len)
                if len(paths) < 2:
                    continue
                gone = set(paths[0] + paths[-1])
                for x in range(len(gone) + 1):
                    u = _hung(t, v, gone, x)
                    spiders = u.reductions()
                    if len(spiders) == 1:
                        rebuilt[spiders[0][1]] = u
            handed.clear()
            # a fresh memo, so that no tree is read back instead of unhooked
            monkeypatch.setattr(csf_module, "_trees", csf_module._TreeMemo())
            tree_csf(t)
            calls = list(handed)
            assert calls, t
            for legs in calls:
                assert legs in rebuilt, (t, legs)
                assert real(legs) == csf_oracle(rebuilt[legs]), (t, legs)
            checked += 1
    assert checked > 150


def test_tree_memo_keeps_overflowing_expansions_whole():
    memo = csf_module._TreeMemo()
    big = EExpansion.from_packed(3, {pack((3,)): 2 ** 70, pack((2, 1)): -1})
    small = EExpansion.from_packed(3, {pack((3,)): 5, pack((1, 1, 1)): -2})
    memo.write("big", big)
    memo.write("small", small)
    assert memo.read("big", 3) is big and memo.read("small", 3) == small
    assert memo.read("absent", 3) is None


def test_tree_csf_routing():
    assert tree_csf(path_tree(5)) == path_csf(5)
    s = Spider([3, 2, 1])
    assert tree_csf(spider_to_tree(s)) == spider_csf(s)
    assert tree_csf(mn_tree(1)).is_e_positive()
    assert tree_csf(mn_tree(2)).is_e_positive()


def test_chromatic_specialization_on_trees():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            X = tree_csf(t)
            for k in range(1, 6):
                assert X.evaluate_chromatic(k) == k * (k - 1) ** (n - 1), (t, k)


def test_chromatic_specialization_vs_direct_count():
    claw = Spider([1, 1, 1])
    X = csf_oracle(claw)
    for k in range(5):
        assert X.evaluate_chromatic(k) == count_colorings(
            4, sorted(spider_to_tree(claw).edges), k)
    cases = [
        SimpleGraph(3, [(0, 1), (1, 2), (0, 2)]),             # triangle
        SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),     # C4
        SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ]
    for g in cases:
        X = csf_oracle(g)
        for k in range(5):
            assert X.evaluate_chromatic(k) == count_colorings(
                g.n, sorted(g.edges), k), g


def test_coeff_mq():
    assert coeff_mq(Spider([3]), 2) == 2
    assert coeff_mq(Spider([2, 2, 1]), 2) == 2
    with pytest.raises(ValueError):
        coeff_mq(Spider([2, 2, 1]), 3)  # no (3,3) partition
    with pytest.raises(ValueError):
        coeff_mq(Spider([2, 2, 1]), 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        coeff_mq(Spider([3]), 1)


def test_coeff_two_powers():
    assert coeff_two_powers(Spider([1, 1, 1])) == -2
    assert coeff_two_powers(Spider([3])) == 2
    assert coeff_two_powers(Spider([1, 1, 1, 1, 1])) == 2
    assert csf_oracle(Spider([1, 1, 1, 1, 1])).coefficient(
        Partition([2, 2, 2])) == 2
    with pytest.raises(ValueError):
        coeff_two_powers(Spider([2, 1, 1]))  # n odd


def test_coeff_three_two():
    assert coeff_three_two(Spider([3, 1])) == 7
    assert coeff_three_two(Spider([2, 1, 1])) == 1
    assert coeff_three_two(Spider([4, 3, 1])) == 1
    assert coeff_three_two(Spider([6, 3, 3, 2])) == -1
    with pytest.raises(ValueError):
        coeff_three_two(Spider([2, 2, 1]))  # one odd leg
    with pytest.raises(ValueError):
        coeff_three_two(Spider([3, 3, 1]))  # n even
    assert three_two_key(13).parts == (3, 2, 2, 2, 2, 2)


def test_coeff_four_leg():
    key, value = coeff_four_leg(Spider([3, 3, 2, 1]))
    assert key == Partition([4, 3, 3]) and value == 4
    key, value = coeff_four_leg(Spider([15, 12, 2, 1]))
    assert key == Partition([4] + [3] * 9) and value < 0
    with pytest.raises(ValueError):
        coeff_four_leg(Spider([4, 4, 2, 1]))  # r = 0
    with pytest.raises(ValueError):
        coeff_four_leg(Spider([3, 2, 1]))  # three legs
    with pytest.raises(ValueError):
        coeff_four_leg(Spider([5, 4, 2, 1]))  # missing the block type


def test_homogeneity_of_engines():
    for legs in [(3, 2, 1), (4, 2, 2), (5, 1, 1, 1)]:
        s = Spider(legs)
        X = spider_csf(s)
        assert X.degree == s.n
        assert all(k.n == s.n for k, _ in X.items())

