"""Chromatic-symmetric-function engines.

Two independent routes to the e-basis expansion of X_G:

* ``csf_oracle`` tallies signed edge-subset counts per component-size
  partition (Stanley's power-sum expansion) and converts the result to the
  elementary basis.  Spiders and trees take a rooted dynamic program over
  the tree's own rooted order, a ``SimpleGraph`` a walk over every edge
  subset; both are exact, and everything else is checked against this
  route.  No tree expansion runs it: it serves ``expand --oracle``,
  ``SimpleGraph``s, the tests and the acceptance suite's checks.

* ``spider_csf`` unhooks the shortest leg of a spider one edge at a time
  by the Orellana-Scott identity (Discrete Math. 320 (2014))

      X[a, M, b] = X[a+1, M, b-1] + X[a, M] P_b - X[b-1, M] P_{a+1},

  so each step costs two products with fewer-legged spiders and paths,
  and path expansions come from the Shareshian-Wachs recurrence
  (``path_csf``; the closed-form coefficient ``path_e_coefficient`` is its
  independent check).  Memoized in process, and each spider starts from
  its nearest memoized predecessor along the steps, so a census in
  reverse-lexicographic order pays two products per spider.  A spider
  census memoizes each spider, of any size, with the number of reads its
  later steps will make of it, and drops it after the last (``_memoize``):
  at 4..24 with expansion it peaks at 102 MB where keeping every spider
  below the top size took 193 MB.  Library calls memoize every spider.
  Comfortably reaches spiders far beyond oracle scale.

* ``tree_csf`` expands every tree by the same identity, at a hub whose
  branches are all bare paths but one, summed over the edges of its
  shorter pendant path (``_tree_csf``); the trees it leads to have a leaf
  fewer, and the recursion ends in spiders and paths.  Every tree it
  expands is memoized, compactly, for the life of the process
  (``_TreeMemo``); with no bound given, a tree, like a spider, is expanded
  at any size.

Closed-form coefficient extractors for special keys ((m^q), (2^{n/2}),
(3, 2^k), and the four-leg (m+r, m^q)) live here too.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress, repeat

from espider._subsets import rooted_census, subset_type_census
from espider.graphs import (Spider, SimpleGraph, Tree, TreeKeys,
                            _centroid_rooted, spider_mod_type_info,
                            spider_to_tree)
from espider.partitions import Partition, multinomial, pack, partitions_of
from espider.symfunc import UNIT, EExpansion, PExpansion, add_product

DEFAULT_TREE_ORACLE_BOUND = 20
DEFAULT_GRAPH_ORACLE_BOUND = 14
HARD_CAP_VERTICES = 25
HARD_CAP_EDGES = 28
MIN_ORACLE_BOUND = 4


class OracleBoundError(ValueError):
    """Raised when a graph exceeds the configured oracle size bound."""


def csf_oracle(g, max_n: int | None = None) -> EExpansion:
    """Exact e-expansion of X_g from its edge-subset census.

    A spider or tree takes the rooted walk over its own rooted order, a
    ``SimpleGraph`` the walk over every edge subset.  ``max_n`` overrides
    the default size bound (trees and spiders 20, a ``SimpleGraph`` 14) up
    to the hard caps.
    """
    if isinstance(g, Spider):
        g = spider_to_tree(g)
    if not isinstance(g, (Tree, SimpleGraph)):
        raise TypeError(f"cannot interpret {type(g).__name__} as a graph")
    tree = isinstance(g, Tree)
    if max_n is None:
        max_n = DEFAULT_TREE_ORACLE_BOUND if tree else DEFAULT_GRAPH_ORACLE_BOUND
    bound = min(max_n, HARD_CAP_VERTICES)
    if g.n > bound:
        raise OracleBoundError(
            f"{g.n} vertices exceeds the oracle bound {bound}")
    if tree:
        census = rooted_census(g._order, g._parent)
    else:
        if len(g.edges) > HARD_CAP_EDGES:
            raise OracleBoundError(
                f"{len(g.edges)} edges exceeds the hard cap {HARD_CAP_EDGES}")
        census = subset_type_census(g.n, sorted(g.edges))
    return PExpansion.from_packed(g.n, census).to_e()


def path_e_coefficient(n: int, lam: Partition) -> int:
    """Closed-form coefficient of e_lam in the expansion of the n-vertex
    path: a multinomial leading term plus one correction per distinct part
    value.  The convention 0^0 = 1 makes parts equal to 1 contribute only
    through the corrections."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if lam.n != n:
        raise ValueError(f"partition of {lam.n} against a path on {n} vertices")
    ef = lam.exponential_form()
    counts = [m for _, m in ef]
    prod_all = 1
    for value, mult in ef:
        prod_all *= (value - 1) ** mult
    total = multinomial(counts) * prod_all
    for i, (value, mult) in enumerate(ef):
        reduced = counts[:i] + [mult - 1] + counts[i + 1:]
        term = multinomial(reduced) * (value - 1) ** (mult - 1)
        for j, (v2, m2) in enumerate(ef):
            if j != i:
                term *= (v2 - 1) ** m2
        total += term
    return total


@lru_cache(maxsize=None)
def path_csf(n: int) -> EExpansion:
    """e-expansion of the n-vertex path, cached, by the Shareshian-Wachs
    recurrence (their path generating function at t = 1, Adv. Math. 295
    (2016)):

        X_{P_n} = e_n + sum_{i=2}^{n} (i-1) e_i X_{P_{n-i}},   X_{P_0} = 1.
    """
    if n < 1:
        raise ValueError(f"paths need >= 1 vertex, got {n}")
    acc = {pack((n,)): 1}
    for i in range(2, n + 1):
        rest = path_csf(n - i).terms if i < n else UNIT
        add_product(acc, {pack((i,)): i - 1}, rest)
    return EExpansion.from_packed(n, acc)


# Spider expansions by sorted leg tuple, process-wide like ``path_csf``:
# entries are immutable and recomputation is idempotent, so each worker
# process simply keeps its own.  Outside a spider census every spider is
# kept.  In a census each entry carries in ``_reads_left`` the reads the
# census's later steps will make of it (see ``_memoize``); every read
# takes one off, and the entry goes when none is left.
_spiders: dict[tuple[int, ...], EExpansion] = {}
_reads_left: dict[tuple[int, ...], int] = {}


class _Census:
    """The running spider census: the largest size it expands, its --legs
    restriction, its first expansion (n, legs) once made, the size its
    expansions have reached, and, for spiders with fewer legs than
    --legs, whether it computes them."""

    __slots__ = ("top", "legs", "first", "size", "computed")

    def __init__(self, top: int, legs: int | None):
        self.top, self.legs = top, legs
        self.first: tuple[int, tuple[int, ...]] | None = None
        self.size = 0
        self.computed: dict[tuple[int, ...], bool] = {}


_census: _Census | None = None


def _census_top(top: int | None, legs: int | None = None) -> None:
    """Tell the engine that a spider census expanding spiders of at most
    ``top`` vertices (with exactly ``legs`` legs, if given) runs in this
    process; ``top=None`` ends it, so later calls memoize every spider.
    The census visits spiders by n, then in reverse-lexicographic leg
    order, which is what the memo's read counts rely on."""
    global _census
    _census = None if top is None else _Census(top, legs)
    _reads_left.clear()


def spider_csf(s: Spider) -> EExpansion:
    """e-expansion of a spider via leg-unhooking.

    With longest leg a, shortest leg b and the other legs M, one step of
    the Orellana-Scott identity moves an edge from the short leg to the
    long one:

        X[a, M, b] = X[a+1, M, b-1] + X[a, M] * P_b - X[b-1, M] * P_{a+1}

    where X[v, M] is the spider with legs v and M (v = 0 drops the leg)
    and P_j is the j-vertex path.  The steps run from the largest j < b
    whose spider (a+b-j, M, j) is memoized, or from j = 0, the spider
    (a+b, M) with one leg fewer; the spiders passed on the way are not
    memoized.  Spiders with at most two legs are paths.  Results are
    memoized in ``_spiders`` by the sorted leg tuple (during a spider
    census, each only until its last reader).
    """
    if _census is not None:
        _census_step(_census, s.n, s.legs.parts)
    return _spider_csf(s.legs.parts)


def _precedes(x: tuple[int, tuple[int, ...]],
              y: tuple[int, tuple[int, ...]]) -> bool:
    """Does spider x = (n, legs) come before y in census order?"""
    return x[0] < y[0] or (x[0] == y[0] and x[1] > y[1])


def _census_step(census: _Census, n: int, legs: tuple[int, ...]) -> None:
    """Note the census's next expansion."""
    if census.first is None:
        k = census.legs or 3
        # a census that starts at or before its first spider with k legs
        # computes every spider in order, so it keeps none to the end
        start = (k + 1, (1,) * k)
        census.first = (n, legs) if _precedes(start, (n, legs)) else (0, ())
    elif n > census.size and census.legs:
        # a spider with --legs legs is read only by later spiders of its
        # own size: once the census is past that size, the reads it still
        # waits for belong to spiders the criteria decided, never expanded
        for key in [key for key in _reads_left if len(key) == census.legs]:
            del _reads_left[key], _spiders[key]
    census.size = n


def _read(legs: tuple[int, ...]) -> EExpansion | None:
    """The memoized spider, or None; a census counts the read."""
    left = _reads_left.get(legs)
    if left is None:
        return _spiders.get(legs)
    if left > 1:
        _reads_left[legs] = left - 1
        return _spiders[legs]
    del _reads_left[legs]
    return _spiders.pop(legs)


def _spider_csf(legs: tuple[int, ...]) -> EExpansion:
    legs = tuple(sorted((l for l in legs if l > 0), reverse=True))
    if len(legs) <= 2:
        return path_csf(1 + sum(legs))
    hit = _read(legs)
    if hit is not None:
        return hit
    a, b = legs[0], legs[-1]
    middle = legs[1:-1]

    def sub(v):
        return _spider_csf((v,) + middle).terms

    j = b - 1
    while j and (a + b - j,) + middle + (j,) not in _spiders:
        j -= 1
    start = _read((a + b - j,) + middle + (j,)).terms if j else sub(a + b)
    acc = dict(start)
    for i in range(j + 1, b + 1):
        # step from (a+b-i+1, M, i-1) to (a+b-i, M, i)
        add_product(acc, sub(a + b - i), path_csf(i).terms)
        add_product(acc, sub(i - 1), path_csf(a + b - i + 1).terms, -1)
    total = EExpansion.from_packed(1 + sum(legs), acc)
    _memoize(legs, total)
    return total


def _memoize(legs: tuple[int, ...], total: EExpansion) -> None:
    """Memoize a spider; in a census, for the reads still to come.

    A census that expands every spider in its range computes each spider
    from its memoized predecessor, so a spider is read once by each of its
    ``_readers`` the census computes and never otherwise: every read a
    full memo would serve is served, with the same products.  A spider
    with fewer legs than --legs is computed on demand by the first of
    those readers, which so reads it one time fewer.  A spider before the
    census's first expansion (a census started past its first spider, or
    resumed) is computed on demand in an order the counts do not follow,
    so it is kept to the end of the census.  A census that expands only
    what the criteria leave undecided computes fewer readers, so some
    counted reads never come and an entry may stay to the end."""
    census = _census
    if (census is None or census.first is not None
            and _precedes((1 + sum(legs), legs), census.first)):
        _spiders[legs] = total
        return
    reads = sum(_computes(census, r) for r in _readers(census, legs))
    if census.legs is not None and len(legs) < census.legs:
        reads -= 1
    if reads:
        _spiders[legs] = total
        _reads_left[legs] = reads


def _readers(census: _Census, legs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The spiders that read the spider L = ``legs`` = (a, ..., b) when each
    starts from its predecessor, with at most the census's top size and
    its --legs legs.  Each reads L once, after L is computed:

    * its successor (a-1, L[1:-1], b+1), which starts from L;
    * (a-1, L[1:], 1), which starts from L at j = 0;
    * (a, L[1:], i) for i <= b, which reads L as X[a, L[1:]] at its last
      step;
    * (c, L[:-1], b+1) for c >= a, which reads L as X[b, L[:-1]] at its
      last step;
    * (c, L, 1) for c >= a, which reads L as X[0, L] at its one step.

    The successor comes last, so that ``_computes`` meets a spider with
    more legs first."""
    a, b, d = legs[0], legs[-1], len(legs)
    k = census.legs
    room = census.top - 1 - sum(legs)  # vertices a reader may add
    if room < 0:
        return []
    out = []
    if k is None or d < k:  # readers with more legs
        if a > legs[1]:
            out.append((a - 1,) + legs[1:] + (1,))
        out += [(a,) + legs[1:] + (i,) for i in range(1, min(b, room) + 1)]
        for c in range(a, room):
            if b < legs[-2]:
                out.append((c,) + legs[:-1] + (b + 1,))
            if k is None or d + 1 < k:
                out.append((c,) + legs + (1,))
    if a > legs[1] and b < legs[-2]:
        out.append((a - 1,) + legs[1:-1] + (b + 1,))
    return out


def _computes(census: _Census, legs: tuple[int, ...]) -> bool:
    """Does the census compute this spider, if it expands every spider in
    its range?  Every spider with --legs legs (any, without --legs); one
    with fewer legs when the census computes one of its readers."""
    if census.legs is None or len(legs) == census.legs:
        return True
    known = census.computed.get(legs)
    if known is None:
        known = census.computed[legs] = any(
            _computes(census, r) for r in _readers(census, legs))
    return known


def tree_csf(t: Spider | Tree, max_n: int | None = None) -> EExpansion:
    """e-expansion of a spider or tree by leg-unhooking, the one place the
    expansion bound is applied: a graph with more than ``max_n`` vertices is
    refused before the engine runs; with no bound, none applies.  Every
    tree it meets is memoized in ``_trees`` for the life of the process."""
    if max_n is not None and t.n > max_n:
        raise OracleBoundError(
            f"{t.n} vertices exceeds the expansion bound {max_n}")
    if isinstance(t, Spider):
        return spider_csf(t)
    return _tree_csf(t._order, t._parent, _trees)


class _TreeMemo:
    """Expansions of the trees met, by ``TreeKeys`` key, kept until the
    memo goes (the process's ``_trees``, when it exits).  Each is stored as
    an int64 array over the partitions of its degree in one fixed order, or,
    when a coefficient does not fit, as the expansion itself.  A tree's
    expansion has 78% to 83% of the partitions as terms at n = 10 to 14, so
    few slots hold zeros, and an array takes a fraction of a dict's
    memory."""

    __slots__ = ("key", "entries", "slots")

    def __init__(self):
        self.key = TreeKeys()
        self.entries: dict = {}
        self.slots: dict[int, list[int]] = {}  # packed keys, by degree

    def read(self, key, n: int) -> EExpansion | None:
        entry = self.entries.get(key)
        if entry is None or isinstance(entry, EExpansion):
            return entry
        return EExpansion.from_packed(
            n, dict(compress(zip(self.slots[n], entry), entry)))

    def write(self, key, total: EExpansion) -> None:
        n = total.degree
        keys = self.slots.get(n)
        if keys is None:
            keys = self.slots[n] = [pack(p.parts) for p in partitions_of(n)]
        try:
            self.entries[key] = array("q", map(total.terms.get, keys,
                                               repeat(0)))
        except OverflowError:
            self.entries[key] = total


# Tree expansions, process-wide like ``_spiders``: a tree census reads
# every tree it has expanded, and so does any later call.
_trees = _TreeMemo()


def _tree_csf(order, parent, memo: _TreeMemo) -> EExpansion:
    """e-expansion of the tree whose vertices ``order`` lists from a
    centroid, each after its ``parent``.

    A path or spider goes to ``_spider_csf``.  Any other tree has a hub v
    (a vertex of degree >= 3) whose branches are all bare paths but one: a
    leaf of the subtree its hubs span.  With pendant paths of a >= b
    vertices at v, and T(x, y) the tree with pendant paths of x and y
    vertices there in their place, the spider step summed over the b edges
    of the short path reads

        X[T(a, b)] = X[T(a+b, 0)]
                     + sum_{i=1}^{b} (X[T(a+b-i, 0)] P_i - X[T(i-1, 0)] P_{a+b-i+1}),

    and every tree on the right has a leaf fewer.  Only a hub whose pendant
    paths all hang below it in ``order`` competes: every child of a hub
    other than the root heads a bare path, and all children of the root but
    one do.  So a hub one of whose pendant paths holds the root is never
    chosen, even when it has degree 3; with two or more hubs some other
    leaf of their subtree always competes.  Among those that compete, a hub
    of degree 3 goes first, as it leaves the trees on the right with a hub
    fewer, then the one with the shortest pendant path, which costs the
    fewest products.
    Trees are memoized in ``memo`` by their canonical key.  A T(x, 0) left
    with one hub (every one, when a two-hub tree unhooks at a hub of
    degree 3) is the spider at the other hub, whose legs are its branch
    sizes, the one holding v grown by x - a - b: they go to
    ``_spider_csf`` with no order of the tree built."""
    n = len(order)
    root = order[0]
    size = [1] * n
    kids = [0] * n
    chain = [1] * n  # vertices of the bare path v heads, 0 if v heads none
    for v in reversed(order[1:]):
        p = parent[v]
        size[p] += size[v]
        chain[p] = 0 if kids[p] else chain[v] and chain[v] + 1
        kids[p] += 1
    hubs = {v: [] for v in order if kids[v] + (v != root) >= 3}
    if len(hubs) <= 1:  # the legs at the hub are the sizes of its branches
        return _spider_csf(tuple(_legs(order, parent, size, *hubs))
                           if hubs else (n - 1,))
    key = memo.key.rooted(order, parent)
    hit = memo.read(key, n)
    if hit is not None:
        return hit
    for v in order[1:]:
        if parent[v] in hubs:
            hubs[parent[v]].append(v)
    best = None
    for v, below in hubs.items():
        paths = sorted((chain[w], w) for w in below if chain[w])
        if len(paths) >= len(below) - (v == root) and len(paths) >= 2:
            rank = (kids[v] + (v != root) != 3, paths[0][0])
            if best is None or rank < best[0]:
                best = rank, v, paths[-1], paths[0]
    _, hub, (a, wa), (b, wb) = best
    # the rest of the tree, relabelled in order, each after its parent
    gone = {wa, wb}
    rest = []
    for v in order:
        if v in gone or parent[v] in gone:
            gone.add(v)
        else:
            rest.append(v)
    label = {v: i for i, v in enumerate(rest)}
    core = [label[parent[v]] for v in rest]
    at, m = label[hub], len(rest)
    legs = None
    if len(hubs) == 2:  # the other hub's legs, bar the one holding v
        legs = _legs(order, parent, size,
                     next(v for v in hubs if v != hub), hub)
        grown = legs.pop() - a - b
    degree = kids[hub] + (hub != root)

    def sub(x):
        # T(x, 0): the rest with a path of x vertices hung at the hub,
        # whose degree there is degree - 2 + (x > 0)
        if legs is not None and degree + (x > 0) < 5:
            return _spider_csf((*legs, grown + x)).terms
        par = core + [at] + list(range(m, m + x - 1)) if x else core
        return _tree_csf(*_centroid_rooted(range(m + x), par), memo).terms

    acc = dict(sub(a + b))
    for i in range(1, b + 1):
        add_product(acc, sub(a + b - i), path_csf(i).terms)
        add_product(acc, sub(i - 1), path_csf(a + b - i + 1).terms, -1)
    total = EExpansion.from_packed(n, acc)
    memo.write(key, total)
    return total


def _legs(order, parent, size, hub, toward=None) -> list[int]:
    """The sizes of the branches at ``hub``; with ``toward``, the one
    holding that vertex comes last."""
    legs = [size[v] for v in order[1:] if parent[v] == hub]
    if hub != order[0]:  # the branch above it, already last
        legs.append(len(order) - size[hub])
    if toward is not None:
        v = toward  # up to the hub's child above it, or to the root
        while v != order[0] and parent[v] != hub:
            v = parent[v]
        if parent[v] == hub:
            legs.remove(size[v])
            legs.append(size[v])
    return legs


# ---------------------------------------------------------------------------
# Closed-form coefficient extractors for special keys.

def coeff_mq(s: Spider, m: int) -> int:
    """[e_{(m^q)}] X_S = m (m-1)^(q-1), valid when m divides n and the
    spider has a connected partition into blocks of size m."""
    if m <= 1:
        raise ValueError(f"modulus must exceed 1, got {m}")
    n = s.n
    if n % m:
        raise ValueError(f"{m} does not divide the vertex count {n}")
    info = spider_mod_type_info(s, m)
    if not info.has_type:
        raise ValueError(
            f"{s} has no connected partition of type ({m}^{n // m})")
    q = n // m
    return m * (m - 1) ** (q - 1)


def coeff_two_powers(s: Spider) -> int:
    """[e_{(2^{n/2})}] X_S = +/-2, sign driven by the count j of odd legs
    ((-1)^((j-1)/2); j is odd whenever n is even)."""
    if s.n % 2:
        raise ValueError(f"vertex count {s.n} is odd")
    j = sum(1 for l in s.legs if l % 2)
    return (-1) ** ((j - 1) // 2) * 2


def coeff_three_two(s: Spider) -> int:
    """[e_{(3, 2^k)}] X_S for spiders with exactly two odd legs (n odd),
    k = half the even part of the leg total:

        4*(k1 + k2 - k3 - ... - kd) + 2d - 1

    with odd legs 2*k1+1 >= 2*k2+1 and even legs 2*k3 >= ... >= 2*kd.
    Two-leg spiders are the path base case 4*(k1+k2) + 3.
    """
    if s.n % 2 == 0:
        raise ValueError(f"vertex count {s.n} is even")
    odd = [l for l in s.legs if l % 2]
    even = [l for l in s.legs if l % 2 == 0]
    if len(odd) != 2:
        raise ValueError(f"{s} has {len(odd)} odd legs, need exactly 2")
    k_odd = sum((l - 1) // 2 for l in odd)
    k_even = sum(l // 2 for l in even)
    return 4 * (k_odd - k_even) + 2 * s.d - 1


def three_two_key(n: int) -> Partition:
    """The key (3, 2^((n-3)/2)) that coeff_three_two evaluates."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"need odd n >= 3, got {n}")
    return Partition((3,) + (2,) * ((n - 3) // 2))


def coeff_four_leg(s: Spider) -> tuple[Partition, int]:
    """Four-leg coefficient at the key (m+r, m^q), m = sum of the two short
    legs and n = mq + m + r with 0 < r < m.

    Returns (key, value) with
    value = (m-1)^(q-2) (m^3 - m^2 q + m^2 r - 2m^2 - mqr + mq + m + r).
    Requires q >= 2 and that the spider has a connected partition of type
    (m^{q+1}, r); the weight-n key is the homogeneity-consistent reading
    and is pinned against the oracle in the test suite.
    """
    if s.d != 4:
        raise ValueError(f"{s} has {s.d} legs, need exactly 4")
    legs = s.legs.parts
    m = legs[2] + legs[3]
    q, r = divmod(s.n - m, m)
    if r == 0:
        raise ValueError("r = 0 is excluded (the coefficient key degenerates)")
    if q < 2:
        raise ValueError(f"needs q >= 2, got q = {q}")
    info = spider_mod_type_info(s, m)
    if not info.has_type:
        raise ValueError(
            f"{s} has no connected partition of type ({m}^{q + 1}, {r})")
    value = (m - 1) ** (q - 2) * (
        m ** 3 - m ** 2 * q + m ** 2 * r - 2 * m ** 2 - m * q * r + m * q + m + r)
    return Partition((m + r,) + (m,) * q), value
