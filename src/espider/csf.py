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
  reverse-lexicographic order pays two products per spider.  A serial
  spider census drops each spider once past its last reader
  (``_memoize``), peaking at 103 MB at 4..24 with expansion, not 193 MB;
  elsewhere every spider is kept.  Comfortably reaches spiders far beyond
  oracle scale.

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
from heapq import heappop, heappush
from itertools import compress, repeat

from espider._subsets import rooted_census, subset_type_census
from espider.graphs import (Spider, SimpleGraph, Tree, TreeKeys, _branches,
                            _centroid_rooted, _rerooted, spider_mod_type_info,
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
# kept; in a census each entry expires at the census position of its last
# reader (``_memoize``), and ``spider_csf`` drops it once past there.
_spiders: dict[tuple[int, ...], EExpansion] = {}
_census: tuple[int, int | None] | None = None  # (top size, --legs)
_first: tuple[int, int] | None = None  # the census's first expansion
_expiries: list[tuple[tuple[int, int], tuple[int, ...]]] = []  # a heap


def _census_top(top: int | None, legs: int | None = None) -> None:
    """Tell the engine that a spider census expanding spiders of at most
    ``top`` vertices (with exactly ``legs`` legs, if given) runs in this
    process; ``top=None`` ends it, dropping what it still holds, so later
    calls memoize every spider."""
    global _census, _first
    _census = None if top is None else (top, legs)
    _first = None
    for _, key in _expiries:
        _spiders.pop(key, None)
    _expiries.clear()
    _reads_at.cache_clear()


def _position(legs: tuple[int, ...]) -> tuple[int, int]:
    """The spider's place in census order: by n, then reverse-lexicographic
    by legs, as the packed keys of one weight sort as the partitions do."""
    return 1 + sum(legs), -pack(legs)


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
    memoized in ``_spiders`` by the sorted leg tuple; during a spider
    census, each only until the census passes its last reader.
    """
    global _first
    legs = s.legs.parts
    if _census is None:
        return _spider_csf(legs)
    at = _position(legs)
    _first = _first or at
    total = _spider_csf(legs)
    while _expiries and _expiries[0][0] <= at:
        _spiders.pop(heappop(_expiries)[1], None)
    return total


def _spider_csf(legs: tuple[int, ...]) -> EExpansion:
    legs = tuple(sorted((l for l in legs if l > 0), reverse=True))
    if len(legs) <= 2:
        return path_csf(1 + sum(legs))
    hit = _spiders.get(legs)
    if hit is not None:
        return hit
    a, b = legs[0], legs[-1]
    middle = legs[1:-1]

    def sub(v):
        return _spider_csf((v,) + middle).terms

    j = b - 1
    while j and (a + b - j,) + middle + (j,) not in _spiders:
        j -= 1
    start = _spiders[(a + b - j,) + middle + (j,)].terms if j else sub(a + b)
    total = _unhooked(1 + sum(legs), start, a + b, j, b, sub)
    _memoize(legs, total)
    return total


def _unhooked(n: int, start, s: int, j: int, b: int, sub) -> EExpansion:
    """The Orellana-Scott steps at a vertex whose two pendant paths hold s
    vertices, from T(s-j, j) (``start``) to T(s-b, b); the step to
    T(s-i, i) adds X[T(s-i, 0)] P_i - X[T(i-1, 0)] P_{s-i+1}, each X[T(x, 0)]
    read as ``sub(x)``, all packed terms."""
    acc = dict(start)
    for i in range(j + 1, b + 1):
        add_product(acc, sub(s - i), path_csf(i).terms)
        add_product(acc, sub(i - 1), path_csf(s - i + 1).terms, -1)
    return EExpansion.from_packed(n, acc)


def _memoize(legs: tuple[int, ...], total: EExpansion) -> None:
    """Memoize a spider; in a census, until the position at which the last
    of its ``_readers`` reads it, and not at all if none does.

    A census that expands every spider in its range computes each from its
    memoized predecessor, so every read a full memo would serve is served,
    with the same products.  One that expands only what the criteria leave
    undecided computes fewer readers: an entry may stay past its last
    actual read, or go before a reader computed out of turn, which then
    computes it again."""
    if _census is not None:
        last = max(filter(None, map(_reads_at, _readers(legs))), default=None)
        if last is None:
            return
        heappush(_expiries, (last, legs))
    _spiders[legs] = total


@lru_cache(maxsize=None)  # for one census: ``_census_top`` clears it
def _reads_at(legs: tuple[int, ...]) -> tuple[int, int] | None:
    """The census position at which this spider is computed, and reads what
    it reads, if the census expands every spider in its range; None if it
    never is.  The census reaches a spider with its --legs leg count (any,
    without --legs) at or after its first expansion, at its own position.
    Any other spider is computed on demand, by the first of its
    ``_readers`` computed; but one before the first expansion (a census
    resumed, or started late) may start further back than its predecessor,
    reading spiders no reader list names, so it is taken to read as late as
    its last reader."""
    at = _position(legs)
    if _census[1] in (None, len(legs)) and at >= _first:
        return at
    times = filter(None, map(_reads_at, _readers(legs)))
    return (max if at < _first else min)(times, default=None)


def _readers(legs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The spiders that read the spider L = ``legs`` = (a, ..., b) when each
    starts from its predecessor, with at most the census's top size and
    at most its --legs legs.  Each reads L once, when it is computed:

    * its successor (a-1, L[1:-1], b+1), which starts from L;
    * (a-1, L[1:], 1), which starts from L at j = 0;
    * (a, L[1:], i) for i <= b, which reads L as X[a, L[1:]] at its last
      step;
    * (c, L[:-1], b+1) for c >= a, which reads L as X[b, L[:-1]] at its
      last step;
    * (c, L, 1) for c >= a, which reads L as X[0, L] at its one step.
    """
    a, b, d = legs[0], legs[-1], len(legs)
    top, k = _census
    room = top - 1 - sum(legs)  # vertices a reader may add
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

    A path or spider goes to ``_spider_csf``, with the branch sizes at its
    hub as legs.  Any other tree has a hub v (a vertex of degree >= 3)
    whose branches are all bare paths but one: a leaf of the subtree its
    hubs span.  With pendant paths of a >= b vertices at v, and T(x, y) the
    tree with pendant paths of x and y vertices there in their place, the
    spider step summed over the b edges of the short path reads

        X[T(a, b)] = X[T(a+b, 0)]
                     + sum_{i=1}^{b} (X[T(a+b-i, 0)] P_i - X[T(i-1, 0)] P_{a+b-i+1}),

    and every tree on the right has a leaf fewer.  Every such hub competes,
    read from ``_branches``: one of degree 3 goes first, as it leaves the
    trees on the right with a hub fewer, then the one with the shortest
    pendant path, which costs the fewest products; if a path taken holds
    the root, the order is re-rooted at v.  Trees are memoized in ``memo``
    by their canonical key.  A T(x, 0) left with one hub (every one, when a
    two-hub tree unhooks at its hub of degree 3) is the spider at the other
    hub, whose legs are its bare branches and the one holding v grown by
    x - a - b: they go to ``_spider_csf`` with no order of the tree built."""
    n = len(order)
    table = _branches(order, parent)
    if len(table) <= 1:  # a path, or a spider whose legs are its branches
        return _spider_csf(tuple(size for _, size, _ in table.popitem()[1])
                           if table else (n - 1,))
    key = memo.key.rooted(order, parent)
    hit = memo.read(key, n)
    if hit is not None:
        return hit
    best = None
    for v, branches in table.items():
        paths = sorted([(size, head) for hubs, size, head in branches
                        if not hubs])
        if len(paths) == len(branches) - 1:
            rank = (len(branches) != 3, paths[0][0])
            if best is None or rank < best[0]:
                best = rank, v, paths[-1], paths[0]
    _, hub, (a, wa), (b, wb) = best
    if parent[hub] in (wa, wb):  # a path taken holds the root
        order, parent = _rerooted(order, parent, hub)
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
    if len(table) == 2:  # the other hub's bare branches, then v's
        other = next(v for v in table if v != hub)
        legs = [size for _, size, _ in sorted(table[other])]
        grown = legs.pop() - a - b

    def sub(x):
        # T(x, 0): the rest with a path of x vertices hung at the hub,
        # whose degree there is len(table[hub]) - 2 + (x > 0)
        if legs is not None and len(table[hub]) + (x > 0) < 5:
            return _spider_csf((*legs, grown + x)).terms
        par = core + [at] + list(range(m, m + x - 1)) if x else core
        return _tree_csf(*_centroid_rooted(range(m + x), par), memo).terms

    total = _unhooked(n, sub(a + b), a + b, 0, b, sub)
    memo.write(key, total)
    return total


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
