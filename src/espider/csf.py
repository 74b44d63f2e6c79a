"""Chromatic-symmetric-function engines.

Two independent routes to the e-basis expansion of X_G:

* ``csf_oracle`` tallies signed edge-subset counts per component-size
  partition (Stanley's power-sum expansion) and converts the result to the
  elementary basis.  Spiders and trees take a rooted dynamic program over
  the tree's own rooted order, a ``SimpleGraph`` a walk over every edge
  subset; both are exact, and everything else is checked against this
  route.

* ``spider_csf`` unhooks the shortest leg of a spider one edge at a time
  by the Orellana-Scott identity (Discrete Math. 320 (2014))

      X[a, M, b] = X[a+1, M, b-1] + X[a, M] P_b - X[b-1, M] P_{a+1},

  so each step costs two products with fewer-legged spiders and paths,
  and path expansions come from the Shareshian-Wachs recurrence
  (``path_csf``; the closed-form coefficient ``path_e_coefficient`` is its
  independent check).  Memoized in process, and each spider starts from
  its nearest memoized predecessor along the steps, so a census in
  reverse-lexicographic order pays two products per spider.  A spider
  census drops each spider of its top size from the memo after its last
  reader; library calls memoize every spider.  Comfortably reaches
  spiders far beyond oracle scale.

Closed-form coefficient extractors for special keys ((m^q), (2^{n/2}),
(3, 2^k), and the four-leg (m+r, m^q)) live here too.
"""

from __future__ import annotations

from functools import lru_cache

from espider._subsets import rooted_census, subset_type_census
from espider.graphs import (Spider, SimpleGraph, Tree, spider_mod_type_info,
                            spider_to_tree)
from espider.partitions import Partition, multinomial, pack
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


def path_csf(n: int) -> EExpansion:
    """e-expansion of the n-vertex path, cached."""
    if n < 1:
        raise ValueError(f"paths need >= 1 vertex, got {n}")
    return _path(n)


@lru_cache(maxsize=None)
def _path(n: int) -> EExpansion:
    """The Shareshian-Wachs recurrence (their path generating function at
    t = 1, Adv. Math. 295 (2016)):

        X_{P_n} = e_n + sum_{i=2}^{n} (i-1) e_i X_{P_{n-i}},   X_{P_0} = 1.
    """
    acc = {pack((n,)): 1}
    for i in range(2, n + 1):
        rest = _path(n - i).terms if i < n else UNIT
        add_product(acc, {pack((i,)): i - 1}, rest)
    return EExpansion.from_packed(n, acc)


# Spider expansions by sorted leg tuple, process-wide like ``_path``:
# entries are immutable and recomputation is idempotent, so each worker
# process simply keeps its own.  Every spider is kept, except that a
# spider census (see ``_census_top``) keeps a spider of its top size only
# until its last reader has been computed.
_spiders: dict[tuple[int, ...], EExpansion] = {}

# The running spider census: the largest size it expands (None outside a
# census) and its --legs restriction, and for each memoized top-size
# spider the number of its readers not yet computed.
_top_n: int | None = None
_top_legs: int | None = None
_readers: dict[tuple[int, ...], int] = {}


def _census_top(top: int | None, legs: int | None = None) -> None:
    """Tell the engine that a spider census expanding spiders of at most
    ``top`` vertices (with exactly ``legs`` legs, if given) runs in this
    process; ``top=None`` ends it, so later calls memoize every spider.
    The census visits spiders by n, then in reverse-lexicographic leg
    order, which is what the top-size memo rule relies on."""
    global _top_n, _top_legs
    _top_n, _top_legs = top, legs
    _readers.clear()


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
    census, those of its top size only until their last reader).
    """
    return _spider_csf(s.legs.parts)


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
    acc = dict(start)
    for i in range(j + 1, b + 1):
        # step from (a+b-i+1, M, i-1) to (a+b-i, M, i)
        add_product(acc, sub(a + b - i), path_csf(i).terms)
        add_product(acc, sub(i - 1), path_csf(a + b - i + 1).terms, -1)
    n = 1 + sum(legs)
    total = EExpansion.from_packed(n, acc)
    if n == _top_n:
        _memoize_top(legs, total)
    else:
        _spiders[legs] = total
    return total


def _census_computes(legs: tuple[int, ...]) -> bool:
    """Does the running census compute this top-size spider, if it expands
    every spider?  Every spider of the top size without --legs.  With
    --legs k, the k-leg spiders, and the spiders with t = k - len(legs)
    legs fewer whose sums start from them at j = 0: (c, N) starts
    (c-1, N, 1), which starts (c-2, N, 1, 1), and so on, so (c, N) is
    computed when c - t >= N[0]."""
    return (_top_legs is None
            or 0 <= _top_legs - len(legs) <= legs[0] - legs[1])


def _memoize_top(legs: tuple[int, ...], total: EExpansion) -> None:
    """Memoize a spider of the census's top size for its readers only.

    In census order a top-size spider L = (a, M, b) is read, later and at
    most once each, by its successor (a-1, M, b+1), which starts from L as
    its memoized predecessor, and by (a-1, M, b, 1), whose sum starts from
    L at j = 0.  So L is kept only if the census computes one of them, with
    a count of those readers, and dropped once each has been computed.  L
    is in turn such a reader of its own source, the successor of
    (a+1, M, b-1) or, when b = 1, the spider with one more leg than
    (a+1, M): that source loses a reader.  Every read a full memo would
    serve is still served, so a census does the same products as with a
    full memo."""
    a, b, middle = legs[0], legs[-1], legs[1:-1]
    source = (a + 1,) + middle + ((b - 1,) if b > 1 else ())
    left = _readers.get(source)
    if left == 1:
        del _readers[source], _spiders[source]
    elif left:
        _readers[source] = left - 1
    if a > middle[0]:
        readers = ((b < middle[-1]
                    and _census_computes((a - 1,) + middle + (b + 1,)))
                   + _census_computes((a - 1,) + middle + (b, 1)))
        if readers:
            _spiders[legs] = total
            _readers[legs] = readers


def tree_csf(t: Spider | Tree, max_n: int | None = None) -> EExpansion:
    """e-expansion of a spider or tree, the one place the expansion bound
    is applied: a graph with more than ``max_n`` vertices is refused before
    any engine runs.  Paths and spiders, given as such or as trees, go to
    the leg-unhooking engine, other trees to the oracle (whose own default
    bound and hard caps still apply)."""
    if max_n is not None and t.n > max_n:
        raise OracleBoundError(
            f"{t.n} vertices exceeds the expansion bound {max_n}")
    if t.n == 1:
        return EExpansion.single((1,))
    sp = t if isinstance(t, Spider) else t.as_spider()
    if sp is not None:
        return spider_csf(sp)
    return csf_oracle(t, max_n=max_n)


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
    return _four_leg_coeff(m, q, r)


def _four_leg_coeff(m: int, q: int, r: int) -> tuple[Partition, int]:
    """``coeff_four_leg``'s key and value from m, q, r, its preconditions
    already checked by the caller."""
    value = (m - 1) ** (q - 2) * (
        m ** 3 - m ** 2 * q + m ** 2 * r - 2 * m ** 2 - m * q * r + m * q + m + r)
    return Partition((m + r,) + (m,) * q), value
