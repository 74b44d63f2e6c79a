"""Chromatic-symmetric-function engines.

Two independent routes to the e-basis expansion of X_G:

* ``csf_oracle`` tallies signed edge-subset counts per component-size
  partition (Stanley's power-sum expansion) and converts the result to the
  elementary basis.  Forests take a rooted dynamic program, other graphs a
  walk over every edge subset; both are exact, and everything else is
  checked against this route.

* ``spider_csf`` unhooks the shortest leg of a spider one edge at a time,
  reducing to shorter spiders times paths, with path expansions from the
  closed-form coefficient ``path_e_coefficient``.  Memoized; comfortably
  reaches spiders far beyond oracle scale.

Closed-form coefficient extractors for special keys ((m^q), (2^{n/2}),
(3, 2^k), and the four-leg (m+r, m^q)) live here too.
"""

from __future__ import annotations

import os

from espider._subsets import is_forest, subset_type_census
from espider.graphs import (Spider, SimpleGraph, Tree, spider_mod_type_info,
                            spider_to_tree)
from espider.partitions import Partition, multinomial, partitions_of
from espider.symfunc import EExpansion, PExpansion

DEFAULT_TREE_ORACLE_BOUND = 20
DEFAULT_GRAPH_ORACLE_BOUND = 14
HARD_CAP_VERTICES = 25
HARD_CAP_EDGES = 28
MIN_ORACLE_BOUND = 4


class OracleBoundError(ValueError):
    """Raised when a graph exceeds the configured oracle size bound."""


class CacheFormatError(ValueError):
    """Raised when a cache file fails to parse cleanly."""


class CsfCache:
    """Memo store for path and spider expansions, persistable to disk.

    Entries are immutable expansions and recomputation is idempotent, so
    the sharing contract is simple: concurrent readers are fine, a lost
    write race costs time but never correctness, and parallel censuses just
    use one cache per worker.
    """

    def __init__(self):
        self.paths: dict[int, EExpansion] = {}
        self.spiders: dict[tuple[int, ...], EExpansion] = {}

    def save(self, path: str) -> None:
        lines = ["csf-cache v1"]
        for n in sorted(self.paths):
            lines.append(f"PATH {n}")
            lines.append(self.paths[n].to_text())
            lines.append("")
        for legs in sorted(self.spiders):
            lines.append("SPIDER [" + ",".join(str(l) for l in legs) + "]")
            lines.append(self.spiders[legs].to_text())
            lines.append("")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "CsfCache":
        cache = cls()
        with open(path) as fh:
            blocks = fh.read().split("\n\n")
        header, _, first = blocks[0].partition("\n")
        if header.strip() != "csf-cache v1":
            raise CacheFormatError(f"bad cache header {header!r}")
        blocks[0] = first
        for block in blocks:
            block = block.strip("\n")
            if not block.strip():
                continue
            head, _, body = block.partition("\n")
            head = head.strip()
            try:
                expansion = EExpansion.from_text(body)
            except (ValueError, IndexError) as exc:
                raise CacheFormatError(f"bad expansion under {head!r}: {exc}")
            # Every record is a tree on d vertices, so X(1^d) counts its
            # proper d-colourings, d(d-1)^(d-1).  Each e_lam maps to a
            # positive product of binomials, so any one altered coefficient
            # breaks the equation.
            d = expansion.degree
            if d < 1 or expansion.evaluate_chromatic(d) != d * (d - 1) ** (d - 1):
                raise CacheFormatError(f"{head!r} record fails the tree "
                                       f"colouring check at k = {d}")
            if head.startswith("PATH "):
                n = int(head[5:])
                if expansion.degree != n:
                    raise CacheFormatError(f"PATH {n} record has degree "
                                           f"{expansion.degree}")
                cache.paths[n] = expansion
            elif head.startswith("SPIDER "):
                legs = Partition.parse(head[7:]).parts
                if expansion.degree != 1 + sum(legs):
                    raise CacheFormatError(f"SPIDER {list(legs)} record has "
                                           f"degree {expansion.degree}")
                cache.spiders[legs] = expansion
            else:
                raise CacheFormatError(f"unknown record {head!r}")
        return cache


_DEFAULT_CACHE = CsfCache()


def default_cache() -> CsfCache:
    return _DEFAULT_CACHE


def _as_graph(g) -> tuple[int, list[tuple[int, int]]]:
    if isinstance(g, Spider):
        g = spider_to_tree(g)
    if isinstance(g, (Tree, SimpleGraph)):
        return g.n, sorted(g.edges)
    raise TypeError(f"cannot interpret {type(g).__name__} as a graph")


def csf_oracle(g, max_n: int | None = None) -> EExpansion:
    """Exact e-expansion of X_g from its edge-subset census.

    ``max_n`` overrides the default size bound (trees/forests 20, general
    graphs 14) up to the hard caps.
    """
    n, edges = _as_graph(g)
    forest = is_forest(n, edges)
    bound = max_n if max_n is not None else (
        DEFAULT_TREE_ORACLE_BOUND if forest else DEFAULT_GRAPH_ORACLE_BOUND)
    bound = min(bound, HARD_CAP_VERTICES)
    if n > bound:
        raise OracleBoundError(
            f"{n} vertices exceeds the oracle bound {bound}")
    if len(edges) > HARD_CAP_EDGES:
        raise OracleBoundError(
            f"{len(edges)} edges exceeds the hard cap {HARD_CAP_EDGES}")
    counts = subset_type_census(n, edges)
    return PExpansion(n, {Partition(k): c for k, c in counts.items()}).to_e()


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


def path_csf(n: int, cache: CsfCache | None = None) -> EExpansion:
    """e-expansion of the n-vertex path from the closed form, cached."""
    if n < 1:
        raise ValueError(f"paths need >= 1 vertex, got {n}")
    cache = cache if cache is not None else _DEFAULT_CACHE
    hit = cache.paths.get(n)
    if hit is not None:
        return hit
    terms = {}
    for lam in partitions_of(n):
        c = path_e_coefficient(n, lam)
        if c:
            terms[lam] = c
    out = EExpansion(n, terms)
    cache.paths[n] = out
    return out


def spider_csf(s: Spider, cache: CsfCache | None = None) -> EExpansion:
    """e-expansion of a spider via leg-unhooking.

    The shortest leg (length b) is eliminated against the longest (length a):

        X = X[combine a+b] + sum_{k=0}^{b-1} ( X[a -> a+k] * P_{b-k}
                                             - X[a -> k]   * P_{a+b-k} )

    where X[a -> v] is the spider with the long leg replaced by v and the
    short leg dropped (v = 0 drops the leg entirely), and P_j is the j-vertex
    path.  Spiders with at most two legs are paths.  Results are cached by
    the sorted leg tuple.
    """
    cache = cache if cache is not None else _DEFAULT_CACHE
    return _spider_csf(s.legs.parts, cache)


def _spider_csf(legs: tuple[int, ...], cache: CsfCache) -> EExpansion:
    legs = tuple(sorted((l for l in legs if l > 0), reverse=True))
    if len(legs) <= 2:
        return path_csf(1 + sum(legs), cache)
    hit = cache.spiders.get(legs)
    if hit is not None:
        return hit
    a, b = legs[0], legs[-1]
    middle = legs[1:-1]

    def sub(v):
        return _spider_csf((v,) + middle, cache)

    total = sub(a + b)
    for k in range(b):
        total = total + sub(a + k) * path_csf(b - k, cache)
        total = total - sub(k) * path_csf(a + b - k, cache)
    cache.spiders[legs] = total
    return total


def tree_csf(t: Tree, cache: CsfCache | None = None,
             max_n: int | None = None) -> EExpansion:
    """Route a tree to the right engine: paths and spiders go through the
    closed-form/recursive engines, everything else to the oracle."""
    if t.n == 1:
        return EExpansion.single((1,))
    sp = t.as_spider()
    if sp is not None:
        return spider_csf(sp, cache)
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
    value = (m - 1) ** (q - 2) * (
        m ** 3 - m ** 2 * q + m ** 2 * r - 2 * m ** 2 - m * q * r + m * q + m + r)
    return Partition((m + r,) + (m,) * q), value
