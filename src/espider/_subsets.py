"""The edge-subset census: the raw material of the power-sum expansion of a
chromatic symmetric function.

For a graph on n vertices with edge list E, the census sums the sign
(-1)^|A| over every subset A of E, keyed by the partition of n given by the
component sizes of (V, A).

Two algorithms compute it, and the caller picks by what it holds:

* A tree with a rooted order takes a dynamic program, ``rooted_census``.
  Each vertex keeps a map from state keys to signed counts for the subsets
  of its subtree's edges.  A key holds the size of the open block, the one
  holding the vertex, in its lowest field and the packed multiset of
  closed blocks above it, so two states combine by adding keys.  Each
  child merges in across its edge, kept (the open blocks join, the sign
  flips) or cut (the child's open block closes), in one product; a leaf
  child, which has no state of its own, merges through one constant map
  per walk.  A merge costs the product of its two maps' sizes, which grow
  with the number of block-size types in the subtrees merged, not with
  2^|E|, so the cost grows with the largest merge: a ``graphs.Tree`` keeps
  its order from a centroid, where no child's subtree holds more than n/2
  vertices.
  Unsigned and pruned, it is ``graphs.has_connected_partition``.

* Any other edge list (line graphs, forests, a repeated edge) takes
  ``subset_type_census``: an include/exclude walk over all 2^|E| subsets.
  It shares union-find work across subsets with a common prefix; undo is
  a single parent-link revert because unions are by size with no path
  compression.

Both keep a multiset of block sizes as its packed partition key
(``partitions.pack``), so adding a block, or merging two multisets, is one
integer addition, and the census comes out keyed the way expansions are.
"""

from __future__ import annotations

from functools import lru_cache

from espider.partitions import FIELD_BITS, MAX_PACKED_WEIGHT
from espider.symfunc import add_product

# No compiled kernel exists; perfbench/child.py and perfbench/tracer.py read this flag.
HAVE_COMPILED = False


def subset_type_census(n: int, edges: list[tuple[int, int]]) -> dict[int, int]:
    """Signed count of edge subsets per component-size partition.

    Returns {packed partition key: sum over subsets of (-1)^|subset|}.
    Entries that cancel to zero are dropped.
    """
    if not 1 <= n <= MAX_PACKED_WEIGHT:
        raise ValueError(f"need 1 to {MAX_PACKED_WEIGHT} vertices, got {n}")
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
    parent = list(range(n))
    size = [1] * n
    acc: dict[int, int] = {}
    m = len(edges)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(ei, sign, key):
        if ei == m:
            acc[key] = acc.get(key, 0) + sign
            return
        u, v = edges[ei]
        rec(ei + 1, sign, key)  # edge excluded
        ru, rv = find(u), find(v)
        if ru == rv:
            # cycle edge: component sizes unchanged, sign flips
            rec(ei + 1, -sign, key)
        else:
            su, sv = size[ru], size[rv]
            if su < sv:
                ru, rv = rv, ru
                su, sv = sv, su
            parent[rv] = ru
            size[ru] = su + sv
            key2 = key + (1 << (FIELD_BITS * (su + sv - 1))) \
                       - (1 << (FIELD_BITS * (su - 1))) \
                       - (1 << (FIELD_BITS * (sv - 1)))
            rec(ei + 1, -sign, key2)
            parent[rv] = rv
            size[ru] = su

    rec(0, 1, n)  # empty subset: n singleton components
    return {key: c for key, c in acc.items() if c}


def rooted_census(order, parent, sign=-1, keep=None) -> dict[int, int]:
    """{packed type: sum of sign^|A|} over the edge subsets A of a tree
    whose vertices ``order`` lists root first, each after ``parent[v]``.

    Sign +1 counts the subsets of each type, so none cancel.  ``keep``, if
    given, must pass every state key that can still grow into a wanted
    type; the walk drops the others after each merge."""
    leaf = {1: 1}  # one vertex: an open block of size 1, nothing closed
    # A leaf child seen across its edge, shared by every leaf of the walk:
    # cut, a closed block of size 1; kept, an open block of size 1, times sign.
    leaf_edge = {1 << FIELD_BITS: 1, 1: sign}
    states = {}
    for v in reversed(order[1:]):
        p = parent[v]
        child = states.pop(v, None)
        edge = leaf_edge if child is None else _across(child, sign)
        states[p] = _join(states.get(p, leaf), edge, keep)
        if not states[p]:
            return {}  # no subset survives, whatever the rest of the tree
    root = _close(states.get(order[0], leaf))
    return {key >> FIELD_BITS: c for key, c in root.items()}


@lru_cache(maxsize=4096)
def fits_in(parts):
    """A ``keep`` test for the walk: it passes a state whose open block is
    no larger than the largest of ``parts`` (weakly decreasing tuple) and
    whose closed blocks are a sub-multiset of them.  Cached by ``parts``, so
    each type builds its test once."""
    bounds = [parts[0]] + [0] * sum(parts)  # open size, count of each size
    for p in parts:
        bounds[p] += 1
    # With a guard bit atop each bound, a key fits when taking it away clears
    # no guard bit; exact for bounds below 128, as a merge at most doubles a
    # field plus one.  A larger bound (n > 127) gets no guard and no check.
    guard = 1 << FIELD_BITS - 1
    ceiling = guards = 0
    for f, bound in enumerate(bounds):
        if bound < guard:
            ceiling |= (bound | guard) << FIELD_BITS * f
            guards |= guard << FIELD_BITS * f
        else:
            ceiling |= MAX_PACKED_WEIGHT << FIELD_BITS * f
    return lambda key: (ceiling - key) & guards == guards


def _close(state) -> dict[int, int]:
    """Close the open block: the same map with open size 0 in every key."""
    out = {}
    for key, count in state.items():
        size = key & MAX_PACKED_WEIGHT
        key += (1 << FIELD_BITS * size) - size
        out[key] = out.get(key, 0) + count
    return out


def _across(child, sign):
    """A child's map seen across the edge to its parent: the edge cut (the
    child's open block closes) or kept (the open block stays, times sign).
    Only cut keys have open size 0, so none collide."""
    merged = _close(child)
    for key, c in child.items():
        merged[key] = sign * c
    return merged


def _join(state, edge, keep):
    """Merge a child's map, seen across its edge, into its parent's; the
    open blocks of a kept edge join as the keys add."""
    out = {}
    add_product(out, state, edge)
    if keep is not None:
        out = {key: c for key, c in out.items() if keep(key)}
    return out

