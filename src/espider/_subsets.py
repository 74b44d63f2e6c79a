"""The edge-subset census: the raw material of the power-sum expansion of a
chromatic symmetric function.

For a graph on n vertices with edge list E, the census sums the sign
(-1)^|A| over every subset A of E, keyed by the partition of n given by the
component sizes of (V, A).

Two algorithms compute it, and ``subset_type_census`` picks between them
from the edges alone:

* Forests use a rooted dynamic program.  Each vertex keeps a map from
  state keys to signed counts for the subsets of its subtree's edges.  A
  key holds the size of the open block, the one holding the vertex, in its
  lowest field and the packed multiset of closed blocks above it, so two
  states combine by adding keys.  Each child merges in two ways: keep the
  edge (the open blocks join, the sign flips) or cut it (the child's open
  block closes).  Components multiply at the end.  The cost grows with the
  number of block-size types, not with 2^|E|.

* Graphs with a cycle (line graphs, for instance) use an include/exclude
  walk over all 2^|E| subsets.  It shares union-find work across subsets
  with a common prefix; undo is a single parent-link revert because unions
  are by size with no path compression.

Both keep a multiset of block sizes as its packed partition key
(``partitions.pack``), so adding a block, or merging two multisets, is one
integer addition, and the census comes out keyed the way expansions are.
"""

from __future__ import annotations

from espider.partitions import FIELD_BITS, MAX_PACKED_WEIGHT
from espider.symfunc import add_product

# No compiled kernel exists; perfbench/child.py and perfbench/tracer.py read this flag.
HAVE_COMPILED = False


def is_forest(n: int, edges) -> bool:
    """True when the edges close no cycle (a repeated edge is a cycle)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


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
    if is_forest(n, edges):
        acc = _forest_census(n, edges)
    else:
        acc = _walk_census(n, edges)
    return {key: c for key, c in acc.items() if c}


def _forest_census(n, edges) -> dict[int, int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    total = {0: 1}
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for v in order:  # breadth-first: every parent precedes its children
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
        states = {}
        for v in reversed(order):
            state = {1: 1}
            for w in adj[v]:
                child = states.pop(w, None)
                if child is not None:
                    state = _join(state, child)
            states[v] = state
        component = {k >> FIELD_BITS: c for k, c in _close(states[root]).items()}
        product = {}
        add_product(product, total, component)
        total = product
    return total


def _close(state) -> dict[int, int]:
    """Close the open block: the same map with open size 0 in every key."""
    out = {}
    for key, count in state.items():
        size = key & MAX_PACKED_WEIGHT
        key += (1 << FIELD_BITS * size) - size
        out[key] = out.get(key, 0) + count
    return out


def _join(state, child):
    """Merge a child's map into its parent's across the edge between them."""
    out = {}
    add_product(out, state, child, -1)  # keep the edge
    add_product(out, state, _close(child))  # cut it
    return out


def _walk_census(n, edges) -> dict[int, int]:
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
    return acc

