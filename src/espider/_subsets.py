"""The edge-subset census: the raw material of the power-sum expansion of a
chromatic symmetric function.

For a graph on n vertices with edge list E, the census sums the sign
(-1)^|A| over every subset A of E, keyed by the partition of n given by the
component sizes of (V, A).

Two algorithms compute it, and ``subset_type_census`` picks between them
from the edges alone:

* Forests use a rooted dynamic program.  Each vertex keeps a map
  ``(open block size, closed block multiset) -> signed count`` for the
  subsets of its subtree's edges, where the open block is the one holding
  the vertex.  Each child merges in two ways: keep the edge (the open
  blocks join, the sign flips) or cut it (the child's open block closes).
  Components multiply at the end.  The cost grows with the number of
  block-size types, not with 2^|E|.

* Graphs with a cycle (line graphs, for instance) use an include/exclude
  walk over all 2^|E| subsets.  It shares union-find work across subsets
  with a common prefix; undo is a single parent-link revert because unions
  are by size with no path compression.

Both keep a multiset of block sizes as one integer with a counter field of
``n.bit_length()`` bits per size, so adding a block, or merging two
multisets, is one integer addition.
"""

from __future__ import annotations

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


def subset_type_census(n: int, edges: list[tuple[int, int]]) -> dict[tuple[int, ...], int]:
    """Signed count of edge subsets per component-size partition.

    Returns {partition tuple (descending): sum over subsets of (-1)^|subset|}.
    Entries that cancel to zero are dropped.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
    shift = n.bit_length()
    if is_forest(n, edges):
        acc = _forest_census(n, edges, shift)
    else:
        acc = _walk_census(n, edges, shift)
    return {_decode(key, shift): c for key, c in acc.items() if c}


def _forest_census(n, edges, shift) -> dict[int, int]:
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
            state = {(1, 0): 1}
            for w in adj[v]:
                child = states.pop(w, None)
                if child is not None:
                    state = _join(state, child, shift)
            states[v] = state
        component = _close(states[root], shift)
        product = {}
        for a, ca in total.items():
            for b, cb in component.items():
                product[a + b] = product.get(a + b, 0) + ca * cb
        total = product
    return total


def _close(state, shift) -> dict[int, int]:
    """Close the open block: {closed multiset key: signed count}."""
    out = {}
    for (size, closed), count in state.items():
        key = closed + (1 << shift * (size - 1))
        out[key] = out.get(key, 0) + count
    return out


def _join(state, child, shift):
    """Merge a child's map into its parent's across the edge between them."""
    cut = _close(child, shift)
    out = {}
    for (size, closed), a in state.items():
        for (csize, cclosed), b in child.items():
            key = (size + csize, closed + cclosed)
            out[key] = out.get(key, 0) - a * b
        for cclosed, b in cut.items():
            key = (size, closed + cclosed)
            out[key] = out.get(key, 0) + a * b
    return out


def _walk_census(n, edges, shift) -> dict[int, int]:
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
            key2 = key + (1 << (shift * (su + sv - 1))) \
                       - (1 << (shift * (su - 1))) - (1 << (shift * (sv - 1)))
            rec(ei + 1, -sign, key2)
            parent[rv] = rv
            size[ru] = su

    rec(0, 1, n)  # empty subset: n singleton components
    return acc


def _decode(key: int, shift: int) -> tuple[int, ...]:
    mask = (1 << shift) - 1
    parts = []
    s = 1
    while key:
        parts.extend([s] * (key & mask))
        key >>= shift
        s += 1
    parts.reverse()
    return tuple(parts)
