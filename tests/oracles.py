"""Independent oracles for the test suite.

Everything here is deliberately written from scratch with different
algorithms than the package uses: partition counting via the pentagonal
recurrence, partition streaming via an in-place successor rule, edge-subset
censuses by plain mask iteration, proper colorings by direct assignment,
symmetric-function identities by numeric evaluation at integer points, and
labeled-tree enumeration through sequence decoding with a centroid-rooted
canonical form, and the pieces left when a vertex is deleted by union-find.
"""

from functools import lru_cache
from itertools import product
from math import comb
from random import Random


@lru_cache(maxsize=None)
def pentagonal_partition_count(n):
    """p(n) by Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (pentagonal_partition_count(n - g1)
                         + pentagonal_partition_count(n - g2))
        k += 1
    return total


def successor_partitions(n):
    """All partitions of n, largest-first order, via the successor rule:
    decrement the rightmost part exceeding 1, then re-greedy the tail."""
    if n == 0:
        yield ()
        return
    cur = [n]
    while True:
        yield tuple(cur)
        idx = -1
        for i in range(len(cur) - 1, -1, -1):
            if cur[i] > 1:
                idx = i
                break
        if idx == -1:
            return
        rem = sum(cur[idx:]) - (cur[idx] - 1)
        cur = cur[:idx] + [cur[idx] - 1]
        while rem:
            take = min(cur[-1], rem)
            cur.append(take)
            rem -= take


def naive_subset_census(n, edges):
    """Signed subset counts per component-size type, one fresh union-find
    per mask."""
    acc = {}
    m = len(edges)
    for mask in range(1 << m):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        bits = 0
        for i in range(m):
            if mask >> i & 1:
                bits += 1
                ru, rv = find(edges[i][0]), find(edges[i][1])
                if ru != rv:
                    parent[ru] = rv
        sizes = {}
        for v in range(n):
            r = find(v)
            sizes[r] = sizes.get(r, 0) + 1
        key = tuple(sorted(sizes.values(), reverse=True))
        acc[key] = acc.get(key, 0) + (-1) ** bits
    return {k: v for k, v in acc.items() if v}


def connected_partition_types(n, edges):
    """All achievable component-size types over edge subsets of a tree.

    The tree is rooted once; each mask then takes one bottom-up pass in
    which a vertex adds its size to its parent when the edge between them
    is kept, and closes a component of that size when it is cut."""
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    order, parent, up = [0], [0] * n, [0] * n
    seen = {0}
    for v in order:
        for w, i in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w], up[w] = v, i
                order.append(w)
    if len(edges) != n - 1 or len(order) != n:
        raise ValueError("connected_partition_types takes trees only")
    below = [(v, parent[v], up[v]) for v in reversed(order[1:])]
    out = set()
    for mask in range(1 << len(edges)):
        size = [1] * n
        parts = []
        for v, p, i in below:
            if mask >> i & 1:
                size[p] += size[v]
            else:
                parts.append(size[v])
        parts.append(size[0])
        out.add(tuple(sorted(parts, reverse=True)))
    return out


def count_colorings(n, edges, k):
    """Number of proper colorings with k colors, direct assignment."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = [-1] * n

    def rec(v):
        if v == n:
            return 1
        total = 0
        for c in range(k):
            if all(colors[w] != c for w in adj[v] if w < v):
                colors[v] = c
                total += rec(v + 1)
        colors[v] = -1
        return total

    return rec(0)


def eval_elementary(xs, j):
    """e_j at the point xs, via the coefficient recurrence of
    prod(1 + x_i t)."""
    coeffs = [1] + [0] * j
    for x in xs:
        for d in range(min(j, len(coeffs) - 1), 0, -1):
            coeffs[d] += x * coeffs[d - 1]
    return coeffs[j]


def eval_power_sum(xs, k):
    return sum(x ** k for x in xs)


def eval_e_expansion(expansion, xs):
    """Numeric value of an elementary-basis expansion at the point xs."""
    total = 0
    for key, coeff in expansion.items():
        prod = coeff
        for part in key:
            prod *= eval_elementary(xs, part)
        total += prod
    return total


def random_points(n_vars, count, seed=0, lo=-6, hi=7):
    rng = Random(seed)
    return [tuple(rng.randint(lo, hi) for _ in range(n_vars))
            for _ in range(count)]


def prufer_to_edges(seq, n):
    """Decode a length-(n-2) sequence over 0..n-1 into a labeled tree."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def all_labeled_trees(n):
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_to_edges(seq, n)


def ahu_canonical(n, edges):
    """Isomorphism-invariant string: parenthesis encoding rooted at the
    centroid(s), minimized when there are two."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    # Root once at 0: a vertex's heaviest part on removal is the larger of
    # its largest child subtree and the n - size[v] vertices above it.
    order, parent = [0], [-1] * n
    parent[0] = 0
    for v in order:
        for w in adj[v]:
            if parent[w] == -1 and w != 0:
                parent[w] = v
                order.append(w)
    size = [1] * n
    heaviest = [0] * n
    for v in reversed(order):
        heaviest[v] = max(heaviest[v], n - size[v])
        if v:
            size[parent[v]] += size[v]
            heaviest[parent[v]] = max(heaviest[parent[v]], size[v])
    best = min(heaviest)
    centroids = [v for v in range(n) if heaviest[v] == best]

    def encode(v, parent):
        subs = sorted(encode(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return min(encode(c, -1) for c in centroids)


def component_sizes_without(n, edges, v):
    """Sizes of the components of the graph minus vertex v, largest first,
    by union-find over the edges that avoid v."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in edges:
        if v not in (a, b):
            root[find(a)] = find(b)
    sizes = {}
    for x in range(n):
        if x != v:
            r = find(x)
            sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)


def free_trees_unpruned(n):
    """Sorted edge lists of one tree per isomorphism class, by the package's
    former enumerator: walk every canonical rooted level sequence in
    decreasing lexicographic order (the successor rule), build each tree,
    keep the first tree of every class by its center-rooted canonical level
    sequence, and list the classes in increasing canonical order."""
    def level_sequences():
        seq = list(range(n))  # the path
        while True:
            yield seq
            p = max((i for i in range(1, n) if seq[i] > 1), default=0)
            if not p:
                return
            q = max(i for i in range(p) if seq[i] == seq[p] - 1)
            for i in range(p, n):
                seq[i] = seq[i - (p - q)]

    def canonical(adj):
        deg = [len(a) for a in adj]
        layer = [v for v in range(n) if deg[v] <= 1]
        left = n - len(layer)
        while left:  # strip leaves down to the 1 or 2 centers
            nxt = []
            for v in layer:
                for w in adj[v]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
            left -= len(nxt)
            layer = nxt

        def rooted(v, parent, depth):
            out = (depth,)
            for sub in sorted((rooted(w, v, depth + 1)
                               for w in adj[v] if w != parent), reverse=True):
                out += sub
            return out

        return min(rooted(c, -1, 0) for c in layer)

    first = {}
    for seq in level_sequences():
        adj = [[] for _ in range(n)]
        edges, latest = [], [0] * n
        for i in range(1, n):
            u = latest[seq[i] - 1]
            edges.append((u, i))
            adj[u].append(i)
            adj[i].append(u)
            latest[seq[i]] = i
        first.setdefault(canonical(adj), sorted(edges))
    return [first[form] for form in sorted(first)]


def free_tree_count_by_prufer(n):
    """Number of isomorphism classes of trees on n vertices, found the slow
    honest way."""
    return len({ahu_canonical(n, edges) for edges in all_labeled_trees(n)})


def binomial(n, k):
    return comb(n, k)
