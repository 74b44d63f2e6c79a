"""Trees, spiders and small simple graphs, plus connected-partition machinery
for trees and spiders.

A connected partition of type lambda splits the vertex set into blocks that
induce connected subgraphs with block sizes lambda.  For trees this is
equivalent to deleting an edge subset whose component sizes are lambda, which
turns the search into a structured bottom-up scan.  Spiders additionally
admit an exact reduction to a tiny bin-packing problem, fast enough to sweep
every partition type on spiders with dozens of vertices.
"""

from __future__ import annotations

from collections.abc import Iterator

from espider.partitions import Partition, partitions_of


class Spider:
    """A star of paths: d legs of the given lengths joined at one center.

    The graph has 1 + sum(legs) vertices; leg lengths count the vertices on
    the leg excluding the center.
    """

    __slots__ = ("legs", "n", "d")

    def __init__(self, legs):
        if not isinstance(legs, Partition):
            legs = Partition(legs)
        if len(legs) < 1:
            raise ValueError("a spider needs at least one leg")
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "n", 1 + sum(legs.parts))  # vertices
        object.__setattr__(self, "d", len(legs.parts))  # legs

    def __setattr__(self, name, value):
        raise AttributeError("Spider is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not __setattr__
        return Spider, (self.legs.parts,)

    def __eq__(self, other):
        return isinstance(other, Spider) and self.legs == other.legs

    def __hash__(self):
        return hash(("Spider", self.legs))

    def __repr__(self):
        return f"Spider({list(self.legs.parts)})"

    def __str__(self):
        return "S[" + ",".join(str(l) for l in self.legs) + "]"

    @classmethod
    def parse(cls, text: str) -> "Spider":
        text = text.strip()
        if not (text.startswith("S[") and text.endswith("]")):
            raise ValueError(f"cannot parse spider notation {text!r}")
        return cls([int(tok) for tok in text[2:-1].split(",")])

    def has_connected_partition(self, typ: Partition) -> bool:
        """Exact check via packing: one part is the center block, the rest
        must fit into the legs (any multiset summing to at most a leg's
        length fits, because a path can be cut into arbitrary pieces)."""
        if typ.n != self.n:
            raise ValueError(f"type weight {typ.n} != vertex count {self.n}")
        caps = self.legs.parts
        items = list(typ.parts)
        seen = set()
        for idx, a in enumerate(items):
            if a in seen:
                continue
            seen.add(a)
            rest = tuple(items[:idx] + items[idx + 1:])
            if _pack(rest, 0, tuple(sorted(caps, reverse=True)), {}):
                return True
        return False


def _pack(items, idx, caps, memo):
    # Can items[idx:] (descending) be placed into bins with capacities
    # `caps` (descending), no bin exceeded?  Leftover capacity is fine.
    if idx == len(items):
        return True
    key = (idx, caps)
    hit = memo.get(key)
    if hit is not None:
        return hit
    it = items[idx]
    ok = False
    tried = set()
    for b, cap in enumerate(caps):
        if cap < it:
            break  # caps descending: nothing later fits either
        if cap in tried:
            continue
        tried.add(cap)
        new_caps = tuple(sorted(caps[:b] + (cap - it,) + caps[b + 1:],
                                reverse=True))
        if _pack(items, idx + 1, new_caps, memo):
            ok = True
            break
    memo[key] = ok
    return ok


class Tree:
    """An unrooted tree on vertices 0..n-1 given by its edge set.

    It also keeps one rooted order, which every walk over it reads:
    ``_order`` lists the vertices from the root 0, each after its
    ``_parent`` (0 is its own), and ``_deg`` holds the degrees.  Which
    order is kept is not observable."""

    __slots__ = ("n", "edges", "_order", "_parent", "_deg")

    def __init__(self, n: int, edges):
        edge_set = frozenset(tuple(sorted(e)) for e in edges)
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        adj = [[] for _ in range(n)]
        for u, v in edge_set:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            adj[u].append(v)
            adj[v].append(u)
        if len(edge_set) != n - 1:
            raise ValueError(f"a tree on {n} vertices has {n - 1} edges, "
                             f"got {len(edge_set)}")
        # connectivity, by a walk from 0 that records the rooted order
        parent = [-1] * n
        parent[0] = 0
        order = [0]
        for x in order:
            for y in adj[x]:
                if parent[y] == -1:
                    parent[y] = x
                    order.append(y)
        if len(order) != n:
            raise ValueError("edge set is not connected")
        self._set(n, edge_set, tuple(order), tuple(parent))

    @classmethod
    def _from_parents(cls, parents) -> Tree:
        # Internal fast path for a parents array with parents[v] < v for
        # every v > 0 (and parents[0] == 0): the tree
        # Tree(n, [(parents[v], v) for v in 1..n-1]) builds, without the
        # checks, keeping these parents and the order 0..n-1.
        n = len(parents)
        edge_set = frozenset([(parents[v], v) for v in range(1, n)])
        obj = object.__new__(cls)
        obj._set(n, edge_set, range(n), tuple(parents))
        return obj

    def _set(self, n, edge_set, order, parent):
        deg = [1] * n
        deg[0] = 0
        for v in order[1:]:
            deg[parent[v]] += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_deg", tuple(deg))

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not __setattr__
        return Tree, (self.n, sorted(self.edges))

    def degree(self, v: int) -> int:
        return self._deg[v]

    def __eq__(self, other):
        return (isinstance(other, Tree) and self.n == other.n
                and self.edges == other.edges)

    def __hash__(self):
        return hash(("Tree", self.n, self.edges))

    def __repr__(self):
        return f"Tree({self.n}, {sorted(self.edges)})"

    def __str__(self):
        """T<u>-<v>/... over the sorted edges; T1 for the single vertex."""
        return "T" + ("/".join(f"{u}-{v}" for u, v in sorted(self.edges)) or "1")

    def has_connected_partition(self, typ: Partition) -> bool:
        """Does deleting some edges leave components of sizes typ?"""
        return has_connected_partition(self, typ)

    def to_text(self) -> str:
        lines = [str(self.n)]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "Tree":
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        if not lines:
            raise ValueError("empty tree text")
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
        return cls(n, edges)

    def reductions(self) -> list[tuple[int, Spider]]:
        """(v, the spider this tree reduces to at v) for every vertex v of
        degree >= 3, in vertex order.  The legs at v are the sizes of the
        subtrees hanging off v: one reverse pass of subtree sizes adds each
        vertex's size to its parent's legs and n minus it to its own."""
        n, parent = self.n, self._parent
        size = [1] * n
        legs = [[] for _ in range(n)]
        for v in reversed(self._order[1:]):
            p = parent[v]
            size[p] += size[v]
            legs[p].append(size[v])
            legs[v].append(n - size[v])
        return [(v, Spider(legs[v])) for v in range(n) if self._deg[v] >= 3]

    def as_spider(self) -> Spider | None:
        """The Spider this tree is, or None.

        A path on k+1 >= 2 vertices is reported as the one-leg spider S(k).
        """
        hubs = self.reductions()
        if self.n == 1 or len(hubs) > 1:
            return None
        return hubs[0][1] if hubs else Spider([self.n - 1])  # or a path


class SimpleGraph:
    """A loopless simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        edge_set = frozenset(tuple(sorted(e)) for e in edges)
        for u, v in edge_set:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edge_set)

    def __setattr__(self, name, value):
        raise AttributeError("SimpleGraph is immutable")

    def __repr__(self):
        return f"SimpleGraph({self.n}, {sorted(self.edges)})"


class ModTypeInfo:
    """Arithmetic verdict for block types (m^q, r) on a spider.

    With n = mq + r (0 <= r < m) and sigma = 1 + sum of leg residues mod m,
    the spider has a connected partition of type (m^q, r) exactly when
    sigma == r, or sigma == m + r with some leg residue >= r.  sigma is
    always congruent to r mod m, so the only other possibility is
    sigma >= 2m; either failure mode proves the type missing.
    """

    __slots__ = ("m", "q", "r", "sigma", "has_type")

    def __init__(self, m, q, r, sigma, has_type):
        self.m = m
        self.q = q
        self.r = r
        self.sigma = sigma
        self.has_type = has_type

    @property
    def type_partition(self) -> Partition:
        # m^q then 0 < r < m: already descending, every part >= 1
        return Partition._raw((self.m,) * self.q
                              + ((self.r,) if self.r else ()))


def spider_mod_type_info(s: Spider, m: int) -> ModTypeInfo:
    """Decide in O(d) whether s has a connected partition of type (m^q, r)."""
    if m <= 1:
        raise ValueError(f"modulus must exceed 1, got {m}")
    q, r = divmod(s.n, m)
    residues = s.legs.residue_vector(m)
    sigma = 1 + sum(residues)
    has = sigma == r or (sigma == m + r and any(x >= r for x in residues))
    return ModTypeInfo(m, q, r, sigma, has)


def spider_to_tree(s: Spider) -> Tree:
    """Lay the spider out: vertex 0 is the center, legs take consecutive
    index ranges in decreasing leg order."""
    edges = []
    nxt = 1
    for leg in s.legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(s.n, edges)


def reduce_to_spider(t: Tree, v: int) -> Spider:
    """Spider whose legs are the sizes of the subtrees hanging off v."""
    if t.degree(v) < 3:
        raise ValueError(f"vertex {v} has degree {t.degree(v)} < 3")
    return dict(t.reductions())[v]


def has_connected_partition(t: Tree, typ: Partition) -> bool:
    """Does some edge-subset deletion split t into components of sizes typ?

    Bottom-up over the rooted tree: the state at a vertex is the achievable
    set of (size of the still-open component at the root, counts of already
    completed block sizes), pruned against typ.  For each child edge we
    either keep it (sizes merge) or cut it (the child component must close
    as a needed block size).
    """
    if typ.n != t.n:
        raise ValueError(f"type weight {typ.n} != vertex count {t.n}")
    values = sorted({p for p in typ.parts})
    index = {s: i for i, s in enumerate(values)}
    need = tuple(typ.parts.count(s) for s in values)
    maxpart = typ.parts[0]
    zero = (0,) * len(values)

    # each vertex starts as a one-vertex open component; in reverse rooted
    # order its state is complete and merges into its parent's
    parent = t._parent
    states: list[set | None] = [{(1, zero)} for _ in range(t.n)]
    for v in reversed(t._order[1:]):
        child, states[v] = states[v], None
        new = set()
        for (rp, up) in states[parent[v]]:
            for (rc, uc) in child:
                merged = tuple(a + b for a, b in zip(up, uc))
                if any(a > b for a, b in zip(merged, need)):
                    continue
                total = rp + rc
                if total <= maxpart:
                    new.add((total, merged))
                i = index.get(rc)
                if i is not None and merged[i] < need[i]:
                    closed = merged[:i] + (merged[i] + 1,) + merged[i + 1:]
                    new.add((rp, closed))
        if not new:
            return False
        states[parent[v]] = new

    for (r, u) in states[0]:
        i = index.get(r)
        if i is None:
            continue
        final = u[:i] + (u[i] + 1,) + u[i + 1:]
        if final == need:
            return True
    return False


def first_missing_type(g: Spider | Tree) -> Partition | None:
    """Reverse-lexicographically first type g has no connected partition
    of, or None."""
    for typ in partitions_of(g.n):
        if not g.has_connected_partition(typ):
            return typ
    return None


def line_graph(g: SimpleGraph | Tree) -> SimpleGraph:
    """One vertex per edge; adjacency = shared endpoint."""
    base = sorted(g.edges)
    idx = {e: i for i, e in enumerate(base)}
    out = []
    for i, (u1, v1) in enumerate(base):
        for j in range(i + 1, len(base)):
            u2, v2 = base[j]
            if len({u1, v1} & {u2, v2}) > 0:
                out.append((i, j))
    return SimpleGraph(len(base), out)


def mn_tree(n: int) -> Tree:
    """Path of 2n+1 vertices with two extra leaves on path positions n, n+1.

    Positions are 1-indexed along the path; vertices 0..2n are the path,
    2n+1 hangs off position n and 2n+2 off position n+1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    edges = [(i, i + 1) for i in range(2 * n)]
    edges.append((n - 1, 2 * n + 1))
    edges.append((n, 2 * n + 2))
    return Tree(2 * n + 3, edges)


def enumerate_spiders(n: int, legs: int | None = None) -> Iterator[Spider]:
    """One spider per partition of n-1 (optionally with exactly `legs`
    parts), in reverse-lexicographic leg order."""
    if n < 2:
        raise ValueError(f"spiders need >= 2 vertices, got {n}")
    for p in partitions_of(n - 1, length=legs):
        yield Spider(p)


# ---------------------------------------------------------------------------
# Free-tree enumeration.

def _rooted_level_sequences(n: int):
    """All canonical level sequences of rooted trees on n vertices
    (root level 0), generated by the classic successor rule in
    decreasing lexicographic order starting from the path."""
    if n == 1:
        yield (0,)
        return
    seq = list(range(n))  # the path
    while True:
        yield tuple(seq)
        p = -1
        for i in range(n - 1, 0, -1):
            if seq[i] > 1:
                p = i
                break
        if p == -1:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def _height_is_diameter(seq) -> bool:
    """Is the height h of this canonical level sequence its tree's diameter,
    that is, is the root an end of a longest path?

    A canonical sequence starts with the path 0, 1, ..., h, and every other
    vertex hangs, through one branch, off some path vertex a (its anchor).
    A vertex at level l in that branch ends a path of length (h - a) + (l - a)
    through a, longer than h exactly when l > 2a; when no vertex does, no
    path that meets elsewhere is longer either.  The preorder visits the
    branches in order of decreasing anchor, and a vertex at a level no
    deeper than the current anchor starts a new branch.  The canonical form
    takes the centers from the path 0..h, so the answer must be exact."""
    h = max(seq)
    anchor = h
    for level in seq[h + 1:]:
        if level <= anchor:
            anchor = level - 1
        if level > 2 * anchor:
            return False
    return True


def _parents(seq) -> list[int]:
    """Each vertex's parent in the rooted tree of a level sequence (the
    latest vertex one level up); the root is its own parent."""
    latest = [0] * len(seq)  # latest vertex seen at each level
    parents = [0]
    for i in range(1, len(seq)):
        parents.append(latest[seq[i] - 1])
        latest[seq[i]] = i
    return parents


def _canonical_form(seq) -> tuple[int, ...]:
    """Level sequence of the tree rooted at its center, minimized over both
    centers when it is bicentral.  Equal forms iff isomorphic.

    Only for a sequence that passes ``_height_is_diameter``: it starts with
    a longest path 0, 1, ..., h, so the centers are its middle vertex
    h // 2 and, when h is odd, h // 2 + 1."""
    adj = [[] for _ in seq]
    for v, p in enumerate(_parents(seq)):
        if v:
            adj[p].append(v)
            adj[v].append(p)

    def encode(v, up, depth):
        out = (depth,)
        for sub in sorted([encode(w, v, depth + 1) for w in adj[v] if w != up],
                          reverse=True):
            out += sub
        return out

    h = max(seq)
    return min(encode(c, -1, 0) for c in range(h // 2, h - h // 2 + 1))


# Largest n enumerate_trees accepts.  Its cost grows about 3 times per
# vertex: 0.3 s, 1.0-1.2 s, 2.8-3.4 s, 5.1-5.5 s and 15.3-16.2 s at
# n = 14, 15, 16, 17, 18 (Python 3.11.7, one core of a 2-core machine;
# 48,629 and 123,867 trees at n = 17 and 18, each timed twice).
MAX_TREE_N = 18


def enumerate_trees(n: int) -> Iterator[Tree]:
    """One representative per isomorphism class of free trees on n vertices,
    in increasing canonical-form order.

    The representative is the class's first rooted level sequence.  Rooted
    at an end of a longest path (length D), a tree's canonical sequence
    starts 0, 1, ..., D and beats every rooting of smaller height in
    lexicographic order; the sequences come in decreasing order, so one
    whose height is below its diameter is never first and is skipped.  The
    canonical form comes from the sequence itself, and a ``Tree`` is built,
    unchecked, only for each class's representative as it is yielded."""
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"n must be in 1..{MAX_TREE_N}, got {n}")
    seen = {}
    for seq in _rooted_level_sequences(n):
        if _height_is_diameter(seq):
            seen.setdefault(_canonical_form(seq), seq)
    for form in sorted(seen):
        yield Tree._from_parents(_parents(seen[form]))
