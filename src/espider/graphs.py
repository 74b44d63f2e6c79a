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

from espider._subsets import fits_in, rooted_census
from espider.partitions import Partition, pack, partitions_of


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
        body = text[2:-1]
        try:  # no legs at all is left to the constructor to refuse
            legs = [int(tok) for tok in body.split(",")] if body.strip() else []
        except ValueError:
            raise ValueError(f"cannot parse spider notation {text!r}: "
                             "legs are comma-separated integers") from None
        return cls(legs)

    def has_connected_partition(self, typ: Partition) -> bool:
        """Exact check via packing: one part is the center block, the rest
        must fit into the legs (any multiset summing to at most a leg's
        length fits, because a path can be cut into arbitrary pieces).
        A center block whose rest fails the counting bound is skipped
        without a search."""
        if typ.n != self.n:
            raise ValueError(f"type weight {typ.n} != vertex count {self.n}")
        caps = self.legs.parts  # weakly decreasing, as _pack needs
        items = list(typ.parts)
        seen = set()
        for idx, a in enumerate(items):
            if a in seen:
                continue
            seen.add(a)
            rest = tuple(items[:idx] + items[idx + 1:])
            if _count_fits(rest, caps) and _pack(rest, 0, caps, {}):
                return True
        return False


def _count_fits(items, caps):
    # A necessary condition for the packing: a leg of length c holds at most
    # c // t parts of size t or more, so for each part size t the legs hold
    # no more than sum(c // t) of the items (descending) that are >= t.
    for i, t in enumerate(items):
        last = i + 1 == len(items) or items[i + 1] != t
        if last and sum(c // t for c in caps) <= i:
            return False
    return True


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
    ``_order`` lists the vertices from a centroid (no branch at it holds
    more than n/2 vertices), each after its ``_parent`` (the root is its
    own), and ``_deg`` holds the degrees.  Which order is kept is not
    observable."""

    __slots__ = ("n", "edges", "_order", "_parent", "_deg")

    def __init__(self, n: int, edges):
        pairs = [tuple(sorted(e)) for e in edges]
        edge_set = frozenset(pairs)
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        if len(edge_set) != len(pairs):
            raise ValueError("an edge is given twice")
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
        # checks, from the order 0..n-1 and these parents, re-rooted at a
        # centroid like the constructor's.
        n = len(parents)
        edge_set = frozenset([(parents[v], v) for v in range(1, n)])
        obj = object.__new__(cls)
        obj._set(n, edge_set, range(n), tuple(parents))
        return obj

    def _set(self, n, edge_set, order, parent):
        order, parent = _centroid_rooted(order, parent)
        deg = [1] * n
        deg[order[0]] = 0
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
        try:
            n = int(lines[0])
        except ValueError:
            raise ValueError(f"tree text line {lines[0]!r}: the first line "
                             "is the vertex count, one integer") from None
        edges = []
        for ln in lines[1:]:
            try:
                u, v = map(int, ln.split())
            except ValueError:
                raise ValueError(f"tree text line {ln!r}: an edge is two "
                                 "integers") from None
            edges.append((u, v))
        return cls(n, edges)

    def reductions(self) -> list[tuple[int, tuple[int, ...]]]:
        """(v, the legs of the spider this tree reduces to at v, longest
        first) for every vertex v of degree >= 3, in vertex order.  The
        legs at v are the sizes of the subtrees hanging off v: one reverse
        pass of subtree sizes adds each vertex's size to its parent's legs
        and n minus it to its own."""
        n, parent, deg = self.n, self._parent, self._deg
        size = [1] * n
        legs = [[] for _ in range(n)]
        for v in reversed(self._order[1:]):
            p = parent[v]
            size[p] += size[v]
            legs[p].append(size[v])
            legs[v].append(n - size[v])
        return [(v, tuple(sorted(legs[v], reverse=True)))
                for v in range(n) if deg[v] >= 3]


class TreeKeys:
    """Canonical keys of trees: two trees get equal keys exactly when they
    are isomorphic.

    Every rooted tree met gets an int id, interned by the sorted ids of the
    subtrees at its root, so one reverse pass over a rooted order reads the
    id of the tree rooted at its first vertex.  A tree with one centroid is
    keyed by its id rooted there; a tree with two (an edge that splits it
    into halves) by the pair of its halves' ids.  Ids mean
    something only within one ``TreeKeys``, which keeps every rooted tree it
    has met."""

    __slots__ = ("_ids", "_sizes")

    def __init__(self):
        self._ids = {(): 0}  # the one-vertex tree
        self._sizes = [1]  # vertices of each rooted tree, by id

    def __call__(self, t: Tree) -> int | tuple[int, int]:
        return self.rooted(t._order, t._parent)

    def rooted(self, order, parent) -> int | tuple[int, int]:
        """The key of the tree whose vertices ``order`` lists from a
        centroid, each after its ``parent``, as a ``Tree`` keeps them."""
        below = {}  # the ids of each vertex's subtrees seen so far
        for v in reversed(order[1:]):
            kids = below.pop(v, None)
            cid = 0 if kids is None else self._intern(kids)
            p = parent[v]
            if p in below:
                below[p].append(cid)
            else:
                below[p] = [cid]
        kids = below.get(order[0], [])
        n = len(order)
        if not n % 2:
            sizes = self._sizes
            for i, cid in enumerate(kids):
                if 2 * sizes[cid] == n:  # the second centroid's half
                    other = self._intern(kids[:i] + kids[i + 1:])
                    return (cid, other) if cid < other else (other, cid)
        return self._intern(kids)

    def _intern(self, kids: list[int]) -> int:
        kids.sort()
        kids = tuple(kids)
        cid = self._ids.get(kids)
        if cid is None:
            sizes = self._sizes
            cid = self._ids[kids] = len(sizes)
            sizes.append(1 + sum(sizes[k] for k in kids))
        return cid


def _centroid_rooted(order, parent):
    """The same tree's rooted order from a centroid, as (order, parent)
    tuples.

    The centroid is the last vertex in ``order`` whose subtree holds more
    than n/2 vertices: none of its children's subtrees does, and the rest
    of the tree holds fewer than n/2.  Re-rooting flips the parent links on its path
    up to the old root and lists that path first, then every other vertex
    in its old place, still after its parent.  A walk over the order merges
    at most n/2 vertices through any one edge, against up to n - 1 from an
    end of a path."""
    n = len(order)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    centroid = next(v for v in reversed(order) if 2 * size[v] > n)
    root = order[0]
    if centroid == root:
        return tuple(order), tuple(parent)
    parent = list(parent)
    path = [centroid]
    v, up = centroid, parent[centroid]
    parent[centroid] = centroid
    while v != root:
        up_next = parent[up]
        parent[up] = v
        v, up = up, up_next
        path.append(v)
    on_path = set(path)
    return tuple(path + [v for v in order if v not in on_path]), tuple(parent)


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
    return Spider(dict(t.reductions())[v])


def has_connected_partition(t: Tree, typ: Partition) -> bool:
    """Does some edge-subset deletion split t into components of sizes typ?

    The subset census's rooted walk counts t's edge subsets by type,
    unsigned and pruned to the states that can still grow into typ."""
    if typ.n != t.n:
        raise ValueError(f"type weight {typ.n} != vertex count {t.n}")
    need = pack(typ.parts)  # refuses more than MAX_PACKED_WEIGHT vertices
    counts = rooted_census(t._order, t._parent, 1, fits_in(typ.parts))
    return bool(counts.get(need))


def first_missing_type(g: Spider | Tree) -> Partition | None:
    """Reverse-lexicographically first type g has no connected partition
    of, or None.  A tree counts its edge subsets by type in one unsigned,
    unpruned walk and looks each type up in that count; a spider tests
    each type by its packing search."""
    types = partitions_of(g.n)
    if isinstance(g, Tree):
        pack((g.n,))  # refuses more than MAX_PACKED_WEIGHT vertices
        counts = rooted_census(g._order, g._parent, 1)
        return next((typ for typ in types if pack(typ.parts) not in counts),
                    None)
    return next((typ for typ in types if not g.has_connected_partition(typ)),
                None)


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

def _diameter_sequences(n: int):
    """The canonical level sequences of rooted trees on n vertices whose
    height h is their tree's diameter, each with h, in decreasing
    lexicographic order from the path.  One bytearray is yielded each time
    and changed in place after: copy it to keep it.

    Beyer and Hedetniemi's successor rule (SIAM J. Comput. 9 (1980)) walks
    every canonical sequence; this walk skips those whose height is below
    the diameter, by their prefixes.  A canonical sequence starts with the
    path 0, 1, ..., h, and every other vertex hangs, through one branch,
    off some path vertex a (its anchor).  A vertex at level l in that
    branch ends a path of length (h - a) + (l - a) through a, longer than h
    exactly when l > 2a; when no vertex does, no path that meets elsewhere
    is longer either.  The preorder visits the branches in order of
    decreasing anchor, and a vertex at a level no deeper than the current
    anchor starts a new branch.  So the test at index i reads only the
    sequence up to i, and a sequence that fails there fails for every
    sequence sharing that prefix: setting the rest to 1s gives the last of
    them, and the walk steps on from it.  The successor changes the
    sequence only from some index p on, so the test resumes at p from the
    anchors kept for the indices before it."""
    seq = bytearray(range(n))  # the path
    anchor = [0] * n  # the anchor of each off-path vertex tested
    h, start = n - 1, n
    while True:
        a = h if start == h + 1 else anchor[start - 1]
        bad = 0
        for i in range(start, n):
            level = seq[i]
            if level <= a:
                a = level - 1
            if level > 2 * a:
                bad = i
                break
            anchor[i] = a
        if bad:
            seq[bad + 1:] = b"\x01" * (n - bad - 1)
        else:
            yield seq, h
        # the successor: from the last vertex p above level 1 on, repeat
        # the span from the latest vertex q one level above it
        p = len(seq.rstrip(b"\x01")) - 1
        if p <= 0:
            return
        q = seq.rfind(seq[p] - 1, 0, p)
        seq[p:] = (seq[q:p] * ((n - q) // (p - q)))[:n - p]
        h = min(h, p - 1)
        start = p


def _shift_tables(m: int) -> list[bytes]:
    """``bytes.translate`` tables adding s to every byte (mod 256), at
    index s for -m <= s <= m."""
    return [bytes(range(s % 256, 256)) + bytes(range(s % 256))
            for s in (*range(m + 1), *range(-m, 0))]


def _centre_form(seq, h: int, shift: list[bytes]) -> bytes:
    """The level sequence, as bytes, of the tree rooted at its centre,
    least over both centres when it is bicentral.  Equal forms iff
    isomorphic, and forms sort as the level tuples would.

    Only for a sequence ``_diameter_sequences`` yields, with its h: it
    starts with a longest path 0, 1, ..., h, so the centres are its middle
    vertex h // 2 and, when h is odd, h // 2 + 1.  Every vertex off the
    path heads a contiguous block of the sequence, canonical as it stands,
    and the blocks at one anchor come in decreasing order.  Rooted at a
    centre c, the subtree of c + 1 keeps its block, and each path vertex
    k < c moves below k + 1 at depth c - k: only that chain is re-rooted,
    each link inserted among the blocks at its new parent.  A block keeps
    its shape and moves to its new depth through ``shift``
    (``_shift_tables`` of at least h // 2 + 1)."""
    n = len(seq)
    heads = []  # the first vertex of each block off the path, in order
    a = h
    for i in range(h + 1, n):
        level = seq[i]
        if level <= a + 1:  # a new block: at a new anchor, or the same
            a = level - 1
            heads.append(i)
    heads.append(n)
    best = None
    for c in range(h // 2, h - h // 2 + 1):
        below = [[] for _ in range(c + 1)]  # the blocks at each k <= c
        end = n  # the subtree of c + 1 ends at the first block at k <= c
        for j in range(len(heads) - 1, 0, -1):
            i = heads[j - 1]
            k = seq[i] - 1
            if k > c:
                break
            end = i
            below[k].append(seq[i:heads[j]].translate(shift[c - 2 * k]))
        up = b""  # the form of the chain re-rooted so far
        for k in range(c + 1):
            kids = below[k]
            kids.reverse()  # collected last block first
            if k == c:
                kids.insert(0, seq[c + 1:end].translate(shift[-c]))
            if up:
                i = 0
                while i < len(kids) and kids[i] >= up:
                    i += 1
                kids.insert(i, up)
            up = bytes((c - k,)) + b"".join(kids)
        if best is None or up < best:
            best = up
    return best


def _parents(seq) -> list[int]:
    """Each vertex's parent in the rooted tree of a level sequence (the
    latest vertex one level up); the root is its own parent."""
    latest = [0] * len(seq)  # latest vertex seen at each level
    parents = [0]
    for i in range(1, len(seq)):
        parents.append(latest[seq[i] - 1])
        latest[seq[i]] = i
    return parents


# Largest n enumerate_trees accepts.  Its cost grows about 2.7 times per
# vertex: 0.15 s, 0.23-0.27 s, 0.59-0.60 s, 1.5-1.8 s and 4.9-5.0 s of CPU
# at n = 14, 15, 16, 17, 18 (Python 3.11.7, one core of a 2-core machine;
# 48,629 and 123,867 trees at n = 17 and 18, each timed twice).
MAX_TREE_N = 18


def enumerate_trees(n: int) -> Iterator[Tree]:
    """One representative per isomorphism class of free trees on n vertices,
    in increasing canonical-form order.

    The representative is the class's first rooted level sequence.  Rooted
    at an end of a longest path (length D), a tree's canonical sequence
    starts 0, 1, ..., D and beats every rooting of smaller height in
    lexicographic order; the sequences come in decreasing order, so one
    whose height is below its diameter is never first, and
    ``_diameter_sequences`` skips it, with every sequence sharing the
    prefix that shows it.  The canonical form is built from the sequence's
    own blocks (``_centre_form``), and a ``Tree`` is built, unchecked, only
    for each class's representative as it is yielded; it keeps the
    representative's labels but re-roots its order at a centroid."""
    if not 1 <= n <= MAX_TREE_N:
        raise ValueError(f"n must be in 1..{MAX_TREE_N}, got {n}")
    shift = _shift_tables(n // 2 + 1)
    seen = {}
    for seq, h in _diameter_sequences(n):
        form = _centre_form(seq, h, shift)
        if form not in seen:
            seen[form] = bytes(seq)
    for form in sorted(seen):
        yield Tree._from_parents(_parents(seen[form]))
