"""Output checks for the benchmark.

A census row fails when it is missing (the run stopped before it) or when
either kind of check does:

* the pinned reference in ``reference.json``: a digest of every row's
  ``(graph, e_positive, first_trigger)``, taken from the CLI at the commit
  that defined the benchmark, and the census summary those rows imply;
* checks that trust nothing in espider: one row per isomorphism class, as
  many per n as OEIS A000055 (trees) or p(n-1) (spiders) says, with trees
  told apart by this file's own canonical form.

A census prints verdicts, not expansions, so each run also expands a few
pinned graphs of its census: their expansions must match the pinned digest
and count the colourings of a tree, with binomials computed here.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from math import comb

CSV_HEADER = "graph,n,d,first_trigger,e_positive,witness"
SUMMARY_PREFIX = "# summary: "

# Free trees on n vertices, n = 0..20 (OEIS A000055).
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
           19320, 48629, 123867, 317955, 823065)

# A census row's verdict class, as the CLI's summary counts it.
CLASS_NAMES = {"f": "criteria_flagged", "x": "expansion_negative",
               "p": "e_positive", "u": "unknown"}


def partition_count(m: int) -> int:
    """p(m), the number of partitions of m."""
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def expected_count(kind: str, n: int) -> int:
    return A000055[n] if kind == "trees" else partition_count(n - 1)


def _digest(text: str, length: int) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def row_digest(row: dict) -> str:
    return _digest(f"{row['graph']}|{row['e_positive']}|{row['first_trigger']}",
                   12)


def row_class(row: dict) -> str:
    if row["first_trigger"]:
        return "f"
    return {"False": "x", "True": "p"}.get(row["e_positive"], "u")


def parse_census(text: str) -> tuple[list[dict], dict | None]:
    """Rows and summary of ``census --format csv`` output (missing parts are
    simply absent: a crashed run yields the rows it printed)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [], None
    rows, summary = [], None
    keys = CSV_HEADER.split(",")
    body = []
    for line in lines[1:]:
        if line.startswith(SUMMARY_PREFIX):
            try:
                summary = json.loads(line[len(SUMMARY_PREFIX):])
            except json.JSONDecodeError:
                pass
            break
        body.append(line)
    for fields in csv.reader(body):
        if len(fields) == len(keys):
            rows.append(dict(zip(keys, fields)))
        else:
            rows.append(None)
    return rows, summary


def spider_class(label: str, n: int):
    """The sorted leg tuple of ``S[l1,...]`` if it is a spider on n vertices."""
    if not (label.startswith("S[") and label.endswith("]")):
        return None
    try:
        legs = tuple(int(x) for x in label[2:-1].split(","))
    except ValueError:
        return None
    if any(l < 1 for l in legs) or 1 + sum(legs) != n:
        return None
    return tuple(sorted(legs, reverse=True))


def tree_edges(label: str, n: int):
    """Edges of a census tree label ``T0-1/1-2/...`` (``T1`` for n = 1)."""
    if label == "T1":
        return [] if n == 1 else None
    if not label.startswith("T"):
        return None
    try:
        edges = [tuple(int(v) for v in e.split("-")) for e in label[1:].split("/")]
    except ValueError:
        return None
    if any(len(e) != 2 for e in edges):
        return None
    return edges


def tree_class(n: int, edges) -> str | None:
    """Canonical form of a tree (AHU string rooted at its centre), or None
    when the edges are not a tree on vertices 0..n-1."""
    if edges is None or len(edges) != n - 1:
        return None
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return None
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    seen = set(layer)
    while left > 2:
        if not layer:
            return None  # no leaves left: the edges hold a cycle
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1 and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        layer = nxt

    def encode(v, parent):
        return "(" + "".join(sorted(encode(w, v) for w in adj[v]
                                    if w != parent)) + ")"

    return min(encode(c, -1) for c in layer)


@dataclass
class RowRef:
    n: int
    cls: str
    digest: str

    @classmethod
    def parse(cls, text: str) -> "RowRef":
        n, c, d = text.split()
        return cls(int(n), c, d)

    def __str__(self):
        return f"{self.n} {self.cls} {self.digest}"


@dataclass
class Verdict:
    """Outcome of checking one unit of work (a census or one expansion)."""
    attempted: int
    failed: int
    completed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def census_summary(refs: list[RowRef]) -> dict:
    out = {"graphs": len(refs)}
    for code, name in CLASS_NAMES.items():
        out[name] = sum(1 for r in refs if r.cls == code)
    return out


def check_census(text: str, exit_code: int, kind: str,
                 refs: list[RowRef]) -> Verdict:
    """Check census output against the reference rows it should hold.

    Every expected row that is missing (the run stopped before it), differs
    from the reference, or fails the independent checks counts as failed."""
    rows, summary = parse_census(text)
    v = Verdict(attempted=len(refs), failed=0,
                completed=min(len(rows), len(refs)))
    bad = set()
    classes: dict[int, set] = {}
    per_n = {ref.n for ref in refs}
    for i, ref in enumerate(refs):
        row = rows[i] if i < len(rows) else None
        if row is None:
            bad.add(i)
            continue
        try:
            n = int(row["n"])
        except ValueError:
            bad.add(i)
            continue
        if n != ref.n or row_digest(row) != ref.digest:
            bad.add(i)
        key = (spider_class(row["graph"], n) if kind == "spiders"
               else tree_class(n, tree_edges(row["graph"], n)))
        if key is None or key in classes.setdefault(n, set()):
            bad.add(i)
        else:
            classes[n].add(key)
    for n in per_n:
        got = len(classes.get(n, ()))
        if got != expected_count(kind, n):
            v.problems.append(f"{got} distinct graphs on {n} vertices, "
                              f"expected {expected_count(kind, n)}")
    if len(rows) > len(refs):
        v.problems.append(f"{len(rows) - len(refs)} rows more than expected")
    if summary != census_summary(refs):
        v.problems.append(f"summary {summary} != {census_summary(refs)}")
    if exit_code != 0:
        v.problems.append(f"exit code {exit_code}")
    v.failed = len(bad)
    if bad:
        v.problems.append(f"{len(bad)} rows missing or wrong, first at "
                          f"row {min(bad)}")
    return v


def parse_expansion(text: str) -> dict[tuple[int, ...], int] | None:
    """The terms of ``expand --format json`` output, or None if malformed."""
    try:
        terms = {}
        for rec in json.loads(text):
            key = tuple(int(p) for p in rec["partition"])
            if key in terms:
                return None
            terms[key] = int(rec["coeff"])
        return terms
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def expansion_digest(terms: dict[tuple[int, ...], int]) -> str:
    body = ";".join(f"{c}*{list(k)}" for k, c in
                    sorted(terms.items(), reverse=True))
    return _digest(body, 16)


def colorings(terms: dict[tuple[int, ...], int], k: int) -> int:
    """X(1^k): each e_j becomes C(k, j)."""
    total = 0
    for key, coeff in terms.items():
        for part in key:
            coeff *= comb(k, part)
        total += coeff
    return total


def check_expansion(text: str, exit_code: int, n: int,
                    digest: str | None) -> Verdict:
    """Check the printed e-expansion of a tree on n vertices: against the
    pinned digest (unless None), and against X(1^k) = k (k-1)^(n-1), the
    colourings of a tree, at k = n and k = n + 1."""
    terms = parse_expansion(text)
    v = Verdict(attempted=1, failed=0, completed=int(terms is not None))
    if terms is None:
        v.problems.append("no parsable expansion")
    else:
        v.problems += [f"key {list(k)} does not partition {n}"
                       for k in terms if sum(k) != n or min(k, default=1) < 1]
        for k in (n, n + 1):
            want, got = k * (k - 1) ** (n - 1), colorings(terms, k)
            if got != want:
                v.problems.append(f"X(1^{k}) = {got}, not {want}")
        if digest is not None and expansion_digest(terms) != digest:
            v.problems.append("expansion differs from the reference")
    if exit_code != 0:
        v.problems.append(f"exit code {exit_code}")
    v.failed = int(bool(v.problems))
    return v
