"""Write perfbench/reference.json from the espider in this checkout.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are trusted: every later run is
checked against what it writes.  It pins, per census workload, the digest
and verdict class of every row and the expansion digests of a few of its
graphs, after checking that they pass the independent checks in checks.py.
"""

from __future__ import annotations

import json
import sys
import time

import checks
import run

EXPANSIONS = 2  # graphs per census whose expansions each run checks


def pin_census(name: str, wl: run.Census, deadline: float) -> dict:
    c = run.call(wl.argv(), deadline)
    rows, _ = checks.parse_census(c.stdout)
    if c.code != 0 or not rows or None in rows:
        sys.exit(f"{name}: census failed (exit {c.code}): {c.stderr[-500:]}")
    refs = [checks.RowRef(int(r["n"]), checks.row_class(r), checks.row_digest(r))
            for r in rows]
    v = checks.check_census(c.stdout, c.code, wl.kind, refs)
    if not v.ok:
        sys.exit(f"{name}: output fails its own checks: {v.problems}")
    return {"rows": [str(r) for r in refs],
            "expansions": [pin_expansion(r["graph"], wl.hi, i)
                           for i, r in enumerate(expanded_rows(wl, rows))]}


def expanded_rows(wl: run.Census, rows: list[dict]) -> list[dict]:
    """EXPANSIONS graphs on wl.hi vertices that take the engine the census
    exercises: four-leg spiders for the spider recursion, trees that are not
    spiders for the edge-subset oracle."""
    def fits(r):
        if int(r["n"]) != wl.hi:
            return False
        if wl.kind == "spiders":
            return r["graph"].count(",") == 3
        degrees = {}
        for u, v in checks.tree_edges(r["graph"], wl.hi):
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
        return sum(d >= 3 for d in degrees.values()) >= 2

    return [r for r in rows if fits(r)][-EXPANSIONS:]


def pin_expansion(graph: str, n: int, i: int) -> dict:
    c = run.call(["expand", run.expand_target(graph, n, i), "--format", "json"],
                 time.monotonic() + 600)
    v = checks.check_expansion(c.stdout, c.code, n, None)
    if not v.ok:
        sys.exit(f"{graph}: expansion fails its own checks: {v.problems}")
    terms = checks.parse_expansion(c.stdout)
    return {"graph": graph, "n": n, "digest": checks.expansion_digest(terms)}


def main() -> int:
    census = {name: pin_census(name, wl, time.monotonic() + 600)
              for name, wl in run.WORKLOADS.items()}
    ref = {"about": "pinned outputs of the espider CLI; see perfbench/pin.py",
           "census": census}
    run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    run.remove_scratch()
    return 0


if __name__ == "__main__":
    sys.exit(main())
