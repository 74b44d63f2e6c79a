"""Command-line interface.

Subcommands: analyze one graph, expand to the elementary basis, run a
census over spiders or trees, verify the acceptance suite, check the
small-scale conjectures, and manage the expansion cache.

Flag defaults can be overridden with ESPIDER_-prefixed environment
variables (ESPIDER_FORMAT, ESPIDER_CACHE, ESPIDER_WORKERS,
ESPIDER_ORACLE_BOUND, ESPIDER_MODE, ESPIDER_MAX_N, ESPIDER_LEGS).

Exit codes for ``analyze``: 0 e-positive or unknown, 1 proven not
e-positive, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from multiprocessing import Pool

from espider import acceptance
from espider.criteria import (MODES, BatteryResult, run_battery, tree_battery)
from espider.csf import (CacheFormatError, CsfCache, MIN_ORACLE_BOUND,
                         OracleBoundError, csf_oracle, default_cache,
                         spider_csf, tree_csf)
from espider.graphs import (Spider, Tree, enumerate_spiders, enumerate_trees,
                            line_graph, spider_to_tree)
from espider.partitions import Partition

FORMATS = ("text", "json", "csv")
CSV_HEADER = "graph,n,d,first_trigger,e_positive,witness"


def _env(name, fallback=None):
    return os.environ.get(f"ESPIDER_{name}", fallback)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="espider",
        description="Exact chromatic symmetric functions and e-positivity "
                    "tests for spiders, trees and small graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mode=False):
        sp.add_argument("--format", choices=FORMATS,
                        default=_env("FORMAT", "text"))
        sp.add_argument("--cache", default=_env("CACHE"),
                        help="expansion cache file (created when absent)")
        sp.add_argument("--oracle-bound", type=int,
                        default=int(_env("ORACLE_BOUND", 0)) or None,
                        help="override the expansion size bound (the subset "
                             "oracle is additionally clamped to its hard cap; "
                             "the spider engine follows the flag)")
        if mode:
            sp.add_argument("--mode", choices=MODES,
                            default=_env("MODE", "criteria_then_expansion"))

    sp = sub.add_parser("analyze", help="run the criterion battery on one graph")
    sp.add_argument("target", help="S[l1,l2,...], P<n>, or a tree file")
    sp.add_argument("--weak-variety", action="store_true",
                    help="also allow the weak form of variety condition 1 "
                         "(excluded from soundness guarantees)")
    common(sp, mode=True)

    sp = sub.add_parser("expand", help="print an expansion or one coefficient")
    sp.add_argument("target", help="S[l1,l2,...], P<n>, or a tree file")
    sp.add_argument("--coeff", help="partition, e.g. 3,2 or [3,2]")
    sp.add_argument("--oracle", action="store_true",
                    help="force the edge-subset oracle engine")
    common(sp)

    sp = sub.add_parser("census", help="sweep all spiders or trees in a size range")
    sp.add_argument("kind", choices=("spiders", "trees"))
    sp.add_argument("range", nargs="?",
                    help="vertex range like 4..12 (or a single n)")
    sp.add_argument("--max-n", type=int, default=_env("MAX_N"),
                    help="alternative to a range: sweep up to this n")
    sp.add_argument("--legs", type=int, default=_env("LEGS"),
                    help="restrict spiders to exactly this many legs")
    sp.add_argument("--workers", type=int,
                    default=int(_env("WORKERS", 1)),
                    help="worker processes; with more than one, --cache is "
                         "only read, never written")
    sp.add_argument("--resume", help="journal file for resumable runs")
    common(sp, mode=True)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--skip-slow", action="store_true")

    sp = sub.add_parser("conjectures", help="check the open conjectures at small scale")
    sp.add_argument("--max-m", type=int, default=2)
    sp.add_argument("--max-n", type=int, default=int(_env("MAX_N", 12)))
    common(sp)

    sp = sub.add_parser("cache", help="inspect or clear a cache file")
    sp.add_argument("action", choices=("info", "clear"))
    sp.add_argument("path")
    return p


def _load_cache(path: str | None) -> CsfCache:
    if not path:
        return default_cache()
    if not os.path.exists(path):
        return CsfCache()
    try:
        return CsfCache.load(path)
    except (CacheFormatError, OSError) as exc:
        print(f"warning: cache {path} unreadable ({exc}); rebuilding",
              file=sys.stderr)
        return CsfCache()


def _save_cache(cache: CsfCache, path: str | None):
    if path:
        cache.save(path)


def _parse_target(text: str):
    """Return ('spider', Spider) or ('tree', Tree)."""
    text = text.strip()
    if text.startswith("S["):
        return "spider", Spider.parse(text)
    if text.startswith("P") and text[1:].isdigit():
        n = int(text[1:])
        if n < 2:
            raise ValueError("paths need at least 2 vertices here")
        return "spider", Spider([n - 1])
    with open(text) as fh:
        return "tree", Tree.from_text(fh.read())


def _check_bound(bound):
    if bound is not None and bound < MIN_ORACLE_BOUND:
        raise ValueError(f"oracle bound must be >= {MIN_ORACLE_BOUND}")
    return bound


# ---------------------------------------------------------------------------
# analyze

def _witness_str(rep) -> str:
    return rep.witness.text if rep.witness else ""


def _render_battery_text(res: BatteryResult, out):
    out(f"graph: {res.graph}")
    for rep in res.reports:
        mark = "TRIGGERED" if rep.triggered else "-"
        extra = f"  {_witness_str(rep)}" if rep.triggered else ""
        where = ""
        if "vertex" in rep.params:
            where = f" @v{rep.params['vertex']}->{rep.params['spider']}"
        out(f"  {rep.name}{where}: {mark}{extra}")
    verdict = "unknown" if res.e_positive is None else res.e_positive
    out(f"e-positive: {verdict}")


def cmd_analyze(args) -> int:
    bound = _check_bound(args.oracle_bound)
    kind, g = _parse_target(args.target)
    cache = _load_cache(args.cache)
    if kind == "spider":
        res = run_battery(g, mode=args.mode, cache=cache, max_n=bound,
                          include_weak_variety=args.weak_variety)
        res.graph = args.target if not args.target.startswith("P") else str(g)
    else:
        res = _analyze_tree(g, args.target, args.mode, cache, bound)
    _save_cache(cache, args.cache)
    if args.format == "json":
        print(json.dumps(res.to_json_obj()))
    elif args.format == "csv":
        print(CSV_HEADER)
        print(_csv_row(_row_from_result(res, g)))
    else:
        _render_battery_text(res, print)
    return 1 if res.e_positive is False else 0


def _analyze_tree(t: Tree, label: str, mode: str, cache: CsfCache,
                  bound) -> BatteryResult:
    reports = tree_battery(t)
    triggered = any(r.triggered for r in reports)
    res = BatteryResult(label, reports, False if triggered else None)
    if mode == "criteria_only" or (mode == "criteria_then_expansion" and triggered):
        return res
    try:
        X = tree_csf(t, cache, max_n=bound)
    except OracleBoundError:
        return res
    res.expansion = X
    res.negative_term = X.first_negative()
    res.e_positive = res.negative_term is None
    # A type missing in the reduced spider must be missing in the tree too.
    from espider.criteria import CriterionSoundnessError
    from espider.graphs import has_connected_partition
    for rep in reports:
        if rep.triggered and rep.witness.kind == "missing_type":
            if has_connected_partition(t, rep.witness.partition):
                raise CriterionSoundnessError(
                    f"{rep.name}: type {rep.witness.partition} is present "
                    f"in the tree")
    if triggered and res.e_positive:
        raise CriterionSoundnessError(
            "tree criteria fired but the expansion is e-positive")
    return res


# ---------------------------------------------------------------------------
# expand

def cmd_expand(args) -> int:
    bound = _check_bound(args.oracle_bound)
    kind, g = _parse_target(args.target)
    cache = _load_cache(args.cache)
    if args.oracle:
        X = csf_oracle(g if kind == "tree" else spider_to_tree(g), max_n=bound)
    elif kind == "spider":
        X = spider_csf(g, cache)
    else:
        X = tree_csf(g, cache, max_n=bound)
    _save_cache(cache, args.cache)
    if args.coeff:
        key = Partition.parse(args.coeff if args.coeff.startswith("[")
                              else "[" + args.coeff + "]")
        print(X.coefficient(key))
        return 0
    if args.format == "json":
        print(X.to_json())
    else:
        print(X.to_text())
    return 0


# ---------------------------------------------------------------------------
# census

def _parse_range(args) -> tuple[int, int]:
    if args.range and args.max_n:
        raise ValueError("give either a range or --max-n, not both")
    if args.range:
        lo, sep, hi = args.range.partition("..")
        return (int(lo), int(hi)) if sep else (int(lo), int(lo))
    if args.max_n:
        return (2, int(args.max_n))
    raise ValueError("census needs a range (like 4..12) or --max-n")


def _census_items(kind, lo, hi, legs):
    if kind == "spiders":
        for n in range(max(lo, 2), hi + 1):
            for s in enumerate_spiders(n, legs=legs):
                yield s.legs.parts
    else:
        for n in range(max(lo, 1), hi + 1):
            for t in enumerate_trees(n):
                yield (t.n, tuple(sorted(t.edges)))


_WORKER_STATE = {}


def _census_init(kind, mode, bound, cache_path=None):
    _WORKER_STATE["kind"] = kind
    _WORKER_STATE["mode"] = mode
    _WORKER_STATE["bound"] = bound
    _WORKER_STATE["cache"] = _load_cache(cache_path) if cache_path else CsfCache()


def _census_one(payload):
    kind = _WORKER_STATE["kind"]
    mode = _WORKER_STATE["mode"]
    bound = _WORKER_STATE["bound"]
    cache = _WORKER_STATE["cache"]
    if kind == "spiders":
        s = Spider(payload)
        try:
            res = run_battery(s, mode=mode, cache=cache, max_n=bound)
        except OracleBoundError:
            # too large to expand: report the one-sided verdict instead
            res = run_battery(s, mode="criteria_only", cache=cache)
        return _row_from_result(res, s)
    n, edges = payload
    t = Tree(n, edges)
    label = "T" + "/".join(f"{u}-{v}" for u, v in sorted(edges)) if n > 1 else "T1"
    res = _analyze_tree(t, label, mode, cache, bound)
    row = _row_from_result(res, t)
    row["tree"] = t.to_text()
    return row


def _row_from_result(res: BatteryResult, g) -> dict:
    first = res.first_trigger()
    if isinstance(g, Spider):
        n, d = g.n, g.d
    else:
        n, d = g.n, max((g.degree(v) for v in range(g.n)), default=0)
    return {
        "graph": res.graph,
        "n": n,
        "d": d,
        "first_trigger": first.name if first else "",
        "e_positive": "unknown" if res.e_positive is None else res.e_positive,
        "witness": _witness_str(first) if first else "",
        "criteria": [r.to_json_obj() for r in res.reports],
    }


def _csv_row(row) -> str:
    def q(x):
        x = str(x)
        return '"' + x.replace('"', '""') + '"' if ("," in x or '"' in x) else x

    return ",".join(q(row[k]) for k in
                    ("graph", "n", "d", "first_trigger", "e_positive", "witness"))


def _read_journal(path, header) -> tuple[list[dict], int]:
    """Rows already in a census journal, and the byte length of its whole
    lines.  The first record must be this census's header; a journal
    without it, or from another census, is refused."""
    records, whole = [], 0
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break  # torn tail from a killed run
            try:
                records.append(json.loads(line))
            except ValueError:
                break
            whole += len(line)
    if os.path.getsize(path) and records[:1] != [header]:
        raise ValueError(f"journal {path} has no header for this census "
                         f"({json.dumps(header)}); wrong --resume file?")
    return [r["row"] for r in records[1:]], whole


def cmd_census(args) -> int:
    bound = _check_bound(args.oracle_bound)
    lo, hi = _parse_range(args)
    legs = int(args.legs) if args.legs else None
    if args.kind == "trees" and legs:
        raise ValueError("--legs applies to spider censuses only")
    items = list(_census_items(args.kind, lo, hi, legs))

    rows, journal = [], None
    if args.resume:
        header = {"census": {"kind": args.kind, "range": [lo, hi],
                             "legs": legs, "mode": args.mode,
                             "oracle_bound": bound}}
        rows, whole = _read_journal(args.resume, header)
        if len(rows) > len(items):
            raise ValueError("journal longer than the census; "
                             "wrong --resume file?")
        journal = open(args.resume, "a")
        journal.truncate(whole)  # cut a torn tail before appending
        if not whole:
            journal.write(json.dumps(header) + "\n")
    done = len(rows)
    todo = items[done:]

    if args.workers > 1:
        # workers preload the cache read-only; their additions stay local
        if args.cache:
            print(f"warning: with --workers {args.workers} the cache "
                  f"{args.cache} is read-only; it will not be written",
                  file=sys.stderr)
        pool = Pool(args.workers, initializer=_census_init,
                    initargs=(args.kind, args.mode, bound, args.cache))
        stream = pool.imap(_census_one, todo, chunksize=8)
    else:
        _census_init(args.kind, args.mode, bound, args.cache)
        pool = None
        stream = map(_census_one, todo)

    if args.format == "csv" and not rows:
        print(CSV_HEADER)
    for i, row in enumerate(stream):
        rows.append(row)
        if journal:
            journal.write(json.dumps({"i": done + i, "row": row}) + "\n")
            journal.flush()
        _print_census_row(row, args.format)
    if pool:
        pool.close()
        pool.join()
    elif args.cache:
        _save_cache(_WORKER_STATE["cache"], args.cache)
    if journal:
        journal.close()

    summary = {
        "graphs": len(rows),
        "criteria_flagged": sum(1 for r in rows if r["first_trigger"]),
        "expansion_negative": sum(1 for r in rows
                                  if r["e_positive"] is False
                                  and not r["first_trigger"]),
        "e_positive": sum(1 for r in rows if r["e_positive"] is True),
        "unknown": sum(1 for r in rows if r["e_positive"] == "unknown"),
    }
    if args.format == "json":
        print(json.dumps({"summary": summary}))
    elif args.format == "csv":
        print("# summary: " + json.dumps(summary))
    else:
        print("summary: " + " ".join(f"{k}={v}" for k, v in summary.items()))
    return 0


def _print_census_row(row, fmt):
    if fmt == "json":
        keys = ("graph", "criteria", "e_positive") + (
            ("tree",) if "tree" in row else ())
        print(json.dumps({k: row[k] for k in keys}))
    elif fmt == "csv":
        print(_csv_row(row))
    else:
        verdict = row["e_positive"]
        tail = f" [{row['first_trigger']}]" if row["first_trigger"] else ""
        print(f"{row['graph']}: e-positive={verdict}{tail}")


# ---------------------------------------------------------------------------
# verify / conjectures / cache

def cmd_verify(args) -> int:
    ok = acceptance.run_all(skip_slow=args.skip_slow)
    return 0 if ok else 1


def cmd_conjectures(args) -> int:
    bound = _check_bound(args.oracle_bound)
    cache = _load_cache(args.cache)
    bad = []

    def report(name, instance, holds):
        status = "ok" if holds else "COUNTEREXAMPLE"
        print(f"{name}: {instance}: {status}")
        if not holds:
            bad.append((name, instance))

    # Doubled-leg family S(2(2m+1), 2m, 1).
    for m in range(1, args.max_m + 1):
        s = Spider([2 * (2 * m + 1), 2 * m, 1])
        if s.n > max(args.max_n, 40):
            break
        report("doubled_leg_family", str(s),
               spider_csf(s, cache).is_e_positive())

    # Factorial family S(n(n!m+1), n!m, 1).
    from math import factorial
    for n in range(2, 6):
        for m in range(1, args.max_m + 1):
            s = Spider([n * (factorial(n) * m + 1), factorial(n) * m, 1])
            if s.n > max(args.max_n, 40):
                continue
            report("factorial_family", str(s),
                   spider_csf(s, cache).is_e_positive())

    # Universal statements over every e-positive spider up to the bound.
    epos = []
    for nn in range(2, args.max_n + 1):
        for s in enumerate_spiders(nn):
            if spider_csf(s, cache).is_e_positive():
                epos.append(s)
    print(f"e-positive spiders with n <= {args.max_n}: {len(epos)}")

    for s in epos:
        if s.d >= 2:
            for i in range(s.d):
                for j in range(i + 1, s.d):
                    s2 = Spider(s.legs.combine_parts(i, j))
                    report("leg_combining", f"{s} -> {s2}",
                           spider_csf(s2, cache).is_e_positive())

    for s in epos:
        lg = line_graph(spider_to_tree(s))
        try:
            X = csf_oracle(lg, max_n=bound)
        except OracleBoundError:
            print(f"line_graph: {s}: skipped (line graph beyond oracle bound)")
            continue
        report("line_graph", f"{s} -> L({s})", X.is_e_positive())

    _save_cache(cache, args.cache)
    if bad:
        print(f"{len(bad)} counterexample(s) found -- check these loudly!")
        return 1
    print("no counterexamples")
    return 0


def cmd_cache(args) -> int:
    if args.action == "clear":
        if os.path.exists(args.path):
            os.remove(args.path)
            print(f"removed {args.path}")
        else:
            print(f"{args.path} does not exist")
        return 0
    try:
        cache = CsfCache.load(args.path)
    except FileNotFoundError:
        print(f"{args.path} does not exist")
        return 0
    except CacheFormatError as exc:
        print(f"{args.path}: corrupt ({exc})")
        return 0
    print(f"{args.path}: {len(cache.paths)} paths, {len(cache.spiders)} spiders")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "expand": cmd_expand,
        "census": cmd_census,
        "verify": cmd_verify,
        "conjectures": cmd_conjectures,
        "cache": cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, OracleBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
