"""Command-line interface.

Subcommands: analyze one graph, expand to the elementary basis, run a
census over spiders or trees, verify the acceptance suite, check the
small-scale conjectures.  Expansions are memoized within one process
only; nothing is written to disk.

Flags are the only configuration.  ``--oracle-bound`` is one expansion
bound for spiders and trees alike: ``analyze`` and ``census`` default it to
20 vertices, ``expand`` applies it to every engine when given and
otherwise leaves the spider engine unbounded.

Exit codes for ``analyze``: 0 e-positive or unknown, 1 proven not
e-positive, 2 input error (an expansion the mode asks for beyond the size
bound included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from espider.criteria import MODES, BatteryResult, run_battery
from espider.csf import (DEFAULT_TREE_ORACLE_BOUND, MIN_ORACLE_BOUND,
                         OracleBoundError, _census_top, csf_oracle,
                         spider_csf, tree_csf)
from espider.graphs import (MAX_TREE_N, Spider, Tree, enumerate_spiders,
                            enumerate_trees, line_graph, spider_to_tree)
from espider.partitions import Partition

FORMATS = ("text", "json", "csv")
CSV_HEADER = "graph,n,d,first_trigger,e_positive,witness"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="espider",
        description="Exact chromatic symmetric functions and e-positivity "
                    "tests for spiders, trees and small graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mode=False, formats=FORMATS):
        if formats:
            sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--oracle-bound", type=int,
                        help="expansion size bound in vertices, one for "
                             "spiders and trees (analyze and census default "
                             "to 20; expand applies it to every engine when "
                             "given; the subset oracle keeps its hard caps)")
        if mode:
            sp.add_argument("--mode", choices=MODES,
                            default="criteria_then_expansion")

    sp = sub.add_parser("analyze", help="run the criterion battery on one graph")
    sp.add_argument("target", help="S[l1,l2,...], P<n>, or a tree file")
    common(sp, mode=True)

    sp = sub.add_parser("expand", help="print an expansion or one coefficient")
    sp.add_argument("target", help="S[l1,l2,...], P<n>, or a tree file")
    sp.add_argument("--coeff", help="partition, e.g. 3,2 or [3,2]")
    sp.add_argument("--oracle", action="store_true",
                    help="force the edge-subset oracle engine")
    common(sp, formats=("text", "json"))

    sp = sub.add_parser("census", help="sweep all spiders or trees in a size range")
    sp.add_argument("kind", choices=("spiders", "trees"))
    sp.add_argument("range", help="vertex range like 4..12 (or a single n)")
    sp.add_argument("--legs", type=int,
                    help="restrict spiders to exactly this many legs")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes, each with its own expansion "
                         "memo; rows come out in the serial order.  A "
                         "spider census gains little: each worker rebuilds "
                         "the memo of the smaller spiders, so two workers "
                         "take about the serial time and nearly its memory "
                         "each")
    sp.add_argument("--resume", help="journal file for resumable runs")
    common(sp, mode=True)

    sub.add_parser("verify", help="run the acceptance suite")

    sp = sub.add_parser("conjectures", help="check the open conjectures at small scale")
    sp.add_argument("--max-m", type=int, default=2)
    sp.add_argument("--max-n", type=int, default=12)
    common(sp, formats=())
    return p


def _parse_target(target: str):
    """The Spider or Tree a target names, and its label in the output."""
    text = target.strip()
    if text.startswith("S["):
        return Spider.parse(text), target
    if text.startswith("P") and text[1:].isdigit():
        n = int(text[1:])
        if n < 2:
            raise ValueError("paths need at least 2 vertices here")
        s = Spider([n - 1])
        return s, str(s)
    with open(text) as fh:
        return Tree.from_text(fh.read()), target


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
    g, label = _parse_target(args.target)
    res = run_battery(g, mode=args.mode, max_n=bound)
    res.graph = label
    if args.format == "json":
        print(json.dumps(res.to_json_obj()))
    elif args.format == "csv":
        print(CSV_HEADER)
        print(_csv_row(_row_from_result(res, g)))
    else:
        _render_battery_text(res, print)
    return 1 if res.e_positive is False else 0


# ---------------------------------------------------------------------------
# expand

def cmd_expand(args) -> int:
    bound = _check_bound(args.oracle_bound)
    g, _ = _parse_target(args.target)
    X = (csf_oracle if args.oracle else tree_csf)(g, max_n=bound)
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

def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    return (int(lo), int(hi)) if sep else (int(lo), int(lo))


def _census_items(kind, lo, hi, legs):
    if kind == "spiders":
        for n in range(max(lo, 2), hi + 1):
            yield from enumerate_spiders(n, legs=legs)
    else:
        for n in range(max(lo, 1), hi + 1):
            yield from enumerate_trees(n)


_WORKER_STATE = {}


def _census_init(mode, bound, criteria, top, legs):
    _WORKER_STATE.update(mode=mode, bound=bound, criteria=criteria)
    _census_top(top, legs)


def _census_one(g):
    state = _WORKER_STATE
    try:
        res = run_battery(g, mode=state["mode"], max_n=state["bound"])
    except OracleBoundError:
        # too large to expand: report the one-sided verdict instead
        res = run_battery(g, mode="criteria_only")
    return _row_from_result(res, g, state["criteria"])


def _row_from_result(res: BatteryResult, g, criteria=False) -> dict:
    """One census row; its ``criteria`` entry, the reports as JSON, and a
    tree's ``tree`` text are built only when asked for (json output and
    journals read them)."""
    first = res.first_trigger()
    tree = isinstance(g, Tree)
    row = {
        "graph": res.graph,
        "n": g.n,
        "d": max(map(g.degree, range(g.n)), default=0) if tree else g.d,
        "first_trigger": first.name if first else "",
        "e_positive": "unknown" if res.e_positive is None else res.e_positive,
        "witness": _witness_str(first) if first else "",
    }
    if criteria:
        row["criteria"] = [r.to_json_obj() for r in res.reports]
        if tree:
            row["tree"] = g.to_text()
    return row


def _csv_row(row) -> str:
    def q(x):
        x = str(x)
        return '"' + x.replace('"', '""') + '"' if ("," in x or '"' in x) else x

    return ",".join(q(row[k]) for k in
                    ("graph", "n", "d", "first_trigger", "e_positive", "witness"))


def _tally(summary: dict, row: dict):
    """Count one census row into the summary."""
    summary["graphs"] += 1
    summary["criteria_flagged"] += bool(row["first_trigger"])
    summary["expansion_negative"] += (row["e_positive"] is False
                                      and not row["first_trigger"])
    summary["e_positive"] += row["e_positive"] is True
    summary["unknown"] += row["e_positive"] == "unknown"


def _journal_row(record, i, path) -> dict:
    """The row of journal record i, which must read {"i": i, "row": {...}}
    with a str first trigger and an e_positive of true, false or "unknown"."""
    row = record.get("row") if isinstance(record, dict) else None
    verdict = row.get("e_positive") if isinstance(row, dict) else None
    if not (isinstance(row, dict) and type(record.get("i")) is int
            and record["i"] == i and isinstance(row.get("first_trigger"), str)
            and (type(verdict) is bool or verdict == "unknown")):
        raise ValueError(f"journal {path}: record {i} is not a census row "
                         f"of this census; wrong --resume file?")
    return row


def _read_journal(path, header, summary) -> tuple[int, int]:
    """Tally the rows already in a census journal into ``summary``; return
    their count and the byte length of the journal's whole lines.  The
    first record must be this census's header; a journal without it, or
    from another census, is refused, and so is a later whole record that
    is not a census row in its place."""
    done = whole = 0
    if not os.path.exists(path):
        return 0, 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break  # torn tail from a killed run
            try:
                record = json.loads(line)
            except ValueError:
                break
            if not whole:
                if record != header:
                    break
            else:
                _tally(summary, _journal_row(record, done, path))
                done += 1
            whole += len(line)
    if os.path.getsize(path) and not whole:
        raise ValueError(f"journal {path} has no header for this census "
                         f"({json.dumps(header)}); wrong --resume file?")
    return done, whole


def cmd_census(args) -> int:
    bound = _check_bound(args.oracle_bound)
    lo, hi = _parse_range(args.range)
    legs = args.legs
    if max(lo, 2 if args.kind == "spiders" else 1) > hi:
        raise ValueError(f"no {args.kind} with {lo}..{hi} vertices")
    if args.kind == "trees" and hi > MAX_TREE_N:
        raise ValueError(f"tree censuses stop at n = {MAX_TREE_N}, got {hi}")
    if legs is not None and legs < 1:
        raise ValueError(f"--legs must be at least 1, got {legs}")
    if legs is not None and args.kind == "trees":
        raise ValueError("--legs applies to spider censuses only")
    if legs is not None and legs > hi - 1:
        raise ValueError(f"no spider with {legs} legs has at most {hi} "
                         f"vertices")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    todo = _census_items(args.kind, lo, hi, legs)

    summary = dict.fromkeys(("graphs", "criteria_flagged", "expansion_negative",
                             "e_positive", "unknown"), 0)
    done, journal = 0, None
    if args.resume:
        header = {"census": {"kind": args.kind, "range": [lo, hi],
                             "legs": legs, "mode": args.mode,
                             "oracle_bound": bound}}
        done, whole = _read_journal(args.resume, header, summary)
        if sum(1 for _ in islice(todo, done)) < done:
            raise ValueError("journal longer than the census; "
                             "wrong --resume file?")
        journal = open(args.resume, "a")
        journal.truncate(whole)  # cut a torn tail before appending
        if not whole:
            journal.write(json.dumps(header) + "\n")

    # a spider census tells the spider engine the largest size it expands,
    # so that the memo drops each spider of that size after its last reader
    top = None
    if args.kind == "spiders":
        top = min(hi, DEFAULT_TREE_ORACLE_BOUND if bound is None else bound)
    state = (args.mode, bound, bool(journal) or args.format == "json", top,
             legs)
    if args.workers > 1:
        # imported here: only a parallel census needs it, and it adds to
        # every start-up's time and memory
        from multiprocessing import Pool
        pool = Pool(args.workers, initializer=_census_init, initargs=state)
        stream = pool.imap(_census_one, todo, chunksize=8)
    else:
        _census_init(*state)
        pool = None
        stream = map(_census_one, todo)

    if args.format == "csv" and not done:
        print(CSV_HEADER)
    try:
        for i, row in enumerate(stream, done):
            _tally(summary, row)
            if journal:
                journal.write(json.dumps({"i": i, "row": row}) + "\n")
                journal.flush()
            _print_census_row(row, args.format)
    finally:
        _census_top(None)  # later calls in this process memoize every spider
    if pool:
        pool.close()
        pool.join()
    if journal:
        journal.close()

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
# verify / conjectures

def cmd_verify(args) -> int:
    # imported here: no other command runs the suite, and every start-up
    # would pay for it
    from espider import acceptance
    ok = acceptance.run_all()
    return 0 if ok else 1


def cmd_conjectures(args) -> int:
    bound = _check_bound(args.oracle_bound)
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
               spider_csf(s).is_e_positive())

    # Factorial family S(n(n!m+1), n!m, 1).
    from math import factorial
    for n in range(2, 6):
        for m in range(1, args.max_m + 1):
            s = Spider([n * (factorial(n) * m + 1), factorial(n) * m, 1])
            if s.n > max(args.max_n, 40):
                continue
            report("factorial_family", str(s),
                   spider_csf(s).is_e_positive())

    # Universal statements over every e-positive spider up to the bound.
    epos = []
    for nn in range(2, args.max_n + 1):
        for s in enumerate_spiders(nn):
            if spider_csf(s).is_e_positive():
                epos.append(s)
    print(f"e-positive spiders with n <= {args.max_n}: {len(epos)}")

    for s in epos:
        if s.d >= 2:
            for i in range(s.d):
                for j in range(i + 1, s.d):
                    s2 = Spider(s.legs.combine_parts(i, j))
                    report("leg_combining", f"{s} -> {s2}",
                           spider_csf(s2).is_e_positive())

    for s in epos:
        lg = line_graph(spider_to_tree(s))
        try:
            X = csf_oracle(lg, max_n=bound)
        except OracleBoundError:
            print(f"line_graph: {s}: skipped (line graph beyond oracle bound)")
            continue
        report("line_graph", f"{s} -> L({s})", X.is_e_positive())

    if bad:
        print(f"{len(bad)} counterexample(s) found -- check these loudly!")
        return 1
    print("no counterexamples")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "expand": cmd_expand,
        "census": cmd_census,
        "verify": cmd_verify,
        "conjectures": cmd_conjectures,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, OracleBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
