"""Span tracer for the benchmark's traced runs.

The wrappers live here, outside the package: ``install`` replaces each
public espider function in the namespace its caller looks it up in, so
every call (for a generator, every resumption) becomes a span with its
name, start, end and the span that was open when it began.  Spans stay in
memory, in flat arrays, and are handed over once by ``dump`` when the traced
CLI call has returned.  Partition constructions are only counted: a span per
construction would cost more than the work it measures.

``layer_metrics`` turns a dump into per-layer self times and counts.  A
span's self time is its duration minus that of its child spans; the CLI's
self time is the traced wall time minus every top-level span, so the layer
self times add up to the wall time.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array

# Layers with more than one wrapped function get a total self time; the
# subsets and partitions layers have one each, reported under its name.
LAYER_TOTALS = ("graphs", "criteria", "csf", "symfunc")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._constructed = itertools.count()
        self._cache_info = None

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, tally=None):
        """A function that records one span per call of ``fn``.

        ``tally(counts, args, result)`` may add counts after each call."""
        idx = self._name_id(name)
        calls = name + ".calls"
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.monotonic
        counts[calls] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            counts[calls] += 1
            if tally is not None:
                tally(counts, args, result)
            return result

        return traced

    def wrap_gen(self, name, fn, count_items=None):
        """Like ``wrap`` for a generator function: one span per resumption,
        so the consumer's work between items is not charged to ``fn``.
        ``count_items`` names a count of the items yielded."""
        idx = self._name_id(name)
        calls = name + ".calls"
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.monotonic
        counts[calls] = 0
        if count_items:
            counts[count_items] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            gen = fn(*args, **kwargs)
            while True:
                sid = len(starts)
                names.append(idx)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(sid)
                starts.append(clock())
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    ends[sid] = clock()
                    stack.pop()
                if count_items:
                    counts[count_items] += 1
                yield item

        return traced

    def count_constructions(self, cls):
        """Count instances of ``cls`` built by ``__init__`` or ``_raw``."""
        tick = self._constructed.__next__
        init = cls.__init__
        raw = cls._raw

        def counted_init(obj, *args, **kwargs):
            tick()
            init(obj, *args, **kwargs)

        def counted_raw(_cls, parts):
            tick()
            return raw(parts)

        cls.__init__ = counted_init
        cls._raw = classmethod(counted_raw)

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts["partitions.constructed"] = next(self._constructed)
        if self._cache_info is not None:
            info = self._cache_info()
            counts["symfunc.p_monomial_in_e.hits"] = info.hits
            counts["symfunc.p_monomial_in_e.misses"] = info.misses
        return {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "counts": counts}


def _tally_battery(counts, args, result):
    reports = result.reports if hasattr(result, "reports") else result
    counts["criteria.tests_run"] += len(reports)
    counts["criteria.fired"] += sum(1 for r in reports if r.triggered)


def _tally_subsets(counts, args, result):
    counts["subsets.subsets_walked"] += 2 ** len(args[1])


def _tally_p_to_e(counts, args, result):
    counts["symfunc.p_to_e.terms_in"] += len(args[0].terms)


def install(tracer: Tracer) -> None:
    """Wrap the espider layers where their callers look them up."""
    from espider import _subsets, cli, criteria, csf, graphs, partitions, symfunc

    tracer.counts.update({"criteria.tests_run": 0, "criteria.fired": 0,
                          "subsets.subsets_walked": 0,
                          "symfunc.p_to_e.terms_in": 0,
                          "subsets.kernel": int(_subsets.HAVE_COMPILED)})
    tracer._cache_info = symfunc.p_monomial_in_e.cache_info
    cli.run_battery = tracer.wrap("criteria.run_battery", criteria.run_battery,
                                  _tally_battery)
    cli.tree_battery = tracer.wrap("criteria.tree_battery",
                                   criteria.tree_battery, _tally_battery)
    spider_csf = tracer.wrap("csf.spider_csf", csf.spider_csf)
    cli.spider_csf = criteria.spider_csf = csf.spider_csf = spider_csf
    oracle = tracer.wrap("csf.csf_oracle", csf.csf_oracle)
    cli.csf_oracle = csf.csf_oracle = oracle
    cli.tree_csf = tracer.wrap("csf.tree_csf", csf.tree_csf)
    csf.path_csf = tracer.wrap("csf.path_csf", csf.path_csf)
    csf.subset_type_census = tracer.wrap(
        "subsets.census", _subsets.subset_type_census, _tally_subsets)
    cli.enumerate_spiders = tracer.wrap_gen("graphs.enumerate_spiders",
                                            graphs.enumerate_spiders)
    cli.enumerate_trees = tracer.wrap_gen("graphs.enumerate_trees",
                                          graphs.enumerate_trees,
                                          "graphs.trees_yielded")
    # cli imports this one inside a function, so the module attribute counts.
    graphs.has_connected_partition = tracer.wrap(
        "graphs.has_connected_partition", graphs.has_connected_partition)
    partitions_of = tracer.wrap_gen("partitions.partitions_of",
                                    partitions.partitions_of)
    csf.partitions_of = graphs.partitions_of = partitions_of

    E, P, base = symfunc.EExpansion, symfunc.PExpansion, symfunc._Expansion
    E.__mul__ = tracer.wrap("symfunc.e_mul", E.__mul__)
    base.__add__ = tracer.wrap("symfunc.add", base.__add__)
    base.__sub__ = tracer.wrap("symfunc.sub", base.__sub__)
    P.to_e = tracer.wrap("symfunc.p_to_e", P.to_e, _tally_p_to_e)
    tracer.count_constructions(partitions.Partition)


def layer_metrics(dump: dict, wall: float) -> dict[str, float]:
    """Per-layer self times (s) and counts of one traced CLI call.

    ``wall`` is the traced call's duration; what no span covers is the
    CLI's own time."""
    names, name, parent = dump["names"], dump["name"], dump["parent"]
    dur = [e - s for s, e in zip(dump["start"], dump["end"])]
    own = list(dur)
    top = 0.0
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
        else:
            top += dur[i]
    self_by_name = dict.fromkeys(names, 0.0)
    total_by_name = dict.fromkeys(names, 0.0)
    for i, k in enumerate(name):
        self_by_name[names[k]] += own[i]
        total_by_name[names[k]] += dur[i]

    def self_of(*span_names):
        return sum(self_by_name.get(n, 0.0) for n in span_names)

    out = {"trace.wall_s": wall, "cli.self_s": wall - top}
    for layer in LAYER_TOTALS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_by_name.items()
                                     if n.split(".", 1)[0] == layer)
    counts = dump["counts"]
    out.update({
        "graphs.enumerate_trees.self_s": self_of("graphs.enumerate_trees"),
        "graphs.enumerate_spiders.self_s": self_of("graphs.enumerate_spiders"),
        "graphs.trees_yielded": counts["graphs.trees_yielded"],
        "criteria.tests_run": counts["criteria.tests_run"],
        "criteria.fired": counts["criteria.fired"],
        "csf.spider_csf.self_s": self_of("csf.spider_csf"),
        "csf.spider_csf.total_s": total_by_name.get("csf.spider_csf", 0.0),
        "csf.spider_csf.calls": counts["csf.spider_csf.calls"],
        "csf.path_csf.calls": counts["csf.path_csf.calls"],
        "csf.csf_oracle.calls": counts["csf.csf_oracle.calls"],
        "csf.csf_oracle.total_s": total_by_name.get("csf.csf_oracle", 0.0),
        "subsets.census.self_s": self_of("subsets.census"),
        "subsets.subsets_walked": counts["subsets.subsets_walked"],
        "subsets.kernel": counts["subsets.kernel"],
        "symfunc.p_to_e.self_s": self_of("symfunc.p_to_e"),
        "symfunc.p_to_e.total_s": total_by_name.get("symfunc.p_to_e", 0.0),
        "symfunc.p_to_e.terms_in": counts["symfunc.p_to_e.terms_in"],
        "symfunc.p_monomial_in_e.hits": counts["symfunc.p_monomial_in_e.hits"],
        "symfunc.p_monomial_in_e.misses":
            counts["symfunc.p_monomial_in_e.misses"],
        "symfunc.e_mul.self_s": self_of("symfunc.e_mul"),
        "symfunc.e_mul.calls": counts["symfunc.e_mul.calls"],
        "symfunc.add.self_s": self_of("symfunc.add", "symfunc.sub"),
        "partitions.constructed": counts["partitions.constructed"],
        "partitions.partitions_of.self_s": self_of("partitions.partitions_of"),
    })
    return out
