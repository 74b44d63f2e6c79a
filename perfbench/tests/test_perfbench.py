"""Tests of the benchmark itself, not of espider.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

TINY = run.Census("spiders", 4, 8, "with_expansion")


def deadline():
    return time.monotonic() + 120


def tiny_refs():
    rows = run.load_reference()["census"]["spider_census"]["rows"]
    return [r for r in map(checks.RowRef.parse, rows) if r.n <= TINY.hi]


@pytest.fixture(scope="module", autouse=True)
def scratch():
    yield
    run.remove_scratch()


@pytest.fixture(scope="module")
def census_call():
    return run.call(TINY.argv(), deadline())


def test_clean_census_passes(census_call):
    v = checks.check_census(census_call.stdout, census_call.code, "spiders",
                            tiny_refs())
    assert v.ok and v.attempted == len(tiny_refs()) == v.completed


def test_tampered_row_verdict_counts_as_failed(census_call):
    lines = census_call.stdout.splitlines()
    row = next(csv.reader([lines[5]]))
    row[4] = {"True": "False", "False": "True"}[row[4]]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    lines[5] = buf.getvalue()
    v = checks.check_census("\n".join(lines), 0, "spiders", tiny_refs())
    assert v.failed == 1 and not v.ok


def test_altered_coefficient_counts_as_failed():
    g = run.load_reference()["census"]["tree_census"]["expansions"][0]
    target = run.expand_target(g["graph"], g["n"], 0)
    c = run.call(["expand", target, "--format", "json"], deadline())
    assert checks.check_expansion(c.stdout, c.code, g["n"], g["digest"]).ok
    terms = json.loads(c.stdout)
    terms[len(terms) // 2]["coeff"] = str(int(terms[len(terms) // 2]["coeff"]) + 1)
    v = checks.check_expansion(json.dumps(terms), 0, g["n"], g["digest"])
    assert v.failed == 1
    assert "expansion differs from the reference" in v.problems
    assert any(p.startswith("X(1^") for p in v.problems)


CRASHER = """
import sys
sys.path.insert(0, {here!r})
import child
child.use_checkout_src()
import espider.cli as cli

real = cli._census_one
done = []


def crash_after_five(payload):
    if len(done) == 5:
        raise RuntimeError("injected crash")
    done.append(payload)
    return real(payload)


cli._census_one = crash_after_five
sys.exit(child.main())
"""


def test_crash_midway_counts_unreached_graphs(tmp_path):
    script = tmp_path / "crasher.py"
    script.write_text(CRASHER.format(here=str(HERE)))
    c = run.call(TINY.argv(), deadline(), script=script)
    assert c.code != 0 and "injected crash" in c.stderr
    refs = tiny_refs()
    v = checks.check_census(c.stdout, c.code, "spiders", refs)
    assert v.completed == 5
    assert v.failed == len(refs) - 5
    assert not v.ok


def test_tree_class_counts_free_trees():
    n = 7
    classes = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges, leaves = [], sorted(v for v in range(n) if degree[v] == 1)
        for v in seq:
            leaf = leaves.pop(0)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                leaves = sorted(leaves + [v])
        edges.append((leaves[0], leaves[1]))
        classes.add(checks.tree_class(n, edges))
    assert len(classes) == checks.A000055[n] == 11
    assert checks.tree_class(4, [(0, 1), (1, 2), (2, 0)]) is None
    assert [checks.partition_count(m) for m in (0, 5, 19)] == [1, 7, 490]


def bench_metrics(kind: str) -> dict[str, str]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(run.WORKLOADS[workload], hi=7)
    monkeypatch.setitem(run.WORKLOADS, workload, tiny)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = bench_metrics("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        layers = sum(m[f"{layer}.self_s"] for layer in
                     ("cli", "graphs", "criteria", "csf", "symfunc"))
        layers += m["subsets.census.self_s"] + m["partitions.partitions_of.self_s"]
        assert layers == pytest.approx(m["trace.wall_s"], abs=1e-6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree_census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
