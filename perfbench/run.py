"""espider benchmark: the real CLI on two census workloads, measured from
outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

Workloads (one closed-loop client: one CLI call at a time, --workers 1):

  spider_census  census spiders 4..20 --mode with_expansion  (2,083 spiders)
  tree_census    census trees 4..12 --mode with_expansion    (984 trees)

A census is fixed by its range, so the seed changes nothing in what runs.
Every CLI call runs in a fresh interpreter (child.py), with the ESPIDER_*
and PYTHON* variables removed from its environment, because espider keeps
module-global caches and reads defaults from ESPIDER_*.  Calls repeat until
the next one would end after --seconds.  Each call's output is checked
(checks.py); a graph whose row is missing or wrong counts as failed.  After
the timed calls, a few pinned graphs of the census are expanded, untimed,
and their expansions checked, since a census prints only verdicts.

With --trace 0 the run reports, over its calls:

  setup_s         spawn to the CLI call: interpreter and espider import
                  (median over the calls, which are spread over the run)
  graphs_per_s    graphs completed / time inside the CLI calls
  first_row_s     CLI call to the first census row: enumerating the census's
                  graphs and computing the first row.  The least over the
                  calls: one short interval per call, which noise only
                  lengthens
  latency_p50_ms  per graph: the gap between consecutive census rows, as
  latency_p99_ms  the child writes them (p99 by nearest rank)
  peak_rss_mb     the child's ru_maxrss (median over calls)
  success_rate    1 - failed graphs / attempted graphs

With --trace 1 it alternates untraced and traced calls of the same census
and reports the per-layer metrics of tracer.layer_metrics (mean per traced
call) and trace.overhead, the traced minus the untraced CLI time.  Lines
before the last describe the run (commit, source digest, Python, cores,
compiled kernel, sample counts); the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
TMP = ROOT / ".perfbench_tmp" / str(os.getpid())  # this run's scratch files
RUN_LIMIT_S = 170   # hard stop for one run, children included

END_TO_END = {"setup_s": "s", "graphs_per_s": "1/s", "first_row_s": "s",
              "latency_p50_ms": "ms", "latency_p99_ms": "ms",
              "peak_rss_mb": "MB", "success_rate": "ratio"}


@dataclass(frozen=True)
class Census:
    kind: str
    lo: int
    hi: int
    mode: str

    def argv(self) -> list[str]:
        return ["census", self.kind, f"{self.lo}..{self.hi}", "--mode", self.mode,
                "--format", "csv", "--workers", "1"]


WORKLOADS = {
    "spider_census": Census("spiders", 4, 20, "with_expansion"),
    "tree_census": Census("trees", 4, 12, "with_expansion"),
}


@dataclass
class Call:
    """One CLI call in a fresh interpreter, as seen from outside."""
    t_spawn: float
    code: int
    stdout: str
    stderr: str
    record: dict | None

    @property
    def timed(self) -> bool:
        return self.code == 0 and self.record is not None

    @property
    def setup_s(self) -> float:
        return self.record["t_main"] - self.t_spawn

    @property
    def cli_s(self) -> float:
        return self.record["t_end"] - self.record["t_main"]


def child_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("ESPIDER_", "PYTHON"))}


def call(cli_args, deadline: float, trace=False,
         script: Path = CHILD) -> Call:
    """Run ``cli_args`` through child.py and wait for it to exit."""
    TMP.mkdir(parents=True, exist_ok=True)
    record_path = TMP / "record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(script), "--record", str(record_path)]
    cmd += ["--trace"] * trace + ["--", *cli_args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += "\nkilled: the run's time limit was reached"
    try:
        record = json.loads(record_path.read_text())
    except (OSError, json.JSONDecodeError):
        record = None
    return Call(t_spawn, proc.returncode, out, err, record)


def repeat(unit, seconds: float, deadline: float) -> None:
    """Call ``unit()`` until the next call would end after ``seconds``."""
    start = time.monotonic()
    took = []
    while True:
        t = time.monotonic()
        unit()
        now = time.monotonic()
        took.append(now - t)
        if (now - start + statistics.median(took) > seconds
                or now + max(took) > deadline):
            return


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


@dataclass
class Run:
    """Calls made by one benchmark run and what their checks found."""
    workload: str
    plain: list[Call] = field(default_factory=list)
    traced: list[Call] = field(default_factory=list)
    graphs: list[int] = field(default_factory=list)   # per plain call
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def note(self, c: Call, v: checks.Verdict, traced: bool) -> None:
        (self.traced if traced else self.plain).append(c)
        if not traced:
            self.graphs.append(v.completed)
        self.tally(c, v)

    def tally(self, c: Call, v: checks.Verdict) -> None:
        self.attempted += v.attempted
        self.failed += v.failed
        if v.problems or not c.timed:
            self.problems += v.problems + [line for line in
                                           c.stderr.splitlines()[-3:]]


def run_census(run: Run, wl: Census, seconds: float, trace: bool,
               deadline: float) -> None:
    refs = [checks.RowRef.parse(r)
            for r in load_reference()["census"][run.workload]["rows"]]
    refs = [r for r in refs if r.n <= wl.hi]
    verdicts = {}

    def one(traced):
        c = call(wl.argv(), deadline, trace=traced)
        key = (c.code, c.stdout)
        if key not in verdicts:  # identical output, identical verdict
            verdicts[key] = checks.check_census(c.stdout, c.code, wl.kind, refs)
        run.note(c, verdicts[key], traced)

    def unit():
        one(False)
        if trace:
            one(True)

    repeat(unit, seconds, deadline)
    check_expansions(run, deadline)


def expand_target(graph: str, n: int, i: int) -> str:
    """The CLI target for a census label: a spider as it is, a tree as a
    file holding its edges."""
    if graph.startswith("S["):
        return graph
    TMP.mkdir(parents=True, exist_ok=True)
    path = TMP / f"tree-{i}.txt"
    edges = checks.tree_edges(graph, n)
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def check_expansions(run: Run, deadline: float) -> None:
    """Expand, untimed, the census graphs pinned for this workload."""
    for i, g in enumerate(load_reference()["census"][run.workload]["expansions"]):
        c = call(["expand", expand_target(g["graph"], g["n"], i), "--format",
                  "json"], deadline)
        run.tally(c, checks.check_expansion(c.stdout, c.code, g["n"], g["digest"]))


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Metric values and the number of samples behind each."""
    calls = [c for c in run.plain if c.timed]
    if not calls:
        raise RuntimeError("no call completed, so nothing was timed")
    setups = [c.setup_s for c in calls]
    rss = [c.record["maxrss_kb"] / 1024 for c in calls]
    latencies, first = [], []
    for c, done in zip(run.plain, run.graphs):
        if not (c.timed and done):
            continue
        lines = c.record["lines"]  # header, rows, summary
        latencies += [b - a for a, b in zip(lines[:done], lines[1:done + 1])]
        first.append(lines[1] - c.record["t_main"])
    rate = (sum(d for c, d in zip(run.plain, run.graphs) if c.timed)
            / sum(c.cli_s for c in calls))
    values = {
        "setup_s": statistics.median(setups),
        "graphs_per_s": rate,
        "first_row_s": min(first),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p99_ms": 1000 * nearest_rank(latencies, 0.99),
        "peak_rss_mb": statistics.median(rss),
        "success_rate": 1 - run.failed / run.attempted,
    }
    samples = {"setup_s": len(setups), "graphs_per_s": sum(run.graphs),
               "first_row_s": len(first), "latency_p50_ms": len(latencies),
               "latency_p99_ms": len(latencies), "peak_rss_mb": len(rss),
               "success_rate": run.attempted}
    return values, samples


def per_layer(run: Run) -> dict:
    """Mean per traced call of each layer metric, and the tracing overhead
    against the untraced call made just before it."""
    pairs = [(p, t) for p, t in zip(run.plain, run.traced)
             if p.timed and t.timed and "trace" in t.record]
    if not pairs:
        raise RuntimeError("no traced call completed")
    per_call = [tracer.layer_metrics(t.record["trace"], t.cli_s)
                for _, t in pairs]
    out = {k: statistics.fmean(m[k] for m in per_call) for k in per_call[0]}
    out["trace.overhead"] = statistics.fmean(t.cli_s - p.cli_s for p, t in pairs)
    return out


def source_info(calls) -> dict:
    src = ROOT / "src" / "espider"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    compiled = next((c.record["have_compiled"] for c in calls if c.record), None)
    return {"commit": git_commit(), "source_sha256": h.hexdigest()[:16],
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)), "have_compiled": compiled}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True).stdout.strip() \
            or "unknown"
    except OSError:
        return "unknown"


def remove_scratch() -> None:
    shutil.rmtree(TMP, ignore_errors=True)
    try:
        TMP.parent.rmdir()
    except OSError:
        pass  # another run is using it


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and prints its report."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run = Run(name)
    wl = WORKLOADS[name]
    run_census(run, wl, seconds, trace, deadline)
    info = source_info(run.plain)
    print(f"# perfbench {name} seed={seed} seconds={seconds} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"#   {len(run.plain)} untraced and {len(run.traced)} traced calls, "
          f"{run.attempted} graphs attempted, {run.failed} failed")
    for p in run.problems[:10]:
        print(f"#   problem: {p}")
    if trace:
        values = per_layer(run)
        units = {k: ("s" if k.endswith(("_s", ".overhead")) else "count")
                 for k in values}
        units["subsets.kernel"] = "compiled"
        samples = {k: len(run.traced) for k in values}
    else:
        values, samples = end_to_end(run)
        units = END_TO_END
        print(f"#   fail_rate {run.failed / run.attempted} "
              f"({run.failed} of {run.attempted} graphs)")
    for k, v in values.items():
        print(f"#   {k:34s} {v:>14.6g} {units[k]:8s} ({samples[k]} samples)")
    return {"correct": run.failed == 0 and not run.problems,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "espider" / "cli.py").is_file():
        print(f"error: no espider sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_scratch()
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
