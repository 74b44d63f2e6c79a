import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from espider import acceptance, cli
from espider.criteria import MODES
from espider.graphs import Spider, Tree, mn_tree, spider_to_tree
from espider.partitions import Partition

from test_csf import empty_memo


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_exit_codes(capsys, tmp_path):
    code, out = run_cli(capsys, "analyze", "S[6,4,1,1]")
    assert code == 1 and "four_leg_q" in out and "e-positive: False" in out
    code, out = run_cli(capsys, "analyze", "S[5,4,1]")
    assert code == 0 and "e-positive: True" in out
    code, out = run_cli(capsys, "analyze", "S[5,4,1]", "--mode", "criteria_only")
    assert code == 0 and "e-positive: unknown" in out
    code, _ = run_cli(capsys, "analyze", "S[oops]")
    assert code == 2
    code, _ = run_cli(capsys, "analyze", str(tmp_path / "absent.txt"))
    assert code == 2
    # variety condition 1 has its strict form only: no flag for a weak one
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "S[4,2,2]", "--weak-variety"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_analyze_tree_file(capsys, tmp_path):
    f = tmp_path / "deg6.txt"
    f.write_text("7\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n")
    code, out = run_cli(capsys, "analyze", str(f))
    assert code == 1 and "six_leg" in out


def test_analyze_tree_input_errors(capsys, tmp_path):
    # two 21-vertex non-spider trees: criteria fire on M_9 and stay silent
    # on the double broom; neither may skip its due expansion quietly
    broom = [(0, 2), (0, 3), (1, 4), (1, 5), (0, 6), (20, 1)]
    broom += [(v, v + 1) for v in range(6, 20)]
    for name, t in (("m9", mn_tree(9)), ("broom", Tree(21, broom))):
        f = tmp_path / f"{name}.txt"
        f.write_text(t.to_text())
        code = cli.main(["analyze", str(f), "--mode", "with_expansion"])
        captured = capsys.readouterr()
        assert code == 2 and "exceeds" in captured.err and captured.out == ""


def test_analyze_json_schema(capsys):
    code, out = run_cli(capsys, "analyze", "S[1,1,1]", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert set(obj) == {"graph", "criteria", "e_positive"}
    assert obj["e_positive"] is False
    names = {c["name"] for c in obj["criteria"]}
    assert "mod" in names and "two_odd_legs" in names
    fired = [c for c in obj["criteria"] if c["triggered"]]
    assert all(c["witness"] for c in fired)


def test_expand_and_coeff(capsys):
    code, out = run_cli(capsys, "expand", "P5")
    assert code == 0 and out.splitlines()[0] == "5 * e[5]"
    code, out = run_cli(capsys, "expand", "S[1,1,1]", "--coeff", "2,2")
    assert code == 0 and out.strip() == "-2"
    code, out = run_cli(capsys, "expand", "S[2,1,1]", "--coeff", "[3,2]")
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(capsys, "expand", "S[2,1]", "--oracle")
    assert code == 0 and "e[" in out


def test_environment_sets_no_option(capsys, monkeypatch):
    # flags are the only configuration: variables named like options,
    # malformed ones included, change nothing
    monkeypatch.setenv("ESPIDER_FORMAT", "json")
    monkeypatch.setenv("ESPIDER_WORKERS", "x")
    monkeypatch.setenv("ESPIDER_MAX_N", "x")
    code, out = run_cli(capsys, "analyze", "S[1,1,1]")
    assert code == 1 and out.splitlines()[0] == "graph: S[1,1,1]"
    code, out = run_cli(capsys, "census", "spiders", "4..5")
    assert code == 0 and out.splitlines()[-1].startswith("summary:")


def test_one_expansion_bound_for_spiders_and_trees(capsys, tmp_path):
    # S[4,2,2] has 9 vertices: past the bound 8 whether it is named as a
    # spider or read from a tree file, and expand honours an explicit bound
    f = tmp_path / "s422.txt"
    f.write_text(spider_to_tree(Spider([4, 2, 2])).to_text())
    for target in ("S[4,2,2]", str(f)):
        code = cli.main(["analyze", target, "--mode", "with_expansion",
                         "--oracle-bound", "8"])
        captured = capsys.readouterr()
        assert code == 2 and "exceeds" in captured.err, target
        assert captured.out == "", target
    code, out = run_cli(capsys, "expand", "S[4,2,2]", "--oracle-bound", "8")
    assert code == 2 and out == ""
    code, out = run_cli(capsys, "expand", "S[4,2,2]")
    assert code == 0 and out.splitlines()[0] == "9 * e[9]"


def test_census_text_and_summary(capsys):
    code, out = run_cli(capsys, "census", "spiders", "4..7",
                        "--mode", "with_expansion")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("summary:")
    counts = dict(kv.split("=") for kv in lines[-1].split()[1:])
    total = (int(counts["criteria_flagged"])
             + int(counts["expansion_negative"])
             + int(counts["e_positive"]) + int(counts["unknown"]))
    assert total == int(counts["graphs"]) == len(lines) - 1


def test_census_csv_schema(capsys):
    code, out = run_cli(capsys, "census", "spiders", "4..5", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "graph,n,d,first_trigger,e_positive,witness"
    assert lines[-1].startswith("# summary:")
    assert any(line.startswith('"S[1,1,1]",4,3,mod,False') for line in lines)


def test_census_json_rows_parse(capsys):
    code, out = run_cli(capsys, "census", "spiders", "4..5",
                        "--format", "json", "--mode", "with_expansion")
    lines = out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert "summary" in rows[-1]
    for row in rows[:-1]:
        assert set(row) == {"graph", "criteria", "e_positive"}


def test_census_tree_rows_carry_tree_text(capsys):
    code, out = run_cli(capsys, "census", "trees", "4..5", "--format", "json")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    import espider.graphs as graphs
    for row in rows[:-1]:
        t = graphs.Tree.from_text(row["tree"])
        assert t.to_text() == row["tree"]


def test_census_oversize_expansion_degrades_to_unknown(capsys):
    # n = 22 exceeds the default expansion bound; criteria still run and
    # silent graphs come back as unknown instead of crashing the census
    code, out = run_cli(capsys, "census", "spiders", "22..22",
                        "--mode", "with_expansion", "--legs", "3")
    assert code == 0
    assert "unknown" in out.strip().splitlines()[-1]


def test_census_oversize_tree_expansion_degrades(capsys):
    # the bound 8 is below n = 9 for every tree, spider-shaped or not, so
    # each row and the summary keep their criteria-only verdicts
    _, criteria = run_cli(capsys, "census", "trees", "9..9", "--format", "json",
                          "--mode", "criteria_only")
    code, out = run_cli(capsys, "census", "trees", "9..9", "--format", "json",
                        "--mode", "with_expansion", "--oracle-bound", "8")
    assert code == 0 and out == criteria
    rows = [json.loads(line) for line in out.splitlines()[:-1]]
    assert len(rows) == 47
    assert any(row["e_positive"] == "unknown" for row in rows)


def test_census_legs_filter_and_trees(capsys):
    code, out = run_cli(capsys, "census", "spiders", "2..8", "--legs", "4")
    assert code == 0
    assert all(line.count(",") >= 3 or line.startswith("summary")
               for line in out.strip().splitlines())
    # the most legs the range allows: the star on 8 vertices
    code, out = run_cli(capsys, "census", "spiders", "4..8", "--legs", "7")
    assert code == 0 and out.startswith("S[1,1,1,1,1,1,1]:")
    code, out = run_cli(capsys, "census", "trees", "4..7")
    assert code == 0 and "summary:" in out


def test_census_range_errors(capsys):
    # a range is the only way to give the sizes: no range, or --max-n in
    # its place, is refused by the parser
    for argv in (["spiders"], ["spiders", "--max-n", "9"],
                 ["spiders", "4..6", "--max-n", "9"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", *argv])
        assert exc.value.code == 2, argv
    capsys.readouterr()
    for argv in (["trees", "4..6", "--legs", "3"], ["spiders", "4..x"]):
        code, out = run_cli(capsys, "census", *argv)
        assert code == 2 and out == "", argv


def test_census_range_sets_the_sizes(capsys):
    def sizes(out):
        rows = csv.reader(l for l in out.splitlines()[1:] if l[:1] != "#")
        return {row[1] for row in rows}

    code, out = run_cli(capsys, "census", "spiders", "4..6", "--format", "csv")
    assert code == 0 and sizes(out) == {"4", "5", "6"}
    code, out = run_cli(capsys, "census", "spiders", "5", "--format", "csv")
    assert code == 0 and sizes(out) == {"5"}


def test_census_input_checked_before_enumeration(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the input was checked")

    monkeypatch.setattr(cli, "enumerate_trees", refuse)
    monkeypatch.setattr(cli, "enumerate_spiders", refuse)
    for argv in (["trees", "4..30"], ["trees", "2..19"],
                 ["spiders", "12..4"], ["spiders", "1..1"],
                 ["spiders", "4..8", "--legs", "-1"],
                 ["spiders", "4..8", "--legs", "0"],
                 ["spiders", "5", "--legs", "9"],
                 ["spiders", "4..8", "--legs", "8"]):
        code, out = run_cli(capsys, "census", *argv)
        assert code == 2 and out == "", argv


def test_census_workers_below_one_exit_2(capsys):
    for workers in ("0", "-3"):
        code = cli.main(["census", "spiders", "4..5", "--workers", workers])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", workers
        assert "--workers must be at least 1" in captured.err


@pytest.mark.parametrize("flag,argv", [
    ("workers", ["census", "spiders", "4..5"]),
    ("oracle-bound", ["analyze", "S[1,1,1]"]),
    ("oracle-bound", ["census", "spiders", "4..5"]),
    ("max-n", ["conjectures"]),
    ("legs", ["census", "spiders", "4..5"]),
])
def test_malformed_flag_value_exits_2(capsys, flag, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--" + flag, "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err


def test_census_resume_byte_identical(capsys, tmp_path):
    j1 = tmp_path / "a.jsonl"
    code, full = run_cli(capsys, "census", "spiders", "4..8",
                         "--mode", "with_expansion", "--resume", str(j1))
    assert code == 0
    lines = j1.read_text().splitlines()
    # simulate a kill: keep 5 complete records plus a torn final line
    j2 = tmp_path / "b.jsonl"
    j2.write_text("\n".join(lines[:5]) + "\n" + lines[6][:17])
    code, resumed = run_cli(capsys, "census", "spiders", "4..8",
                            "--mode", "with_expansion", "--resume", str(j2))
    assert code == 0
    assert full.splitlines()[-1] == resumed.splitlines()[-1]
    # a journal that cannot belong to this census is rejected
    code, _ = run_cli(capsys, "census", "spiders", "4..5",
                      "--resume", str(j1))
    assert code == 2


def test_census_resume_reads_journals_with_retired_reports(capsys, tmp_path):
    # a journal written while the battery still ran the analytic bounds,
    # and variety_1 still carried "weak": false, resumes to the same bytes:
    # a journal row is read only for its first trigger and its verdict
    def retired(name, fired, params):
        witness = {"kind": "inequality", "text": "..."} if fired else None
        return {"name": name, "triggered": fired, "witness": witness,
                "params": params}

    argv = ["census", "spiders", "4..12", "--mode", "with_expansion"]
    j = tmp_path / "old.jsonl"
    code, full = run_cli(capsys, *argv, "--resume", str(j))
    assert code == 0
    header, *records = map(json.loads, j.read_text().splitlines())
    kept = len(records) // 2
    fired = 0
    for rec in records[:kept]:
        s = Spider(json.loads(rec["row"]["graph"][1:]))
        reports = rec["row"]["criteria"]
        assert reports[1]["name"] == "variety_1"
        reports[1]["params"]["weak"] = False
        violated = acceptance.sqrt_bound(s)
        by_degree = acceptance.degree_bound(s)
        at = [r["name"] for r in reports].index("qm") + 1
        reports[at:at] = [
            retired("sqrt_bound", violated is not None,
                    dict(zip(("i", "clause"), violated or ()))),
            retired("degree_bound", by_degree,
                    {"terms": s.d - 3} if s.d >= 5 else {})]
        fired += (violated is not None) + by_degree
    j.write_text("".join(json.dumps(rec) + "\n"
                         for rec in [header, *records[:kept]]))
    code, resumed = run_cli(capsys, *argv, "--resume", str(j))
    assert code == 0 and fired
    assert resumed.splitlines() == full.splitlines()[kept:]


def test_census_resume_refuses_journal_longer_than_census(capsys, tmp_path):
    j = tmp_path / "trees.jsonl"
    code, _ = run_cli(capsys, "census", "trees", "4..7", "--format", "csv",
                      "--resume", str(j))
    assert code == 0
    lines = j.read_text().splitlines()
    j.write_text("\n".join(lines + lines[-1:]) + "\n")
    code, out = run_cli(capsys, "census", "trees", "4..7", "--format", "csv",
                        "--resume", str(j))
    assert code == 2 and out == ""
    # a journal holding the whole census only prints the summary
    j.write_text("\n".join(lines) + "\n")
    _, full = run_cli(capsys, "census", "trees", "4..7", "--format", "csv")
    code, out = run_cli(capsys, "census", "trees", "4..7", "--format", "csv",
                        "--resume", str(j))
    assert code == 0 and out.splitlines() == full.splitlines()[-1:]


def test_census_resume_refuses_foreign_journal(capsys, tmp_path):
    j = tmp_path / "spiders.jsonl"
    code, _ = run_cli(capsys, "census", "spiders", "4..8",
                      "--resume", str(j))
    assert code == 0
    text = j.read_text()
    assert len(text.splitlines()) > 15
    # a shorter census of another kind must not splice these rows in
    code, out = run_cli(capsys, "census", "trees", "4..9", "--resume", str(j))
    assert code == 2 and out == ""
    assert j.read_text() == text
    # the same holds for the other fingerprint fields
    for extra in (["--mode", "criteria_only"], ["--legs", "3"],
                  ["--oracle-bound", "9"]):
        code, _ = run_cli(capsys, "census", "spiders", "4..8",
                          "--resume", str(j), *extra)
        assert code == 2
    # a journal without a header is refused too
    headless = tmp_path / "old.jsonl"
    headless.write_text("\n".join(text.splitlines()[1:]) + "\n")
    code, _ = run_cli(capsys, "census", "spiders", "4..8",
                      "--resume", str(headless))
    assert code == 2


def test_census_resume_refuses_malformed_rows(capsys, tmp_path):
    # a whole record that parses but is not the census row at its place is
    # refused before the journal is touched, not tallied or crashed on
    argv = ["census", "trees", "4..7", "--format", "csv"]
    j = tmp_path / "trees.jsonl"
    code, _ = run_cli(capsys, *argv, "--resume", str(j))
    assert code == 0
    header, *records = map(json.loads, j.read_text().splitlines())
    no_row = {"i": 2}
    maybe = {"i": 2, "row": {**records[2]["row"], "e_positive": "maybe"}}
    shifted = {"i": 3, "row": records[2]["row"]}
    for bad in (no_row, maybe, shifted):
        text = "".join(json.dumps(rec) + "\n"
                       for rec in [header, *records[:2], bad, *records[3:5]])
        j.write_text(text)
        code, out = run_cli(capsys, *argv, "--resume", str(j))
        assert code == 2 and out == "", bad
        assert j.read_text() == text


def test_census_workers_match_serial(capsys):
    # workers receive the pickled graphs themselves
    for argv in (["spiders", "4..9", "--mode", "criteria_only"],
                 ["trees", "4..9", "--mode", "with_expansion",
                  "--format", "json"]):
        _, serial = run_cli(capsys, "census", *argv)
        _, parallel = run_cli(capsys, "census", *argv, "--workers", "2")
        assert serial == parallel, argv


def test_census_memo_eviction_changes_no_output(capsys, monkeypatch,
                                                tmp_path):
    # a spider census drops its top-size spiders from the memo after their
    # last reader; keeping them must give the same bytes, serially, with
    # workers, to a new journal and resumed from half of one
    def outputs(tag):
        got = []
        for mode in MODES:
            for fmt in cli.FORMATS:
                argv = ["census", "spiders", "4..14", "--mode", mode,
                        "--format", fmt]
                for extra in ([], ["--workers", "2"]):
                    empty_memo(monkeypatch)
                    got.append(run_cli(capsys, *argv, *extra))
                j = tmp_path / f"{tag}-{mode}-{fmt}.jsonl"
                empty_memo(monkeypatch)
                got.append(run_cli(capsys, *argv, "--resume", str(j)))
                lines = j.read_text().splitlines(keepends=True)
                j.write_text("".join(lines[:len(lines) // 2]))
                empty_memo(monkeypatch)
                got += [run_cli(capsys, *argv, "--resume", str(j)),
                        j.read_text()]
        return got

    evicting = outputs("evicting")
    monkeypatch.setattr(cli, "_census_top", lambda *a: None)
    assert outputs("keeping") == evicting


def test_cache_flag_and_subcommand_are_gone(capsys, tmp_path):
    # expansions are memoized in process only: the on-disk cache's flag
    # and subcommand are refused like any unknown argument
    gone = "cache"
    path = str(tmp_path / "c.txt")
    for argv in (["analyze", "S[3,2,1]"], ["expand", "S[3,2,1]"],
                 ["census", "spiders", "4..5"], ["conjectures"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [f"--{gone}", path])
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:
        cli.main([gone, "info", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert not os.path.exists(path)


def test_flags_without_effect_are_refused(capsys):
    for argv in (["conjectures", "--format", "json"],
                 ["expand", "P4", "--format", "csv"],
                 ["verify", "--skip-slow"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    code, out = run_cli(capsys, "expand", "P4", "--format", "json")
    assert code == 0 and json.loads(out)


def test_csv_census_builds_no_criteria_json(capsys, monkeypatch, tmp_path):
    from espider.criteria import CriterionReport

    calls = []
    to_json_obj = CriterionReport.to_json_obj

    def counted(self):
        calls.append(self.name)
        return to_json_obj(self)

    monkeypatch.setattr(CriterionReport, "to_json_obj", counted)
    code, out = run_cli(capsys, "census", "trees", "4..8", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == cli.CSV_HEADER
    assert calls == []
    # json rows and journal records still carry the reports
    code, _ = run_cli(capsys, "census", "trees", "4..5", "--format", "json")
    assert code == 0 and calls
    journal = tmp_path / "j.jsonl"
    code, _ = run_cli(capsys, "census", "trees", "4..6", "--format", "csv",
                      "--resume", str(journal))
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    assert code == 0 and len(records) == 1 + 2 + 3 + 6
    assert all("criteria" in rec["row"] for rec in records[1:])
    assert any(rec["row"]["criteria"] for rec in records[1:])


def test_csv_census_builds_no_tree_text(capsys, monkeypatch, tmp_path):
    calls = []
    to_text = Tree.to_text

    def counted(self):
        calls.append(self.n)
        return to_text(self)

    monkeypatch.setattr(Tree, "to_text", counted)
    code, out = run_cli(capsys, "census", "trees", "4..8", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == cli.CSV_HEADER
    assert calls == []
    # json rows and journal records still carry the tree
    code, out = run_cli(capsys, "census", "trees", "4..5", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()[:-1]]
    assert code == 0 and len(rows) == 2 + 3 and len(calls) == len(rows)
    assert [Tree.from_text(row["tree"]).n for row in rows] == [4, 4, 5, 5, 5]
    journal = tmp_path / "j.jsonl"
    code, _ = run_cli(capsys, "census", "trees", "4..6", "--format", "csv",
                      "--resume", str(journal))
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    assert code == 0 and len(records) == 1 + 2 + 3 + 6
    assert all("tree" in rec["row"] for rec in records[1:])


def test_conjectures_smoke(capsys):
    code, out = run_cli(capsys, "conjectures", "--max-m", "1", "--max-n", "8")
    assert code == 0
    assert "no counterexamples" in out
    assert "e-positive spiders with n <= 8:" in out
    assert "doubled_leg_family: S[6,2,1]: ok" in out


def test_verify_uses_registry(capsys, monkeypatch):
    calls = []

    def check_ok():
        calls.append(1)
        return "fine"

    def check_bad():
        raise AssertionError("broken")

    fake = [check_ok]
    monkeypatch.setattr(acceptance, "CRITERIA", fake)
    code, out = run_cli(capsys, "verify")
    assert code == 0 and calls == [1]
    assert out.startswith("PASS  1 ok (") and out.endswith("s): fine\n")

    fake.append(check_bad)
    code, out = run_cli(capsys, "verify")
    assert code == 1 and calls == [1, 1]
    assert "PASS  1 ok" in out and "FAIL  2 bad" in out and "broken" in out


def test_cli_import_loads_only_what_every_call_needs():
    # -S keeps site hooks out, so only espider's own imports count; verify
    # imports the acceptance suite itself and must still run
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import espider.cli
print(" ".join(sorted(sys.modules)))
from espider import acceptance
acceptance.CRITERIA = acceptance.CRITERIA[:1]
sys.exit(espider.cli.main(["verify"]))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True)
    loaded, _, rest = proc.stdout.partition("\n")
    loaded = set(loaded.split())
    assert "espider.cli" in loaded
    for name in ("dataclasses", "inspect", "typing", "multiprocessing",
                 "espider.acceptance"):
        assert name not in loaded
    assert proc.returncode == 0 and rest.startswith("PASS  1 path_formula")


# sha256 of the stdout of each census: every report's params and witness
# text, byte for byte.  First pinned before the battery shared its leg
# tables and rendered witness text on demand; re-pinned when the analytic
# bounds left the battery, to the older output with the sqrt_bound and
# degree_bound reports and variety_1's "weak": false param taken out
# (test id, census arguments, sha256 of its json output); the criteria_only
# tree census stamps every reduced spider of every tree up to n = 12
CENSUS_DIGESTS = [
    ("spiders", ("spiders", "4..14", "--mode", "with_expansion"),
     "bba4f3693f9c0f17da71889f8864e86cb7aa6870622e96a824bfa315500cd7b6"),
    ("trees", ("trees", "4..10", "--mode", "with_expansion"),
     "75f07a5db9f5637bca1818a9c21cbaa08f2719c3e8c656cb684c7fe32acaba93"),
    ("trees-criteria_only", ("trees", "4..12", "--mode", "criteria_only"),
     "9394e8d28448f4ea007da66d33e611c1343db63a835a15f0e07bfeb76c15af07"),
]


@pytest.mark.parametrize("census,digest", [c[1:] for c in CENSUS_DIGESTS],
                         ids=[c[0] for c in CENSUS_DIGESTS])
def test_census_json_is_byte_identical_to_pin(capsys, census, digest):
    code, out = run_cli(capsys, "census", *census, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_csv_census_renders_at_most_one_witness_per_row(capsys, monkeypatch):
    calls = []
    exponential_str = Partition.exponential_str

    def counted(self):
        calls.append(self)
        return exponential_str(self)

    monkeypatch.setattr(Partition, "exponential_str", counted)
    code, out = run_cli(capsys, "census", "spiders", "4..16", "--mode",
                        "with_expansion", "--format", "csv")
    rows = list(csv.DictReader(line for line in out.splitlines()
                               if not line.startswith("#")))
    assert code == 0 and len(rows) == 680  # p(3) + ... + p(15)
    assert sum(1 for row in rows if row["witness"]) > 300
    assert len(calls) <= len(rows)
