import json
import os

from espider import acceptance, cli


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


def test_analyze_tree_file(capsys, tmp_path):
    f = tmp_path / "deg6.txt"
    f.write_text("7\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n")
    code, out = run_cli(capsys, "analyze", str(f))
    assert code == 1 and "six_leg" in out


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


def test_env_overrides_format(capsys, monkeypatch):
    monkeypatch.setenv("ESPIDER_FORMAT", "json")
    code, out = run_cli(capsys, "analyze", "S[1,1,1]")
    assert code == 1
    json.loads(out)


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


def test_census_legs_filter_and_trees(capsys):
    code, out = run_cli(capsys, "census", "spiders", "--max-n", "8",
                        "--legs", "4")
    assert code == 0
    assert all(line.count(",") >= 3 or line.startswith("summary")
               for line in out.strip().splitlines())
    code, out = run_cli(capsys, "census", "trees", "4..7")
    assert code == 0 and "summary:" in out


def test_census_range_errors(capsys):
    code, _ = run_cli(capsys, "census", "spiders")
    assert code == 2
    code, _ = run_cli(capsys, "census", "spiders", "4..6", "--max-n", "9")
    assert code == 2
    code, _ = run_cli(capsys, "census", "trees", "4..6", "--legs", "3")
    assert code == 2


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


def test_census_workers_match_serial(capsys):
    _, serial = run_cli(capsys, "census", "spiders", "4..9",
                        "--mode", "criteria_only")
    _, parallel = run_cli(capsys, "census", "spiders", "4..9",
                          "--mode", "criteria_only", "--workers", "2")
    assert serial == parallel


def test_census_workers_warn_cache_read_only(capsys, tmp_path):
    path = tmp_path / "cache.txt"
    code = cli.main(["census", "spiders", "4..6", "--mode", "criteria_only",
                     "--workers", "2", "--cache", str(path)])
    err = capsys.readouterr().err
    assert code == 0
    assert "read-only" in err and str(path) in err
    assert not path.exists()


def test_census_populates_cache(capsys, tmp_path):
    path = tmp_path / "cache.txt"
    code, _ = run_cli(capsys, "census", "spiders", "4..8",
                      "--mode", "with_expansion", "--cache", str(path))
    assert code == 0 and path.exists()
    code, out = run_cli(capsys, "cache", "info", str(path))
    assert "spiders" in out and "0 paths" not in out
    # a second run with a warm cache gives the same rows
    _, first = run_cli(capsys, "census", "spiders", "4..8",
                       "--mode", "with_expansion")
    _, second = run_cli(capsys, "census", "spiders", "4..8",
                        "--mode", "with_expansion", "--cache", str(path))
    assert first == second


def test_cache_info_and_clear(capsys, tmp_path):
    path = tmp_path / "c.txt"
    code, _ = run_cli(capsys, "expand", "S[3,2,1]", "--cache", str(path))
    assert code == 0 and path.exists()
    code, out = run_cli(capsys, "cache", "info", str(path))
    assert code == 0 and "spiders" in out
    code, out = run_cli(capsys, "cache", "clear", str(path))
    assert code == 0 and not path.exists()


def test_corrupt_cache_rebuilt(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("garbage\n")
    code, out = run_cli(capsys, "expand", "P4", "--cache", str(path))
    assert code == 0
    # the rebuilt cache is loadable afterwards
    code, out = run_cli(capsys, "cache", "info", str(path))
    assert "1 paths" in out


def test_tampered_cache_record_rebuilt(capsys, tmp_path):
    path = tmp_path / "c.txt"
    code, _ = run_cli(capsys, "expand", "S[3,2,1]", "--cache", str(path))
    assert code == 0
    head, sep, tail = path.read_text().partition("SPIDER [3,2,1]\n")
    assert sep and tail.startswith("7 * e[7]\n")
    path.write_text(head + sep + "97" + tail[1:])
    code = cli.main(["expand", "S[3,2,1]", "--coeff", "7", "--cache", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == "7"
    assert "rebuilding" in captured.err


def test_conjectures_smoke(capsys):
    code, out = run_cli(capsys, "conjectures", "--max-m", "1", "--max-n", "8")
    assert code == 0
    assert "no counterexamples" in out
    assert "e-positive spiders with n <= 8:" in out
    assert "doubled_leg_family: S[6,2,1]: ok" in out


def test_verify_uses_registry(capsys, monkeypatch):
    calls = []
    fake = [acceptance.Criterion(1, "ok", lambda: calls.append(1) or "fine"),
            acceptance.Criterion(2, "slow_one", lambda: "skipped?", slow=True)]
    monkeypatch.setattr(acceptance, "CRITERIA", fake)
    code, out = run_cli(capsys, "verify", "--skip-slow")
    assert code == 0 and calls == [1]
    assert "PASS  1 ok" in out and "SKIP  2 slow_one" in out

    def boom():
        raise AssertionError("broken")

    fake.append(acceptance.Criterion(3, "bad", boom))
    code, out = run_cli(capsys, "verify", "--skip-slow")
    assert code == 1 and "FAIL  3 bad" in out
