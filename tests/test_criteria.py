import pytest

from espider import criteria, graphs
from espider.acceptance import (VARIETY, degree_bound, sqrt_bound,
                                variety_1, variety_2)
from espider.criteria import (CriterionReport, CriterionSoundnessError,
                              Witness, four_leg_q, mod_test, mod_test_scan,
                              qm_test, run_battery, six_leg, tree_battery,
                              two_odd_legs)
from espider.csf import OracleBoundError, coeff_four_leg, spider_csf, tree_csf
from espider.graphs import (Spider, Tree, enumerate_spiders, enumerate_trees,
                            mn_tree, reduce_to_spider, spider_to_tree)
from espider.partitions import Partition


def triggered_names(reports):
    return [r.name for r in reports if r.triggered]


def test_mod_test_examples():
    rep = mod_test(Spider([1, 1, 1]), 2)
    assert rep.triggered and rep.params["sigma"] == 4
    assert rep.witness.partition == Partition([2, 2])
    assert not mod_test(Spider([2, 2, 2]), 2).triggered
    assert mod_test(Spider([5, 3, 1]), 2).triggered


def test_mod_test_builds_no_partition(monkeypatch):
    # a missing block type (m^q, r) with r < m, and the block-size test's
    # (a+d'+1)^{r'} (a+d')^{q-r'}, are descending as built
    spiders = [s for n in range(2, 13) for s in enumerate_spiders(n)]
    calls = []
    init = Partition.__init__
    monkeypatch.setattr(Partition, "__init__",
                        lambda self, *a: calls.append(a) or init(self, *a))
    fired = sum(mod_test(s, m).triggered
                for s in spiders for m in range(2, s.n + 1))
    qm_fired = sum(qm_test(s).triggered for s in spiders)
    assert fired and qm_fired and calls == []


def test_mod_scan_reports_first_m():
    rep = mod_test_scan(Spider([1, 1, 1]))
    assert rep.triggered and rep.params["m"] == 2


def test_variety_examples():
    # condition 1 at S(2,2,2): leg 1 (2) is shorter than its tail (4)
    assert variety_1(Spider([2, 2, 2])) == 3
    assert variety_2(Spider([1, 1, 1])) == 2
    for n in (5, 7, 9):
        assert [c(Spider([n, n - 1, 1])) for c in VARIETY] == [None] * 6
    # condition 1 is strict: S(4,2,2)'s inner leg 2 equals its tail 2
    assert variety_1(Spider([4, 2, 2])) is None


def test_qm_worked_example():
    s = Spider([448, 276, 90, 1, 1])
    rep = qm_test(s, i=2, m=3)
    assert rep.triggered
    assert rep.witness.partition == Partition((103,) + (102,) * 7)
    assert rep.params["a"] == 93 and rep.params["q"] == 8
    assert not qm_test(s, i=2, m=1).triggered
    assert qm_test(s).triggered  # the full scan finds its own instantiation


def test_qm_gate_cases():
    assert not qm_test(Spider([2, 1, 1])).triggered  # t = 1 kills every m
    with pytest.raises(ValueError):
        qm_test(Spider([3, 2, 1]), i=3)  # i out of range (d = 3)


@pytest.mark.parametrize("kwargs", [{"i": 2, "m": 0}, {"m": 0}, {"m": -1}])
def test_qm_refuses_block_multiplier_below_one(kwargs):
    # m = 0 once scanned every m at i = 2, or divided by zero without i;
    # m = -1 reported silent
    with pytest.raises(ValueError, match="m must be at least 1"):
        qm_test(Spider([3, 2, 1]), **kwargs)


def test_qm_m1_slice_subsumed_by_scan():
    # whenever the m = 1 instantiation fires, the full scan fires too
    for n in range(4, 15):
        for s in enumerate_spiders(n):
            if s.d < 3:
                continue
            m1 = qm_test(s, m=1)
            if m1.triggered:
                assert qm_test(s).triggered, s


def test_sqrt_bound_examples():
    assert sqrt_bound(Spider([3, 3, 3, 3, 3])) is not None
    violated = sqrt_bound(Spider([100, 30, 9, 1, 1]))
    # clause 1 at i=2: 2*31^2 = 1922 > 142*10; clause 2 at i=3:
    # 2*81 = 162 > 142*1 -- both hold, so no trigger
    assert violated is None
    violated = sqrt_bound(Spider([100, 30, 3, 1, 1]))
    # now clause 2 at i=3 fails: 2*9 = 18 <= 136*1
    assert violated == (3, 2)
    assert sqrt_bound(Spider([3, 2, 1])) is None
    assert sqrt_bound(Spider([4, 3, 2, 1])) is None  # empty ranges


def test_degree_bound_examples():
    assert not degree_bound(Spider([5, 4, 3, 2, 1]))   # n = 16
    assert degree_bound(Spider([5, 1, 1, 1, 1]))       # n = 10
    assert not degree_bound(Spider([3, 2, 1]))         # d < 5


def test_degree_bound_threshold():
    # with five legs the cutoff sits between n = 13 and n = 14
    assert degree_bound(Spider([8, 1, 1, 1, 1]))       # n = 13
    assert not degree_bound(Spider([9, 1, 1, 1, 1]))   # n = 14


def test_six_leg_examples():
    rep = six_leg(Spider([1, 1, 1, 1, 1, 1]))
    assert rep.triggered and rep.witness.kind == "missing_type"
    assert not six_leg(Spider([5, 4, 3, 2, 1])).triggered
    s = Spider([30, 20, 10, 5, 2, 1])
    rep = six_leg(s)
    assert rep.triggered
    assert not s.has_connected_partition(rep.witness.partition)


def test_six_leg_statement_fallback(monkeypatch):
    # with the block-size test silenced, the rule states its theorem; the
    # battery still reaches its verdict and re-checks the rest
    monkeypatch.setattr(criteria, "qm_test",
                        lambda *args, **kwargs: CriterionReport("qm", False))
    s = Spider([2, 2, 1, 1, 1, 1])
    rep = six_leg(s)
    assert rep.triggered and rep.witness.kind == "inequality"
    assert rep.params["witness_path"] == "statement"
    res = run_battery(s, mode="with_expansion")
    assert res.e_positive is False
    assert res.reports[-3] == rep


def test_every_battery_trigger_is_retestable():
    # each trigger names a type to look for or a coefficient to compute
    cases = [s for n in range(2, 21) for s in enumerate_spiders(n)]
    cases += [t for n in range(1, 13) for t in enumerate_trees(n)]
    kinds = {r.witness.kind for g in cases for r in run_battery(g).reports
             if r.triggered}
    assert kinds == {"missing_type", "negative_coefficient"}


def test_four_leg_q_examples():
    rep = four_leg_q(Spider([15, 12, 2, 1]))
    assert rep.triggered and rep.params["m"] == 3 and rep.params["q"] == 9
    rep = four_leg_q(Spider([6, 4, 1, 1]))
    assert rep.triggered and rep.params["q"] == 5
    assert rep.witness.kind == "negative_coefficient"
    assert rep.witness.value == -13
    assert not four_leg_q(Spider([3, 3, 2, 1])).triggered
    assert not four_leg_q(Spider([3, 2, 1])).triggered  # d != 4 gate


def test_four_leg_q_r_zero_gives_missing_type():
    rep = four_leg_q(Spider([4, 4, 2, 1]))  # m=3, n=12, q=3, r=0
    assert rep.triggered and rep.witness.kind == "missing_type"
    assert rep.witness.partition == Partition([3, 3, 3, 3])


def test_two_odd_legs_examples():
    rep = two_odd_legs(Spider([6, 3, 3, 2]))
    assert rep.triggered and rep.witness.value == -1
    assert not two_odd_legs(Spider([7, 3, 3, 2])).triggered  # odd longest leg
    assert not two_odd_legs(Spider([4, 3, 1, 1])).triggered  # three odd legs
    rep = two_odd_legs(Spider([6, 5, 5, 2]))
    assert not rep.triggered and rep.params["value"] == 7


def test_report_requires_witness_when_triggered():
    with pytest.raises(CriterionSoundnessError):
        CriterionReport("x", True)


def test_battery_on_known_spiders():
    res = run_battery(Spider([6, 4, 1, 1]), mode="criteria_only")
    assert triggered_names(res.reports) == ["four_leg_q", "two_odd_legs"]
    assert res.e_positive is False
    res = run_battery(Spider([6, 4, 1, 1]), mode="with_expansion")
    assert res.e_positive is False
    res = run_battery(Spider([5, 4, 1]), mode="with_expansion")
    assert res.e_positive is True and not res.any_triggered
    res = run_battery(Spider([5, 4, 1]), mode="criteria_only")
    assert res.e_positive is None


def test_battery_matches_criteria_one_by_one():
    # the battery is its criteria, each run on the spider alone, in order
    for n in range(2, 17):
        for s in enumerate_spiders(n):
            battery = run_battery(s).reports
            alone = [mod_test_scan(s), qm_test(s), six_leg(s),
                     four_leg_q(s), two_odd_legs(s)]
            assert ([r.to_json_obj() for r in battery]
                    == [r.to_json_obj() for r in alone]), s


def test_coeff_four_leg_refuses_q_below_two():
    # S(1,1,1,1): m = 2, n = 5 = 2q + 2 + r with q = r = 1.  The closed
    # form needs q >= 2 and refuses; four_leg_q, needing q >= m, stays
    # silent before it reaches the coefficient.
    s = Spider([1, 1, 1, 1])
    with pytest.raises(ValueError):
        coeff_four_leg(s)
    rep = four_leg_q(s)
    assert not rep.triggered
    assert rep.params == {"m": 2, "q": 1, "r": 1}


def test_batteries_share_no_reports():
    for n in range(2, 11):
        for s in enumerate_spiders(n):
            first, second = run_battery(s).reports, run_battery(s).reports
            assert not {id(r) for r in first} & {id(r) for r in second}, s
            assert not ({id(r.params) for r in first}
                        & {id(r.params) for r in second}), s


def test_battery_mode_gating():
    with pytest.raises(ValueError):
        run_battery(Spider([2, 1]), mode="bogus")
    with pytest.raises(OracleBoundError):
        run_battery(Spider([30, 2, 1]), mode="with_expansion")
    # criteria_then_expansion skips the expansion when criteria fired
    res = run_battery(Spider([30, 29, 28, 1, 1, 1]),
                      mode="criteria_then_expansion")
    assert res.e_positive is False and res.expansion is None


def test_battery_soundness_small():
    for n in range(2, 14):
        for s in enumerate_spiders(n):
            res = run_battery(s, mode="with_expansion", max_n=13)
            if res.any_triggered:
                assert res.e_positive is False, s


def test_witness_validity_small():
    # missing-type witnesses re-checked structurally, negative-coefficient
    # witnesses against the exact expansion (run_battery raises on mismatch)
    for n in range(2, 13):
        for s in enumerate_spiders(n):
            res = run_battery(s, mode="with_expansion", max_n=12)
            for rep in res.reports:
                if rep.triggered and rep.witness.kind == "missing_type":
                    assert not s.has_connected_partition(rep.witness.partition)


def test_tree_battery_mn_trees():
    # M_2 is e-positive even though it reduces to the non-e-positive
    # S(4,1,1); no missing-partition criterion may fire
    assert not run_battery(mn_tree(2), mode="criteria_only").any_triggered
    assert tree_csf(mn_tree(2)).is_e_positive()
    assert not spider_csf(Spider([4, 1, 1])).is_e_positive()


def test_tree_battery_degree_six():
    star6 = spider_to_tree(Spider([1, 1, 1, 1, 1, 1]))
    reps = tree_battery(star6)
    assert any(r.triggered for r in reps)
    assert all("vertex" in r.params for r in reps)


def test_tree_battery_memo_matches_direct_battery():
    # the memo by legs must hand back what a fresh spider battery at each
    # vertex gives, stamped with that vertex and spider; run twice so the
    # second pass comes from the memo
    for _ in range(2):
        for n in range(1, 11):
            for t in enumerate_trees(n):
                direct = []
                for v in range(n):
                    if t.degree(v) < 3:
                        continue
                    sp = reduce_to_spider(t, v)
                    subs = [mod_test_scan(sp), qm_test(sp), six_leg(sp)]
                    direct += [CriterionReport(
                        r.name, r.triggered, r.witness,
                        {**r.params, "vertex": v, "spider": str(sp)})
                        for r in subs]
                assert tree_battery(t) == direct, t


def test_tree_battery_reports_are_independent():
    # both trees reduce to S[2,1,1], at vertex 0 and at vertex 2
    a = spider_to_tree(Spider([2, 1, 1]))
    b = Tree(5, [(2, 0), (0, 1), (2, 3), (2, 4)])
    reps_a, reps_b = tree_battery(a), tree_battery(b)
    assert {r.params["vertex"] for r in reps_a} == {0}
    assert {r.params["vertex"] for r in reps_b} == {2}
    assert {r.params["spider"] for r in reps_a + reps_b} == {"S[2,1,1]"}
    params_b = [dict(r.params) for r in reps_b]
    for r in reps_a:
        r.params.clear()
    assert [r.params for r in reps_b] == params_b
    assert [r.params for r in tree_battery(b)] == params_b


def test_witness_recheck_catches_a_present_type(monkeypatch):
    star = spider_to_tree(Spider([1, 1, 1, 1, 1, 1]))
    monkeypatch.setattr(graphs, "has_connected_partition", lambda t, typ: True)
    monkeypatch.setattr(Spider, "has_connected_partition",
                        lambda self, typ: True)
    for g in (Spider([1, 1, 1, 1, 1, 1]), star):
        with pytest.raises(CriterionSoundnessError, match="is present"):
            run_battery(g, mode="with_expansion")


def test_witness_recheck_once_per_type(monkeypatch):
    calls = []
    real_tree, real_spider = graphs.has_connected_partition, \
        Spider.has_connected_partition

    def tree_check(t, typ):
        calls.append(typ)
        return real_tree(t, typ)

    def spider_check(s, typ):
        calls.append(typ)
        return real_spider(s, typ)

    monkeypatch.setattr(graphs, "has_connected_partition", tree_check)
    monkeypatch.setattr(Spider, "has_connected_partition", spider_check)
    # a spider whose criteria share witnesses, and a tree whose three
    # hubs reduce to spiders with overlapping missing types
    tree = Tree(10, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6), (5, 7),
                     (5, 8), (8, 9)])
    for g in (Spider([1, 1, 1, 1, 1, 1]), tree):
        calls.clear()
        res = run_battery(g, mode="with_expansion")
        witnesses = [r.witness.partition for r in res.reports if r.triggered
                     and r.witness.kind == "missing_type"]
        assert len(witnesses) > len(set(witnesses)) > 1, g
        assert sorted(calls, key=str) == sorted(set(witnesses), key=str), g


def test_tree_battery_soundness():
    for n in range(4, 13):
        for t in enumerate_trees(n):
            if run_battery(t, mode="criteria_only").any_triggered:
                assert not tree_csf(t).is_e_positive(), t


def test_battery_on_trees_every_mode():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            fired = any(r.triggered for r in tree_battery(t))
            res = run_battery(t, mode="criteria_only")
            assert res.graph == str(t) and res.expansion is None
            assert res.e_positive is (False if fired else None), t
            X = tree_csf(t)
            res = run_battery(t, mode="with_expansion")
            assert res.expansion == X and res.any_triggered == fired, t
            assert res.e_positive == X.is_e_positive(), t
            res = run_battery(t, mode="criteria_then_expansion")
            assert (res.expansion is None) == fired, t
            assert res.e_positive == X.is_e_positive(), t


def test_battery_tree_bounds():
    big = mn_tree(9)  # 21 vertices, not a spider
    with pytest.raises(OracleBoundError):
        run_battery(big, mode="with_expansion")
    res = run_battery(big, mode="criteria_then_expansion")
    assert res.e_positive is False and res.expansion is None


def test_witness_json_shape():
    w = Witness("negative_coefficient", partition=Partition([3, 2]),
                value=-13, text="t")
    obj = w.to_json_obj()
    assert obj["partition"] == [3, 2] and obj["value"] == "-13"
