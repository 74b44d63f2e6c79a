"""The acceptance suite: every headline fact this package claims, checked
exactly and deterministically at desk scale.

Each criterion is a ``check_*`` function returning a one-line summary on
success and raising AssertionError on failure.  The registry ``CRITERIA``
is the plain list of them: a criterion's number is its position, counted
from 1, and its name is the function name without ``check_``.  The list is
shared by the ``espider verify`` command and by tests/test_acceptance.py,
so the CLI gate and the pytest gate can never drift apart.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from functools import lru_cache
from math import isqrt

from espider.criteria import qm_test, run_battery
from espider.csf import (coeff_four_leg, coeff_mq, coeff_three_two,
                         coeff_two_powers, csf_oracle, path_e_coefficient,
                         spider_csf, three_two_key, tree_csf)
from espider.graphs import (Spider, Tree, enumerate_spiders, enumerate_trees,
                            first_missing_type, line_graph, mn_tree,
                            spider_mod_type_info, spider_to_tree)
from espider.partitions import Partition, partitions_of


def _path_tree(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def naive_connected_partition_types(t: Tree) -> set[tuple[int, ...]]:
    """Independent oracle: component-size types over all 2^(n-1) edge
    subsets, by direct enumeration with a fresh union-find per subset."""
    edges = sorted(t.edges)
    out = set()
    for mask in range(1 << len(edges)):
        parent = list(range(t.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        sizes: dict[int, int] = {}
        for v in range(t.n):
            r = find(v)
            sizes[r] = sizes.get(r, 0) + 1
        out.add(tuple(sorted(sizes.values(), reverse=True)))
    return out


def check_path_formula():
    """1. Path closed form equals the edge-subset oracle, n <= 11."""
    checked = 0
    for n in range(1, 12):
        oracle = csf_oracle(_path_tree(n))
        for lam in partitions_of(n):
            assert path_e_coefficient(n, lam) == oracle.coefficient(lam), \
                (n, lam)
            checked += 1
    return f"{checked} coefficients match"


def check_engine_equivalence():
    """2. spider_csf equals csf_oracle term-for-term, all spiders with at
    most 13 vertices (covering the 77 leg shapes on 13)."""
    count = 0
    for n in range(2, 14):
        for s in enumerate_spiders(n):
            assert spider_csf(s) == csf_oracle(s), s
            count += 1
    return f"{count} spiders agree"


KNOWN_E_POSITIVE = [
    (6, 2, 1), (5, 3, 2), (6, 4, 2), (8, 6, 2),
    (9, 7, 2), (9, 6, 1), (11, 6, 1), (15, 6, 1),
]


def check_known_e_positive():
    """3. The known e-positive spiders expand with nonnegative coefficients."""
    names = []
    for legs in KNOWN_E_POSITIVE:
        s = Spider(legs)
        X = spider_csf(s)
        assert X.is_e_positive(), (s, X.first_negative())
        names.append(str(s))
    for n in range(2, 10):
        s = Spider([n, n - 1, 1])
        assert spider_csf(s).is_e_positive(), s
        names.append(str(s))
    return f"{len(names)} spiders e-positive incl. S[15,6,1] (23 vertices)"


def check_complete_but_negative():
    """4. Spiders with every connected-partition type present yet negative
    expansions: S(6,4,1,1) by direct expansion; S(15,12,2,1) and
    S(16,12,2,1) via the four-leg test with the coefficient re-verified."""
    s = Spider([6, 4, 1, 1])
    assert first_missing_type(s) is None, "S(6,4,1,1) missing a type"
    X = spider_csf(s)
    neg = X.first_negative()
    assert neg is not None, "S(6,4,1,1) unexpectedly e-positive"
    out = [f"S[6,4,1,1] neg at {neg[0]}={neg[1]}"]
    for legs in [(15, 12, 2, 1), (16, 12, 2, 1)]:
        s = Spider(legs)
        assert first_missing_type(s) is None, f"{s} missing a type"
        res = run_battery(s, mode="criteria_only")
        rep = next(r for r in res.reports if r.name == "four_leg_q")
        assert rep.triggered, f"four_leg_q silent on {s}"
        w = rep.witness
        assert w.kind == "negative_coefficient", (s, w.kind)
        got = spider_csf(s).coefficient(w.partition)
        assert got == w.value and got < 0, (s, w.partition, w.value, got)
        out.append(f"{s} coeff {w.partition.exponential_str()}={got}")
    return "; ".join(out)


def check_mq_formula():
    """5. Block coefficient m(m-1)^(q-1) against direct extraction,
    every qualifying spider n <= 14."""
    checked = 0
    for n in range(2, 15):
        for s in enumerate_spiders(n):
            X = None
            for m in range(2, n + 1):
                if n % m:
                    continue
                if not spider_mod_type_info(s, m).has_type:
                    continue
                if X is None:
                    X = spider_csf(s)
                key = Partition((m,) * (n // m))
                assert coeff_mq(s, m) == X.coefficient(key), (s, m)
                checked += 1
    assert checked > 50, f"sweep too thin ({checked})"
    return f"{checked} (spider, m) pairs match"


def check_two_powers_formula():
    """6. All-twos coefficient (-1)^((j-1)/2) * 2 on every even spider
    n <= 14; the claw gives -2."""
    assert coeff_two_powers(Spider([1, 1, 1])) == -2
    checked = 0
    for n in range(2, 15, 2):
        for s in enumerate_spiders(n):
            key = Partition((2,) * (n // 2))
            got = spider_csf(s).coefficient(key)
            assert coeff_two_powers(s) == got, (s, got)
            checked += 1
    return f"{checked} even spiders match"


def check_three_two_formula():
    """7. (3, 2^k) coefficient 4(k1+k2-k3-...-kd)+2d-1 against direct
    extraction on every qualifying spider n <= 13, including two-leg
    spiders (the 4(k1+k2)+3 path base)."""
    checked = paths = 0
    for n in range(3, 14, 2):
        for s in enumerate_spiders(n):
            if sum(1 for l in s.legs if l % 2) != 2:
                continue
            got = spider_csf(s).coefficient(three_two_key(n))
            assert coeff_three_two(s) == got, (s, got)
            checked += 1
            if s.d == 2:
                paths += 1
    assert paths > 0, "no two-leg cases exercised"
    return f"{checked} spiders match ({paths} of them paths)"


def check_four_leg_reading():
    """8. The four-leg coefficient formula evaluated at the weight-n key
    (m+r, m^q) matches direct extraction on every qualifying spider
    n <= 14; S(3,3,2,1) is among them."""
    seen = []
    for n in range(5, 15):
        for s in enumerate_spiders(n, legs=4):
            legs = s.legs.parts
            m = legs[2] + legs[3]
            q, r = divmod(n - m, m)
            if r == 0 or q < 2 or not spider_mod_type_info(s, m).has_type:
                continue
            key, value = coeff_four_leg(s)
            got = spider_csf(s).coefficient(key)
            assert value == got, (s, key, value, got)
            seen.append(str(s))
    assert "S[3,3,2,1]" in seen, seen
    assert len(seen) >= 3, seen
    return f"{len(seen)} spiders pin the (m+r, m^q) reading: {', '.join(seen)}"


def check_mod_completeness():
    """9. The residue-sum presence verdict equals brute-force search over
    all 2^(n-1) edge subsets, for all spiders n <= 12 and all 2 <= m <= n."""
    checked = 0
    for n in range(2, 13):
        for s in enumerate_spiders(n):
            types = naive_connected_partition_types(spider_to_tree(s))
            for m in range(2, n + 1):
                info = spider_mod_type_info(s, m)
                assert info.has_type == (info.type_partition.parts in types), \
                    (s, m)
                checked += 1
    return f"{checked} (spider, m) verdicts match brute force"


def check_soundness_sweep():
    """10. No false accusations: on every spider n <= 16, any triggered
    criterion implies the exact expansion has a negative coefficient, and
    every witness re-verifies (run_battery raises otherwise)."""
    total = flagged = 0
    for n in range(2, 17):
        for s in enumerate_spiders(n):
            total += 1
            res = run_battery(s, mode="with_expansion", max_n=16)
            if res.any_triggered:
                flagged += 1
                assert res.e_positive is False, s
    return f"{total} spiders swept, {flagged} flagged, 0 false positives"


def check_six_leg_desk():
    """11. Every spider with d >= 6, n <= 24 has a verified missing type
    (the block-size test finds one, so the six-leg rule never falls back to
    stating its theorem);
    every tree on <= 12 vertices with a degree-6 vertex is flagged by the
    tree battery and confirmed not e-positive by expansion, each witness
    re-verified in the tree."""
    spiders = 0
    for n in range(7, 25):
        for s in enumerate_spiders(n):
            if s.d < 6:
                continue
            res = run_battery(s, mode="criteria_only")
            rep = next(r for r in res.reports if r.name == "six_leg")
            assert rep.triggered, s
            w = rep.witness
            assert w.kind == "missing_type", (s, w.kind)
            assert not s.has_connected_partition(w.partition), (s, w.partition)
            spiders += 1
    trees = 0
    for n in range(7, 13):
        for t in enumerate_trees(n):
            if max(t.degree(v) for v in range(t.n)) < 6:
                continue
            res = run_battery(t, mode="with_expansion")
            assert res.any_triggered and res.e_positive is False, t
            trees += 1
    return f"{spiders} six-leg spiders verified, {trees} degree->=6 trees confirmed"


def check_qm_worked_example():
    """12. S(448,276,90,1,1), inner leg 2 with block multiplier 3: missing
    type (103, 102^7), criteria-only (817 vertices is far beyond expansion
    scale)."""
    s = Spider([448, 276, 90, 1, 1])
    rep = qm_test(s, i=2, m=3)
    assert rep.triggered
    expected = Partition((103,) + (102,) * 7)
    assert rep.witness.partition == expected, rep.witness.partition
    assert rep.params["a"] == 93 and rep.params["q"] == 8, rep.params
    assert not s.has_connected_partition(expected)
    return f"missing {expected.exponential_str()} (a=93, q=8), witness re-verified"


MN_E_POSITIVE = (1, 2, 4, 5, 7, 8)
MN_NEGATIVE = (10, 11)


def check_mn_example():
    """13. The two-leaf path family: e-positive for n in {1,2,4,5,7,8},
    not for n in {10,11} (exact oracle expansion, up to 25 vertices); the
    reduced spiders S(n+2,n-1,1) are not e-positive for n in {2,4,5,8}."""
    for n in MN_E_POSITIVE:
        X = tree_csf(mn_tree(n), max_n=25)
        assert X.is_e_positive(), f"M_{n}"
    for n in MN_NEGATIVE:
        X = tree_csf(mn_tree(n), max_n=25)
        assert not X.is_e_positive(), f"M_{n}"
    for n in (2, 4, 5, 8):
        s = Spider([n + 2, n - 1, 1])
        assert not spider_csf(s).is_e_positive(), s
    return ("M_n e-positive for n in {1,2,4,5,7,8}, negative for {10,11}; "
            "S(n+2,n-1,1) negative for n in {2,4,5,8}")


def check_four_leg_sweep():
    """14. Zero e-positive spiders with four legs and n <= 40
    (criteria first, exact expansion for any survivor)."""
    total = expanded = 0
    for n in range(5, 41):
        for s in enumerate_spiders(n, legs=4):
            total += 1
            res = run_battery(s, mode="criteria_then_expansion", max_n=40)
            if res.e_positive is None:
                expanded += 1
            assert res.e_positive is not True, s
    return f"{total} four-leg spiders, none e-positive ({expanded} needed expansion)"


def check_conjecture_spots():
    """15. Conjecture spot checks: S(6,2,1) and S(10,4,1) e-positive; the
    line graph of every e-positive spider with n <= 12 is e-positive."""
    for legs in [(6, 2, 1), (10, 4, 1)]:
        s = Spider(legs)
        assert spider_csf(s).is_e_positive(), s
    checked = 0
    for n in range(2, 13):
        for s in enumerate_spiders(n):
            if not spider_csf(s).is_e_positive():
                continue
            lg = line_graph(spider_to_tree(s))
            if lg.n == 0:
                continue
            X = csf_oracle(lg)
            assert X.is_e_positive(), (s, X.first_negative())
            checked += 1
    return f"S[6,2,1], S[10,4,1] e-positive; {checked} line graphs e-positive"


def sqrt_bound(s: Spider) -> tuple[int, int] | None:
    """The paper's geometric leg-growth bounds, which every e-positive
    spider satisfies, in cross-multiplied integer form: clause 1,
    2 (leg_i + 1)^2 > n (leg_{i+1} + 1) for 2 <= i <= d - 3, and clause 2,
    2 leg_i^2 > n leg_{i+1} for 2 < i <= d - 2 (legs 1-indexed).  Returns
    the first violated (i, clause), or None when every inequality holds."""
    legs = s.legs.parts
    n = s.n
    for i in range(2, s.d - 2):
        if 2 * (legs[i - 1] + 1) ** 2 <= n * (legs[i] + 1):
            return i, 1
    for i in range(3, s.d - 1):
        if 2 * legs[i - 1] ** 2 <= n * legs[i]:
            return i, 2
    return None


def degree_bound(s: Spider) -> bool:
    """The paper's bound for spiders with five or more legs: e-positivity
    requires sum_{k=1}^{d-3} (n/2)^(-1/2^k) < 1, so True means the sum is
    certified >= 1.  Decided with widening-precision integer root bounds;
    no floating point."""
    return s.d >= 5 and _sum_inv_roots_ge_one(s.n, s.d - 3)


@lru_cache(maxsize=None)  # a sweep asks few distinct (n, k_top) pairs
def _sum_inv_roots_ge_one(n: int, k_top: int) -> bool:
    if n <= 2:
        return True  # (n/2) <= 1: every term is >= 1
    for digits in (30, 60, 120, 240):
        scale = 10 ** digits
        lo_sum = 0
        hi_sum = 0
        for k in range(1, k_top + 1):
            lo = 2 * scale // n
            hi = -(-2 * scale // n)
            for _ in range(k):
                lo = isqrt(lo * scale)
                hi = isqrt(hi * scale) + 1
            lo_sum += lo
            hi_sum += hi
        if hi_sum < scale:
            return False
        if lo_sum >= scale:
            return True
    raise ArithmeticError(
        f"could not separate the root sum from 1 at n={n}, k={k_top}")


def check_analytic_bounds():
    """16. The paper's analytic bounds prove nothing the battery does not:
    on every spider n <= 30 where sqrt_bound or degree_bound fires, the
    block-size test fires too, and its missing type is confirmed absent."""
    total = sqrt_fired = degree_fired = 0
    for n in range(2, 31):
        for s in enumerate_spiders(n):
            total += 1
            by_sqrt = sqrt_bound(s) is not None
            by_degree = degree_bound(s)
            if not (by_sqrt or by_degree):
                continue
            sqrt_fired += by_sqrt
            degree_fired += by_degree
            rep = qm_test(s)
            assert rep.triggered, s
            assert not s.has_connected_partition(rep.witness.partition), \
                (s, rep.witness.partition)
    assert sqrt_fired and degree_fired, (sqrt_fired, degree_fired)
    return (f"{total} spiders: sqrt_bound fired on {sqrt_fired}, "
            f"degree_bound on {degree_fired}, each with a block-size witness")


CRITERIA = [
    check_path_formula,
    check_engine_equivalence,
    check_known_e_positive,
    check_complete_but_negative,
    check_mq_formula,
    check_two_powers_formula,
    check_three_two_formula,
    check_four_leg_reading,
    check_mod_completeness,
    check_soundness_sweep,
    check_six_leg_desk,
    check_qm_worked_example,
    check_mn_example,
    check_four_leg_sweep,
    check_conjecture_spots,
    check_analytic_bounds,
]


def criterion_name(check: Callable[[], str]) -> str:
    """A criterion's name: its function's name without ``check_``."""
    return check.__name__.removeprefix("check_")


def run_all() -> bool:
    """Run every criterion, print one timed pass/fail line each, return
    overall success."""
    ok = True
    for number, check in enumerate(CRITERIA, 1):
        name = criterion_name(check)
        t0 = time.time()
        try:
            summary = check()
            print(f"PASS {number:2d} {name} "
                  f"({time.time() - t0:.2f}s): {summary}")
        except AssertionError as exc:
            ok = False
            print(f"FAIL {number:2d} {name} "
                  f"({time.time() - t0:.2f}s): {exc}")
    return ok
