from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espider import symfunc
from espider.partitions import MAX_PACKED_WEIGHT, Partition, pack, partitions_of
from espider.symfunc import EExpansion, PExpansion, p_in_e, p_monomial_in_e

from oracles import (eval_e_expansion, eval_power_sum, random_points,
                     binomial)


def E(pairs):
    terms = {Partition(k): v for k, v in pairs}
    deg = next(iter(terms)).n if terms else 0
    return EExpansion(deg, terms)


def test_newton_base_cases():
    assert p_in_e(1) == E([((1,), 1)])
    assert p_in_e(2) == E([((1, 1), 1), ((2,), -2)])
    assert p_in_e(3) == E([((1, 1, 1), 1), ((2, 1), -3), ((3,), 3)])


def test_p_monomials_match_numeric_evaluation():
    # identity testing at integer points: both sides are honest polynomials
    for n in range(1, 9):
        for lam in partitions_of(n):
            exp = p_monomial_in_e(lam.parts)
            for xs in random_points(n, 3, seed=n * 1000 + len(lam)):
                direct = 1
                for part in lam:
                    direct *= eval_power_sum(xs, part)
                assert eval_e_expansion(exp, xs) == direct, (lam, xs)


def _p_product_in_e(parts, coeff=1):
    """coeff * p_{parts[0]} p_{parts[1]} ... in the e-basis, built with
    ``__mul__`` from the single power sums alone."""
    prod = EExpansion.single((), coeff)
    for part in parts:
        prod = prod * p_in_e(part)
    return prod


def test_p_to_e_is_a_ring_map():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert p_monomial_in_e(lam.parts) == _p_product_in_e(lam)


def test_to_e_matches_products_of_power_sums():
    # each p_lam alone, then one signed combination of them all per degree,
    # with coefficients far past a machine word
    rng = Random(19)
    for n in range(1, 11):
        terms, expect = {}, EExpansion.zero()
        for lam in partitions_of(n):
            assert PExpansion.single(lam).to_e() == _p_product_in_e(lam), lam
            coeff = rng.randint(-10**30, 10**30)
            terms[lam] = coeff
            expect = expect + _p_product_in_e(lam, coeff)
        assert PExpansion(n, terms).to_e() == expect, n


def test_to_e_drops_cancelled_terms():
    # p_1^2 - p_2 = (e_1^2) - (e_1^2 - 2 e_2): the e_1^2 term cancels
    out = PExpansion(2, {(1, 1): 1, (2,): -1}).to_e()
    assert out.terms == E([((2,), 2)]).terms
    x = PExpansion(3, {(2, 1): 5, (1, 1, 1): -7})
    assert (x - x).to_e().is_zero()


def test_to_e_degree_zero():
    assert PExpansion.single(()).to_e() == EExpansion.single(())
    assert PExpansion.zero().to_e().is_zero()


def test_to_e_sparse_high_degree():
    # p_1 = e_1 and p_2 = e_1^2 - 2 e_2: two sparse degree-200 inputs that
    # convert at once, with nothing built per partition of 200
    ones = (1,) * 200
    assert PExpansion.single(ones).to_e() == E([(ones, 1)])
    two = (2,) + (1,) * 198
    assert PExpansion.single(two).to_e() == E([(ones, 1), (two, -2)])
    both = PExpansion(200, {ones: 1, two: 3})
    assert both.to_e() == E([(ones, 4), (two, -6)])


@pytest.fixture
def fresh_rows(monkeypatch):
    """An empty row cache, so each test builds its own rows."""
    monkeypatch.setattr(symfunc, "_E_ROWS", {})


def _combination_in_e(terms):
    expect = EExpansion.zero()
    for parts, coeff in terms.items():
        expect = expect + _p_product_in_e(parts, coeff)
    return expect


@pytest.mark.parametrize("coeff", [2**63 - 1, -(2**63 - 1), -2**63, 2**63])
def test_to_e_exact_at_the_machine_word(fresh_rows, coeff):
    # p_1 = e_1: the result's one coefficient is the input's
    assert PExpansion(1, {(1,): coeff}).to_e() == E([((1,), coeff)])
    # the same value on e_1^2 next to -2^63 and then 2^63 on e_2:
    # a p_1^2 + b p_2 = (a + b) e_1^2 - 2b e_2
    for second in (-2**63, 2**63):
        terms = {(1, 1): coeff + second // 2, (2,): -second // 2}
        out = PExpansion(2, terms).to_e()
        assert out == _combination_in_e(terms)
        assert out == E([((1, 1), coeff), ((2,), second)])


def test_to_e_sparse_row_then_its_whole_degree(fresh_rows):
    # p_1^6 = e_1^6 is built alone; p_6 then reaches every partition of 6,
    # and a combination of the two reads both rows
    ones = (1,) * 6
    assert PExpansion.single(ones).to_e() == E([(ones, 1)])
    assert PExpansion.single((6,)).to_e() == _p_product_in_e((6,))
    terms = {ones: 5, (6,): -3}
    assert PExpansion(6, terms).to_e() == _combination_in_e(terms)


def test_to_e_alternating_degrees(fresh_rows):
    # converting 5, then 4, then 5 again reads every row of its own degree
    rng = Random(22)
    for n in (5, 4, 5, 4):
        terms = {lam.parts: rng.randint(-10**6, 10**6)
                 for lam in partitions_of(n) if rng.random() < 0.6}
        assert PExpansion(n, terms).to_e() == _combination_in_e(terms), n


def test_to_e_builds_rows_from_kept_rows(fresh_rows, monkeypatch):
    # rows of degree 6 are kept; every row of degree 8 one or two parts
    # past one of them costs that many products, the rest walk their
    # prefixes, and each equals the product of its power sums
    PExpansion(6, {lam.parts: 1 for lam in partitions_of(6)}).to_e()
    eights = list(partitions_of(8))
    want = [_p_product_in_e(lam) for lam in eights]
    products = []
    mul = EExpansion.__mul__
    monkeypatch.setattr(EExpansion, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    assert [PExpansion.single(lam.parts).to_e() for lam in eights] == want
    # eleven of the 22 are a kept row times p_2 and six one times p_1 twice;
    # (8), (7, 1), (5, 3), (4, 4) and (4, 3, 1) walk their prefixes, 10
    # products, where building every row from its parts would take 86
    assert len(products) == 11 + 2 * 6 + 10
    assert symfunc._kept_base((3, 2, 1, 1, 1), pack((3, 2, 1, 1, 1)))[1] \
        == (2,)
    assert symfunc._kept_base((5, 3), pack((5, 3)))[1] == ()


def test_specialization_round_trip():
    # p_k -> m and e_j -> C(m, j) must agree for all k <= 10, m <= 6
    for k in range(1, 11):
        exp = p_in_e(k)
        for m in range(1, 7):
            value = sum(c * _prod(binomial(m, part) for part in key)
                        for key, c in exp.items())
            assert value == m, (k, m)


def _prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def test_add_examples():
    a = E([((2, 1), 1)])
    b = E([((2, 1), -1)])
    assert (a + b).is_zero()
    c = E([((3,), 3)]) + E([((2, 1), 1)])
    assert c == E([((3,), 3), ((2, 1), 1)])
    z = EExpansion.zero()
    assert a + z == a and z + a == a


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        E([((2,), 1)]) + E([((3,), 1)])


def test_mixed_bases_raise():
    e = EExpansion.single((2, 1))
    p = PExpansion.single((2, 1), 5)
    pairs = [(e, p), (p, e), (EExpansion.zero(), p), (e, PExpansion.zero()),
             (e, 3)]
    for a, b in pairs:
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        with pytest.raises(TypeError):
            a * b


def test_product_past_the_key_cap_raises():
    top = EExpansion.single((MAX_PACKED_WEIGHT,))
    with pytest.raises(ValueError):
        top * EExpansion.single((1,))
    with pytest.raises(ValueError):
        EExpansion.single((MAX_PACKED_WEIGHT + 1,))


def test_multiply_merges_keys():
    assert (EExpansion.single((2,)) * EExpansion.single((2, 1))
            == EExpansion.single((2, 2, 1)))
    p2 = E([((2,), 2)])
    assert p2 * p2 == E([((2, 2), 4)])


def test_coefficient_wrong_weight_is_zero():
    f = E([((2, 1), 5)])
    assert f.coefficient(Partition([2, 1])) == 5
    assert f.coefficient(Partition([3, 1])) == 0
    assert f.coefficient(Partition([2])) == 0


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        EExpansion(3, {Partition([2]): 1})


small_expansions = st.builds(
    lambda pairs: PExpansion(
        0, {}) if not pairs else PExpansion(
        sum(pairs[0][0]),
        {Partition(k): v for k, v in pairs}),
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.sampled_from([p.parts for p in partitions_of(n)]),
                st.integers(-9, 9)),
            min_size=0, max_size=4,
            unique_by=lambda kv: kv[0])))


@given(small_expansions, small_expansions)
@settings(max_examples=60)
def test_e_multiply_commutative(a, b):
    ae, be = a.to_e(), b.to_e()
    assert ae * be == be * ae


@given(small_expansions, small_expansions, small_expansions)
@settings(max_examples=40)
def test_e_multiply_associative(a, b, c):
    ae, be, ce = a.to_e(), b.to_e(), c.to_e()
    assert (ae * be) * ce == ae * (be * ce)


def test_zero_expansion_properties():
    z = EExpansion.zero()
    assert z.is_e_positive()
    assert z.first_negative() is None
    assert (z * E([((2, 1), 3)])).is_zero()


def test_first_negative_is_revlex_first():
    f = E([((4,), 1), ((3, 1), -5), ((2, 2), -2)])
    key, val = f.first_negative()
    assert key.parts == (3, 1) and val == -5


def test_evaluate_chromatic_on_known_expansion():
    # 2e_2 is the expansion of a single edge: k(k-1) colorings
    edge = E([((2,), 2)])
    for k in range(6):
        assert edge.evaluate_chromatic(k) == k * (k - 1)


def _assert_lossless(f):
    """Each text line and each JSON entry is one term of ``items()``, in
    order, with its exact coefficient."""
    import json
    terms = list(f.items())
    assert EExpansion(f.degree, dict(terms)) == f
    lines = [line.split(" * e") for line in f.to_text().splitlines()]
    assert [(Partition.parse(key), int(c)) for c, key in lines] == terms
    assert [(Partition(rec["partition"]), int(rec["coeff"]))
            for rec in f.to_json_obj()] == terms
    assert json.loads(f.to_json()) == f.to_json_obj()


def test_text_round_trip_examples():
    f = E([((4,), 4), ((3, 1), 2), ((2, 2), 2)])
    text = f.to_text()
    assert text.splitlines()[0] == "4 * e[4]"
    _assert_lossless(f)
    assert EExpansion.zero().to_text() == ""
    assert EExpansion.zero().to_json_obj() == []


@given(small_expansions)
@settings(max_examples=60)
def test_text_and_json_round_trip(p):
    f = p.to_e()
    _assert_lossless(f)


def test_json_coefficients_are_strings():
    f = E([((2,), 10 ** 30)])
    obj = f.to_json_obj()
    assert obj[0]["coeff"] == str(10 ** 30)


def test_immutability():
    f = E([((2,), 1)])
    with pytest.raises(AttributeError):
        f.degree = 5
