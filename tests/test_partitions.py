import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espider.partitions import (MAX_PACKED_WEIGHT, Partition, multinomial,
                                 pack, partitions_of, unpack)

from oracles import pentagonal_partition_count, successor_partitions

parts_lists = st.lists(st.integers(1, 12), min_size=0, max_size=8)


def test_canonical_order_enforced():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition().parts == ()


def test_invalid_parts_rejected():
    with pytest.raises(ValueError):
        Partition([0])
    with pytest.raises(ValueError):
        Partition([3, -1])
    for parts in ([True, 2], [False], [True]):
        with pytest.raises(ValueError):
            Partition(parts)


def test_partitions_of_examples():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert sum(1 for _ in partitions_of(10)) == 42


def test_counts_match_pentagonal_recurrence():
    for n in range(31):
        assert sum(1 for _ in partitions_of(n)) == pentagonal_partition_count(n)


def test_stream_order_matches_successor_oracle():
    for n in range(13):
        ours = [p.parts for p in partitions_of(n)]
        assert ours == list(successor_partitions(n))


def test_length_filter_preserves_order():
    for n in range(1, 13):
        for k in range(1, n + 1):
            direct = [p.parts for p in partitions_of(n, length=k)]
            filtered = [p.parts for p in partitions_of(n) if len(p) == k]
            assert direct == filtered


def test_exponential_form_examples():
    assert Partition([3, 2, 2, 1]).exponential_form() == [(3, 1), (2, 2), (1, 1)]
    assert Partition().exponential_form() == []
    assert Partition([2, 2, 2]).exponential_form() == [(2, 3)]


@given(parts_lists)
def test_exponential_form_round_trips(parts):
    p = Partition(parts)
    rebuilt = []
    for value, mult in p.exponential_form():
        assert mult > 0
        rebuilt += [value] * mult
    assert tuple(rebuilt) == p.parts
    values = [v for v, _ in p.exponential_form()]
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == len(values)


def test_residue_vector_examples():
    assert Partition([5, 3, 1]).residue_vector(2) == (1, 1, 1)
    assert Partition([6, 4, 2]).residue_vector(3) == (0, 1, 2)
    assert Partition([2, 2, 2]).residue_vector(2) == (0, 0, 0)
    with pytest.raises(ValueError):
        Partition([2]).residue_vector(1)


def test_combine_parts_examples():
    assert Partition([3, 2, 1]).combine_parts(1, 2).parts == (3, 3)
    assert Partition([7, 6, 1]).combine_parts(1, 2).parts == (7, 7)
    assert Partition([2, 2, 2]).combine_parts(0, 1).parts == (4, 2)
    with pytest.raises(IndexError):
        Partition([2, 1]).combine_parts(0, 0)
    with pytest.raises(IndexError):
        Partition([2, 1]).combine_parts(0, 5)


@given(parts_lists.filter(lambda ps: len(ps) >= 2),
       st.data())
def test_combine_parts_preserves_weight(parts, data):
    p = Partition(parts)
    i = data.draw(st.integers(0, len(p) - 1))
    j = data.draw(st.integers(0, len(p) - 1).filter(lambda x: x != i))
    q = p.combine_parts(i, j)
    assert q.n == p.n
    assert len(q) == len(p) - 1


def test_multinomial_examples():
    assert multinomial([1, 1]) == 2
    assert multinomial([2, 1]) == 3
    assert multinomial([3, 3, 3]) == 1680
    assert multinomial([]) == 1


@given(st.lists(st.integers(0, 7), min_size=1, max_size=5).filter(
    lambda cs: sum(cs) <= 20))
def test_multinomial_factorial_identity(counts):
    from math import factorial
    lhs = multinomial(counts)
    for c in counts:
        lhs *= factorial(c)
    assert lhs == factorial(sum(counts))


def test_rendering():
    assert str(Partition([4, 3, 3])) == "[4,3,3]"
    assert Partition([3, 3, 2, 1, 1, 1, 1]).exponential_str() == "3^2 2 1^4"
    assert Partition().exponential_str() == ""


@given(parts_lists)
def test_parse_round_trips_both_forms(parts):
    p = Partition(parts)
    assert Partition.parse(str(p)) == p
    assert Partition.parse(p.exponential_str()) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Partition.parse("3^^2")
    with pytest.raises(ValueError):
        Partition.parse("[3,x]")


def test_immutability():
    p = Partition([2, 1])
    with pytest.raises(AttributeError):
        p.parts = (3,)


# Packed keys: weight at most 8 * 30 = 240 stays under the cap of 255.
packable = st.lists(st.integers(1, 30), max_size=8)


def descending(parts):
    return tuple(sorted(parts, reverse=True))


@given(packable)
def test_pack_round_trip(parts):
    assert unpack(pack(parts)) == descending(parts)


@given(packable, packable)
def test_key_order_is_revlex_order(a, b):
    # pad the lighter partition with ones so both have the same weight
    w = max(sum(a), sum(b))
    a, b = descending(a + [1] * (w - sum(a))), descending(b + [1] * (w - sum(b)))
    assert (pack(a) < pack(b)) == (a < b)
    assert (pack(a) == pack(b)) == (a == b)


@given(st.lists(st.integers(1, 64), min_size=1, max_size=12))
@settings(max_examples=60)
def test_pack_refuses_weights_past_the_cap(parts):
    # top up with ones, the part whose field fills first
    parts = parts + [1] * max(0, MAX_PACKED_WEIGHT + 1 - sum(parts))
    with pytest.raises(ValueError):
        pack(parts)


def test_pack_at_the_cap():
    ones = (1,) * MAX_PACKED_WEIGHT
    assert unpack(pack(ones)) == ones
    assert unpack(pack((MAX_PACKED_WEIGHT,))) == (MAX_PACKED_WEIGHT,)
    with pytest.raises(ValueError):
        pack(ones + (1,))
