"""Partition enumeration against a Bell-triangle oracle."""

import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revderiv.partitions import SetPartition, enumerate_partitions


def bell_numbers(upto):
    """Oracle: Bell numbers B_0..B_upto via the Bell triangle recurrence."""
    bells = [1]
    row = [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return bells


def growth_string_partitions(n):
    """Reference: the partitions of {1, ..., n} walked as restricted growth
    strings (Knuth, TAOCP 4A, 7.2.1.5), labels tried from high to low.
    Position i names the block of element i+1; a label may exceed the
    running maximum by at most one."""
    out = []

    def walk(labels, top):
        if len(labels) == n:
            blocks = [[] for _ in range(top + 1)]
            for i, label in enumerate(labels):
                blocks[label].append(i + 1)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for label in range(top + 1, -1, -1):
            walk(labels + [label], max(top, label))

    if n:
        walk([0], 0)
    return out


def test_order_matches_the_growth_string_walk():
    for n in range(10):
        assert [p.blocks for p in enumerate_partitions(n)] == growth_string_partitions(n)


def test_counts_match_bell_numbers():
    bells = bell_numbers(6)
    for n in range(1, 7):
        assert len(enumerate_partitions(n)) == bells[n]


def test_small_cases():
    assert [str(p) for p in enumerate_partitions(1)] == ["{1}"]
    assert [str(p) for p in enumerate_partitions(2)] == ["{1}|{2}", "{1,2}"]
    assert len(enumerate_partitions(4)) == 15


def test_zero_is_empty_by_convention():
    assert enumerate_partitions(0) == []
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


@given(st.integers(1, 7))
def test_canonical_invariants(n):
    parts = enumerate_partitions(n)
    seen = set()
    for p in parts:
        assert SetPartition(p.blocks) == p  # the checks the enumeration skips
        flat = [i for block in p.blocks for i in block]
        assert sorted(flat) == list(range(1, n + 1))
        mins = [block[0] for block in p.blocks]
        assert mins == sorted(mins)
        assert p.blocks[0][0] == 1  # 1 is always in the first block
        key = frozenset(frozenset(b) for b in p.blocks)
        assert key not in seen  # no duplicates
        seen.add(key)


def test_set_partition_validation():
    SetPartition(((1, 3), (2,)))
    with pytest.raises(ValueError):
        SetPartition(((2,), (1,)))  # not ordered by minimum
    with pytest.raises(ValueError):
        SetPartition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(((1,), ()))  # empty block
    with pytest.raises(ValueError):
        SetPartition(((1,), (3,)))  # gap
    with pytest.raises(ValueError, match=r"block \(2, 1\) is not sorted"):
        SetPartition(((2, 1),))


def test_block_sizes_and_text():
    p = SetPartition(((1, 4), (2, 3), (5,)))
    assert p.block_sizes() == (2, 2, 1)
    assert str(p) == "{1,4}|{2,3}|{5}"
    # against the generator bodies they replaced, for every partition of n <= 7
    for n in range(8):
        for p in enumerate_partitions(n):
            assert p.block_sizes() == tuple(len(b) for b in p.blocks)
            assert str(p) == "|".join("{" + ",".join(str(i) for i in block) + "}"
                                      for block in p.blocks)
    assert str(SetPartition(())) == "" and SetPartition(()).block_sizes() == ()


def test_enumeration_leaves_no_reference_cycle():
    # a cycle would keep the whole list of partitions alive until the
    # collector next runs, which integer-only arithmetic makes rarer
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_partitions(6)) == 203
        assert gc.collect() == 0
    finally:
        gc.enable()
