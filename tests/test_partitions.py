"""Counting identities and crossing statistics for pair/singleton partitions."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qgauss import moments
from qgauss.errors import CapExceeded
from qgauss.partitions import (DEFAULT_CAP, Partition12, crossing_number,
                               encoding_map, enumerate_pair_singleton)

from pairing_oracle import convolution_joins, enumerate_pair_partitions


def double_factorial(n):
    return math.prod(range(n, 0, -2))


@pytest.mark.parametrize("m", range(0, 11, 2))
def test_pair_partition_count(m):
    assert len(enumerate_pair_partitions(m)) == double_factorial(m - 1)


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_odd_ground_sets_have_no_pairings(m):
    assert enumerate_pair_partitions(m) == []


def test_involution_numbers():
    # number of partitions into blocks of size <= 2
    expected = [1, 1, 2, 4, 10, 26, 76, 232]
    got = [len(enumerate_pair_singleton(m)) for m in range(8)]
    assert got == expected


def test_enumeration_is_canonical_and_duplicate_free():
    ps = enumerate_pair_partitions(6)
    keys = [p.sort_key() for p in ps]
    assert keys == sorted(keys)
    assert len(set(ps)) == len(ps)


def brute_crossings(sigma):
    n = 0
    for p1, p2 in combinations(sorted(sigma.pairs), 2):
        a, b = p1
        c, d = p2
        if (a < c < b < d) or (c < a < d < b):
            n += 1
    return n


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=4))
def test_crossing_number_against_brute_force(k):
    for sigma in enumerate_pair_partitions(2 * k):
        assert crossing_number(sigma) == brute_crossings(sigma)


def test_noncrossing_count_is_catalan():
    for k in range(1, 6):
        nc = [s for s in enumerate_pair_partitions(2 * k)
              if crossing_number(s) == 0]
        assert len(nc) == math.comb(2 * k, k) // (k + 1)


def test_reversal_preserves_crossings():
    for sigma in enumerate_pair_singleton(6):
        assert crossing_number(sigma.reversed()) == crossing_number(sigma)
        assert sigma.reversed().reversed() == sigma


def test_validation_rejects_bad_blocks():
    with pytest.raises(ValueError):
        Partition12.make(4, [(1, 2)], [2, 3, 4])
    with pytest.raises(ValueError):
        Partition12.make(4, [(1, 2)], [3])
    with pytest.raises(ValueError):
        Partition12.make(2, [(1, 3)], [2])


def test_encoding_map_fibers_are_blocks():
    sigma = Partition12.make(6, [(1, 4), (2, 6)], [3, 5])
    phi = encoding_map(sigma)
    # singletons 3 < 5 get 1, 2; pairs ordered by left leg get 3, 4
    assert phi == {3: 1, 5: 2, 1: 3, 4: 3, 2: 4, 6: 4}


def test_encoding_map_ranges():
    for sigma in enumerate_pair_singleton(5):
        phi = encoding_map(sigma)
        s, p = sigma.num_singletons, sigma.num_pairs
        assert set(phi) == set(range(1, 6))
        assert set(phi.values()) == set(range(1, s + p + 1))


def test_convolution_joins_count():
    # joining r of s singletons on each side: sum_r C(s,r) * C(s',r) * r!
    sigma = Partition12.make(3, [(1, 3)], [2])
    theta = Partition12.make(4, [(2, 3)], [1, 4])
    joins = convolution_joins(sigma, theta)
    expected = sum(math.comb(1, r) * math.comb(2, r) * math.factorial(r)
                   for r in range(2))
    assert len(joins) == expected
    for gamma in joins:
        assert gamma.m == 7
        # every original pair survives, shifted on the right factor
        assert (1, 3) in gamma.pairs and (5, 6) in gamma.pairs


def test_convolution_joins_never_pair_within_a_side():
    sigma = Partition12.make(2, [], [1, 2])
    theta = Partition12.make(2, [], [1, 2])
    for gamma in convolution_joins(sigma, theta):
        for l, r in gamma.pairs:
            assert l <= 2 < r


def test_enumeration_cap_enforced():
    # refused before the first partition is made
    over = DEFAULT_CAP + 2
    with pytest.raises(CapExceeded, match=f"size {over} .* cap {DEFAULT_CAP}"):
        enumerate_pair_partitions(over)
    with pytest.raises(CapExceeded):
        enumerate_pair_singleton(over)
    singletons = Partition12.make(over // 2, [], range(1, over // 2 + 1))
    with pytest.raises(CapExceeded):
        convolution_joins(singletons, singletons)
    with pytest.raises(CapExceeded):
        next(moments.enumerate_set_partitions([0] * over))
    assert len(enumerate_pair_partitions(6)) == 15
