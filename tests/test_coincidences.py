"""The even, colour-constant set partitions behind finite-n moments and
the matrix model, against the Bell(m) enumeration they replaced
(tests/bell_oracle.py): the same partitions in the same order, and exact
equality of finite_n_moment with the Bell(m) sum on every short word."""

from fractions import Fraction
from itertools import product

import pytest

from bell_oracle import bell_finite_n_moments, filtered_set_partitions
from qgauss import moments
from qgauss.copies import FreeHaarBackend, PermGroupBackend
from qgauss.qfock import FockConfig

H1 = (Fraction(1),)
NS = (1, 2, 3, 5)


def test_even_set_partition_counts():
    # m = 4: the three pairings and the whole block
    counts = [len(list(moments.enumerate_set_partitions([0] * m)))
              for m in range(9)]
    assert counts == [1, 0, 1, 0, 4, 0, 31, 0, 379]


@pytest.mark.parametrize("m", range(9))
def test_enumeration_order_matches_the_filtered_bell_list(m):
    # the Monte Carlo sums of matmodel run in this order
    for colors in product((0, 1), repeat=m):
        assert list(moments.enumerate_set_partitions(list(colors))) == \
            filtered_set_partitions(colors)


@pytest.mark.parametrize("backend, letters", [
    (FreeHaarBackend(5), ("1", "u", "u*")),
    (PermGroupBackend(1, 5), ("1", "u01")),
], ids=["free_haar", "perm_group"])
def test_finite_n_moment_matches_the_bell_sum(backend, letters):
    cfg = FockConfig(1, max_degree=3)
    for m in range(7):
        for names in product(letters, repeat=m):
            word = [(backend.S[name], H1) for name in names]
            expected = bell_finite_n_moments(word, backend, NS, cfg)
            for n, want in zip(NS, expected):
                assert moments.finite_n_moment(word, backend, n, cfg) == \
                    want, (names, n)
