"""The even, colour-constant set partitions behind finite-n moments and
the matrix model, against the Bell(m) enumeration they replaced
(tests/bell_oracle.py): the same partitions in the same order, exact
equality of finite_n_moment with the Bell(m) sum on every short word,
orthonormal or not, and no engine calling the Fock oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from bell_oracle import bell_finite_n_moments, filtered_set_partitions
from qgauss import matmodel, moments, qfock
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


MIXED = FockConfig(2, [[2, Fraction(1, 3)], [Fraction(1, 3), Fraction(3, 5)]])
VECTORS = ((Fraction(2, 7), Fraction(-1, 2)), (3, Fraction(1, 3)), (1, 0))


@pytest.mark.parametrize("backend, letters", [
    (FreeHaarBackend(5), ("1", "u", "u*")),
    (PermGroupBackend(1, 5), ("1", "u01")),
], ids=["free_haar", "perm_group"])
def test_finite_n_moment_with_distinct_non_orthonormal_vectors(backend,
                                                                letters):
    # every word of length <= 4 over the letters and three vectors that
    # are neither orthogonal nor of unit length, and seeded words of
    # length 6: the slot-keyed scan pairs only vectors of one slot, with
    # their inner product, and counts crossings across slots
    alphabet = [(backend.S[name], h) for name in letters for h in VECTORS]
    words = [list(w) for m in range(5) for w in product(alphabet, repeat=m)]
    rng = random.Random(6)
    words += [rng.choices(alphabet, k=6) for _ in range(8)]
    for word in words:
        expected = bell_finite_n_moments(word, backend, NS, MIXED)
        for n, want in zip(NS, expected):
            assert moments.finite_n_moment(word, backend, n, MIXED) == want


def test_no_engine_calls_the_fock_oracle(monkeypatch):
    """finite_n_moment, model_moment_exact and mc_moment run without
    qfock.vacuum_moment and qfock.apply_field, so the Fock space stays an
    independent oracle of them (tests/bell_oracle.py)."""
    backend = PermGroupBackend(1, 3)
    u = backend.S["u01"]
    word = [(u, VECTORS[0]), (backend.A_one, VECTORS[1]), (u, VECTORS[2]),
            (u, VECTORS[2]), (backend.A_one, VECTORS[1]), (u, VECTORS[0])]
    short = [(u, VECTORS[0]), (u, VECTORS[1]), (u, VECTORS[2]),
             (u, VECTORS[0])]
    pure = [(None, h) for h in VECTORS[:2] * 2]
    Q = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(1, 4)]]
    colors = [0, 1, 1, 1, 1, 0]
    runs = [
        lambda: moments.finite_n_moment(word, backend, 2, MIXED),
        lambda: matmodel.model_moment_exact(word, Q, 2, backend=backend,
                                            cfg=MIXED, colors=colors),
        lambda: matmodel.model_moment_exact(pure, [[Fraction(1, 2)]], 3,
                                            cfg=MIXED),
        lambda: matmodel.mc_moment(short, [Q], 2, 20, 7, backend=backend,
                                   cfg=MIXED, colors=[0, 1, 1, 0])[0],
        lambda: matmodel.mc_moment(pure, [[[Fraction(1, 2)]]], 2, 20, 7,
                                   cfg=MIXED)[0],
    ]
    expected = [run() for run in runs]

    def broken(*args, **kw):
        raise AssertionError("the Fock oracle was called")

    with monkeypatch.context() as patch:
        patch.setattr(qfock, "vacuum_moment", broken)
        patch.setattr(qfock, "apply_field", broken)
        assert [run() for run in runs] == expected
