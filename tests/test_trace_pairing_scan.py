"""trace_pairing, the constrained arc scan, against the convolution-join
sum it replaced (tests/pairing_oracle.py): exact equality on every pair
of short Wick words, on a non-orthonormal Gram and on the doubled
coefficient space of the rotation certificates."""

import random
from fractions import Fraction
from itertools import product

import pytest

from pairing_oracle import pairing_trace_pairing
from qgauss import moments
from qgauss.algebra import cyclic_group, group_algebra
from qgauss.copies import FreeHaarBackend, PermGroupBackend, TensorBackend
from qgauss.partitions import enumerate_pair_singleton
from qgauss.qfock import FockConfig
from qgauss.semigroup import doubled_config

H1 = (Fraction(1),)
CFG1 = FockConfig(1, max_degree=4)
CFG2 = FockConfig(2, [[1, "1/2"], ["1/2", 2]], 4)  # non-orthonormal


def _backends():
    """name -> (backend, alphabet)."""
    free = FreeHaarBackend(4)
    perm = PermGroupBackend(1, 4)
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    tensor = TensorBackend(z2, z3, 4)
    u, g = free.S["u"], tensor.S["g"]
    return {
        "free_haar": (free, [free.A_one, u, u.star()]),
        "perm_group": (perm, [perm.A_one, perm.S["u01"]]),
        "tensor": (tensor, [tensor.A_one, g, g.star()]),
    }


BACKENDS = _backends()


def _all_words(backend, alphabet, max_m, cfg=CFG1, hs=None):
    """Every pair-singleton partition of m <= max_m letters with every
    coefficient word over the alphabet."""
    return [moments.reduce(sigma, xs, hs or [H1] * m, backend, cfg)
            for m in range(max_m + 1)
            for sigma in enumerate_pair_singleton(m)
            for xs in product(alphabet, repeat=m)]


def _assert_all_pairs_agree(words):
    for w1 in words:
        for w2 in words:
            assert moments.trace_pairing(w1, w2) == \
                pairing_trace_pairing(w1, w2), (w1.sigma, w1.xs,
                                                w2.sigma, w2.xs)


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_every_pair_of_short_words_matches_join_oracle(name):
    backend, alphabet = BACKENDS[name]
    _assert_all_pairs_agree(_all_words(backend, alphabet, 3))


def test_seeded_words_on_non_orthonormal_gram_match_join_oracle():
    backend, alphabet = BACKENDS["free_haar"]
    e0, e1 = CFG2.basis_vector(0), CFG2.basis_vector(1)
    vectors = [e0, e1, tuple(a - b for a, b in zip(e0, e1))]
    rng = random.Random(4)
    words = []
    for _ in range(40):
        m = rng.randint(1, 4)
        sigma = rng.choice(enumerate_pair_singleton(m))
        words.append(moments.reduce(
            sigma, [rng.choice(alphabet) for _ in range(m)],
            [rng.choice(vectors) for _ in range(m)], backend, CFG2))
    _assert_all_pairs_agree(words)


def test_doubled_configuration_matches_join_oracle():
    """The pairings of the rotation certificates: vectors rotated to
    (c h, h) or embedded as (h, 0) in H + H, whose second block has its
    inner product scaled by 1 - c^2."""
    backend, alphabet = BACKENDS["free_haar"]
    c = Fraction(3, 5)
    cfg = doubled_config(CFG1, c)
    zero = (Fraction(0),)
    words = []
    for m in range(4):
        for sigma in enumerate_pair_singleton(m):
            for xs in product(alphabet[1:], repeat=m):
                for h in ((c,) + H1, H1 + zero):
                    words.append(moments.WickWord(sigma, xs, (h,) * m,
                                                  backend, cfg))
    _assert_all_pairs_agree(words)

