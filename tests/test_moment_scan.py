"""The transfer-matrix moment engine against the pair-partition oracle on
short words, and against closed forms and the Fock space past the old
enumeration cap."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from pairing_oracle import pairing_moment, pairing_q_matrix_moment
from qgauss import moments, qfock
from qgauss.algebra import cyclic_group, group_algebra
from qgauss.copies import FreeHaarBackend, PermGroupBackend, TensorBackend
from qgauss.errors import WindowExceeded
from qgauss.qfock import FockConfig

H1 = (Fraction(1),)
CFG1 = FockConfig(1, max_degree=5)
CFG2 = FockConfig(2, [[1, "1/2"], ["1/2", 2]], 5)  # non-orthonormal


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


@pytest.fixture(scope="module")
def backends():
    """name -> (backend, alphabet, longest exhaustive word length)."""
    free = FreeHaarBackend(5)
    perm = PermGroupBackend(1, 5)
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    tensor = TensorBackend(z2, z3, 5)
    u, g = free.S["u"], tensor.S["g"]
    return {
        "free_haar": (free, [free.A_one, u, u.star()], 6),
        "perm_group": (perm, [perm.A_one, perm.S["u01"]], 8),
        "tensor": (tensor, [tensor.A_one, g, g.star()], 6),
    }


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_every_short_word_matches_pairing_oracle(backends, name):
    """Every word up to the exhaustive length, and 40 seeded words of
    length 8 over the three-letter alphabets."""
    backend, alphabet, top = backends[name]
    words = [w for m in range(top + 1) for w in product(alphabet, repeat=m)]
    if top < 8:
        rng = random.Random(8)
        words += [[rng.choice(alphabet) for _ in range(8)] for _ in range(40)]
    for xs in words:
        word = [(x, H1) for x in xs]
        assert moments.moment(word, backend, CFG1) == \
            pairing_moment(word, backend, CFG1), xs


def test_non_orthonormal_vectors_match_pairing_oracle(backends):
    backend, (one, u, us), _ = backends["free_haar"]
    basis = [CFG2.basis_vector(b) for b in range(2)]
    for m in (2, 4, 6):
        for hs in product(basis, repeat=m):
            mixed = [u, u, us, us, one, one][:m]
            for xs in ([one] * m, [u, us] * (m // 2), mixed):
                word = list(zip(xs, hs))
                assert moments.moment(word, backend, CFG2) == \
                    pairing_moment(word, backend, CFG2), (xs, hs)


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_random_words_of_length_10_match_pairing_oracle(backends, name):
    backend, alphabet, _ = backends[name]
    e0, e1 = CFG2.basis_vector(0), CFG2.basis_vector(1)
    vectors = [e0, e1, tuple(a - b for a, b in zip(e0, e1))]
    rng = random.Random(10)
    for _ in range(2):
        word = [(rng.choice(alphabet), rng.choice(vectors)) for _ in range(10)]
        assert moments.moment(word, backend, CFG2) == \
            pairing_moment(word, backend, CFG2)


# Gram entries and coordinates with different denominators: the scan pairs
# vectors by inner products scaled to ints, and divides once at the end.
MIXED = FockConfig(2, [[2, Fraction(1, 3)], [Fraction(1, 3), Fraction(3, 5)]], 4)
MIXED_VECTORS = [(Fraction(2, 7), Fraction(-1, 2)), (Fraction(-1, 2), 3),
                 (Fraction(1, 3), 0)]


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_mixed_denominators_match_pairing_oracle(backends, name):
    """Every vector word up to length 6 on unit letters, and 30 seeded
    words of length 8 over the alphabet; pure words against the Fock
    space too."""
    backend, alphabet, _ = backends[name]
    one = alphabet[0]
    rng = random.Random(16)
    words = [list(zip([one] * m, hs)) for m in range(7)
             for hs in product(MIXED_VECTORS, repeat=m)]
    words += [[(rng.choice(alphabet), rng.choice(MIXED_VECTORS))
               for _ in range(8)] for _ in range(30)]
    words += [[(one, rng.choice(MIXED_VECTORS)) for _ in range(8)]
              for _ in range(10)]
    for word in words:
        poly = moments.moment(word, backend, MIXED)
        assert poly == pairing_moment(word, backend, MIXED), word
        assert all(type(c) is Fraction for c in poly.coeffs)
        if all(x is one for x, _ in word):
            assert poly == qfock.vacuum_moment([h for _, h in word], MIXED)


Q2 = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(1, 4)]]
Q3 = [[Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)],
      [Fraction(-1, 3), Fraction(1, 4), Fraction(-3, 4)],
      [Fraction(2, 5), Fraction(-3, 4), Fraction(-1)]]


def test_q_matrix_moment_matches_pairing_oracle(backends):
    """Orthonormal unit vectors, then MIXED, whose inner products and Q
    entries have unrelated denominators, so that the scan's int weights
    scale by both common denominators at once; every value a Fraction."""
    free, (one, u, us), _ = backends["free_haar"]
    tensor, (_, g, gs), _ = backends["tensor"]
    rng = random.Random(3)
    vrng = random.Random(12)  # the MIXED vectors; rng draws as before
    cases = []
    for m in (2, 4, 6):
        for colors in product(range(2), repeat=m):
            cases.append((Q2, colors, [(one, H1)] * m, free, CFG1))
            cases.append((Q2, colors, [(u, H1), (us, H1)] * (m // 2), free,
                          CFG1))
            hs = [vrng.choice(MIXED_VECTORS) for _ in range(m)]
            cases.append((Q2, colors, list(zip([one] * m, hs)), free, MIXED))
            cases.append((Q2, colors, list(zip([u, us] * (m // 2), hs)),
                          free, MIXED))
    for colors in product(range(3), repeat=4):
        cases.append((Q3, colors, [(one, H1)] * 4, free, CFG1))
    for _ in range(30):
        colors = [rng.randrange(3) for _ in range(8)]
        cases.append((Q3, colors, [(one, H1)] * 8, free, CFG1))
        cases.append((Q3, colors, [(g, H1), (gs, H1)] * 4, tensor, CFG1))
        hs = [vrng.choice(MIXED_VECTORS) for _ in range(8)]
        cases.append((Q3, colors, list(zip([one] * 8, hs)), free, MIXED))
        cases.append((Q3, colors, list(zip([g, gs] * 4, hs)), tensor, MIXED))
    for Qm, colors, word, backend, cfg in cases:
        value = moments.q_matrix_moment(word, colors, Qm, backend, cfg)
        assert value == pairing_q_matrix_moment(word, colors, Qm, backend,
                                                cfg), (colors, word)
        assert type(value) is Fraction


def test_each_letter_is_embedded_once_per_label():
    # u,u* at m = 12 on six copies: u and u* at labels 1..6 each, where
    # embedding per position made 42 calls
    backend = FreeHaarBackend(6)
    u, us = backend.S["u"], backend.S["u*"]
    calls = []
    pi = backend.pi

    def counted(j, x):
        calls.append((j, x))
        return pi(j, x)

    backend.pi = counted
    word = [(u, H1), (us, H1)] * 6
    assert moments.moment(word, backend, CFG1).coeffs == (catalan(6),)
    assert len(calls) == 12
    assert sorted((j, x is u) for j, x in calls) == \
        [(j, x) for j in range(1, 7) for x in (False, True)]


# ---------------------------------------------------------------------
# past the old enumeration cap of 12 letters


def test_free_haar_alternating_word_of_length_32_is_catalan():
    backend = FreeHaarBackend(16)
    u = backend.S["u"]
    word = [(u if i % 2 == 0 else u.star(), H1) for i in range(32)]
    assert moments.moment(word, backend, CFG1).coeffs == (catalan(16),)


def test_pure_unit_word_of_length_20_equals_fock_oracle():
    backend = FreeHaarBackend(10)
    cfg = FockConfig(1, max_degree=10)
    word = [(backend.A_one, H1)] * 20
    assert moments.moment(word, backend, cfg) == \
        qfock.vacuum_moment([H1] * 20, cfg)


def test_tensor_word_of_length_16_specializes_to_catalan_and_factorial():
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    backend = TensorBackend(z2, z3, 8)
    g = backend.S["g"]
    word = [(g if i % 2 == 0 else g.star(), H1) for i in range(16)]
    poly = moments.moment(word, backend, CFG1)
    assert poly.eval(0) == catalan(8)
    assert poly.eval(1) == math.factorial(8)


def test_length_14_needs_no_enumeration_cap_only_the_window():
    backend = FreeHaarBackend(7)
    cfg = FockConfig(1, max_degree=7)
    word = [(backend.A_one, H1)] * 14
    assert moments.moment(word, backend, cfg) == \
        qfock.vacuum_moment([H1] * 14, cfg)
    assert moments.q_matrix_moment(word, [0] * 14, [[Fraction(1, 2)]],
                                   backend, cfg) == \
        qfock.vacuum_moment([H1] * 14, cfg).eval(Fraction(1, 2))
    small = FreeHaarBackend(6)
    with pytest.raises(WindowExceeded):
        moments.moment(word, small, cfg)
    with pytest.raises(WindowExceeded):
        moments.q_matrix_moment(word, [0] * 14, [[0]], small, cfg)
