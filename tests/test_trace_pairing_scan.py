"""trace_pairing, the constrained arc scan, against the convolution-join
sum it replaced (tests/pairing_oracle.py): exact equality on every pair
of short Wick words, on a non-orthonormal Gram and on the doubled
coefficient space of the rotation certificates; the adjoint-prefix states
kept on a word, resumed under other lengths; the refusal of pairings
across configurations; the independence of the two Gram paths; the
pairings that an empty adjoint prefix zeroes without a scan; and the
digest of the benchmark's Gram families."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from pairing_oracle import pairing_trace_pairing
from qgauss import moments
from qgauss.algebra import (AlgebraElement, cyclic_group, group_algebra,
                            symmetric_group)
from qgauss.copies import FreeHaarBackend, PermGroupBackend, TensorBackend
from qgauss.partitions import Partition12, enumerate_pair_singleton
from qgauss.qfock import FockConfig
from qgauss.qpoly import QPoly
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


def _combination_alphabets():
    """name -> (backend, alphabet): the unit and one letter of several
    terms with Fraction coefficients; tensor on S3 (x) Z3 with a B-part
    that is not the unit."""
    free = FreeHaarBackend(4)
    u = free.S["u"]
    perm = PermGroupBackend(1, 4)
    tensor = TensorBackend(group_algebra(symmetric_group(range(3))),
                           group_algebra(cyclic_group(3)), 4)
    b = tensor.D.basis_element(((1, 0, 2),) + (0,) * 4)  # a transposition
    return {
        "free_haar": (free, [free.A_one, u.scale(Fraction(1, 2))
                             + u.star().scale(Fraction(1, 3))]),
        "perm_group": (perm, [perm.A_one,
                              perm.S["u01"].scale(Fraction(2, 3))
                              + perm.A_one.scale(Fraction(-1, 4))]),
        "tensor": (tensor, [tensor.A_one,
                            tensor.S["g"] + b.scale(Fraction(1, 2))]),
    }


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_every_pair_of_short_combination_words_matches_join_oracle(name):
    """Letters of several terms through adjoint_prefix and the resumed
    scan: each spreads a state over several keys, on either side of the
    join."""
    backend, alphabet = _combination_alphabets()[name]
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



#: <h, h> = 1/2: with it the factors of a word's own closings differ from
#: those under CFG1.
CFG_HALF = FockConfig(1, [["1/2"]], 4)


def _counted_advance(monkeypatch):
    """A list that gets one entry per call of moments._advance."""
    calls = []
    advance = moments._advance

    def counted(*args):
        calls.append(1)
        return advance(*args)

    monkeypatch.setattr(moments, "_advance", counted)
    return calls


@pytest.mark.parametrize("name", ["free_haar", "tensor"])
def test_cached_adjoint_prefix_matches_a_fresh_word(name, monkeypatch):
    """One w2 paired with w1 of 1 to 4 letters, the lengths interleaved, so
    that its kept prefix states are resumed under each total length:
    every value equals the pairing with a fresh copy of w2 and the join
    oracle.  w2's prefix is scanned once in all, whatever the length: with
    w1's own prefix scanned beforehand, each pairing of equal degrees
    with a fresh copy scans one prefix more than the one with w2, except
    the first (unequal degrees scan nothing).
    w2 pairs two letters (so its prefix carries a factor of its own)
    before a singleton."""
    backend, alphabet = BACKENDS[name]
    u = alphabet[1]
    w2 = moments.WickWord(Partition12.make(3, [(1, 2)], [3]),
                          (u, u.star(), u), (H1,) * 3, backend, CFG_HALF)
    rng = random.Random(7)
    calls = _counted_advance(monkeypatch)
    lengths = [1, 3, 2, 4, 3, 1, 4, 2] * 3
    extra_scans = 0
    nonzero = set()
    for m in lengths:
        # odd lengths keep w2's one singleton; even ones give zero
        sigma = rng.choice([s for s in enumerate_pair_singleton(m)
                            if s.num_singletons == m % 2])
        # a pair's letters x, x* and a singleton's u: mostly nonzero
        xs = [u] * m
        for l, r in sigma.pairs:
            xs[l - 1] = rng.choice(alphabet)
            xs[r - 1] = xs[l - 1].star()
        w1 = moments.WickWord(sigma, tuple(xs), (H1,) * m, backend,
                              CFG_HALF)
        fresh = moments.WickWord(w2.sigma, w2.xs, w2.hs, backend, CFG_HALF)
        w1.adjoint_prefix  # scanned here, before the count
        before = len(calls)
        value = moments.trace_pairing(w1, w2)
        middle = len(calls)
        assert value == moments.trace_pairing(w1, fresh) == \
            pairing_trace_pairing(w1, w2), (m, sigma, w1.xs)
        extra_scans += (len(calls) - middle) - (middle - before)
        if not value.is_zero():
            nonzero.add(m)
    assert nonzero == {1, 3}
    assert extra_scans == sum(m % 2 for m in lengths) - 1


def test_an_adjoint_prefix_embeds_each_letter_once_per_label():
    """adj(w) stars each distinct letter object of w once, so the scan of
    its prefix embeds equal letters once per label: a tensor g,g* word of
    12 letters, five pairs and two singletons, takes 7 pi calls, where
    starring each letter anew took 12, embedding equal letters again."""
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    backend = TensorBackend(z2, z3, 6)
    g = backend.S["g"]
    gs = g.star()
    sigma = Partition12.make(12, [(1, 4), (2, 3), (5, 8), (6, 9), (10, 11)],
                             [7, 12])
    w = moments.WickWord(sigma, (g, gs) * 6, (H1,) * 12, backend, CFG1)
    assert len({id(x) for x in w.adjoint().xs}) == 2
    calls = []
    pi = backend.pi

    def counted(j, x):
        calls.append((j, x))
        return pi(j, x)

    backend.pi = counted
    assert w.adjoint_prefix[0]
    assert len(calls) == len(set(calls)) == 7


def test_pairings_across_configurations_are_refused():
    """Both Gram paths refuse words under different Fock configurations
    or backends, in either order and whatever their degrees, where they
    once read one word's vectors under the other's configuration; an
    equal configuration built apart is the same configuration."""
    free, alphabet = BACKENDS["free_haar"]
    perm = BACKENDS["perm_group"][0]
    one = Partition12.make(1, [], [1])
    w = moments.WickWord(one, (alphabet[1],), (H1,), free, CFG1)
    doubled = doubled_config(CFG1, Fraction(3, 5))
    others = [moments.WickWord(one, (alphabet[1],), (H1,), free, CFG_HALF),
              moments.WickWord(one, (alphabet[1],), ((1, 0),), free,
                               doubled),
              moments.WickWord(Partition12.make(0), (), (), free, CFG_HALF),
              moments.WickWord(one, (perm.A_one,), (H1,), perm, CFG1)]
    for other in others:
        for pairing in (moments.trace_pairing, moments.wick_inner_product):
            for w1, w2 in ((w, other), (other, w)):
                with pytest.raises(ValueError, match="Fock configuration"):
                    pairing(w1, w2)
    twin = moments.WickWord(one, (alphabet[1],), (H1,), free,
                            FockConfig(1, max_degree=4))
    assert twin.cfg is not CFG1
    for pairing in (moments.trace_pairing, moments.wick_inner_product):
        assert pairing(w, twin) == pairing(twin, w) == pairing(w, w) == \
            QPoly.one()


def test_the_two_gram_paths_share_nothing(monkeypatch):
    """wick_inner_product runs without the scan, and trace_pairing without
    AlgebraElement.inner or the reduced coefficient F_sigma: each is an
    independent check of the other."""
    backend, alphabet = BACKENDS["perm_group"]
    words = _all_words(backend, alphabet, 3)
    expected = [[moments.trace_pairing(w1, w2) for w2 in words]
                for w1 in words]

    def broken(*args, **kw):
        raise AssertionError("shared code")

    with monkeypatch.context() as patch:
        patch.setattr(moments, "_arc_scan", broken)
        patch.setattr(moments, "_advance", broken)
        assert [[moments.wick_inner_product(w1, w2) for w2 in words]
                for w1 in words] == expected
        with pytest.raises(AssertionError, match="shared code"):
            moments.trace_pairing(words[1], words[1])
    with monkeypatch.context() as patch:
        patch.setattr(AlgebraElement, "inner", broken)
        patch.setattr(moments, "reduced_coefficient", broken)
        # fresh copies: no F_sigma computed, and no pairing data kept
        bare = [moments.WickWord(w.sigma, w.xs, w.hs, backend, w.cfg)
                for w in words]
        assert [[moments.trace_pairing(w1, w2) for w2 in bare]
                for w1 in bare] == expected
        for w in (words[1], bare[1]):
            with pytest.raises(AssertionError, match="shared code"):
                moments.wick_inner_product(w, w)


def _benchmark_gram_families():
    """name -> the Wick words of the benchmark's two Gram families (see
    test_the_benchmark_gram_families_keep_their_digest)."""
    free, perm = FreeHaarBackend(6), PermGroupBackend(1, 4)
    return {name: [moments.reduce(sigma, xs, [H1] * m, backend, CFG1)
                   for m in range(1, 4)
                   for sigma in enumerate_pair_singleton(m)
                   for xs in product(gens, repeat=m)]
            for name, backend, gens in (
                ("free_haar", free, [free.A_one, free.S["u"]]),
                ("perm_group", perm, [perm.A_one, perm.S["u01"]]))}


def test_empty_adjoint_prefixes_spare_the_gram_its_scans(monkeypatch):
    """Each family's trace-pairing Gram scans the 42 adjoint prefixes and
    resumes only the pairings where neither prefix ends without states:
    187 scans on free Haar and 295 on perm_group, where resuming every
    one of the 772 pairs of equal degree took 814."""
    calls = _counted_advance(monkeypatch)
    scans = {}
    for name, words in _benchmark_gram_families().items():
        calls.clear()
        for w1 in words:
            for w2 in words:
                moments.trace_pairing(w1, w2)
        scans[name] = len(calls)
    assert scans == {"free_haar": 187, "perm_group": 295}


def test_pairings_zeroed_by_an_empty_prefix_are_zero():
    """Seeded words on a non-orthonormal Gram, with a vector orthogonal to
    e0, on every backend: each pairing of equal degrees that the shortcut
    returns unscanned, because the states after adj(w2) or else after
    adj(w1) are empty, is zero by the join oracle, and both cases
    occur."""
    e0, e1 = CFG2.basis_vector(0), CFG2.basis_vector(1)
    # <e0, v> = 1 - 2 * 1/2 = 0 and <v, v> = 7
    vectors = [e0, tuple(a - 2 * b for a, b in zip(e0, e1))]
    assert CFG2.ip(vectors[0], vectors[1]) == 0
    rng = random.Random(11)
    for name, (backend, alphabet) in BACKENDS.items():
        words = []
        for _ in range(40):
            m = rng.randint(1, 3)
            words.append(moments.reduce(
                rng.choice(enumerate_pair_singleton(m)),
                [rng.choice(alphabet) for _ in range(m)],
                [rng.choice(vectors) for _ in range(m)], backend, CFG2))
        empty = {id(w): not w.adjoint_prefix[0] for w in words}
        fired = {"adj(w2)": 0, "adj(w1)": 0}
        for w1 in words:
            for w2 in words:
                if w1.degree != w2.degree:
                    continue
                if empty[id(w2)]:
                    fired["adj(w2)"] += 1
                elif empty[id(w1)]:
                    fired["adj(w1)"] += 1
                else:
                    continue
                assert moments.trace_pairing(w1, w2).is_zero()
                assert pairing_trace_pairing(w1, w2).is_zero(), \
                    (name, w1.sigma, w1.xs, w1.hs, w2.sigma, w2.xs, w2.hs)
        assert all(fired.values()), (name, fired)


def test_the_benchmark_gram_families_keep_their_digest():
    """The two Wick Gram families of the benchmark's reduced_coefficients
    workload: every pair-singleton partition of 1 <= m <= 3 points with
    every word over {1, u} on FreeHaarBackend(6) and over {1, u01} on
    PermGroupBackend(1, 4), vectors (1,) under FockConfig(1,
    max_degree=4).  Both Gram paths agree entrywise, and the Gram is
    pinned by md5(repr((free_rows, perm_rows))), where each family is a
    tuple of rows and each row a tuple of the entries' QPoly.coeffs."""
    free, perm = FreeHaarBackend(6), PermGroupBackend(1, 4)
    rows = []
    for backend, gens in ((free, [free.A_one, free.S["u"]]),
                          (perm, [perm.A_one, perm.S["u01"]])):
        words = [moments.reduce(sigma, xs, [H1] * m, backend, CFG1)
                 for m in range(1, 4) for sigma in enumerate_pair_singleton(m)
                 for xs in product(gens, repeat=m)]
        wick = [[moments.wick_inner_product(w1, w2) for w2 in words]
                for w1 in words]
        assert wick == [[moments.trace_pairing(w1, w2) for w2 in words]
                        for w1 in words]
        rows.append(tuple(tuple(p.coeffs for p in row) for row in wick))
    digest = hashlib.md5(repr(tuple(rows)).encode()).hexdigest()
    assert digest == "35796d94b3e62116ec97f94af5aafe96"
