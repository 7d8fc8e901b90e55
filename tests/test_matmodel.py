"""Random sign-matrix model: exchange relations, traces, and the Monte
Carlo estimator with its exact finite-size expectation."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qgauss import matmodel, moments
from qgauss.copies import FreeHaarBackend, PermGroupBackend
from qgauss.errors import SizeGuard
from qgauss.qfock import FockConfig

from matmodel_oracle import (SYMMETRY_CAP, build_symmetries,
                             combinatorial_trace, mc_moment_explicit,
                             mc_moment_two_pass, sample_epsilon)

H = (Fraction(1),)


def pure_word(m):
    return [(None, H)] * m


@pytest.fixture(scope="module")
def free8():
    return FreeHaarBackend(8)


@pytest.fixture(scope="module")
def cfg1():
    return FockConfig(dim_H=1, max_degree=6)


def test_sample_epsilon_is_symmetric_with_unit_diagonal():
    eps = sample_epsilon([[Fraction(1, 2)]], 3, rng=1)
    assert len(eps.letters) == 3
    for a in eps.letters:
        assert eps.entry(a, a) == 1
        for b in eps.letters:
            assert eps.entry(a, b) == eps.entry(b, a)
            assert eps.entry(a, b) in (-1, 1)


def test_sample_epsilon_degenerate_laws():
    all_plus = sample_epsilon([[Fraction(1)]], 4, rng=0)
    all_minus = sample_epsilon([[Fraction(-1)]], 4, rng=0)
    assert all(v == 1 for v in all_plus.entries.values())
    assert all(v == -1 for v in all_minus.entries.values())


def test_sample_epsilon_mean():
    rng = np.random.Generator(np.random.Philox(key=5))
    vals = []
    for _ in range(300):
        eps = sample_epsilon([[Fraction(1, 2)]], 2, rng=rng)
        vals.append(eps.entry(eps.letters[0], eps.letters[1]))
    assert abs(np.mean(vals) - 0.5) < 0.15


def test_build_symmetries_satisfies_relations():
    eps = sample_epsilon([[Fraction(0)]], 3, rng=7)
    rep = build_symmetries(eps)
    assert rep.verify()


def test_build_symmetries_size_guard():
    eps = sample_epsilon([[Fraction(0)]], SYMMETRY_CAP + 1, rng=0)
    with pytest.raises(SizeGuard):
        build_symmetries(eps)


def test_word_sign_pairs_odd_multiplicity():
    assert matmodel.word_sign_pairs(["a", "b", "a"]) is None


def test_combinatorial_trace_matches_explicit_matrices():
    rng = np.random.Generator(np.random.Philox(key=11))
    eps = sample_epsilon([[Fraction(0)]], 4, rng=rng)
    rep = build_symmetries(eps)
    dim = rep.matrices[0].shape[0]
    idx = {l: i for i, l in enumerate(eps.letters)}
    for _ in range(40):
        word = [eps.letters[k] for k in rng.integers(0, 4, size=6)]
        m = np.eye(dim, dtype=np.int64)
        for l in word:
            m = m @ rep.matrices[idx[l]]
        explicit = Fraction(int(np.trace(m)), dim)
        assert combinatorial_trace(word, eps) == explicit


def test_exact_model_moment_pure_quartic(free8, cfg1):
    # a single scalar variable at size n: the coincident-index term
    # replaces the limit 2 + Q by an exact (1 - Q)/n correction
    for Q0 in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)):
        for n in (1, 2, 4):
            assert matmodel.model_moment_exact(pure_word(4), [[Q0]], n) \
                == 2 + Q0 + Fraction(1 - Q0, n)


def test_exact_model_bias_halves(free8, cfg1):
    u = free8.S["u"]
    word = [(u, H), (u.star(), H), (u, H), (u.star(), H)]
    limit = Fraction(2)
    errs = []
    for n in (2, 4, 8):
        v = matmodel.model_moment_exact(word, [[Fraction(1, 2)]], n,
                                        free8, cfg1)
        errs.append(v - limit)
    assert errs == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_exact_model_converges_to_q_matrix_moment(free8, cfg1):
    Qm = [[Fraction(1, 2), Fraction(1, 3)],
          [Fraction(1, 3), Fraction(1, 4)]]
    colors = [0, 1, 0, 1]
    word = [(free8.A_one, H)] * 4
    target = moments.q_matrix_moment(word, colors, Qm, free8, cfg1)
    vals = [matmodel.model_moment_exact(pure_word(4), Qm, n, colors=colors)
            for n in (2, 8, 32)]
    errs = [abs(v - target) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= Fraction(1, 32)


def test_exact_model_checks_its_q_matrix():
    with pytest.raises(ValueError, match=r"^Q\[0\]\[1\]:"):
        matmodel.model_moment_exact(pure_word(2), [[1, 0], [1, 1]], 2,
                                    colors=[0, 1])


def test_injective_assignments_vary_the_first_colour_fastest():
    # mc_moment adds its float sums in this order
    assert list(matmodel._injective_assignments(
        ((1, 2), (3, 4)), [0, 0, 1, 1], 2)) == [
            {0: 1, 1: 1}, {0: 2, 1: 1}, {0: 1, 1: 2}, {0: 2, 1: 2}]


def test_exact_model_pins_a_two_colour_non_orthonormal_word():
    # distinct vectors that are neither orthogonal nor of unit length, on
    # the perm backend: the values the Fock-space Wick factor gave before
    # the slot-keyed arc scan replaced it
    third = Fraction(1, 3)
    cfg = FockConfig(2, [[2, third], [third, Fraction(3, 5)]])
    h1, h2, h3 = (Fraction(2, 7), Fraction(-1, 2)), (3, Fraction(1, 3)), (1, 0)
    backend = PermGroupBackend(1, 3)
    u, one = backend.S["u01"], backend.A_one
    word = [(u, h1), (one, h2), (u, h3), (u, h3), (one, h2), (u, h1)]
    Qm = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(1, 4)]]
    colors = [0, 1, 1, 1, 1, 0]
    assert [matmodel.model_moment_exact(word, Qm, n, backend, cfg, colors)
            for n in (2, 3)] == [Fraction(8238617, 297675),
                                 Fraction(3048643, 153090)]


def test_mc_estimate_fields_and_z(free8, cfg1):
    [est] = matmodel.mc_moment(pure_word(4), [[[Fraction(1, 2)]]], n=4,
                               samples=400, seed=3)
    assert est.samples == 400 and est.n == 4 and est.seed == 3
    assert est.target == 2.5
    assert est.target_n == float(
        matmodel.model_moment_exact(pure_word(4), [[Fraction(1, 2)]], 4))
    assert est.bias == pytest.approx(est.target_n - est.target)
    assert est.stderr > 0
    assert abs(est.z) <= 4  # sampling noise only


def test_mc_is_reproducible(free8, cfg1):
    [a] = matmodel.mc_moment(pure_word(4), [[[Fraction(0)]]], n=4,
                             samples=200, seed=9)
    [b] = matmodel.mc_moment(pure_word(4), [[[Fraction(0)]]], n=4,
                             samples=200, seed=9)
    assert a.mean == b.mean
    assert a.mean != matmodel.mc_moment(pure_word(4), [[[Fraction(0)]]], n=4,
                                        samples=200, seed=10)[0].mean


def test_mc_agrees_with_explicit_small_model(free8, cfg1):
    Qm = [[Fraction(1, 2)]]
    [fast] = matmodel.mc_moment(pure_word(4), [Qm], n=2, samples=300,
                                seed=21)
    slow = mc_moment_explicit(pure_word(4), Qm, n=2, samples=300, seed=21)
    assert fast.target_n == slow.target_n
    # independent streams, same distribution: compare means within noise
    assert abs(fast.mean - slow.mean) <= \
        4 * (fast.stderr ** 2 + slow.stderr ** 2) ** 0.5 + 1e-12
    assert abs(slow.z) <= 4


def test_mc_colored_word(free8, cfg1):
    Qm = [[Fraction(1, 2), Fraction(1, 3)],
          [Fraction(1, 3), Fraction(1, 4)]]
    colors = [0, 1, 0, 1]
    [est] = matmodel.mc_moment(pure_word(4), [Qm], n=8, samples=800, seed=5,
                               colors=colors)
    assert est.target == pytest.approx(1 / 3)
    assert abs(est.z) <= 4


def _dim_h_2_case():
    # the pinned non-orthonormal word of
    # test_exact_model_pins_a_two_colour_non_orthonormal_word
    third = Fraction(1, 3)
    cfg = FockConfig(2, [[2, third], [third, Fraction(3, 5)]])
    h1, h2, h3 = (Fraction(2, 7), Fraction(-1, 2)), (3, Fraction(1, 3)), (1, 0)
    backend = PermGroupBackend(1, 3)
    u, one = backend.S["u01"], backend.A_one
    word = [(u, h1), (one, h2), (u, h3), (u, h3), (one, h2), (u, h1)]
    Qm = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(1, 4)]]
    return (word, [Qm], 3), {"backend": backend, "cfg": cfg,
                             "colors": [0, 1, 1, 1, 1, 0]}


#: The Q values of `qgauss verify matmodel`, which estimates them in one
#: call.
SUITE_QS = [[[Fraction(q)]] for q in ("-1", "0", "1/2", "1")]


@pytest.mark.parametrize("case", [
    *[((pure_word(4), [Qm], 8), {}) for Qm in SUITE_QS],
    ((pure_word(4), SUITE_QS, 8), {}),
    ((pure_word(6), [[[Fraction(1, 3)]]], 4), {}),
    ((pure_word(4), [[[Fraction(1, 2), Fraction(1, 3)],
                      [Fraction(1, 3), Fraction(1, 4)]]], 8),
     {"colors": [0, 1, 0, 1]}),
    _dim_h_2_case()],
    ids=["Q=-1", "Q=0", "Q=1/2", "Q=1", "suite", "pure6", "two-colour",
         "dim_H=2"])
def test_mc_moment_equals_the_two_pass_estimator(case):
    # each estimate of one call over several Q equals, field for field,
    # that of the two-pass estimator at its Q alone
    (word, Qms, n), kw = case
    fast = matmodel.mc_moment(word, Qms, n=n, samples=2000, seed=42, **kw)
    slow = [mc_moment_two_pass(word, Qm, n=n, samples=2000, seed=42, **kw)
            for Qm in Qms]
    assert [(e.mean, e.stderr, e.target_n) for e in fast] == \
        [(e.mean, e.stderr, e.target_n) for e in slow]
    assert fast == slow


def _count_walks(monkeypatch):
    walks = {"_terms": 0, "coincidences": 0}
    for name in walks:
        inner = getattr(matmodel, name)

        def counted(*args, _inner=inner, _name=name):
            walks[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(matmodel, name, counted)
    return walks


def test_mc_moment_walks_the_terms_once(monkeypatch):
    walks = _count_walks(monkeypatch)
    [est] = matmodel.mc_moment(pure_word(4), [[[Fraction(1, 2)]]], n=4,
                               samples=100, seed=1)
    assert walks == {"_terms": 1, "coincidences": 1}
    assert est.target_n == float(Fraction(2) + Fraction(1, 2) + Fraction(1, 8))
    # four Q matrices share the one walk
    walks.update(_terms=0, coincidences=0)
    ests = matmodel.mc_moment(pure_word(4), SUITE_QS, n=4, samples=100,
                              seed=1)
    assert walks == {"_terms": 1, "coincidences": 1}
    assert [e.target_n for e in ests] == [
        float(2 + q + (1 - q) / 4) for q in (Fraction(-1), 0, Fraction(1, 2), 1)]


def test_mc_moment_holds_no_list_of_terms():
    # 5,888 terms, whose list alone would take about 4 MB; the float
    # arrays of the samples take about 134 kB
    word, n, samples = pure_word(6), 8, 200
    sample_bytes = 8 * samples * (n + n * 6 + math.comb(n, 2))
    matmodel.mc_moment(word, [[[Fraction(1, 3)]]], n=n, samples=10, seed=1)
    tracemalloc.start()
    try:
        matmodel.mc_moment(word, [[[Fraction(1, 3)]]], n=n, samples=samples,
                           seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * sample_bytes


def test_mc_moment_over_four_q_holds_no_list_of_terms():
    # the shared arrays as above, plus per Q a float sum and a boolean
    # sign mask per letter pair, per sample
    word, n, samples, pairs = pure_word(6), 8, 200, math.comb(8, 2)
    Qms = [[[Fraction(q, 3)]] for q in (-2, -1, 1, 2)]
    sample_bytes = samples * (8 * (n + n * 6 + pairs) + 4 * (8 + pairs))
    matmodel.mc_moment(word, Qms, n=n, samples=10, seed=1)
    tracemalloc.start()
    try:
        matmodel.mc_moment(word, Qms, n=n, samples=samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * sample_bytes


def test_mc_moment_guards_the_arrays_of_every_q():
    # 1,851,279 samples of a pure quartic at n = 8 fit the cap with one Q
    # (580 bytes each) but not with four (688 bytes each), and the guard
    # refuses before anything is drawn
    word, samples = pure_word(4), 1_851_279
    assert samples * 580 <= matmodel.SAMPLE_BYTES_CAP < samples * 688
    with pytest.raises(SizeGuard, match="1,273,679,952 bytes"):
        matmodel.mc_moment(word, SUITE_QS, n=8, samples=samples, seed=1)


def test_mc_moment_refuses_q_matrices_of_different_shapes():
    with pytest.raises(ValueError, match="one shape"):
        matmodel.mc_moment(pure_word(4), [[[0]], [[0, 0], [0, 0]]], n=2,
                           samples=10, seed=1)
    with pytest.raises(ValueError, match="one shape"):
        matmodel.mc_moment(pure_word(4), [], n=2, samples=10, seed=1)
