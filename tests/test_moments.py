"""Joint moments, the reduction to structured words, and the two
independent pairing computations that must agree on them."""

from fractions import Fraction
from itertools import product

import pytest

from qgauss import moments
from qgauss.copies import FreeHaarBackend, PermGroupBackend
from qgauss.errors import WindowExceeded
from qgauss.partitions import Partition12
from qgauss.qfock import FockConfig, vacuum_moment
from qgauss.qpoly import Q, QPoly

from pairing_oracle import convolution_joins, pairing_trace_pairing


@pytest.fixture(scope="module")
def free8():
    return FreeHaarBackend(8)


@pytest.fixture(scope="module")
def cfg1():
    return FockConfig(dim_H=1, max_degree=6)


def pure_word(backend, m, h=(Fraction(1),)):
    return [(backend.A_one, h) for _ in range(m)]


def test_odd_moments_vanish(free8, cfg1):
    assert moments.moment(pure_word(free8, 3), free8, cfg1).is_zero()
    assert moments.moment(pure_word(free8, 5), free8, cfg1).is_zero()


def test_pure_moments_match_fock_oracle(free8):
    cfg = FockConfig(dim_H=2, max_degree=3)
    basis = [cfg.basis_vector(b) for b in range(2)]
    for m in (2, 4, 6):
        for vecs in product(basis, repeat=min(m, 4)):
            word_vecs = list(vecs) + [basis[0]] * (m - len(vecs))
            word = [(free8.A_one, h) for h in word_vecs]
            assert moments.moment(word, free8, cfg) == \
                vacuum_moment(word_vecs, cfg)


def test_unitary_word_moment(free8, cfg1):
    # x = u, u*, u, u* : the pairings {12}{34} and {23}{14} survive the
    # trace, the crossing one does not
    u = free8.S["u"]
    h = (Fraction(1),)
    word = [(u, h), (u.star(), h), (u, h), (u.star(), h)]
    assert moments.moment(word, free8, cfg1) == QPoly([2])


def test_window_guard(cfg1):
    small = FreeHaarBackend(1)
    with pytest.raises(WindowExceeded):
        moments.moment(pure_word(small, 4), small, cfg1)


def test_moment_on_perm_backend_matches_free(cfg1, free8):
    perm = PermGroupBackend(1, 3)
    assert moments.moment(pure_word(perm, 4), perm, cfg1) == \
        moments.moment(pure_word(free8, 4), free8, cfg1)


# ---------------------------------------------------------------------
# finite-size moments


def test_finite_n_pure_moment_is_already_exact(free8, cfg1):
    # for a single scalar variable the finite-size moment has no
    # correction at any size
    limit = moments.moment(pure_word(free8, 4), free8, cfg1)
    for n in (1, 2, 3, 5):
        assert moments.finite_n_moment(pure_word(free8, 4), free8, n, cfg1) \
            == limit


def test_finite_n_unitary_word_correction(free8, cfg1):
    u = free8.S["u"]
    h = (Fraction(1),)
    word = [(u, h), (u.star(), h), (u, h), (u.star(), h)]
    for n in (2, 4, 8):
        got = moments.finite_n_moment(word, free8, n, cfg1)
        assert got == QPoly([2, Fraction(1, n)])


def test_finite_n_second_moment(free8, cfg1):
    for n in (1, 2, 4):
        assert moments.finite_n_moment(pure_word(free8, 2), free8, n, cfg1) \
            == QPoly.one()


def test_finite_n_moment_needs_only_half_the_word_in_copies(free8):
    # even blocks: a partition of 8 letters has at most 4 blocks, so
    # n = 8 needs 4 copies, not 8
    cfg = FockConfig(dim_H=1, max_degree=8)
    free4 = FreeHaarBackend(4)
    want = moments.finite_n_moment(pure_word(free8, 8), free8, 8, cfg)
    assert want == QPoly([14, 28, 28, 20, 10, 4, 1])
    assert moments.finite_n_moment(pure_word(free4, 8), free4, 8, cfg) == want
    free3 = FreeHaarBackend(3)
    with pytest.raises(WindowExceeded):
        moments.finite_n_moment(pure_word(free3, 8), free3, 8, cfg)


@pytest.mark.parametrize("m, n", [(0, 0), (3, -1)])
def test_finite_n_moment_refuses_n_below_one_on_short_words(free8, cfg1,
                                                            m, n):
    # checked before the empty and odd words' early returns
    with pytest.raises(ValueError, match="n must be positive"):
        moments.finite_n_moment(pure_word(free8, m), free8, n, cfg1)


# ---------------------------------------------------------------------
# entrywise crossing weights


def test_q_matrix_constant_reduces_to_scalar(free8, cfg1):
    word = pure_word(free8, 6)
    poly = moments.moment(word, free8, cfg1)
    for q0 in (Fraction(-1, 2), Fraction(0), Fraction(3, 4)):
        assert moments.q_matrix_moment(word, [0] * 6, [[q0]], free8, cfg1) \
            == poly.eval(q0)


def test_q_matrix_colored_pairs_must_match(free8, cfg1):
    Qm = [[Fraction(1, 2), Fraction(1, 3)],
          [Fraction(1, 3), Fraction(1, 4)]]
    word = pure_word(free8, 4)
    # alternating colors leave only the crossing pairing, weighted by the
    # off-diagonal entry
    assert moments.q_matrix_moment(word, [0, 1, 0, 1], Qm, free8, cfg1) \
        == Fraction(1, 3)
    assert moments.q_matrix_moment(word, [0, 0, 1, 1], Qm, free8, cfg1) \
        == Fraction(1)  # only {12}{34} is color-constant and non-crossing
    assert moments.q_matrix_moment(word, [0, 0, 0, 0], Qm, free8, cfg1) \
        == 2 + Fraction(1, 2)


def test_q_matrix_validation(free8, cfg1):
    word = pure_word(free8, 2)
    with pytest.raises(ValueError):
        moments.q_matrix_moment(word, [0, 0], [[2]], free8, cfg1)
    with pytest.raises(ValueError):
        moments.q_matrix_moment(word, [0, 1], [[0]], free8, cfg1)


def test_check_q_matrix_gives_exact_entries_and_names_the_fault():
    Q = moments.check_q_matrix([["1", "1/2"], [Fraction(1, 2), 1.0]],
                               [0, 1, 1])
    assert Q == [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
    assert [type(x) for row in Q for x in row] == [int, Fraction, Fraction,
                                                   int]
    for Qm, colors, message in [
            ([[0, 0], [0]], [], r"^Q\[1\]: has 1 entries, Q has 2 rows$"),
            ([[1, Fraction(1, 2)], [0, 1]], [],
             r"^Q\[0\]\[1\]: 1/2 breaks symmetry or lies outside"),
            ([["3/2"]], [], r"^Q\[0\]\[0\]: 3/2 breaks symmetry"),
            ([[0]], [0, 1], r"^word\[1\]\.color: 1 is outside the 1x1 Q "
                            r"matrix$")]:
        with pytest.raises(ValueError, match=message):
            moments.check_q_matrix(Qm, colors)


# ---------------------------------------------------------------------
# structured word reduction and pairings


def degree_one_word(backend, cfg, x, h=(Fraction(1),)):
    sigma = Partition12.make(1, [], [1])
    return moments.reduce(sigma, [x], [h], backend, cfg)


def test_reduce_coefficient_and_projection(free8, cfg1):
    sigma = Partition12.make(4, [(2, 4)], [1, 3])
    u = free8.S["u"]
    w = moments.reduce(sigma, [u, u, u.star(), u.star()],
                       [(Fraction(1),)] * 4, free8, cfg1)
    assert w.degree == 2
    assert w.f_sigma == Q  # the singleton 3 lies under the arc (2,4)
    crossing = Partition12.make(4, [(1, 3), (2, 4)], [])
    w2 = moments.reduce(crossing, [u, u, u.star(), u.star()],
                        [(Fraction(1),)] * 4, free8, cfg1)
    assert w2.f_sigma == Q  # one crossing


def test_wick_inner_product_matches_trace_pairing(free8, cfg1):
    u = free8.S["u"]
    words = [
        degree_one_word(free8, cfg1, free8.A_one),
        degree_one_word(free8, cfg1, u),
        degree_one_word(free8, cfg1, u.star()),
        moments.reduce(Partition12.make(2, [], [1, 2]),
                       [free8.A_one, free8.A_one],
                       [(Fraction(1),)] * 2, free8, cfg1),
        moments.reduce(Partition12.make(2, [], [1, 2]),
                       [u, u.star()], [(Fraction(1),)] * 2, free8, cfg1),
        moments.reduce(Partition12.make(4, [(1, 2)], [3, 4]),
                       [u, u.star(), u, u.star()],
                       [(Fraction(1),)] * 4, free8, cfg1),
        # a singleton under a pair arc: <x_(1), x_(1,3)(2)> = q
        moments.reduce(Partition12.make(3, [(1, 3)], [2]),
                       [free8.A_one] * 3, [(Fraction(1),)] * 3, free8, cfg1),
    ]
    for w1 in words:
        for w2 in words:
            assert moments.wick_inner_product(w1, w2) == \
                moments.trace_pairing(w1, w2), (w1.sigma, w2.sigma)


def test_wick_inner_product_on_perm_backend(cfg1):
    perm = PermGroupBackend(1, 4)
    u = perm.S["u01"]
    words = [
        degree_one_word(perm, cfg1, perm.A_one),
        degree_one_word(perm, cfg1, u),
        moments.reduce(Partition12.make(3, [(1, 3)], [2]),
                       [u, u, u], [(Fraction(1),)] * 3, perm, cfg1),
    ]
    for w1 in words:
        for w2 in words:
            assert moments.wick_inner_product(w1, w2) == \
                moments.trace_pairing(w1, w2)


def test_wick_trace_of_pure_degree_two(free8, cfg1):
    w = moments.reduce(Partition12.make(2, [], [1, 2]),
                       [free8.A_one, free8.A_one],
                       [(Fraction(1),)] * 2, free8, cfg1)
    # tau(x_sigma) pairs x_sigma with the empty word: no pairing of 2
    # singletons
    empty = moments.WickWord(Partition12.make(0), (), (), free8, cfg1)
    assert pairing_trace_pairing(w, empty).is_zero()
    # inner product with itself: the identity pairing gives 1, the swap q
    assert moments.wick_inner_product(w, w) == QPoly([1, 1])


def test_adjoint_is_involutive(free8, cfg1):
    u = free8.S["u"]
    w = moments.reduce(Partition12.make(3, [(1, 3)], [2]),
                       [u, u.star(), u], [(Fraction(1),)] * 3, free8, cfg1)
    back = w.adjoint().adjoint()
    assert back.sigma == w.sigma
    assert moments.trace_pairing(back, w) == moments.trace_pairing(w, w)


def test_a_wick_word_is_reduced_once(free8, cfg1, monkeypatch):
    """Five inner products of a directly built degree-2 word with itself
    compute its reduced coefficient once, and its relabeling by the swap
    once: the word keeps both."""
    calls = {"reduce": 0, "relabel": 0}

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(moments, "reduced_coefficient",
                        counted("reduce", moments.reduced_coefficient))
    monkeypatch.setattr(free8, "relabel", counted("relabel", free8.relabel))
    u = free8.S["u"]
    w = moments.WickWord(Partition12.make(2, [], [1, 2]), (u, u.star()),
                         ((Fraction(1),),) * 2, free8, cfg1)
    values = [moments.wick_inner_product(w, w) for _ in range(5)]
    assert calls == {"reduce": 1, "relabel": 1}
    assert values == [moments.trace_pairing(w, w)] * 5


def test_vectors_must_have_dim_H_coordinates(free8):
    """A letter's vector is read under its Fock configuration's dim_H,
    never padded with zeros."""
    word = [(free8.A_one, (Fraction(1),))] * 2
    with pytest.raises(ValueError, match="dim_H 2"):
        moments.moment(word, free8, FockConfig(dim_H=2))


def test_convolution_expand_term_count():
    sigma = Partition12.make(2, [], [1, 2])
    # 2 singletons against 2: r=0 gives 1, r=1 gives 4, r=2 gives 2
    assert len(convolution_joins(sigma, sigma)) == 7
