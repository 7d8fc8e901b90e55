"""Degree-graded semigroup action and the rotation deformation on
structured words."""

from fractions import Fraction

import pytest

from qgauss import moments, semigroup
from qgauss.algebra import cyclic_group, group_algebra
from qgauss.copies import FreeHaarBackend, PermGroupBackend, TensorBackend
from qgauss.partitions import Partition12
from qgauss.qfock import FockConfig
from qgauss.qpoly import QPoly


@pytest.fixture(scope="module")
def free4():
    return FreeHaarBackend(4)


@pytest.fixture(scope="module")
def cfg1():
    return FockConfig(dim_H=1, max_degree=4)


def degree_s_word(backend, cfg, s, x=None):
    x = backend.S["u"] if x is None else x
    sigma = Partition12.make(s, [], range(1, s + 1))
    return moments.reduce(sigma, [x] * s, [(Fraction(1),)] * s, backend, cfg)


def test_span_element_grading(free4, cfg1):
    w1 = degree_s_word(free4, cfg1, 1)
    w2 = degree_s_word(free4, cfg1, 2)
    x = semigroup.WickSpanElement.from_word(w1) + \
        semigroup.WickSpanElement.from_word(w2, Fraction(3))
    assert sorted(x.degrees()) == [1, 2]


def test_Tt_scales_each_degree(free4, cfg1):
    w2 = degree_s_word(free4, cfg1, 2)
    x = semigroup.WickSpanElement.from_word(w2)
    c = Fraction(1, 3)
    y = semigroup.apply_Tt(x, c)
    (_, coeff, _), = y.terms()
    assert coeff == QPoly.constant(Fraction(1, 9))


def test_Tt_is_a_semigroup(free4, cfg1):
    x = semigroup.WickSpanElement.from_word(degree_s_word(free4, cfg1, 1)) + \
        semigroup.WickSpanElement.from_word(degree_s_word(free4, cfg1, 3))
    c1, c2 = Fraction(1, 2), Fraction(2, 3)
    once = semigroup.apply_Tt(x, c1 * c2)
    twice = semigroup.apply_Tt(semigroup.apply_Tt(x, c1), c2)
    assert sorted(str(t) for t in once.terms()) == \
        sorted(str(t) for t in twice.terms())


def test_Tt_identity_and_range(free4, cfg1):
    x = semigroup.WickSpanElement.from_word(degree_s_word(free4, cfg1, 2))
    y = semigroup.apply_Tt(x, Fraction(1))
    assert sorted(str(t) for t in y.terms()) == sorted(str(t) for t in x.terms())
    with pytest.raises(ValueError):
        semigroup.apply_Tt(x, Fraction(3, 2))
    with pytest.raises(ValueError):
        semigroup.apply_Tt(x, Fraction(0))


def test_number_operator_eigenvalues(free4, cfg1):
    w3 = degree_s_word(free4, cfg1, 3)
    x = semigroup.WickSpanElement.from_word(w3)
    (_, coeff, _), = semigroup.number_operator(x).terms()
    assert coeff == QPoly.constant(3)


def test_span_inner_is_graded(free4, cfg1):
    # words of different degree are orthogonal
    w1 = degree_s_word(free4, cfg1, 1)
    w2 = degree_s_word(free4, cfg1, 2)
    x1 = semigroup.WickSpanElement.from_word(w1)
    x2 = semigroup.WickSpanElement.from_word(w2)
    assert semigroup.span_inner(x1, x2).is_zero()
    assert not semigroup.span_inner(x1, x1).is_zero()


def test_Tt_selfadjoint_on_span(free4, cfg1):
    ws = [degree_s_word(free4, cfg1, s) for s in (1, 2)]
    xs = [semigroup.WickSpanElement.from_word(w) for w in ws]
    c = Fraction(2, 5)
    for x in xs:
        for y in xs:
            assert semigroup.span_inner(semigroup.apply_Tt(x, c), y) == \
                semigroup.span_inner(x, semigroup.apply_Tt(y, c))


@pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 5), Fraction(1, 2)])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_rotation_eigenfactor(free4, cfg1, s, c):
    w = degree_s_word(free4, cfg1, s)
    tests = [degree_s_word(free4, cfg1, s)]
    # guard against a vacuous certificate: the test pairing must be nonzero
    assert not moments.trace_pairing(w, tests[0]).is_zero()
    rep = semigroup.alpha_theta_projected_moment(w, c, tests)
    assert rep["certified"], rep["witness"]
    assert rep["factor"] == c ** s
    assert rep["degree"] == s
    assert rep["pairings_checked"] == len(tests)


def _words_with_inner_pairs():
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    pair_then_singleton = Partition12.make(3, [(1, 2)], [3])
    singleton_then_pair = Partition12.make(3, [(2, 3)], [1])
    return [(FreeHaarBackend(4), pair_then_singleton, ["u", "u*", "u"]),
            (PermGroupBackend(1, 4), singleton_then_pair, ["u01"] * 3),
            (TensorBackend(z2, z3, 4), singleton_then_pair, ["g", "1", "1"])]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 5), Fraction(1, 2)])
@pytest.mark.parametrize("case", _words_with_inner_pairs(),
                         ids=["free_haar", "perm_group", "tensor"])
def test_rotation_certifies_words_with_a_pair_inside(cfg1, case, c):
    # a pair inside the rotated word keeps <h, h> at every angle, c = 1
    # (the identity) included
    backend, sigma, names = case
    w = moments.reduce(sigma, [backend.S[n] for n in names],
                       [(Fraction(1),)] * 3, backend, cfg1)
    assert moments.trace_pairing(w, w) == QPoly.one()
    rep = semigroup.alpha_theta_projected_moment(w, c, [w])
    assert rep["certified"], rep["witness"]
    assert rep["factor"] == c


def test_rotation_refuses_a_test_word_of_another_configuration(free4, cfg1):
    w = degree_s_word(free4, cfg1, 1)
    # before, y's vectors were read under w's inner product
    y = degree_s_word(free4, FockConfig(1, ((Fraction(2),),), 4), 1)
    with pytest.raises(ValueError, match="one Fock configuration"):
        semigroup.alpha_theta_projected_moment(w, Fraction(1, 2), [y])


def test_pairings_ignore_the_truncation_depth(free4):
    """Words whose configurations differ only in max_degree, which no
    pairing reads, pair as under one configuration; a different inner
    product is still refused."""
    sigma = Partition12.make(3, [(1, 2)], [3])
    u = free4.S["u"]

    def word(cfg):
        return moments.reduce(sigma, [u, u.star(), u], [(Fraction(1),)] * 3,
                              free4, cfg)

    w, y = word(FockConfig(1, max_degree=4)), word(FockConfig(1, max_degree=5))
    other = word(FockConfig(1, ((Fraction(2),),), 5))
    c = Fraction(1, 2)
    for pairing in (moments.trace_pairing, moments.wick_inner_product):
        assert pairing(w, y) == pairing(y, w) == pairing(w, w) != QPoly.zero()
        with pytest.raises(ValueError, match="Fock configuration"):
            pairing(w, other)
    assert semigroup.alpha_theta_projected_moment(w, c, [y])["certified"]
    with pytest.raises(ValueError, match="Fock configuration"):
        semigroup.alpha_theta_projected_moment(w, c, [other])


def test_rotation_rejects_bad_angle(free4, cfg1):
    w = degree_s_word(free4, cfg1, 1)
    with pytest.raises(ValueError):
        semigroup.alpha_theta_projected_moment(w, Fraction(2), [w])


def test_doubled_config_blocks(cfg1):
    c = Fraction(3, 5)
    cfg2 = semigroup.doubled_config(cfg1, c)
    assert cfg2.dim_H == 2
    assert cfg2.inner[0][0] == 1
    assert cfg2.inner[1][1] == 1 - c * c
    assert cfg2.inner[0][1] == 0
