"""Deformed Fock space: inner products, field operators, vacuum moments.

The vacuum moments computed with ladder operators are cross-checked
against the independent pairing-sum oracle

    sum over pair partitions of q^(crossings) * prod <h_left, h_right>.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from qgauss.partitions import crossing_number
from qgauss.qfock import (FockConfig, FockVector, apply_field, gram_psd_check,
                          q_inner, vacuum_moment)
from qgauss.qpoly import QPoly
from qgauss.errors import TruncationExceeded

from pairing_oracle import enumerate_pair_partitions


def pairing_sum_oracle(vecs, cfg):
    total = QPoly.zero()
    for sigma in enumerate_pair_partitions(len(vecs)):
        prod_ip = Fraction(1)
        for l, r in sigma.sorted_pairs():
            prod_ip *= cfg.ip(vecs[l - 1], vecs[r - 1])
        if prod_ip:
            total = total + QPoly.monomial(crossing_number(sigma)).scale(prod_ip)
    return total


@pytest.fixture
def cfg2():
    return FockConfig(dim_H=2, max_degree=6)


def test_custom_inner_must_be_positive_definite():
    with pytest.raises(ValueError):
        FockConfig(dim_H=2, inner=[[1, 2], [2, 1]])
    FockConfig(dim_H=2, inner=[["1", "1/2"], ["1/2", "1"]])  # fine


def test_q_inner_degree_mismatch_is_zero(cfg2):
    # index words of different lengths are orthogonal
    assert q_inner((0,), (0, 0), cfg2).is_zero()


def test_q_inner_two_letters(cfg2):
    # <e0 e1, e0 e1> = 1, plus q from the swap when letters repeat
    assert q_inner((0, 1), (0, 1), cfg2) == QPoly.one()
    assert q_inner((0, 0), (0, 0), cfg2) == QPoly([1, 1])
    assert q_inner((0, 1), (1, 0), cfg2) == QPoly([0, 1])


def test_q_inner_matches_q_factorial(cfg2):
    # <e0^k, e0^k> = [k]_q! = prod (1 + q + ... + q^(j-1))
    expected = QPoly.one()
    for j in range(1, 5):
        expected = expected * QPoly([1] * j)
        assert q_inner((0,) * j, (0,) * j, cfg2) == expected


def test_field_operator_on_vacuum(cfg2):
    e0 = cfg2.basis_vector(0)
    v = apply_field(e0, FockVector.vacuum(), cfg2)
    assert v.coefficient((0,)) == QPoly.one()
    v2 = apply_field(e0, v, cfg2)
    # creation part e0 e0 plus annihilation back to vacuum
    assert v2.coefficient((0, 0)) == QPoly.one()
    assert v2.coefficient(()) == QPoly.one()


def test_field_truncation_guard():
    cfg = FockConfig(dim_H=1, max_degree=1)
    e0 = cfg.basis_vector(0)
    v = apply_field(e0, FockVector.vacuum(), cfg)
    with pytest.raises(TruncationExceeded):
        apply_field(e0, v, cfg)


def test_vacuum_moment_known_values():
    cfg = FockConfig(dim_H=1, max_degree=6)
    e0 = cfg.basis_vector(0)
    assert vacuum_moment([e0] * 2, cfg) == QPoly.one()
    assert vacuum_moment([e0] * 4, cfg) == QPoly([2, 1])
    assert vacuum_moment([e0] * 6, cfg) == QPoly([5, 6, 3, 1])
    assert vacuum_moment([e0] * 3, cfg).is_zero()


def test_vacuum_moment_sums_to_double_factorial_at_q_one():
    cfg = FockConfig(dim_H=1, max_degree=8)
    e0 = cfg.basis_vector(0)
    for k in range(1, 5):
        poly = vacuum_moment([e0] * (2 * k), cfg)
        assert poly.eval(Fraction(1)) == math.prod(range(2 * k - 1, 0, -2))
        # q = 0 counts non-crossing pairings
        assert poly.eval(Fraction(0)) == math.comb(2 * k, k) // (k + 1)


def test_vacuum_moment_against_pairing_oracle(cfg2):
    basis = [cfg2.basis_vector(b) for b in range(2)]
    for m in (2, 4):
        for vecs in product(basis, repeat=m):
            assert vacuum_moment(list(vecs), cfg2) == \
                pairing_sum_oracle(list(vecs), cfg2)


def test_vacuum_moment_with_nontrivial_inner():
    inner = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(2)]]
    cfg = FockConfig(dim_H=2, inner=inner, max_degree=4)
    basis = [cfg.basis_vector(b) for b in range(2)]
    for vecs in product(basis, repeat=4):
        assert vacuum_moment(list(vecs), cfg) == pairing_sum_oracle(list(vecs), cfg)


# A non-orthonormal H whose Gram entries and vector coordinates have
# different denominators, so each field operator scales by its own common
# denominator.
MIXED = FockConfig(dim_H=2, inner=[[2, Fraction(1, 3)],
                                   [Fraction(1, 3), Fraction(3, 5)]],
                   max_degree=3)
MIXED_VECTORS = [(Fraction(2, 7), Fraction(-1, 2)), (Fraction(-1, 2), 3),
                 (Fraction(1, 3), 0)]


def test_vacuum_moment_with_mixed_denominators_against_pairing_oracle():
    fractional = 0
    for m in range(7):
        for vecs in product(MIXED_VECTORS, repeat=m):
            poly = vacuum_moment(list(vecs), MIXED)
            assert poly == pairing_sum_oracle(list(vecs), MIXED), vecs
            assert all(type(c) is Fraction for c in poly.coeffs)
            fractional += any(c.denominator > 1 for c in poly.coeffs)
    assert fractional > 700  # of the 820 even words


def test_field_operator_keeps_one_common_denominator():
    h, g = MIXED_VECTORS[0], MIXED_VECTORS[2]
    v = apply_field(g, apply_field(h, FockVector.vacuum(), MIXED), MIXED)
    assert all(type(c) is int for cs in v.terms.values() for c in cs.values())
    # s(g) s(h) Omega = g x h + <g, h> Omega, and g x h has g_0 h_0 =
    # 1/3 * 2/7 on e0 x e0
    assert v.coefficient((0, 0)) == QPoly.constant(Fraction(2, 21))
    assert v.coefficient(()) == QPoly.constant(MIXED.ip(g, h))
    assert all(type(c) is Fraction for w in v.terms
               for c in v.coefficient(w).coeffs)


def test_cancelled_terms_are_not_stored(cfg2):
    # <s(a)s(b)s(c)s(d) Omega, Omega> = <a,b><c,d> + q<a,c><b,d> +
    # <a,d><b,c> = -1 + 0 + 1: the two vacuum terms cancel
    a, b, c, d = (1, 0), (1, 1), (0, 1), (1, -1)
    v = FockVector.vacuum()
    for h in (d, c, b, a):
        v = apply_field(h, v, cfg2)
    assert () not in v.terms and v.coefficient(()).is_zero()
    assert all(x for cs in v.terms.values() for x in cs.values())


def test_q_inner_on_a_non_orthonormal_basis():
    # <e0 e1, e1 e0>_q = <e0,e1><e1,e0> + q <e0,e0><e1,e1>
    assert q_inner((0, 1), (1, 0), MIXED) == \
        QPoly([Fraction(1, 9), Fraction(6, 5)])
    assert q_inner((1,), (1,), MIXED) == QPoly.constant(Fraction(3, 5))


def test_gram_psd_inside_the_interval():
    cfg = FockConfig(dim_H=2, max_degree=3)
    for q0 in (Fraction(-1, 2), Fraction(0), Fraction(1, 2)):
        ok, min_eig = gram_psd_check(3, cfg, q0)
        assert ok, f"q={q0}: min eigenvalue {min_eig}"


def test_gram_degenerates_at_the_boundary():
    # at q = 1 words that differ by a permutation collide, so the Gram
    # matrix of degree-2 words is singular but still PSD
    cfg = FockConfig(dim_H=2, max_degree=2)
    ok, min_eig = gram_psd_check(2, cfg, Fraction(1))
    assert ok and abs(min_eig) < 1e-9


def test_ip_memo_leaves_equality_and_hash_alone():
    a, b = FockConfig(dim_H=2), FockConfig(dim_H=2)
    a.ip((1, 0), (1, 1))
    a.ip([Fraction(1, 2), 0], (0, 1))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != FockConfig(dim_H=2, max_degree=3)


def test_ip_is_exact_and_shared_by_lists_and_tuples():
    inner = [[Fraction(2), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(1)]]
    cfg = FockConfig(dim_H=2, inner=inner)
    u, v = (Fraction(1, 2), Fraction(3)), (Fraction(-2), Fraction(1, 5))
    # u^T G v, expanded by hand
    expected = (Fraction(1, 2) * (2 * -2 + Fraction(-1, 3) * Fraction(1, 5))
                + 3 * (Fraction(-1, 3) * -2 + Fraction(1, 5)))
    for _ in range(2):  # a fresh pair, then the memo
        assert cfg.ip(u, v) == expected
        assert cfg.ip(list(u), list(v)) == expected
        assert cfg.ip(list(u), v) == cfg.ip(u, list(v)) == expected
    # float entries enter by their exact binary value
    assert cfg.ip((0.1, 0), (1, 0)) == 2 * Fraction(0.1) != Fraction(2, 10)
    assert cfg.ip([0.1, 0], [1, 0]) == 2 * Fraction(0.1)
    assert cfg.ip((Fraction(1, 10), 0), (1, 0)) == Fraction(2, 10)


def test_ip_refuses_vectors_of_the_wrong_length():
    """A vector shorter than dim_H is not padded with zeros, and a longer
    one raises no bare IndexError: both name the lengths and dim_H."""
    cfg = FockConfig(dim_H=2)
    for u, v in (((1,), (1, 5)), ((1, 5), (1,)), ((1, 0, 2), (1, 0))):
        with pytest.raises(ValueError, match=f"{len(u)} and {len(v)} "
                           "coordinates under dim_H 2"):
            cfg.ip(u, v)
    assert cfg.ip((1, 0), (1, 5)) == 1
