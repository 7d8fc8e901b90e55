"""Finite tracial algebras, group algebras, and conditional expectations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgauss.algebra import (EchelonBasis, SubalgebraSpec,
                            conditional_expectation, cyclic_group,
                            direct_product, free_group, group_algebra,
                            is_positive_definite, rank, symmetric_group,
                            tensor_algebra, trivial_algebra)
from qgauss.copies import PermGroupBackend
from qgauss.errors import SizeGuard


@pytest.fixture(scope="module")
def s3():
    return group_algebra(symmetric_group(range(1, 4)))


def random_element(alg, draw_coeffs):
    return alg.element(dict(zip(sorted(alg.group.elements), draw_coeffs)))


def test_cyclic_group_algebra_basics():
    alg = group_algebra(cyclic_group(3))
    g = alg.basis_element(1)
    assert g * g * g == alg.one
    assert g.trace() == 0
    assert alg.one.trace() == 1
    assert g.star() == g * g  # inverse of a rotation


def test_symmetric_group_size_and_star(s3):
    assert s3.dim == 6
    for g in s3.group.elements:
        b = s3.basis_element(g)
        assert (b * b.star()).trace() == 1  # unitaries: tau(u u*) = 1
        assert b.star().star() == b


def test_trace_is_tracial(s3):
    x = s3.element({(0, 2, 1): Fraction(2), (1, 2, 0): Fraction(-1, 3)})
    y = s3.element({(1, 0, 2): Fraction(1, 2), (2, 1, 0): Fraction(4)})
    assert (x * y).trace() == (y * x).trace()


def assert_group_axioms(group):
    """Identity, inverses and closure on every element; associativity on
    every triple of a group of order <= 27, else on 2,000 seeded ones."""
    els = list(group.elements)
    e = group.identity
    assert e in els and len(set(els)) == len(els) == group.order
    for g in els:
        assert group.mul(e, g) == g == group.mul(g, e)
        assert group.inv(g) in els
        assert group.mul(g, group.inv(g)) == e == group.mul(group.inv(g), g)
    for a in els:
        for b in els:
            assert group.mul(a, b) in els
    if len(els) <= 27:
        triples = [(a, b, c) for a in els for b in els for c in els]
    else:
        rng = random.Random(0)
        triples = [rng.choices(els, k=3) for _ in range(2000)]
    for a, b, c in triples:
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


@pytest.mark.parametrize("group", [
    *(cyclic_group(n) for n in range(1, 7)),
    symmetric_group(range(3)),
    symmetric_group(range(4)),
    direct_product(cyclic_group(2), symmetric_group(range(3))),
    PermGroupBackend(1, 3).D.group,
], ids=[*(f"Z{n}" for n in range(1, 7)), "S3", "S4", "Z2xS3", "perm3"])
def test_built_in_groups_satisfy_the_axioms(group):
    # no group is validated when its algebra is built: each comes from
    # these constructors, and is a group by construction
    assert_group_axioms(group)


def test_tensor_algebra_trace_multiplicative():
    a = group_algebra(cyclic_group(2))
    b = group_algebra(cyclic_group(3))
    t = tensor_algebra(a, b)
    assert t.dim == 6
    assert t.one.trace() == 1
    # (g ox 1)(1 ox h) = g ox h and has trace 0
    g1 = t.basis_element((1, 0))
    h1 = t.basis_element((0, 1))
    gh = t.basis_element((1, 1))
    assert g1 * h1 == gh
    assert gh.trace() == 0
    assert g1 * h1 == h1 * g1


def test_trivial_algebra():
    triv = trivial_algebra()
    assert triv.dim == 1
    assert triv.one.trace() == 1


# ---------------------------------------------------------------------
# the free group


def _fully_reduced(word) -> tuple:
    """Cancel adjacent (l, e), (l, -e) pairs until none is left."""
    out = []
    for l, e in word:
        if out and out[-1] == (l, -e):
            out.pop()
        else:
            out.append((l, e))
    return tuple(out)


# words over three letters, reduced; raw words cancel often
free_words = st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
                      max_size=10).map(_fully_reduced)


@settings(max_examples=300, deadline=None)
@given(v=free_words, w=free_words)
def test_free_group_mul_is_reduced_concatenation(v, w):
    assert free_group().mul(v, w) == _fully_reduced(v + w)


@settings(max_examples=200, deadline=None)
@given(u=free_words, v=free_words, w=free_words)
def test_free_group_is_associative_with_inverses(u, v, w):
    F = free_group()
    assert F.mul(F.mul(u, v), w) == F.mul(u, F.mul(v, w))
    assert F.mul(u, F.inv(u)) == F.identity == F.mul(F.inv(u), u)
    assert F.mul(F.identity, u) == u == F.mul(u, F.identity)


def test_free_group_elements_cannot_be_listed():
    F = free_group()
    assert F.order == float("inf")
    with pytest.raises(SizeGuard):
        iter(F.elements)
    alg = group_algebra(F)
    with pytest.raises(SizeGuard):
        sorted(alg.group.elements)
    u = alg.basis_element((("a", 1),))
    assert (u * u.star()) == alg.one and u.trace() == 0


coeff_lists = st.lists(st.fractions(min_value=-6, max_value=6,
                                    max_denominator=4),
                       min_size=6, max_size=6)


@settings(max_examples=25, deadline=None)
@given(coeff_lists)
def test_conditional_expectation_is_projection(cs):
    alg = group_algebra(symmetric_group(range(1, 4)))
    # the copy of S2 fixing the last point
    sub_idx = [g for g in alg.group.elements if g[2] == 2]
    sub = SubalgebraSpec(alg, frozenset(sub_idx))
    x = random_element(alg, cs)
    e = conditional_expectation(x, sub)
    assert sub.contains(e)
    assert conditional_expectation(e, sub) == e
    assert e.trace() == x.trace()


@settings(max_examples=25, deadline=None)
@given(coeff_lists, st.fractions(min_value=-4, max_value=4, max_denominator=3))
def test_conditional_expectation_module_property(cs, c):
    alg = group_algebra(symmetric_group(range(1, 4)))
    sub_idx = [g for g in alg.group.elements if g[2] == 2]
    sub = SubalgebraSpec(alg, frozenset(sub_idx))
    x = random_element(alg, cs)
    for g in sub_idx:
        a = alg.basis_element(g).scale(c)
        lhs = conditional_expectation(a * x, sub)
        assert lhs == a * conditional_expectation(x, sub)
        rhs = conditional_expectation(x * a, sub)
        assert rhs == conditional_expectation(x, sub) * a


def sparse_element(data, alg, max_size=6):
    return alg.element(data.draw(st.dictionaries(
        st.sampled_from(sorted(alg.group.elements)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        max_size=max_size)))


def _s4_subgroups():
    s4 = group_algebra(symmetric_group(range(4)))
    els = list(s4.group.elements)
    klein = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    even = {g for g in els
            if sum(g[i] > g[j] for i in range(4) for j in range(i)) % 2 == 0}
    return s4, [{g for g in els if g[3] == 3}, klein, even]


def _z2z3_subgroups():
    alg = tensor_algebra(group_algebra(cyclic_group(2)),
                         group_algebra(cyclic_group(3)))
    els = list(alg.group.elements)
    return alg, [{g for g in els if g[0] == 0}, {g for g in els if g[1] == 0},
                 {alg.unit}]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_projection_is_tau_orthogonal_onto_subgroup(data):
    # keys in the subgroup and x - e tau-orthogonal to every u_g there:
    # these two properties fix the tau-orthogonal projection
    for alg, subgroups in (_s4_subgroups(), _z2z3_subgroups()):
        x = sparse_element(data, alg, 8)
        for idx in subgroups:
            e = conditional_expectation(x, SubalgebraSpec(alg, frozenset(idx)))
            assert set(e.coeffs) <= idx
            rest = x + e.scale(-1)
            for g in idx:
                assert (alg.basis_element(g).star() * rest).trace() == 0


def test_conditional_expectation_onto_scalars(s3):
    sub = SubalgebraSpec(s3, frozenset({s3.unit}))
    x = s3.element({(0, 1, 2): Fraction(3), (1, 0, 2): Fraction(5)})
    e = conditional_expectation(x, sub)
    assert e == s3.one.scale(x.trace())


def test_conditional_expectation_identity_on_whole_algebra(s3):
    sub = SubalgebraSpec(s3, frozenset(s3.group.elements))
    x = s3.basis_element((2, 0, 1))
    assert conditional_expectation(x, sub) == x


def test_subalgebra_spec_requires_unit_and_closure(s3):
    with pytest.raises(ValueError):
        SubalgebraSpec(s3, frozenset({(0, 2, 1)}))  # no unit
    with pytest.raises(ValueError):
        # unit plus a 3-cycle without its inverse: not *-closed
        SubalgebraSpec(s3, frozenset({s3.unit, (1, 2, 0)}))


# ---------------------------------------------------------------------
# the exact elimination kernel


#: Matrices whose elimination exchanges rows: at the first column, and
#: after one elimination.
ROW_EXCHANGE = ([[0, 1], [1, 0]],
                [[0, 2, 1], [1, 1, 0], [3, 0, 1]],
                [[1, 1, 0], [1, 1, 1], [0, 1, 1]])


def test_rank_exact():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0]]) == 0
    assert [rank(mat) for mat in ROW_EXCHANGE] == [2, 3, 3]


def test_positive_definite_test():
    assert is_positive_definite([[2, 1], [1, 2]])
    # a row exchange would find the pivots 1, 1 here
    assert not is_positive_definite([[0, 1], [1, 0]])
    assert not is_positive_definite([[1, 1], [1, 1]])  # singular
    assert not is_positive_definite([[1, 2], [2, 1]])  # second pivot -3
    for mat in ROW_EXCHANGE:
        assert not is_positive_definite(mat)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_echelon_basis_matches_rank(data):
    alg = group_algebra(symmetric_group(range(3)))
    keys = sorted(alg.group.elements)
    # few distinct entries, so that dependent elements are common
    xs = data.draw(st.lists(st.dictionaries(
        st.sampled_from(keys), st.sampled_from([-2, -1, Fraction(1, 2), 1]),
        max_size=4), max_size=8))
    basis = EchelonBasis()
    for i, coeffs in enumerate(xs):
        rows = [[Fraction(c.get(g, 0)) for g in keys] for c in xs[:i + 1]]
        grew = basis.add(alg.element(coeffs))
        assert grew == (rank(rows) > rank(rows[:-1]))
        assert len(basis.vectors) == rank(rows)
    pivots = basis._pivots
    for i, v in enumerate(basis.vectors):
        # coefficient 1 at its pivot, and none of an earlier pivot
        assert v.coeffs[pivots[i]] == 1
        assert not any(p in v.coeffs for p in pivots[:i])
        assert not basis.add(v)
