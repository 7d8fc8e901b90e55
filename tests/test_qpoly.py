"""Ring and evaluation properties of the exact polynomial type."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qgauss.qpoly import Q, QPoly

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.lists(fracs, max_size=6).map(lambda cs: QPoly(cs))


def test_basic_constructors():
    assert QPoly.zero().is_zero()
    assert QPoly.one() == 1
    assert Q.degree == 1
    assert Q.eval(Fraction(3, 4)) == Fraction(3, 4)


def test_eval_returns_a_fraction():
    # the zero polynomial answers without the Horner loop, still exactly
    for p in (QPoly.zero(), QPoly(), QPoly.one(), Q, QPoly([1, "1/2"])):
        assert type(p.eval(Fraction(1, 3))) is Fraction
        assert type(p.eval(2)) is Fraction
    assert QPoly.zero().eval(Fraction(1, 3)) == 0
    assert QPoly.zero() is QPoly.zero()
    with pytest.raises(TypeError):
        QPoly.zero().eval(0.5)


def test_trailing_zeros_stripped():
    assert QPoly([1, 2, 0, 0]) == QPoly([1, 2])
    assert QPoly([0, 0]).degree == -1  # the zero polynomial


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPoly.zero() == a
    assert a * QPoly.one() == a


@given(polys, polys, fracs)
def test_eval_is_homomorphism(a, b, x):
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)


@given(polys)
def test_sub_and_scale(a):
    assert (a - a).is_zero()
    assert a.scale(Fraction(2)) == a + a


def test_pow():
    p = QPoly([1, 1])  # 1 + q
    assert p ** 2 == QPoly([1, 2, 1])
    assert p ** 0 == QPoly.one()


@given(polys)
def test_string_roundtrip(a):
    assert QPoly.from_strings(a.to_strings()) == a


def test_eval_exact():
    # 2 + q at q = -3/4 stays an exact rational
    p = QPoly([2, 1])
    v = p.eval(Fraction(-3, 4))
    assert isinstance(v, Fraction) and v == Fraction(5, 4)


def test_mixed_arithmetic_with_ints():
    assert Q + 1 == QPoly([1, 1])
    assert Q * 2 == QPoly([0, 2])


def test_hashable():
    assert len({QPoly([1, 2]), QPoly([1, 2]), QPoly([2, 1])}) == 2


def test_bad_power():
    with pytest.raises(ValueError):
        Q ** -1
