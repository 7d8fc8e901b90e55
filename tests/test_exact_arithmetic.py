"""Exact rationals held as ints where integral (algebra.exact): the scans
and the Wick fast path against the pairing oracle and the Fock space on
non-integral and negative values, where the int form gives way to
Fractions, AlgebraElement.inner against the trace of the product, and
the types that the public functions and the scenario loader return."""

import functools
import random
from fractions import Fraction

import pytest

from pairing_oracle import (pairing_moment, pairing_q_matrix_moment,
                            pairing_trace_pairing)
from qgauss import moments, qfock, scenario
from qgauss.algebra import (EchelonBasis, FiniteTracialAlgebra,
                            conditional_expectation, cyclic_group, exact,
                            free_group, group_algebra, symmetric_group,
                            tensor_algebra)
from qgauss.copies import FreeHaarBackend, PermGroupBackend, TensorBackend
from qgauss.dimensions import span_Dk
from qgauss.partitions import Partition12, enumerate_pair_singleton
from qgauss.qfock import FockConfig

#: dim_H = 2, not orthonormal: <e0, e1> = 1/3.
CFG = FockConfig(2, [[1, "1/3"], ["1/3", 1]], 6)
E0, E1 = CFG.basis_vector(0), CFG.basis_vector(1)
#: <NEG, e1> = 1/3 - 2 = -5/3 and <NEG, NEG> = 1 - 4/3 + 4 = 11/3.
NEG = (Fraction(1), Fraction(-2))
HALF = (Fraction(1, 2), 0)
VECTORS = [E0, E1, NEG, HALF]
#: A rational Q-matrix with a negative entry.
QM = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), 1]]


def _backends():
    """name -> (backend, alphabet), each alphabet with an element of
    rational coefficients and one with a negative coefficient."""
    free = FreeHaarBackend(4)
    u = free.S["u"]
    perm = PermGroupBackend(1, 4)
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    tensor = TensorBackend(z2, z3, 4)
    g = tensor.S["g"]
    return {
        "free_haar": (free, [u, u.star(),
                             u.scale(Fraction(1, 2)) + u.star().scale(Fraction(1, 3)),
                             free.A_one.scale(-1) + u.scale(Fraction(2, 3))]),
        "perm_group": (perm, [perm.S["u01"],
                              perm.A_one.scale(Fraction(1, 2))
                              + perm.S["u01"].scale(Fraction(1, 3)),
                              perm.S["u01"].scale(-2)]),
        "tensor": (tensor, [g, g.star(),
                            g.scale(Fraction(1, 2)) + g.star().scale(Fraction(1, 3)),
                            tensor.A_one.scale(Fraction(-3, 4)) + g]),
    }


BACKENDS = _backends()


def _words(alphabet, lengths, count, seed):
    rng = random.Random(seed)
    return [[(rng.choice(alphabet), rng.choice(VECTORS)) for _ in range(m)]
            for m in lengths for _ in range(count)]


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_moment_matches_pairing_oracle_on_rational_and_negative_values(name):
    backend, alphabet = BACKENDS[name]
    for word in _words(alphabet, (2, 4, 6), 12, 1):
        assert moments.moment(word, backend, CFG) == \
            pairing_moment(word, backend, CFG), word


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_q_matrix_moment_matches_pairing_oracle(name):
    backend, alphabet = BACKENDS[name]
    rng = random.Random(2)
    for word in _words(alphabet, (2, 4, 6), 12, 2):
        colors = [rng.randrange(2) for _ in word]
        value = moments.q_matrix_moment(word, colors, QM, backend, CFG)
        assert value == pairing_q_matrix_moment(word, colors, QM, backend,
                                                CFG), (word, colors)
        assert type(value) is Fraction


@functools.lru_cache(maxsize=None)
def _gram(name):
    """Seeded Wick words of 1 to 4 letters, each pair of them with its
    join-oracle value.  Eight of the words have three singletons, so that
    the Wick sum runs over all of S_3 with its 3-cycles."""
    backend, alphabet = BACKENDS[name]
    rng = random.Random(3)
    three = Partition12.make(3, [], [1, 2, 3])
    words = []
    for i in range(32):
        m = rng.randint(1, 4) if i < 24 else 3
        sigma = rng.choice(enumerate_pair_singleton(m)) if i < 24 else three
        words.append(moments.reduce(
            sigma, [rng.choice(alphabet) for _ in range(m)],
            [rng.choice(VECTORS) for _ in range(m)], backend, CFG))
    return [(w1, w2, pairing_trace_pairing(w1, w2))
            for w1 in words for w2 in words]


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_trace_pairing_matches_pairing_oracle(name):
    for w1, w2, expected in _gram(name):
        assert moments.trace_pairing(w1, w2) == expected, (w1.sigma, w2.sigma)


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_wick_inner_product_matches_pairing_oracle(name):
    """The Wick fast path on a dim_H = 2 Gram with off-diagonal 1/3,
    negative and rational inner products, and multi-term A-elements that
    are not self-adjoint."""
    gram = _gram(name)
    assert sum(1 for *_, v in gram if not v.is_zero()) >= 100
    assert any(c < 0 for *_, v in gram for c in v.coeffs)
    assert any(c.denominator > 1 for *_, v in gram for c in v.coeffs)
    for w1, w2, expected in gram:
        assert moments.wick_inner_product(w1, w2) == expected, \
            (w1.sigma, w1.hs, w2.sigma, w2.hs)


def _free_words(rng, size):
    F = free_group()
    letters = [((1, 1),), ((1, -1),), ((2, 1),), ((2, -1),)]
    out = set()
    while len(out) < size:
        g = ()
        for _ in range(rng.randint(0, 3)):
            g = F.mul(g, rng.choice(letters))
        out.add(g)
    return sorted(out)


@pytest.mark.parametrize("name", ["S4", "Z2xZ3", "free"])
def test_inner_is_the_trace_of_the_product(name):
    """a.inner(b) = tau(a* b), on random elements with overlapping
    supports and signed rational coefficients."""
    rng = random.Random(6)
    if name == "free":
        algebra = FiniteTracialAlgebra(free_group(), "L(F2)")
        keys = _free_words(rng, 12)
    else:
        algebra = group_algebra(symmetric_group(range(4))) if name == "S4" \
            else tensor_algebra(group_algebra(cyclic_group(2)),
                                group_algebra(cyclic_group(3)))
        keys = list(algebra.group.elements)
    for _ in range(60):
        a, b = (algebra.element({
            g: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for g in rng.sample(keys, rng.randint(0, 5))}) for _ in range(2))
        assert a.inner(b) == (a.star() * b).trace() == b.inner(a)


def test_pure_words_match_the_fock_space():
    """moment, and q_matrix_moment at a constant rational Q, against the
    vacuum moment of the truncated q-Fock space."""
    backend = FreeHaarBackend(3)
    rng = random.Random(4)
    for m in (2, 4, 6):
        for _ in range(6):
            hs = [rng.choice(VECTORS) for _ in range(m)]
            word = [(backend.A_one, h) for h in hs]
            fock = qfock.vacuum_moment(hs, CFG)
            assert moments.moment(word, backend, CFG) == fock
            q0 = Fraction(-2, 5)
            assert moments.q_matrix_moment(word, [0] * m, [[q0]], backend,
                                           CFG) == fock.eval(q0)


def test_echelon_pivot_is_divided_exactly():
    """A pivot coefficient of 3 scales the stored vector by Fraction(1, 3);
    float division 1 / 3 would leave an inexact coefficient."""
    G = group_algebra(cyclic_group(3))
    basis = EchelonBasis()
    basis.add(G.element({0: 3, 1: 1}))
    v, = basis.vectors
    assert v.coeffs == {0: 1, 1: Fraction(1, 3)}
    assert type(v.coeffs[1]) is Fraction


def test_exact_keeps_integral_values_as_ints():
    assert [type(exact(x)) for x in (3, Fraction(6, 2), "4", Fraction(1, 3))] \
        == [int, int, int, Fraction]
    assert exact(Fraction(-1, 3)) == Fraction(-1, 3)


def test_scenario_rationals_are_ints_when_integral():
    values = [scenario._frac(x, "x")
              for x in ("2", "-1", "4/2", "1/3", " 3", 2, 2.0, "\u0661")]
    assert values == [2, -1, 2, Fraction(1, 3), 3, 2, 2, 1]
    assert [type(v) for v in values] == [int] * 3 + [Fraction] + [int] * 4
    # a JSON number must be an integer: 0.5 as a float is refused, as are
    # booleans, which Fraction would read as 0 and 1
    for bad in ("\u00b2", 0.5, True, False):
        with pytest.raises(scenario.ScenarioError, match="x: not a rational"):
            scenario._frac(bad, "x")


def _exact_coeffs(x):
    return all(type(c) in (int, Fraction) for c in x.coeffs.values())


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_no_float_after_a_scan_a_span_or_a_projection(name, monkeypatch):
    backend, alphabet = BACKENDS[name]
    closed = []
    close = type(backend).close

    def recording(self, *args):
        closed.append(close(self, *args))
        return closed[-1]

    monkeypatch.setattr(type(backend), "close", recording)
    for word in _words(alphabet, (4, 6), 4, 5):
        moments.moment(word, backend, CFG)
    assert closed and all(_exact_coeffs(R) for R in closed)

    report = span_Dk(backend, 1, 3, gens=alphabet)
    assert report.vectors and all(_exact_coeffs(v) for v in report.vectors)

    x = backend.pi(1, alphabet[2]) * backend.pi(2, alphabet[-1])
    assert _exact_coeffs(backend.expect((1,), x))
    if name != "free_haar":
        sub = backend.subalgebra_spec((1,))
        assert _exact_coeffs(conditional_expectation(x, sub))


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_public_results_keep_fraction_coefficients(name):
    backend, alphabet = BACKENDS[name]
    word = [(alphabet[0], E0), (alphabet[1], E1), (alphabet[0], E0),
            (alphabet[1], E1)]
    for poly in (moments.moment(word, backend, CFG),
                 moments.finite_n_moment(word, backend, 2, CFG)):
        assert poly.coeffs and all(type(c) is Fraction for c in poly.coeffs)
    assert type(moments.q_matrix_moment(word, [0] * 4, QM, backend, CFG)) \
        is Fraction
