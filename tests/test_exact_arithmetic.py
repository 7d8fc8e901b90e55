"""Exact rationals held as ints where integral (algebra.exact): the scans
against the pairing oracle and the Fock space on non-integral and
negative values, where the int form gives way to Fractions, and the types
that the public functions and the scenario loader return."""

import random
from fractions import Fraction

import pytest

from pairing_oracle import (pairing_moment, pairing_q_matrix_moment,
                            pairing_trace_pairing)
from qgauss import moments, qfock, scenario
from qgauss.algebra import (EchelonBasis, conditional_expectation,
                            cyclic_group, exact, group_algebra)
from qgauss.copies import FreeHaarBackend, PermGroupBackend, TensorBackend
from qgauss.dimensions import span_Dk
from qgauss.partitions import enumerate_pair_singleton
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


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_trace_pairing_matches_pairing_oracle(name):
    backend, alphabet = BACKENDS[name]
    rng = random.Random(3)
    words = []
    for _ in range(24):
        m = rng.randint(1, 4)
        sigma = rng.choice(enumerate_pair_singleton(m))
        words.append(moments.reduce(
            sigma, [rng.choice(alphabet) for _ in range(m)],
            [rng.choice(VECTORS) for _ in range(m)], backend, CFG))
    for w1 in words:
        for w2 in words:
            assert moments.trace_pairing(w1, w2) == \
                pairing_trace_pairing(w1, w2), (w1.sigma, w2.sigma)


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
              for x in ("2", "-1", "4/2", "1/3", " 3", 2, 0.5, "\u0661")]
    assert values == [2, -1, 2, Fraction(1, 3), 3, 2, Fraction(1, 2), 1]
    assert [type(v) for v in values] == [int] * 3 + [Fraction] + [int] * 2 \
        + [Fraction, int]
    with pytest.raises(scenario.ScenarioError, match="x: not a rational"):
        scenario._frac("\u00b2", "x")


def _exact_coeffs(x):
    return all(type(c) in (int, Fraction) for c in x.coeffs.values())


@pytest.mark.parametrize("name", ["free_haar", "perm_group", "tensor"])
def test_no_float_after_a_scan_a_span_or_a_projection(name, monkeypatch):
    backend, alphabet = BACKENDS[name]
    closed = []
    close_arc = moments.close_arc

    def recording(*args):
        closed.append(close_arc(*args))
        return closed[-1]

    monkeypatch.setattr(moments, "close_arc", recording)
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
