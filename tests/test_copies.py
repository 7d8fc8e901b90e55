"""The three backends realizing symmetric independent copies, and the
exhaustive axiom checker that certifies them at small window sizes."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from qgauss import moments
from qgauss.algebra import (AlgebraElement, conditional_expectation,
                            cyclic_group, group_algebra, symmetric_group,
                            trivial_algebra)
from qgauss.copies import (PROJECTION_GUARD, FreeHaarBackend, FreeWordElement,
                           PermGroupBackend, TensorBackend, axiom_check,
                           pi_word)
from qgauss.errors import SizeGuard, WindowExceeded
from qgauss.qfock import FockConfig

from axiom_oracle import axiom_reports

H1 = (Fraction(1),)


@pytest.fixture(scope="module")
def free3():
    return FreeHaarBackend(3)


@pytest.fixture(scope="module")
def perm3():
    # its D satisfies the group axioms: test_algebra.py checks them
    return PermGroupBackend(1, 3)


@pytest.fixture(scope="module")
def tensor3():
    z2 = group_algebra(cyclic_group(2))
    return TensorBackend(z2, group_algebra(cyclic_group(2)), 3)


# ---------------------------------------------------------------------
# reduced words in a free group


def test_free_word_reduction():
    u, ustar = ("u", 1), ("u", -1)
    assert FreeWordElement.from_word((u, ustar)) == FreeWordElement.from_word(())
    x = FreeWordElement.from_word((u,)) * FreeWordElement.from_word((ustar,))
    assert x.trace() == 1


def test_free_word_star_is_involutive_antihomomorphism():
    a = FreeWordElement.from_word((("a", 1), ("b", -1))).scale(Fraction(2, 3))
    b = FreeWordElement.from_word((("b", 1),))
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a


def test_free_trace_vanishes_off_identity(free3):
    u = free3.S["u"]
    assert u.trace() == 0
    assert (u * u).trace() == 0
    assert free3.trace(u * u.star()) == 1


def test_free_pi_and_expect(free3):
    u = free3.S["u"]
    u2 = free3.pi(2, u)
    assert u2 != u
    # conditional expectation onto copies {1} kills the letter living at 2
    assert free3.expect([1], u2).is_zero()
    assert free3.expect([2], u2) == u2


def test_free_pi_refuses_other_algebras(free3, perm3):
    with pytest.raises(ValueError):
        free3.pi(1, perm3.S["u01"])


def test_free_relabel_renames_letters(free3):
    u = free3.S["u"]
    x = free3.pi(1, u) * free3.pi(2, u.star()) * free3.pi(3, u)
    y = free3.relabel({1: 2, 2: 3, 3: 1}, x)
    assert y == free3.pi(2, u) * free3.pi(3, u.star()) * free3.pi(1, u)


def test_free_expect_is_partial_trace_on_products(free3):
    u = free3.S["u"]
    x = free3.pi(1, u) * free3.pi(2, u) * free3.pi(2, u.star())
    assert free3.expect([1], x) == free3.pi(1, u)


# ---------------------------------------------------------------------
# permutation backend


def test_perm_pi_fixes_first_copy(perm3):
    u = perm3.S["u01"]
    assert perm3.pi(1, u) == u
    assert perm3.pi(2, u) != u


def test_perm_expect_projects_support(perm3):
    u = perm3.S["u01"]
    x = perm3.pi(2, u)
    # a transposition moving the point 2 has no support inside copies {1}
    e = perm3.expect([1], x)
    assert e != x
    assert perm3.trace(e) == perm3.trace(x)


def test_perm_relabel_is_trace_preserving_automorphism(perm3):
    u = perm3.S["u01"]
    x = perm3.pi(1, u) * perm3.pi(2, u)
    y = perm3.relabel({1: 2, 2: 3, 3: 1}, x)
    assert perm3.trace(x) == perm3.trace(y)
    assert y == perm3.pi(2, u) * perm3.pi(3, u)


def test_perm_b_pairs_commute_with_copies(perm3):
    for b in perm3.B_basis:
        for j in range(1, 4):
            assert perm3.pi(j, b) == b


# ---------------------------------------------------------------------
# tensor backend


def test_tensor_pi_places_generator_in_slot(tensor3):
    g = tensor3.S["g"]
    x1, x2 = tensor3.pi(1, g), tensor3.pi(2, g)
    assert x1 != x2
    assert x1 * x2 == x2 * x1  # disjoint slots commute
    assert tensor3.trace(x1 * x1) == 1


def test_tensor_expect_traces_out_slots(tensor3):
    g = tensor3.S["g"]
    x = tensor3.pi(2, g)
    assert tensor3.expect([1], x).is_zero()  # tau_C(g) = 0
    assert tensor3.expect([2], x) == x


def test_tensor_independence(tensor3):
    g = tensor3.S["g"]
    x = tensor3.pi(1, g) * tensor3.pi(2, g)
    assert tensor3.trace(x) == tensor3.trace(tensor3.pi(1, g)) * \
        tensor3.trace(tensor3.pi(2, g))


# ---------------------------------------------------------------------
# every backend


@pytest.mark.parametrize("name, gen", [("free", "u"), ("perm", "u01"),
                                       ("tensor", "g")])
def test_pi_refuses_elements_outside_A(name, gen, free3, perm3, tensor3):
    # pi(2, gen) lives on copy 2 (the letter 2, the point 2, slot 2), so
    # it lies outside A = A_{1}
    backend = {"free": free3, "perm": perm3, "tensor": tensor3}[name]
    x = backend.pi(2, backend.S[gen])
    for j in (1, 3):
        with pytest.raises(ValueError, match="element of A"):
            backend.pi(j, x)


# ---------------------------------------------------------------------
# axiom certification


@pytest.mark.parametrize("name", ["free", "perm", "tensor"])
def test_axioms_hold(name, free3, perm3, tensor3):
    backend = {"free": free3, "perm": perm3, "tensor": tensor3}[name]
    report = axiom_check(backend, word_len=3)
    for ax in ("axiom1", "axiom2", "axiom3", "axiom4", "axiom5"):
        assert report[ax]["ok"], (ax, report[ax]["witness"])
    assert report["passed"]
    assert report["axiom2"]["checked"] > 0
    assert report["axiom3"]["checked"] > 0
    assert report["axiom5"]["by_construction"] is True
    assert report["axiom5"]["checked"] == 0


def test_axiom_check_stops_at_the_first_failure():
    backend = PermGroupBackend(1, 4)
    expect = backend.expect
    # E_I = id for every nonempty I breaks axioms 3 and 4, not 1 and 2
    backend.expect = lambda I, x: x if set(I) else expect(I, x)
    report = axiom_check(backend, word_len=2)
    assert [report[ax]["ok"] for ax in ("axiom1", "axiom2", "axiom3",
                                        "axiom4")] == [True, True, False, False]
    # checked counts up to and including the failing identity
    assert report["axiom3"] == {"ok": False, "checked": 2,
                                "witness": "I=set(), J={1}, j=2"}
    assert report["axiom4"]["checked"] == 402 and not report["passed"]


def test_axiom_check_builds_each_word_and_expectation_once(monkeypatch):
    # tag every element with the letters ((j, name), ...) it was built
    # from, and count each product and each E_K by those tags
    backend = FreeHaarBackend(3)
    # by value: axiom 1 embeds B's unit, an element equal to S["1"]
    name_of = {x: n for n, x in backend.S.items()}
    key = {}
    alive = []  # holding every element keeps ids unique
    products, expectations = Counter(), Counter()
    mul, one, pi, expect = (AlgebraElement.__mul__, backend.one, backend.pi,
                            backend.expect)

    def tag(x, k):
        alive.append(x)
        key[id(x)] = k
        return x

    def counted_mul(x, y):
        products[key[id(x)], key[id(y)]] += 1
        return tag(mul(x, y), key[id(x)] + key[id(y)])

    def counted_expect(I, x):
        expectations[frozenset(I), key[id(x)]] += 1
        return tag(expect(I, x), ("E", frozenset(I), key[id(x)]))

    monkeypatch.setattr(AlgebraElement, "__mul__", counted_mul)
    backend.one = lambda: tag(one(), ())
    backend.pi = lambda j, a: tag(pi(j, a), ((j, name_of[a]),))
    backend.expect = counted_expect
    assert axiom_check(backend, word_len=3)["passed"]
    assert products and max(products.values()) == 1
    assert expectations and max(expectations.values()) == 1
    # axiom 2 asks E_B of every word of <= 3 letters over {1, u, u*}
    # with every labelling from 1..3, once each
    assert sum(1 for K, _ in expectations if not K) >= 3 * 3 + 9 * 9 + 27 * 27


def _labels(w):
    return tuple(label for label, _ in w)


class EBWrongOnCopy3(FreeHaarBackend):
    """E_B adds the unit to any element that uses copy 3."""

    def expect(self, I, x):
        out = super().expect(I, x)
        if not set(I) and any(3 in _labels(w) for w in x.coeffs):
            out = out + self.one()
        return out


class E13WrongOn131(FreeHaarBackend):
    """E_{1,3} doubles any element holding a word with copies (1, 3, 1)."""

    def expect(self, I, x):
        out = super().expect(I, x)
        if set(I) == {1, 3} and any(_labels(w) == (1, 3, 1) for w in x.coeffs):
            out = out.scale(2)
        return out


class WrongWord(AlgebraElement):
    """A product that adds the unit whenever its result holds a word with
    copies (1, 3, 1), so the fault sits behind the shared prefix (1, 3)."""

    __slots__ = ()

    def __mul__(self, other):
        out = AlgebraElement.__mul__(self, other)
        if any(_labels(w) == (1, 3, 1) for w in out.coeffs):
            out = out + out.parent.one
        return WrongWord(out.parent, out.coeffs)


class MulWrongOn131(FreeHaarBackend):
    def one(self):
        one = super().one()
        return WrongWord(one.parent, one.coeffs)

    def pi(self, j, a):
        x = super().pi(j, a)
        return WrongWord(x.parent, x.coeffs)


HOLDS = (True, 3, None)


@pytest.mark.parametrize("cls, want", [
    (EBWrongOnCopy3, [
        HOLDS,
        (False, 23, "E_B not invariant: word len 1, indices (1,), "
                    "relabeling (3, 1, 2)"),
        (False, 20, "I=set(), J={1, 2}, j=3"),
        (False, 265, "I=set(), J={1}")]),
    (E13WrongOn131, [
        HOLDS, (True, 4914, None), (True, 432, None),
        (False, 11723, "I={1, 3}, J={1, 3}")]),
    (MulWrongOn131, [
        HOLDS,
        (False, 2666, "E_B not invariant: word len 3, indices (1, 2, 1), "
                      "relabeling (1, 3, 2)"),
        (True, 432, None), (True, 16576, None)]),
])
def test_axiom_check_reports_injected_faults(cls, want):
    # ok, checked and witness as found by rebuilding every word from the
    # unit and recomputing every expectation
    report = axiom_check(cls(3), word_len=3)
    assert [tuple(report[f"axiom{k}"][f] for f in ("ok", "checked", "witness"))
            for k in (1, 2, 3, 4)] == want
    assert not report["passed"]


class PermE12WrongOnCopy3(PermGroupBackend):
    """E_{1,2} adds the unit to any element holding a permutation that
    moves copy 3's point."""

    def expect(self, I, x):
        out = super().expect(I, x)
        p = self._pos(3)
        if set(I) == {1, 2} and any(g[p] != p for g in x.coeffs):
            out = out + self.one()
        return out


class TensorE2WrongOnSlot1(TensorBackend):
    """E_{2} adds the unit to any element with a non-unit C in slot 1."""

    def expect(self, I, x):
        out = super().expect(I, x)
        if set(I) == {2} and any(k[1] != self.C.unit for k in x.coeffs):
            out = out + self.one()
        return out


def _z2_z2(cls=TensorBackend):
    return cls(group_algebra(cyclic_group(2)), group_algebra(cyclic_group(2)),
               3)


@pytest.mark.parametrize("make", [
    lambda: FreeHaarBackend(3), lambda: PermGroupBackend(1, 3), _z2_z2,
    lambda: EBWrongOnCopy3(3), lambda: E13WrongOn131(3),
    lambda: MulWrongOn131(3), lambda: PermE12WrongOnCopy3(1, 3),
    lambda: _z2_z2(TensorE2WrongOnSlot1)],
    ids=["free", "perm", "tensor", "EBWrongOnCopy3", "E13WrongOn131",
         "MulWrongOn131", "PermE12WrongOnCopy3", "TensorE2WrongOnSlot1"])
@pytest.mark.parametrize("word_len", [2, 3])
def test_axiom_check_agrees_with_the_plain_oracle(make, word_len):
    report = axiom_check(make(), word_len=word_len)
    want = axiom_reports(make(), word_len)
    assert {k: tuple(report[f"axiom{k}"][f]
                     for f in ("ok", "checked", "witness"))
            for k in (1, 2, 3, 4)} == want
    assert report["passed"] == all(ok for ok, _, _ in want.values())


def test_new_faults_fail_axioms_3_and_4_only():
    for backend in (PermE12WrongOnCopy3(1, 3), _z2_z2(TensorE2WrongOnSlot1)):
        report = axiom_check(backend, word_len=2)
        assert [report[f"axiom{k}"]["ok"] for k in (1, 2, 3, 4)] == \
            [True, True, False, False]


def test_axiom_check_expect_calls_on_free_haar():
    # one call per memoized E_K of a pi-word, and in axiom 4 one E_I per
    # distinct value among the E_K(x) of all words x; one per distinct
    # value within each word would be 7,318, and a call per case (more
    # than 16,576 in axiom 4 alone) 19,806
    backend = FreeHaarBackend(3)
    calls = []
    expect = backend.expect

    def counted(I, x):
        calls.append(I)
        return expect(I, x)

    backend.expect = counted
    assert axiom_check(backend, word_len=3)["passed"]
    assert len(calls) == 4734


@pytest.mark.parametrize("make", [
    lambda: FreeHaarBackend(3), lambda: PermGroupBackend(1, 3), _z2_z2],
    ids=["free", "perm", "tensor"])
def test_relabel_completes_each_map_once(make):
    # equal maps share one completed permutation, so only the maps this
    # test adds are counted: pi(2, .) builds the map of {1: 2, 2: 1}
    # before the count starts, and {2: 1, 1: 2} lists its items in
    # another order.  A map that is not injective on the window is
    # refused on every call and adds nothing.
    backend = make()
    a = backend.S[next(name for name in backend.S if name != "1")]
    backend.pi(2, a)
    before = set(backend._relabels)
    for _ in range(3):
        assert backend.relabel({2: 1, 1: 2}, backend.pi(1, a)) == \
            backend.pi(2, a)
    assert set(backend._relabels) - before == {((2, 1), (1, 2))}
    for _ in range(2):
        with pytest.raises(ValueError, match="not injective"):
            backend.relabel({1: 2}, backend.pi(1, a))
    assert set(backend._relabels) - before == {((2, 1), (1, 2))}


def test_backends_with_other_parameters_keep_their_own_caches():
    # d moves the copies' positions: each backend conjugates its own u01
    for d in (1, 2):
        backend = PermGroupBackend(d, 4)
        x = backend.pi(3, backend.S["u01"])
        assert backend.expect((3,), x) == x
        assert backend.expect((1, 2), x).is_zero()


def test_each_window_refuses_a_copy_outside_it():
    u6 = FreeHaarBackend(6).S["u"]
    assert FreeHaarBackend(6).pi(5, u6) == FreeHaarBackend(6).pi(5, u6)
    small = FreeHaarBackend(3)
    with pytest.raises(WindowExceeded, match="window 3"):
        small.pi(5, small.S["u"])


@pytest.mark.parametrize("cls", [FreeHaarBackend, PermGroupBackend,
                                 TensorBackend])
def test_each_backend_class_names_its_traced_methods(cls):
    # perfbench/spans.py wraps these in each backend class's own vars
    assert {"__init__", "pi", "expect", "relabel", "trace"} <= vars(cls).keys()


def test_dim_bounds(free3, perm3, tensor3):
    assert [free3.dim_bound(k) for k in (1, 2, 3)] == [4, 16, 64]
    assert [perm3.dim_bound(k) for k in (1, 2, 3)] == [2, 4, 8]
    for d in (0, 2, 5):  # D_k does not depend on d
        assert [PermGroupBackend(d, 3).dim_bound(k)
                for k in (1, 2, 3)] == [2, 4, 8]
    assert tensor3.dim_bound(2) == 4  # |C| = 2 per slot


# ---------------------------------------------------------------------
# lazy group algebras against an enumerated reference


def _subsets(items):
    return [frozenset(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


class EnumeratedPerm:
    """The permutation backend with all of S_{d+J+1} listed up front and
    each element named by its position in that list."""

    def __init__(self, d, window):
        self.d, self.window = d, window
        self.n = d + 1 + window
        self.labels = list(permutations(range(self.n)))
        self.index = {g: i for i, g in enumerate(self.labels)}

    def mul(self, p, r):
        return tuple(p[r[i]] for i in range(self.n))

    def inverse(self, p):
        return tuple(sorted(range(self.n), key=lambda i: p[i]))

    def conjugate(self, phi, x):
        """{index: c} -> {index: c} under g -> phi g phi^-1."""
        inv = self.inverse(phi)
        return {self.index[self.mul(phi, self.mul(self.labels[i], inv))]: c
                for i, c in x.items()}

    def times(self, x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                k = self.index[self.mul(self.labels[i], self.labels[j])]
                out[k] = out.get(k, 0) + a * b
        return {k: c for k, c in out.items() if c}

    def swap(self, j):
        t = list(range(self.n))
        t[self.d + 1], t[self.d + j] = t[self.d + j], t[self.d + 1]
        return tuple(t)

    def support(self, I):
        fixed = [self.d + p for p in range(1, self.window + 1) if p not in I]
        return frozenset(i for i, g in enumerate(self.labels)
                         if all(g[p] == p for p in fixed))

    def pi_word(self, xs, labels):
        prod = {self.index[tuple(range(self.n))]: Fraction(1)}
        for x, j in zip(xs, labels):
            prod = self.times(prod, self.conjugate(self.swap(j), x))
        return prod

    def expect(self, I, x):
        keep = self.support(I)
        return {i: c for i, c in x.items() if i in keep}

    def relabel(self, gamma, x):
        phi = list(range(self.n))
        for j, jg in gamma.items():
            phi[self.d + j] = self.d + jg
        return self.conjugate(tuple(phi), x)

    def trace(self, x):
        return x.get(self.index[tuple(range(self.n))], 0)


@pytest.mark.parametrize("d, J", [(1, 3), (2, 3)])
def test_lazy_perm_backend_equals_enumerated_group(d, J):
    backend = PermGroupBackend(d, J)
    ref = EnumeratedPerm(d, J)

    def as_index(x):
        return {ref.index[g]: c for g, c in x.coeffs.items()}

    for I in _subsets(range(1, J + 1)):
        spec = backend.subalgebra_spec(I)
        assert {ref.index[g] for g in spec.indices} == ref.support(I)
    letters = {"1": backend.A_one, "u01": backend.S["u01"]}
    ref_letters = {name: as_index(x) for name, x in letters.items()}
    relabelings = [{1: 2, 2: 3, 3: 1}, {1: 3, 3: 1}]
    for m in (1, 2, 3):
        for names in product(letters, repeat=m):
            for labels in product(range(1, J + 1), repeat=m):
                x = pi_word(backend, [letters[n] for n in names], labels)
                want = ref.pi_word([ref_letters[n] for n in names], labels)
                assert as_index(x) == want
                assert backend.trace(x) == ref.trace(want)
                for I in _subsets(range(1, J + 1)):
                    assert as_index(backend.expect(I, x)) == ref.expect(I, want)
                for gamma in relabelings:
                    assert as_index(backend.relabel(gamma, x)) == \
                        ref.relabel(gamma, want)


class EnumeratedTensor:
    """The tensor backend slot by slot: an element is {(b, c_1, ..., c_J):
    coefficient}, multiplied in B and in C slot by slot, and an A-element
    is {(b, c): coefficient}."""

    def __init__(self, B, C, window):
        self.B, self.C, self.window = B, C, window
        self.slots = range(1, window + 1)
        self.unit = (B.unit,) + (C.unit,) * window

    def times(self, x, y):
        out = {}
        for k, a in x.items():
            for l, b in y.items():
                key = (self.B.group.mul(k[0], l[0]),) + tuple(
                    self.C.group.mul(k[s], l[s]) for s in self.slots)
                out[key] = out.get(key, 0) + a * b
        return {k: c for k, c in out.items() if c}

    def pi(self, j, a):
        """The C-part of each term in slot j, the unit in the others."""
        out = {}
        for (b, c), coeff in a.items():
            key = [b] + [self.C.unit] * self.window
            key[j] = c
            out[tuple(key)] = coeff
        return out

    def pi_word(self, xs, labels):
        prod = {self.unit: 1}
        for x, j in zip(xs, labels):
            prod = self.times(prod, self.pi(j, x))
        return prod

    def keeps(self, I, key):
        return all(key[s] == self.C.unit for s in self.slots if s not in I)

    def expect(self, I, x):
        return {k: c for k, c in x.items() if self.keeps(I, k)}

    def relabel(self, gamma, x):
        """Slot s's entry moves to slot gamma(s)."""
        out = {}
        for k, c in x.items():
            new = [k[0]] + [None] * self.window
            for s in self.slots:
                new[gamma.get(s, s)] = k[s]
            out[tuple(new)] = c
        return out

    def trace(self, x):
        return x.get(self.unit, 0)


@pytest.mark.parametrize("B, C", [
    (group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))),
    (trivial_algebra(), group_algebra(symmetric_group(range(3))))],
    ids=["Z2xZ3", "trivialxS3"])
def test_tensor_backend_equals_slot_by_slot_reference(B, C):
    J = 3
    backend = TensorBackend(B, C, J)
    ref = EnumeratedTensor(B, C, J)
    c = next(c for c in C.group.elements if c != C.unit)
    ref_letters = {"1": {(B.unit, C.unit): 1}, "g": {(B.unit, c): 1},
                   "g*": {(B.unit, C.group.inv(c)): 1}}
    g = backend.S["g"]
    letters = {"1": backend.A_one, "g": g, "g*": g.star()}
    keys = list(product(B.group.elements, *[C.group.elements] * J))
    for I in _subsets(range(1, J + 1)):
        spec = backend.subalgebra_spec(I)
        assert set(keys if spec.whole else spec.indices) == \
            {k for k in keys if ref.keeps(I, k)}
    relabelings = [{1: 2, 2: 3, 3: 1}, {1: 3, 3: 1}]
    for m in (1, 2, 3):
        for names in product(letters, repeat=m):
            for labels in product(range(1, J + 1), repeat=m):
                x = pi_word(backend, [letters[n] for n in names], labels)
                want = ref.pi_word([ref_letters[n] for n in names], labels)
                assert x.coeffs == want
                assert backend.trace(x) == ref.trace(want)
                for I in _subsets(range(1, J + 1)):
                    assert backend.expect(I, x).coeffs == ref.expect(I, want)
                for gamma in relabelings:
                    assert backend.relabel(gamma, x).coeffs == \
                        ref.relabel(gamma, want)


class LetterFreeHaar:
    """The free Haar maps letter by letter on {reduced word: coefficient}:
    pi_j writes copy j into each letter of an A-word, E_{A_I} keeps the
    words whose letters all lie in I, and gamma renames each letter's copy,
    a copy it does not move staying."""

    @staticmethod
    def pi(j, a):
        return {tuple((j, e) for _, e in w): c for w, c in a.items()}

    @staticmethod
    def expect(I, x):
        return {w: c for w, c in x.items() if all(l in I for l, _ in w)}

    @staticmethod
    def relabel(gamma, x):
        return {tuple((gamma.get(l, l), e) for l, e in w): c
                for w, c in x.items()}


def test_free_haar_backend_equals_letter_by_letter_reference():
    """Multi-term elements on letters 1..J of both signs, and on the letter
    J + 1 outside the window, which expect drops and relabel keeps."""
    J = 3
    backend, ref = FreeHaarBackend(J), LetterFreeHaar()
    rng = random.Random(27)

    def element(copies):
        words = [[(rng.choice(copies), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 5))] for _ in range(4)]
        return sum((FreeWordElement.from_word(w).scale(
            Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4)))
            for w in words), backend.D.element({}))

    relabelings = [{1: 2, 2: 3, 3: 1}, {1: 3, 3: 1}, {2: 3, 3: 2}]
    for _ in range(40):
        a = element([1])
        for j in range(1, J + 1):
            assert backend.pi(j, a).coeffs == ref.pi(j, a.coeffs)
        x = element(range(1, J + 2))
        for I in _subsets(range(1, J + 1)):
            assert backend.expect(I, x).coeffs == ref.expect(I, x.coeffs)
        for gamma in relabelings:
            assert backend.relabel(gamma, x).coeffs == \
                ref.relabel(gamma, x.coeffs)


def test_perm_backend_never_builds_D():
    backend = PermGroupBackend(2, 10)
    assert backend.D.dim == math.factorial(13)
    cfg = FockConfig(1, max_degree=8)
    word = [(backend.S["u01"], H1)] * 16
    assert moments.moment(word, backend, cfg).coeffs == (1430,)  # Catalan(8)


def test_tensor_backend_at_window_12():
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    backend = TensorBackend(z2, z3, 12)
    assert backend.D.dim == 2 * 3 ** 12
    g = backend.S["g"]
    word = [(g if i % 2 == 0 else g.star(), H1) for i in range(16)]
    poly = moments.moment(word, backend, FockConfig(1, max_degree=8))
    assert poly.eval(0) == 1430  # Catalan(8)
    assert poly.eval(1) == math.factorial(8)


def test_subalgebra_specs_are_cached_and_guarded():
    backend = PermGroupBackend(2, 6)
    assert backend.subalgebra_spec([1, 2]) is backend.subalgebra_spec((2, 1))
    assert len(backend.subalgebra_spec([1, 2]).indices) == math.factorial(5)
    # |I| = 4 gives (d+1+|I|)! = 7! basis elements, over the guard
    assert math.factorial(7) > PROJECTION_GUARD
    with pytest.raises(SizeGuard, match="5040"):
        backend.subalgebra_spec(range(1, 5))
    # the whole window is all of D, listed by nobody
    whole = backend.subalgebra_spec(range(1, 7))
    x = pi_word(backend, [backend.S["u01"]] * 2, [3, 6])
    assert conditional_expectation(x, whole) is x


def test_free_haar_derives_B_and_refuses_a_proper_A_I():
    backend = FreeHaarBackend(3)
    with pytest.raises(SizeGuard, match="projection guard"):
        backend.subalgebra_spec({1})
    B = backend.subalgebra_spec(())
    u = backend.S["u"]
    for x in (backend.one().scale(Fraction(2, 3)) + backend.pi(2, u),
              pi_word(backend, [u, u.star()], [1, 1]),
              pi_word(backend, [u, u, u.star()], [1, 2, 1])):
        assert conditional_expectation(x, B) == backend.expect((), x)
    assert backend.B_basis == [backend.one()]


def _spec_backends():
    z2, z3 = group_algebra(cyclic_group(2)), group_algebra(cyclic_group(3))
    s3 = group_algebra(symmetric_group(range(3)))
    for window in range(1, 5):
        for d in (1, 2):
            yield PermGroupBackend(d, window)
        yield TensorBackend(z2, z3, window)
        yield TensorBackend(trivial_algebra(), s3, window)


def test_every_backend_spec_is_closed_under_product():
    # SubalgebraSpec checks only the unit and *-closure; the conditional
    # expectation needs the index set to be a subgroup, which rests on the
    # backends' own listing of each A_I
    for backend in _spec_backends():
        group = backend.D.group
        for I in _subsets(range(1, backend.window + 1)):
            spec = backend.subalgebra_spec(I)
            if spec.whole:
                continue
            idx = spec.indices
            assert all(group.mul(g, h) in idx for g in idx for h in idx), (
                backend.name, backend.window, sorted(I))
