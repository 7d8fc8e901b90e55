"""Arc closings: each backend's close against the two-pass oracle, the
keyed product AlgebraElement.times against the plain product, and the
perm and tensor scans closing without expect or relabel."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from qgauss import moments
from qgauss.algebra import cyclic_group, group_algebra
from qgauss.copies import (FreeHaarBackend, PermGroupBackend, TensorBackend,
                           pi_word)
from qgauss.qfock import FockConfig

from closing_oracle import two_pass_close
from pairing_oracle import pairing_moment

WINDOW = 4
CFG = FockConfig(dim_H=1)
H1 = CFG.basis_vector(0)


def _free():
    backend = FreeHaarBackend(WINDOW)
    D = backend.D
    u = ((1, 1),)
    letters = [backend.S["u"], backend.S["u*"],
               D.element({u: 1, ((1, -1),): 1, (): Fraction(-1, 2)}),
               D.element({u + u: 2, u: -1})]
    return backend, letters


def _perm():
    backend = PermGroupBackend(1, WINDOW)
    A = sorted(backend.subalgebra_spec((1,)).indices)  # S_3 on points -1..1
    D = backend.D
    letters = [backend.S["u01"], D.element({A[1]: 1, A[2]: -1}),
               D.element({g: Fraction(i + 1, 3) for i, g in enumerate(A)})]
    return backend, letters


def _tensor():
    z3 = group_algebra(cyclic_group(3))
    backend = TensorBackend(group_algebra(cyclic_group(2)), z3, WINDOW)
    D = backend.D
    g = backend.S["g"]

    def a(coeffs):
        """An A-element of D, from {(b, c): coefficient}: slot 1 holds c."""
        return D.element({(b, c) + (0,) * (WINDOW - 1): x
                          for (b, c), x in coeffs.items()})

    letters = [g, g.star(), a({(0, 1): 1, (1, 2): -2, (0, 0): 1}),
               a({(1, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)})]
    return backend, letters


BACKENDS = {"free_haar": _free, "perm_group": _perm, "tensor": _tensor}


def _elements(backend, letters, rng, count=12):
    """Seeded multi-term elements of D: sums of pi-words over the window
    with small rational coefficients."""
    D = backend.D
    out = []
    for _ in range(count):
        x = D.element({})
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(0, 3)
            w = pi_word(backend, [rng.choice(letters) for _ in range(n)],
                        [rng.randint(1, WINDOW) for _ in range(n)])
            x = x + w.scale(Fraction(rng.randint(-3, 3) or 1,
                                     rng.randint(1, 2)))
        out.append(x)
    return out


def _colliding(P, y, sign):
    """P plus, for the first two terms of y (keys h1, h2, coefficients a1,
    a2) and the first term of P (key g, coefficient c), the term
    sign * c * a1 / a2 at g h1 h2^-1: its product with h2 lands on g h1,
    where it cancels (sign -1) or merges (sign +1) with c * a1."""
    group = P.parent.group
    g, c = next(iter(P.coeffs.items()))
    (h1, a1), (h2, a2) = list(y.coeffs.items())[:2]
    k = group.mul(group.mul(g, h1), group.inv(h2))
    return P + P.parent.element({k: sign * c * Fraction(a1) / a2})


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_close_equals_the_two_pass_oracle(name):
    backend, letters = BACKENDS[name]()
    rng = random.Random(23)
    Ps = _elements(backend, letters, rng)
    cancelled = merged = 0
    for label in range(1, WINDOW + 1):
        for top in range(label, WINDOW + 1):
            for x in letters:
                pi_x = backend.pi(label, x)
                cases = [P for P in Ps if P.coeffs]
                if len(pi_x.coeffs) > 1:
                    cases += [_colliding(P, pi_x, s) for P in cases[:3]
                              for s in (-1, 1)]
                for P in cases:
                    product = P * pi_x
                    hits = Counter(backend.D.group.mul(g, h) for g in P.coeffs
                                   for h in pi_x.coeffs)
                    shared = [k for k, n in hits.items() if n > 1]
                    merged += any(k in product.coeffs for k in shared)
                    cancelled += any(k not in product.coeffs for k in shared)
                    assert (backend.close(P, pi_x, label, top)
                            == two_pass_close(backend, P, pi_x, label, top)), \
                        (label, top, P, x)
    # the cases include products whose terms merge and cancel
    assert cancelled and merged


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_times_without_a_key_is_the_product(name):
    backend, letters = BACKENDS[name]()
    xs = _elements(backend, letters, random.Random(5), count=8)
    for a in xs:
        for b in xs:
            assert a.times(b) == a * b


def _mapped(x, key):
    """The terms of x with their keys mapped, dropped where key gives None,
    merged by adding coefficients."""
    out = {}
    for k, c in x.coeffs.items():
        k = key(k)
        if k is not None:
            out[k] = out.get(k, 0) + c
    return x.parent.element(out)


@pytest.mark.parametrize("name", ["perm_group", "tensor"])
def test_times_with_a_closing_key_maps_the_product(name):
    backend, letters = BACKENDS[name]()
    xs = _elements(backend, letters, random.Random(9), count=8)
    keys = [backend._closing_key(label, top)
            for label in range(1, WINDOW + 1)
            for top in range(label, WINDOW + 1)]
    for a in xs:
        for b in xs:
            for key in keys:
                assert a.times(b, key) == _mapped(a * b, key)


def test_times_with_a_key_on_a_cyclic_group():
    # k -> k/2 on the even residues of Z_12, injective there
    Z12 = group_algebra(cyclic_group(12))

    def key(k):
        return k // 2 if k % 2 == 0 else None

    rng = random.Random(3)
    xs = [Z12.element({rng.randrange(12): Fraction(rng.randint(-2, 2), 3)
                       for _ in range(rng.randint(1, 5))})
          for _ in range(20)]
    xs.append(Z12.element({0: 1, 2: 1}))
    xs.append(Z12.element({0: 1, 2: -1}))  # (u_0 - u_2)(u_0 + u_2) cancels
    for a in xs:
        for b in xs:
            assert a.times(b, key) == _mapped(a * b, key)


def _counting(monkeypatch, cls):
    calls = {"expect": 0, "relabel": 0}
    for attr in calls:
        raw = getattr(cls, attr)

        def counted(self, *args, attr=attr, raw=raw):
            calls[attr] += 1
            return raw(self, *args)

        monkeypatch.setattr(cls, attr, counted)
    return calls


def test_perm_and_tensor_moments_close_without_expect_or_relabel(monkeypatch):
    perm, _ = _perm()
    tensor, _ = _tensor()
    g = tensor.S["g"]
    cases = [(perm, [(perm.S["u01"], H1)] * 8),
             (tensor, [(g if i % 2 == 0 else g.star(), H1) for i in range(8)])]
    want = [pairing_moment(word, backend, CFG) for backend, word in cases]
    counts = [_counting(monkeypatch, PermGroupBackend),
              _counting(monkeypatch, TensorBackend)]
    assert [moments.moment(word, backend, CFG)
            for backend, word in cases] == want
    assert counts == [{"expect": 0, "relabel": 0}] * 2
    # the counters count: an expectation is seen
    perm.expect((), perm.one())
    assert counts[0]["expect"] == 1
