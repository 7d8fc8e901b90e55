"""The explicit sign-matrix model, kept as the test oracle of
qgauss.matmodel: it materializes the 2^n x 2^n involutions with
prescribed exchange signs and takes actual matrix traces, where the
estimator evaluates each trace combinatorially.  Small n only.

Also the two-pass estimator that mc_moment replaced: one walk of the
terms for the per-sample sums and a second for the exact finite-n
target, each term's exact contribution taken by itself."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qgauss.errors import SizeGuard
from qgauss.matmodel import (MCEstimate, _estimate, _model_inputs, _terms,
                             model_moment_exact, word_sign_pairs)
from qgauss.moments import q_matrix_moment, slot_moments

#: build_symmetries materializes 2^n x 2^n matrices.
SYMMETRY_CAP = 10


@dataclass
class SignMatrix:
    """Symmetric {-1,+1} matrix over letters (copy, color), diagonal +1."""

    letters: list  # list of (j, t)
    entries: dict  # {frozenset({a, b}): -1 or +1} for a != b

    def entry(self, a, b) -> int:
        if a == b:
            return 1
        return self.entries[frozenset((a, b))]


def sample_epsilon(Qm, copies: int, rng) -> SignMatrix:
    """Draw a sign matrix with independent entries, E[eps_{(j,t),(k,s)}] =
    Q_{s,t}.  rng is a numpy Generator (or an int seed)."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.Philox(key=int(rng)))
    Qm = [[float(x) for x in row] for row in Qm]
    ncolors = len(Qm)
    letters = [(j, t) for j in range(1, copies + 1) for t in range(ncolors)]
    entries = {}
    for i, a in enumerate(letters):
        for b in letters[i + 1:]:
            p_plus = (1.0 + Qm[a[1]][b[1]]) / 2.0
            entries[frozenset((a, b))] = 1 if rng.random() < p_plus else -1
    return SignMatrix(letters, entries)


@dataclass
class SymmetryRep:
    """Explicit sign-matrix involutions with prescribed exchange signs."""

    letters: list
    matrices: list  # numpy integer arrays, one per letter
    eps: SignMatrix

    def verify(self) -> bool:
        n = len(self.letters)
        for a in range(n):
            va = self.matrices[a]
            if not np.array_equal(va @ va, np.eye(va.shape[0], dtype=va.dtype)):
                return False
            for b in range(a + 1, n):
                vb = self.matrices[b]
                sign = self.eps.entry(self.letters[a], self.letters[b])
                if not np.array_equal(va @ vb, sign * (vb @ va)):
                    return False
        return True


def build_symmetries(eps: SignMatrix) -> SymmetryRep:
    """v_a = (tensor of diag signs over b < a) (x) X (x) identities, with a
    Z factor in slot b exactly when eps(b, a) = -1.  The exchange relations
    hold by construction."""
    n = len(eps.letters)
    if n > SYMMETRY_CAP:
        raise SizeGuard(f"{n} letters need 2^{n}-dim matrices, "
                        f"cap is 2^{SYMMETRY_CAP}")
    I = np.eye(2, dtype=np.int64)
    X = np.array([[0, 1], [1, 0]], dtype=np.int64)
    Z = np.array([[1, 0], [0, -1]], dtype=np.int64)
    mats = []
    for a in range(n):
        factors = []
        for b in range(n):
            if b < a:
                factors.append(
                    Z if eps.entry(eps.letters[b], eps.letters[a]) == -1 else I)
            elif b == a:
                factors.append(X)
            else:
                factors.append(I)
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        mats.append(m)
    return SymmetryRep(eps.letters, mats, eps)


def combinatorial_trace(letters, eps: SignMatrix) -> int:
    """Normalized trace of v_{l_1} ... v_{l_m} under a fixed sign matrix."""
    pairs = word_sign_pairs(letters)
    if pairs is None:
        return 0
    sign = 1
    for a, b in pairs:
        sign *= eps.entry(a, b)
    return sign


def mc_moment_explicit(word, Qm, n: int, samples: int, seed: int,
                       cfg=None, colors=None) -> MCEstimate:
    """Slow oracle for mc_moment (pure case): materializes the symmetry
    matrices and takes actual matrix traces.  Small n only."""
    word = list(word)
    m = len(word)
    xs, hs, colors, (Qm,), cfg, backend = _model_inputs(word, [Qm], cfg,
                                                        colors, None)
    target = float(q_matrix_moment(list(zip(xs, hs)), colors, Qm, backend,
                                   cfg))

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    d = cfg.dim_H
    L = np.linalg.cholesky(np.array(cfg.inner, dtype=float))
    coords = np.array([[float(Fraction(x)) for x in h] for h in hs]) @ L

    vals = np.empty(samples)
    for s in range(samples):
        eps = sample_epsilon(Qm, n, rng)
        used = [(j, t) for j in range(1, n + 1) for t in sorted(set(colors))]
        sub = SignMatrix(used, {k: v for k, v in eps.entries.items()
                                if all(l in used for l in k)})
        rep = build_symmetries(sub)
        vmat = {l: mat for l, mat in zip(rep.letters, rep.matrices)}
        gamma = rng.standard_normal((n, d))
        dim = 2 ** len(used)
        prod = np.eye(dim)
        for pos in range(m):
            u = np.zeros((dim, dim))
            for j in range(1, n + 1):
                g = float(gamma[j - 1] @ coords[pos])
                u += g * vmat[(j, colors[pos])]
            prod = prod @ (u / math.sqrt(n))
        vals[s] = np.trace(prod) / dim
    target_n = float(model_moment_exact(word, Qm, n, cfg=cfg, colors=colors))
    return _estimate(vals, target, target_n, n, seed)


def exact_per_term(xs, hs, colors, Qm, cfg, backend, n: int) -> Fraction:
    """model_moment_exact of a resolved even word, one term at a time:
    the sign weight times the gaussian moment (keyed by the copies
    compacted in sorted order) times tau, over a walk of _terms."""
    fock = slot_moments(hs, cfg)
    total = Fraction(0)
    for tau, letters, sign_pairs in _terms(xs, colors, n, backend):
        weight = Fraction(1)
        for a, b in sign_pairs:
            weight *= Qm[a[1]][b[1]]
        jpattern = [l[0] for l in letters]
        slot_of = {j: s for s, j in enumerate(sorted(set(jpattern)))}
        g = fock(tuple(slot_of[j] for j in jpattern)).eval(1)
        total += weight * g * tau
    return total / Fraction(n ** (len(hs) // 2))


def mc_moment_two_pass(word, Qm, n: int, samples: int, seed: int,
                       backend=None, cfg=None, colors=None) -> MCEstimate:
    """mc_moment with the terms walked twice: the same draws, the same
    per-term products and the same sequential sum of the samples, then
    exact_per_term for the target."""
    word = list(word)
    m = len(word)
    xs, hs, colors, (Qm,), cfg, backend = _model_inputs(word, [Qm], cfg,
                                                        colors, backend)
    target = float(q_matrix_moment(list(zip(xs, hs)), colors, Qm, backend,
                                   cfg))
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    d = cfg.dim_H
    L = np.linalg.cholesky(np.array(cfg.inner, dtype=float))
    gamma = rng.standard_normal((samples, n, d))
    coords = np.array([[float(Fraction(x)) for x in h] for h in hs])
    gh = np.einsum("snd,md->snm", gamma, coords @ L)
    letter_pool = sorted({(j, t) for j in range(1, n + 1) for t in set(colors)})
    pair_index = {}
    probs = []
    for i, a in enumerate(letter_pool):
        for b in letter_pool[i + 1:]:
            pair_index[(a, b)] = len(probs)
            probs.append(float((1 + Qm[a[1]][b[1]]) / 2))
    if probs:
        eps = np.where(rng.random((samples, len(probs))) < np.array(probs),
                       1.0, -1.0)
    else:
        eps = np.zeros((samples, 0))

    sums = np.zeros(samples)
    for tau, letters, sign_pairs in _terms(xs, colors, n, backend):
        term = np.full(samples, float(tau))
        for a, b in sign_pairs:
            term = term * eps[:, pair_index[(a, b)]]
        for pos in range(1, m + 1):
            term = term * gh[:, letters[pos - 1][0] - 1, pos - 1]
        sums += term
    estimates = sums / float(n) ** (m / 2.0)
    target_n = float(exact_per_term(xs, hs, colors, Qm, cfg, backend, n))
    return _estimate(estimates, target, target_n, n, seed)
