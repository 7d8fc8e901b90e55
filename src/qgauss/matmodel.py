"""Random sign-matrix model: mixed-commutation symmetries and Monte Carlo
estimation of Q-gaussian moments.

Letters are (copy index j, color t) pairs.  The sign matrix epsilon is
sampled with P(eps = 1) = (1 + Q_{s,t})/2 so that E[eps] = Q_{s,t}; a
crossing of colors s, t in a pair partition then picks up exactly the
weight Q_{s,t} in the large-n limit, matching the exact Q-moment engine.

The estimator never materializes the 2^n-dimensional symmetries: the
normalized trace of a word of involutions satisfying
v_a v_b = eps_{ab} v_b v_a is evaluated combinatorially (cancel equal
letters, collect the exchange signs).  The explicit matrix construction
in tests/matmodel_oracle.py cross-checks it at small sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import qfock
from .copies import FreeHaarBackend
from .errors import SizeGuard
from .moments import coincidences, q_matrix_moment, slot_moments

#: Longest word the Monte Carlo estimator accepts.
WORD_CAP = 8

#: Bytes the Monte Carlo estimator may hold in its per-sample float arrays.
SAMPLE_BYTES_CAP = 2 ** 30


def word_sign_pairs(letters):
    """Reduce a word of exchange-sign involutions to a scalar.

    Returns the list of letter pairs whose eps entries multiply to the
    normalized trace (each with odd multiplicity), or None when a letter
    has odd multiplicity (trace 0).
    """
    rest = list(letters)
    pairs = {}
    while rest:
        first = rest[0]
        try:
            nxt = rest.index(first, 1)
        except ValueError:  # first has odd multiplicity
            return None
        for other in rest[1:nxt]:
            pair = (other, first) if other < first else (first, other)
            pairs[pair] = pairs.get(pair, 0) + 1
        del rest[nxt]
        del rest[0]
    return [p for p, c in pairs.items() if c % 2]


@dataclass
class MCEstimate:
    """Monte Carlo mean with its sampling error.

    target is the exact large-n limit; target_n the exact expectation of
    the finite-n estimator (the model has an O(1/n) bias, so the z-score
    is taken against target_n where only sampling noise remains)."""

    mean: float
    stderr: float
    samples: int
    target: float
    target_n: float
    bias: float
    z: float
    n: int
    seed: int


def _injective_assignments(blocks, colors, n):
    """Maps block -> copy index, injective within each color class."""
    by_color = {}
    for bi, b in enumerate(blocks):
        by_color.setdefault(colors[b[0] - 1], []).append(bi)
    assignments = [{}]
    for _, bis in sorted(by_color.items()):
        new = []
        for js in permutations(range(1, n + 1), len(bis)):
            for base in assignments:
                a = dict(base)
                a.update(zip(bis, js))
                new.append(a)
        assignments = new
    yield from assignments


def _terms(xs, colors, n, backend):
    """The terms of the finite-n trace sum that can be nonzero, in a fixed
    order shared by the exact expectation and the Monte Carlo estimator.

    For each coincidence partition of moments.coincidences, with its
    pi-word trace tau, and each copy assignment to its blocks that is
    injective within each color, yields (tau, letters, sign_pairs) with
    sign_pairs from word_sign_pairs(letters).
    """
    for blocks, slots, tau in coincidences(xs, colors, n, backend):
        for assign in _injective_assignments(blocks, colors, n):
            letters = [(assign[t], c) for t, c in zip(slots, colors)]
            sign_pairs = word_sign_pairs(letters)
            if sign_pairs is not None:
                yield tau, letters, sign_pairs


def _model_inputs(word, Qm, cfg, colors, backend):
    """(xs, hs, colors, Q, cfg, backend) with the defaults: every letter
    of color 0, Q entries as rationals, an orthonormal Fock configuration
    deep enough for the word, and the pure word resolved.  Without a
    backend every letter is the unit of a free Haar window of m/2 copies;
    with one, a None letter is its unit."""
    m = len(word)
    hs = [h for _, h in word]
    if cfg is None:
        cfg = qfock.FockConfig(dim_H=max(len(h) for h in hs) if m else 1,
                               max_degree=max(1, (m + 1) // 2))
    if backend is None:
        backend = FreeHaarBackend(max(1, m // 2))
        xs = [backend.A_one] * m
    else:
        xs = [backend.A_one if x is None else x for x, _ in word]
    return (xs, hs, [0] * m if colors is None else list(colors),
            [[Fraction(x) for x in row] for row in Qm], cfg, backend)


def _estimate(values, target, target_n, n, seed) -> MCEstimate:
    """Mean and standard error of per-sample values, with the z-score
    against the exact finite-n expectation target_n."""
    samples = len(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) \
        if samples > 1 else 0.0
    if stderr > 0:
        z = (mean - target_n) / stderr
    else:
        z = 0.0 if mean == target_n else math.inf
    return MCEstimate(mean=mean, stderr=stderr, samples=samples,
                      target=target, target_n=target_n,
                      bias=target_n - target, z=z, n=n, seed=seed)


class _ExactSum:
    """The exact expectation of the finite-n trace, summed term by term
    over _terms.  A term (tau, letters, sign_pairs) contributes its sign
    weight (product of Q entries over the exchange pairs) times the
    gaussian moment of its field product (a Wick sum, the q=1 value of
    moments.slot_moments on l2_n (x) H) times tau.  Both factors depend
    only on the colours of the exchange pairs and on which positions share
    a copy, so add sums tau per such class and expectation weighs each
    class once; the number of classes is bounded in m, whatever n."""

    def __init__(self, hs, Qm, cfg):
        self.hs, self.Qm, self.cfg = hs, Qm, cfg
        self.taus = {}

    def add(self, tau, letters, sign_pairs):
        first = {}  # copy -> its slot, numbered by first occurrence
        key = (tuple([(a[1], b[1]) for a, b in sign_pairs]),
               tuple([first.setdefault(j, len(first)) for j, _ in letters]))
        self.taus[key] = self.taus.get(key, 0) + tau

    def expectation(self, n: int) -> Fraction:
        """The sum so far, times n^{-m/2}."""
        fock = slot_moments(self.hs, self.cfg)
        gauss = {}
        total = Fraction(0)
        for (pairs, slots), tau in self.taus.items():
            weight = 1
            for s, t in pairs:
                weight *= self.Qm[s][t]
            if not weight or not tau:
                continue
            if slots not in gauss:
                gauss[slots] = fock(slots).eval(1)
            total += weight * gauss[slots] * tau
        return total / Fraction(n ** (len(self.hs) // 2))


def model_moment_exact(word, Qm, n: int, backend=None, cfg=None,
                       colors=None) -> Fraction:
    """The exact expectation of the finite-n matrix-model trace: the
    _ExactSum of the coincidence patterns and copy assignments of
    _terms."""
    xs, hs, colors, Qm, cfg, backend = _model_inputs(list(word), Qm, cfg,
                                                     colors, backend)
    exact = _ExactSum(hs, Qm, cfg)
    for term in _terms(xs, colors, n, backend):
        exact.add(*term)
    return exact.expectation(n)


def mc_moment(word, Qm, n: int, samples: int, seed: int,
              backend=None, cfg=None, colors=None) -> MCEstimate:
    """Monte Carlo estimate of the Q-gaussian moment at n copies, with the
    exact engine's limit value as the comparison target.

    word is a list of (x, h) letters; x may be None for the pure case.
    Per sample the sign matrix and the gaussian fields are redrawn; the
    estimate averages n^{-m/2} sum over index tuples of
    trace(v-word) * prod g * tau_D(pi-word), the tuple sum grouped by
    coincidence pattern and evaluated exactly per sample.
    """
    word = list(word)
    m = len(word)
    if m > WORD_CAP:
        raise SizeGuard(f"word length {m} exceeds the cap {WORD_CAP}")
    xs, hs, colors, Qm, cfg, backend = _model_inputs(word, Qm, cfg, colors,
                                                     backend)
    # float64 arrays below: gamma (n x d), g_j(h_i) (n x m) and the signs
    # (one per pair of letters), each per sample
    letters = n * len(set(colors))
    nbytes = 8 * samples * (n * cfg.dim_H + n * m + math.comb(letters, 2))
    if nbytes > SAMPLE_BYTES_CAP:
        raise SizeGuard(
            f"{samples} samples at n={n} need about {nbytes:,} bytes of "
            f"Monte Carlo arrays, over the cap {SAMPLE_BYTES_CAP:,}")
    target = float(q_matrix_moment(list(zip(xs, hs)), colors, Qm, backend,
                                   cfg))

    rng = np.random.Generator(np.random.Philox(key=int(seed)))

    # gaussian fields: g_j(h) = gamma_j . (L^T h), E g(h)g(h') = <h,h'>
    d = cfg.dim_H
    L = np.linalg.cholesky(np.array(cfg.inner, dtype=float))
    gamma = rng.standard_normal((samples, n, d))
    coords = np.array([[float(Fraction(x)) for x in h] for h in hs])  # m x d
    # g_j(h_i) as gh[j-1, i-1], a contiguous row over the samples
    gh = np.einsum("snd,md->nms", gamma, coords @ L, order="C")

    # sign entries, one stream per unordered letter pair, as a contiguous
    # row over the samples
    letter_pool = sorted({(j, t) for j in range(1, n + 1) for t in set(colors)})
    pair_index = {}
    probs = []
    for i, a in enumerate(letter_pool):
        for b in letter_pool[i + 1:]:
            pair_index[(a, b)] = len(probs)
            probs.append(float((1 + Qm[a[1]][b[1]]) / 2))
    if probs:
        eps = np.where(np.less(rng.random((samples, len(probs))).T,
                               np.array(probs)[:, None], order="C"),
                       1.0, -1.0)
    else:
        eps = np.zeros((0, samples))

    # one walk of the terms feeds the per-sample sums and the exact
    # finite-n expectation target_n (model_moment_exact's sum)
    exact = _ExactSum(hs, Qm, cfg)
    sums = np.zeros(samples)
    for tau, letters, sign_pairs in _terms(xs, colors, n, backend):
        exact.add(tau, letters, sign_pairs)
        term = np.full(samples, float(tau))
        for a, b in sign_pairs:
            term *= eps[pair_index[(a, b)]]
        for pos in range(1, m + 1):
            term *= gh[letters[pos - 1][0] - 1, pos - 1]
        sums += term
    estimates = sums / float(n) ** (m / 2.0)
    target_n = float(exact.expectation(n))
    return _estimate(estimates, target, target_n, n, seed)
