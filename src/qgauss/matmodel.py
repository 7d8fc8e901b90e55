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
from itertools import permutations, product

import numpy as np

from . import qfock
from .copies import FreeHaarBackend
from .errors import SizeGuard
from .moments import (check_q_matrix, coincidences, q_matrix_moment,
                      slot_moments)

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
    """Maps block -> copy index, injective within each color class; the
    first color varies fastest, and the last slowest."""
    by_color = {}
    for bi, b in enumerate(blocks):
        by_color.setdefault(colors[b[0] - 1], []).append(bi)
    classes = [bis for _, bis in sorted(by_color.items(), reverse=True)]
    for choice in product(*[permutations(range(1, n + 1), len(bis))
                            for bis in classes]):
        yield {bi: j for bis, js in zip(classes, choice)
               for bi, j in zip(bis, js)}


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


def _model_inputs(word, Qms, cfg, colors, backend):
    """(xs, hs, colors, Qms, cfg, backend) with the defaults: every letter
    of color 0, each Q matrix checked by moments.check_q_matrix, an
    orthonormal Fock configuration deep enough for the word, and the pure
    word resolved.  Without a backend every letter is the unit of a free Haar
    window of m/2 copies; with one, a None letter is its unit."""
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
    colors = [0] * m if colors is None else list(colors)
    return (xs, hs, colors, [check_q_matrix(Qm, colors) for Qm in Qms], cfg,
            backend)


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
    a copy, so add sums tau per such class, whatever Q, and expectation
    weighs each class by a given Q; the gaussian factor of a class is
    computed once for every Q.  The number of classes is bounded in m,
    whatever n."""

    def __init__(self, hs, cfg):
        self.m = len(hs)
        self.fock = slot_moments(hs, cfg)
        self.taus = {}
        self.gauss = {}  # class slots -> gaussian factor

    def add(self, tau, letters, sign_pairs):
        first = {}  # copy -> its slot, numbered by first occurrence
        key = (tuple([(a[1], b[1]) for a, b in sign_pairs]),
               tuple([first.setdefault(j, len(first)) for j, _ in letters]))
        self.taus[key] = self.taus.get(key, 0) + tau

    def expectation(self, Qm, n: int) -> Fraction:
        """The sum so far with the sign weights of Qm, times n^{-m/2}."""
        total = Fraction(0)
        for (pairs, slots), tau in self.taus.items():
            weight = 1
            for s, t in pairs:
                weight *= Qm[s][t]
            if not weight or not tau:
                continue
            gauss = self.gauss.get(slots)
            if gauss is None:
                gauss = self.gauss[slots] = self.fock(slots).eval(1)
            total += weight * gauss * tau
        return total / Fraction(n ** (self.m // 2))


def _sign_masks(rng, pairs, Qms, samples):
    """flip[p, k], true per sample where the sign entry of the letter pair
    p is -1 under Qms[k], each a contiguous row over the samples: one
    uniform per pair and sample, drawn once for every Q, gives -1 where it
    is at least (1 + Q_{s,t})/2, so that E[eps] = Q_{s,t}."""
    uniforms = rng.random((samples, len(pairs))).T
    flip = np.empty((len(pairs), len(Qms), samples), dtype=bool)
    for k, Qm in enumerate(Qms):
        probs = [float((1 + Qm[a[1]][b[1]]) / 2) for a, b in pairs]
        np.greater_equal(uniforms, np.array(probs).reshape(-1, 1),
                         out=flip[:, k])
    return flip


def model_moment_exact(word, Qm, n: int, backend=None, cfg=None,
                       colors=None) -> Fraction:
    """The exact expectation of the finite-n matrix-model trace: the
    _ExactSum of the coincidence patterns and copy assignments of
    _terms."""
    xs, hs, colors, (Qm,), cfg, backend = _model_inputs(
        list(word), [Qm], cfg, colors, backend)
    exact = _ExactSum(hs, cfg)
    for term in _terms(xs, colors, n, backend):
        exact.add(*term)
    return exact.expectation(Qm, n)


def mc_moment(word, Qms, n: int, samples: int, seed: int,
              backend=None, cfg=None, colors=None) -> list[MCEstimate]:
    """Monte Carlo estimates of the Q-gaussian moment at n copies, one per
    Q matrix of Qms (a list of matrices of one shape), each with the exact
    engine's limit value as its comparison target.

    word is a list of (x, h) letters; x may be None for the pure case.
    Per sample the sign matrix and the gaussian fields are redrawn; the
    estimate averages n^{-m/2} sum over index tuples of
    trace(v-word) * prod g * tau_D(pi-word), the tuple sum grouped by
    coincidence pattern and evaluated exactly per sample.

    One draw and one walk of the terms serve every Q: the gaussian fields
    and the uniforms of the sign masks (_sign_masks) are drawn once, and
    each term's tau * g_1 ... g_m is formed once and added to each Q's
    sums with that Q's sign product, an exact negation, so each estimate
    equals that of a call with its Q alone.
    """
    word = list(word)
    m = len(word)
    if m > WORD_CAP:
        raise SizeGuard(f"word length {m} exceeds the cap {WORD_CAP}")
    if len({len(Qm) for Qm in Qms}) != 1:
        raise ValueError("mc_moment needs Q matrices of one shape")
    xs, hs, colors, Qms, cfg, backend = _model_inputs(word, Qms, cfg, colors,
                                                      backend)
    # per sample: float64 gamma (n x d), g_j(h_i) (n x m) and the pair
    # uniforms; per Q a float64 sum and a boolean sign mask per pair
    letter_pool = sorted({(j, t) for j in range(1, n + 1) for t in set(colors)})
    pairs = [(a, b) for i, a in enumerate(letter_pool)
             for b in letter_pool[i + 1:]]
    nbytes = samples * (8 * (n * cfg.dim_H + n * m + len(pairs))
                        + len(Qms) * (8 + len(pairs)))
    if nbytes > SAMPLE_BYTES_CAP:
        raise SizeGuard(
            f"{samples} samples at n={n} for {len(Qms)} Q matrices need "
            f"about {nbytes:,} bytes of Monte Carlo arrays, over the cap "
            f"{SAMPLE_BYTES_CAP:,}")
    targets = [float(q_matrix_moment(list(zip(xs, hs)), colors, Qm, backend,
                                     cfg)) for Qm in Qms]

    rng = np.random.Generator(np.random.Philox(key=int(seed)))

    # gaussian fields: g_j(h) = gamma_j . (L^T h), E g(h)g(h') = <h,h'>;
    # the sign masks draw next, before g is formed, so that the uniforms
    # are gone by then
    d = cfg.dim_H
    L = np.linalg.cholesky(np.array(cfg.inner, dtype=float))
    gamma = rng.standard_normal((samples, n, d))
    flip = _sign_masks(rng, pairs, Qms, samples)
    pair_index = {pair: p for p, pair in enumerate(pairs)}
    coords = np.array([[float(Fraction(x)) for x in h] for h in hs])  # m x d
    # g_j(h_i) as gh[j-1, i-1], a contiguous row over the samples
    gh = np.einsum("snd,md->nms", gamma, coords @ L, order="C")

    # one walk of the terms feeds the per-sample sums of every Q and the
    # exact finite-n expectations target_n (model_moment_exact's sum)
    exact = _ExactSum(hs, cfg)
    sums = np.zeros((len(Qms), samples))
    for tau, letters, sign_pairs in _terms(xs, colors, n, backend):
        exact.add(tau, letters, sign_pairs)
        term = np.full(samples, float(tau))
        for pos, (j, _) in enumerate(letters):
            term *= gh[j - 1, pos]
        if sign_pairs:
            odd = np.bitwise_xor.reduce(
                flip[[pair_index[pair] for pair in sign_pairs]])
            sums += np.where(odd, -term, term)
        else:
            sums += term
    estimates = sums / float(n) ** (m / 2.0)
    return [_estimate(values, target, float(exact.expectation(Qm, n)), n,
                      seed)
            for values, target, Qm in zip(estimates, targets, Qms)]
