"""The Bell(m) set-partition sum that the even, colour-constant
enumeration replaced, kept as its test oracle: every set partition of the
positions, odd and mixed-colour blocks included, Bell(m) terms in all, so
only short words are affordable."""

import math
from fractions import Fraction
from functools import lru_cache

from qgauss import qfock
from qgauss.copies import pi_word
from qgauss.qfock import FockConfig
from qgauss.qpoly import QPoly


def all_set_partitions(m: int):
    """All set partitions of {1..m} as sorted tuples of sorted blocks, in
    the order of the Bell recursion: point k joins each open block in turn,
    then opens its own."""
    def rec(k, blocks):
        if k > m:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(k)
            yield from rec(k + 1, blocks)
            b.pop()
        blocks.append([k])
        yield from rec(k + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def filtered_set_partitions(colors):
    """The set partitions whose blocks are even and colour-constant, by
    filtering all Bell(m) of them."""
    return [blocks for blocks in all_set_partitions(len(colors))
            if all(len(b) % 2 == 0 and len({colors[i - 1] for i in b}) == 1
                   for b in blocks)]


@lru_cache(maxsize=None)
def _fock_factor(blocks, hs, cfg: FockConfig) -> QPoly:
    """The Fock moment of the vectors e_block (x) h on l2_|blocks| (x) H;
    memoized, since short words over few vectors repeat it."""
    m, r, d = len(hs), len(blocks), cfg.dim_H
    block_of = {pos: t for t, b in enumerate(blocks) for pos in b}
    inner = [[cfg.inner[i % d][j % d] if i // d == j // d else 0
              for j in range(r * d)] for i in range(r * d)]
    big = FockConfig(r * d, inner, (m + 1) // 2)
    vecs = []
    for pos in range(1, m + 1):
        v = [Fraction(0)] * (r * d)
        for c, hc in enumerate(hs[pos - 1]):
            v[block_of[pos] * d + c] = Fraction(hc)
        vecs.append(v)
    return qfock.vacuum_moment(vecs, big)


def bell_finite_n_moments(word, backend, ns, cfg: FockConfig) -> list:
    """tau(u_n(x_1,h_1)...u_n(x_m,h_m)) for each n in ns, as the sum over
    all set partitions rho with at most n blocks of (n falling |rho|) *
    the pi-word trace at the representative tuple * the Fock moment of the
    vectors e_block (x) h on l2_|rho| (x) H.  The terms do not depend on
    n, so each is computed once."""
    m = len(word)
    if m == 0:
        return [QPoly.one() for _ in ns]
    xs = [x for x, _ in word]
    hs = tuple(tuple(h) for _, h in word)
    totals = [QPoly.zero() for _ in ns]
    for blocks in all_set_partitions(m):
        r = len(blocks)
        if r > max(ns):
            continue
        block_of = {pos: t for t, b in enumerate(blocks) for pos in b}
        tr = backend.trace(pi_word(
            backend, xs, [block_of[pos] + 1 for pos in range(1, m + 1)]))
        if not tr:
            continue
        fock = _fock_factor(blocks, hs, cfg).scale(tr)
        totals = [total + fock.scale(math.perm(n, r)) if r <= n else total
                  for total, n in zip(totals, ns)]
    return [total.scale(Fraction(1, n ** (m // 2)))
            for total, n in zip(totals, ns)]
