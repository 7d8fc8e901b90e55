"""The pair-partition sums that the transfer-matrix scan replaced, kept as
its test oracle: one term per pair partition of the word, (m-1)!! terms
in all, or one per convolution join for a trace pairing, so only short
words are affordable.  The two enumerators live here too, under the
enumeration cap of qgauss.partitions: no engine walks them."""

from fractions import Fraction
from itertools import combinations, permutations

from qgauss import moments
from qgauss.copies import pi_word
from qgauss.partitions import Partition12, _check_cap, encoding_map
from qgauss.qpoly import QPoly


def enumerate_pair_partitions(m: int) -> list[Partition12]:
    """All pair partitions of {1..m}, canonically ordered; [] for odd m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    _check_cap(m)
    if m % 2:
        return []
    out = []

    def rec(remaining: tuple, acc: list):
        if not remaining:
            out.append(Partition12.make(m, acc))
            return
        first = remaining[0]
        rest = remaining[1:]
        for i, partner in enumerate(rest):
            rec(rest[:i] + rest[i + 1:], acc + [(first, partner)])

    rec(tuple(range(1, m + 1)), [])
    out.sort(key=Partition12.sort_key)
    return out


def convolution_joins(sigma: Partition12, theta: Partition12) -> list[Partition12]:
    """All partitions of {1..m+m'} restricting to sigma and (shifted) theta
    whose only additional pairs join a singleton of sigma to one of theta.
    """
    m, mp = sigma.m, theta.m
    _check_cap(m + mp)
    left = sigma.sorted_singletons()
    right = [s + m for s in theta.sorted_singletons()]
    base_pairs = list(sigma.pairs) + [(l + m, r + m) for l, r in theta.pairs]
    out = []
    for r in range(0, min(len(left), len(right)) + 1):
        for lsub in combinations(left, r):
            for rperm in permutations(right, r):
                extra = list(zip(lsub, rperm))
                singles = (set(left) - set(lsub)) | (set(right) - set(rperm))
                out.append(Partition12.make(m + mp, base_pairs + extra, singles))
    out.sort(key=Partition12.sort_key)
    return out


def pairing_moment(word, backend, cfg) -> QPoly:
    """The sum over pair partitions sigma of trace_of_partition_term."""
    xs = [x for x, _ in word]
    hs = [h for _, h in word]
    total = QPoly.zero()
    for sigma in enumerate_pair_partitions(len(word)):
        total = total + moments.trace_of_partition_term(sigma, xs, hs,
                                                        backend, cfg)
    return total


def pairing_q_matrix_moment(word, colors, Qm, backend, cfg) -> Fraction:
    """The sum over colour-matched pair partitions of the product of
    Q[t_a][t_c] over crossings a < c < b < d, the inner products of the
    paired vectors, and the trace of the encoded pi-word."""
    xs = [x for x, _ in word]
    hs = [h for _, h in word]
    total = Fraction(0)
    for sigma in enumerate_pair_partitions(len(word)):
        pairs = sigma.sorted_pairs()
        if any(colors[l - 1] != colors[r - 1] for l, r in pairs):
            continue
        weight = Fraction(1)
        for l, r in pairs:
            weight *= cfg.ip(hs[l - 1], hs[r - 1])
        for (a, b), (c, d) in combinations(pairs, 2):
            if a < c < b < d:
                weight *= Fraction(Qm[colors[a - 1]][colors[c - 1]])
        phi = encoding_map(sigma)
        labels = [phi[pos] for pos in range(1, len(word) + 1)]
        total += weight * backend.trace(pi_word(backend, xs, labels))
    return total


def pairing_trace_pairing(w1, w2) -> QPoly:
    """tau(w2* w1): the sum over the convolution joins of adj(w2) and w1
    of trace_of_partition_term, which is zero on every join that keeps a
    singleton."""
    adj = w2.adjoint()
    xs = adj.xs + w1.xs
    hs = adj.hs + w1.hs
    total = {}
    for gamma in convolution_joins(adj.sigma, w1.sigma):
        moments.trace_of_partition_term(gamma, xs, hs, w1.backend,
                                        w1.cfg).add_to(total)
    return QPoly.from_powers(total)
