"""Pair and pair-singleton partitions of {1..m} with crossing statistics.

Ground-set indices are 1-based everywhere in this module, matching the
usual combinatorial conventions.  Enumerations come back in a canonical
order (lexicographic on the sorted block representation) so downstream
results are reproducible and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceeded

#: The largest ground set that enumerate_pair_singleton, the test
#: oracles' enumerators and moments.enumerate_set_partitions, behind
#: finite-n moments and the matrix model, accept; |P_2(12)| = 10395
#: already and the downstream costs multiply.  Limit, Q-matrix and
#: trace-pairing moments and the span dimensions enumerate nothing: the
#: window bounds them instead.
DEFAULT_CAP = 12


def _check_cap(m: int):
    if m > DEFAULT_CAP:
        raise CapExceeded(
            f"ground set size {m} exceeds the enumeration cap {DEFAULT_CAP}")


@dataclass(frozen=True)
class Partition12:
    """A partition of {1..m} into pairs and singletons."""

    m: int
    pairs: frozenset  # frozenset of (l, r) tuples with l < r
    singletons: frozenset  # frozenset of ints

    def __post_init__(self):
        seen = set()
        for l, r in self.pairs:
            if not (1 <= l < r <= self.m):
                raise ValueError(f"bad pair ({l},{r}) for m={self.m}")
            seen.update((l, r))
        for s in self.singletons:
            if not 1 <= s <= self.m:
                raise ValueError(f"bad singleton {s} for m={self.m}")
        if len(seen) != 2 * len(self.pairs) or seen & set(self.singletons):
            raise ValueError("blocks overlap")
        if len(seen) + len(self.singletons) != self.m:
            raise ValueError("blocks do not cover the ground set")

    @staticmethod
    def make(m, pairs=(), singletons=()) -> "Partition12":
        pairs = frozenset(tuple(sorted(p)) for p in pairs)
        return Partition12(m, pairs, frozenset(singletons))

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @property
    def num_singletons(self) -> int:
        return len(self.singletons)

    def is_pair_partition(self) -> bool:
        return not self.singletons

    def blocks(self) -> list[tuple]:
        """All blocks as tuples, sorted (the canonical representation)."""
        bs = [(s,) for s in self.singletons] + list(self.pairs)
        return sorted(bs)

    def sort_key(self):
        return self.blocks()

    def sorted_pairs(self) -> list[tuple]:
        """Pairs ordered by left leg."""
        return sorted(self.pairs)

    def sorted_singletons(self) -> list[int]:
        return sorted(self.singletons)

    def reversed(self) -> "Partition12":
        """Image under i -> m+1-i (the partition of the adjoint word)."""
        f = lambda i: self.m + 1 - i
        return Partition12.make(
            self.m,
            [(f(r), f(l)) for l, r in self.pairs],
            [f(s) for s in self.singletons],
        )

    def __repr__(self):
        return f"Partition12({self.m}, {self.blocks()})"


def crossing_number(sigma: Partition12) -> int:
    """Number of interleaved pairs (a,b),(c,d) with a < c < b < d, plus
    the number of (pair (l,r), singleton s) with l < s < r.

    A singleton under a pair arc counts as one crossing, as in the q-Wick
    formula; on pair partitions only the pair crossings remain.
    """
    ps = sigma.sorted_pairs()
    n = sum(1 for l, r in ps for s in sigma.singletons if l < s < r)
    for (a, b), (c, d) in combinations(ps, 2):
        # ps is sorted, so a < c always
        if a < c < b < d:
            n += 1
    return n


def enumerate_pair_singleton(m: int) -> list[Partition12]:
    """All partitions of {1..m} into blocks of size 1 or 2, canonically ordered."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    _check_cap(m)
    out = []

    def rec(remaining: tuple, pairs: list, singles: list):
        if not remaining:
            out.append(Partition12.make(m, pairs, singles))
            return
        first = remaining[0]
        rest = remaining[1:]
        rec(rest, pairs, singles + [first])
        for i, partner in enumerate(rest):
            rec(rest[:i] + rest[i + 1:], pairs + [(first, partner)], singles)

    rec(tuple(range(1, m + 1)), [], [])
    out.sort(key=Partition12.sort_key)
    return out


def encoding_map(sigma: Partition12) -> dict:
    """The map phi: {1..m} -> {1..s+p} encoding the partition.

    The t-th singleton (increasing order) maps to t; both legs of the t-th
    pair (ordered by left leg) map to s+t.  Fibers of phi are exactly the
    blocks of the partition.
    """
    phi = {}
    for t, k in enumerate(sigma.sorted_singletons(), start=1):
        phi[k] = t
    s = sigma.num_singletons
    for t, (l, r) in enumerate(sigma.sorted_pairs(), start=1):
        phi[l] = s + t
        phi[r] = s + t
    return phi
