"""Spanning sets of reduced coefficients and their exact dimensions.

D_k(S) is the span of the reduced coefficients F_sigma over all words from
the generator set and all partitions with exactly k singletons.  span_Dk
computes it for the words of length <= max_m by one left-to-right scan,
the span-valued form of the moment scan (moments._arc_scan).

A state is (t, j): t singletons placed and j pair arcs open.  Its value is
a subspace of D, held as an exact echelon basis: the span of the prefix
pi-words, each projected onto its open labels.  The t-th singleton takes
label t and never closes; the open arcs take labels k+1..k+j in stack
order.  At each letter x, which ranges over the generators, a basis
element P of a state
  - places the next singleton, P * pi_{t+1}(x), while t < k;
  - opens an arc, P * pi_{k+j+1}(x), while the letters left up to max_m
    can still place the missing singletons and close every arc;
  - or closes arc i by backend.close(P, pi_{k+i+1}(x), k+i+1, k+j),
    which projects its label away and keeps the open labels 1..k+j-1.
After m letters the basis of state (k, 0) joins a cumulative basis, whose
size is dims_by_m[m].

Why this is exact: a word of length m with a partition of k singletons
is one path of moves from (0, 0) to (k, 0), and the pruning drops only
paths that cannot reach (k, 0) within max_m letters.  Along a path, a
singleton's label and a new arc's label are fresh, and the copies module
docstring shows each closing exact for E_{1..k}, its relabeling fixing
the singleton labels; so the path ends at the F_sigma of its word and
partition.  Every transition is linear in P, so the images of a basis
span the images of the whole state, and the value at (k, 0) after m
letters is the span of F_sigma over the words of length m.  tau is
faithful on these algebras and the coefficients are rational, so this
linear dimension equals the rank of the tau-Gram matrix.  The word-length
cap max_m is explicit, and stabilization in max_m is reported as
evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import EchelonBasis
from .copies import require_window
from .errors import SizeGuard

#: Largest dim_bound(k_max) that growth_report accepts: k_max up to 5 on
#: free Haar (4^5) and 10 on perm d = 1 (2^10), seconds at offset 4.
SPAN_GUARD = 1024

#: Longest word, k_max + max_m_offset, that growth_report spans.  At 12
#: letters (CPU time, 2-core container, Python 3.11): free Haar k_max 1
#: takes 0.5 s, k_max 2 3.5 s, and perm d = 1 k_max 10 0.7 s; two more
#: letters cost 3-8x.
WORD_GUARD = 12

#: Most span work over k = 0..k_max that growth_report accepts, estimated
#: as (k+1) * dim_bound(k) * |S|^(max_m - k), which follows the growth of
#: span_Dk's generators_considered in k and in the length together.  On
#: free Haar the estimate is 1.7-3.3x the count, where a transition takes
#: 3.6-6 us.  Free Haar k_max 3 at offset 8 (2.1e6, 3.8 s) passes; k_max 5
#: at offset 6 (5.6e6) and k_max 4 at offset 8 (1.0e7), which take 8 and
#: 11 s, do not.
SPAN_WORK_GUARD = 4_000_000


@dataclass
class SpanReport:
    k: int
    max_m: int
    generators_considered: int
    vectors: list
    dim_scalar: int
    bound: int
    stabilized_at_m: int
    dims_by_m: dict = field(default_factory=dict)

    def row(self):
        return (self.k, self.dim_scalar, self.bound, self.stabilized_at_m)


def span_Dk(backend, k: int, max_m: int, gens=None) -> SpanReport:
    """D_k over the words of length <= max_m, by the scan of the module
    docstring.  vectors is an echelon basis of D_k, dim_scalar its size,
    and generators_considered the number of transitions tried: one product
    per basis element, letter and move."""
    if k < 0 or max_m < k:
        raise ValueError("need 0 <= k <= max_m")
    if gens is None:
        gens = list(backend.S.values())
    needed = k + (max_m - k) // 2
    require_window(backend, needed, f"span up to m={max_m} with k={k}")
    # labels stay within k + j <= needed, since k - t + j <= max_m - m
    pis = [[None] + [backend.pi(j, x) for j in range(1, needed + 1)]
           for x in gens]
    states = {(0, 0): [backend.one()]}
    span = EchelonBasis()
    considered = 0
    dims_by_m = {}
    for m in range(max_m + 1):
        if m:
            states, tried = _step(backend, k, max_m - m, states, pis)
            considered += tried
        if m >= k and (m - k) % 2 == 0:
            for F in states.get((k, 0), ()):
                span.add(F)
            dims_by_m[m] = len(span.vectors)
    dim = len(span.vectors)
    stabilized_at = min(m for m, d in dims_by_m.items() if d == dim)
    return SpanReport(
        k=k, max_m=max_m, generators_considered=considered,
        vectors=span.vectors, dim_scalar=dim, bound=backend.dim_bound(k),
        stabilized_at_m=stabilized_at, dims_by_m=dims_by_m)


def _images(backend, k: int, left: int, t: int, j: int, P, pis: list):
    """The images of a basis element P of state (t, j) under one letter,
    as (state, image) pairs, with left letters after that one."""
    for pi in pis:
        if t < k:
            yield (t + 1, j), P * pi[t + 1]
        if k - t + j + 1 <= left:
            yield (t, j + 1), P * pi[k + j + 1]
        for i in range(j):
            yield (t, j - 1), backend.close(P, pi[k + i + 1], k + i + 1,
                                            k + j)


def _step(backend, k: int, left: int, states: dict, pis: list):
    """One letter of the span scan, with left letters after it: the states
    after it, as {(t, j): basis}, and the number of transitions tried.
    states is emptied as it goes, so that each basis element is freed once
    its images are taken."""
    nxt = {}
    tried = 0
    while states:
        (t, j), basis = states.popitem()
        while basis:
            for s, R in _images(backend, k, left, t, j, basis.pop(), pis):
                tried += 1
                if not R.is_zero():
                    nxt.setdefault(s, EchelonBasis()).add(R)
    return {s: b.vectors for s, b in nxt.items() if b.vectors}, tried


def growth_report(backend, k_max: int, max_m_offset: int = 4) -> dict:
    """Per-degree dimensions against the backend's declared bound, plus a
    log-linear fit of dim against k as an empirical growth-base estimate.
    The window, the size of the largest span, the longest word and the
    estimated span work are checked before any span is computed."""
    require_window(backend, k_max + max_m_offset // 2,
                   f"dims up to k={k_max} with max_m_offset {max_m_offset}")
    if backend.dim_bound(k_max) > SPAN_GUARD:
        raise SizeGuard(f"dims.k_max: {k_max} allows spans of dimension up "
                        f"to {backend.dim_bound(k_max)}, over {SPAN_GUARD}")
    if k_max + max_m_offset > WORD_GUARD:
        raise SizeGuard(f"dims.max_m_offset: {max_m_offset} with k_max "
                        f"{k_max} spans words of length "
                        f"{k_max + max_m_offset}, over {WORD_GUARD}")
    work = sum(
        (k + 1) * backend.dim_bound(k) * len(backend.S) ** max_m_offset
        for k in range(k_max + 1))
    if work > SPAN_WORK_GUARD:
        raise SizeGuard(f"dims.max_m_offset: {max_m_offset} with k_max "
                        f"{k_max} needs an estimated span work of {work}, "
                        f"over {SPAN_WORK_GUARD}")
    reports = [span_Dk(backend, k, k + max_m_offset)
               for k in range(k_max + 1)]
    rows = [r.row() for r in reports]
    fit_slope = None
    d_estimate = None
    pts = [(r.k, r.dim_scalar) for r in reports if r.dim_scalar > 0]
    if len(pts) >= 2:
        import math

        import numpy as np
        ks = np.array([p[0] for p in pts], dtype=float)
        logs = np.array([math.log(p[1]) for p in pts])
        fit_slope = float(np.polyfit(ks, logs, 1)[0])
        d_estimate = math.exp(fit_slope)
    return {"backend": backend.name, "rows": rows, "fit_slope": fit_slope,
            "d_estimate": d_estimate}
