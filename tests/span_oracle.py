"""The enumeration that the span scan replaced, kept as its test oracle:
one reduced coefficient F_sigma per word and per partition with k
singletons, and the exact rank of their tau-Gram matrix, so only short
words are affordable."""

from itertools import product

from qgauss.algebra import rank
from qgauss.dimensions import SpanReport
from qgauss.errors import WindowExceeded
from qgauss.moments import reduced_coefficient
from qgauss.partitions import enumerate_pair_singleton


def enumerated_span_Dk(backend, k: int, max_m: int, gens=None) -> SpanReport:
    """Collect F_sigma over words of length <= max_m and compute the exact
    scalar rank of their span."""
    if k < 0 or max_m < k:
        raise ValueError("need 0 <= k <= max_m")
    if gens is None:
        gens = list(backend.S.values())
    needed = k + (max_m - k) // 2
    if backend.window < needed:
        raise WindowExceeded(
            f"span up to m={max_m} with k={k} needs window >= {needed}, "
            f"backend has {backend.window}")
    vectors = []
    seen = set()
    considered = 0
    dims_by_m = {}
    gram = []  # grows with vectors; entries tau(F_j* F_i)
    for m in range(k, max_m + 1):
        if (m - k) % 2:
            continue
        sigmas = [s for s in enumerate_pair_singleton(m)
                  if s.num_singletons == k]
        for sigma in sigmas:
            for word in product(gens, repeat=m):
                considered += 1
                F = reduced_coefficient(sigma, word, backend)
                if F.is_zero() or F in seen:
                    continue
                seen.add(F)
                Fs = F.star()
                row = [backend.trace(Fs * v) for v in vectors]
                for i, val in enumerate(row):
                    gram[i].append(val)
                row.append(backend.trace(Fs * F))
                gram.append(row)
                vectors.append(F)
        dims_by_m[m] = rank(gram)
    dim = dims_by_m[max(dims_by_m)] if dims_by_m else 0
    stabilized_at = max(dims_by_m) if dims_by_m else k
    for m in sorted(dims_by_m):
        if dims_by_m[m] == dim:
            stabilized_at = m
            break
    return SpanReport(
        k=k, max_m=max_m, generators_considered=considered,
        vectors=vectors, dim_scalar=dim, bound=backend.dim_bound(k),
        stabilized_at_m=stabilized_at, dims_by_m=dims_by_m)
