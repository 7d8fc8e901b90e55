"""Spanning sets of reduced coefficients and their exact scalar dimensions.

D_k(S) is the span of the reduced coefficients F_sigma over all words from
the generator set and all partitions with exactly k singletons.  Dimension
is measured as the exact rational rank of the tau-Gram matrix of the
collected vectors; the word-length cap max_m is explicit and stabilization
in max_m is reported as evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .algebra import rank
from .errors import WindowExceeded
from .moments import reduced_coefficient
from .partitions import enumerate_pair_singleton


@dataclass
class SpanReport:
    backend_id: str
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
        backend_id=backend.name, k=k, max_m=max_m,
        generators_considered=considered, vectors=vectors,
        dim_scalar=dim, bound=backend.dim_bound(k),
        stabilized_at_m=stabilized_at, dims_by_m=dims_by_m)


def growth_report(backend, k_max: int, max_m_offset: int = 4,
                  gens=None) -> dict:
    """Per-degree dimensions against the backend's declared bound, plus a
    log-linear fit of dim against k as an empirical growth-base estimate."""
    reports = [span_Dk(backend, k, k + max_m_offset, gens=gens)
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
            "d_estimate": d_estimate, "reports": reports}


def L2k_dimension_bound(report: SpanReport, dim_H: int) -> int:
    """The generation bound dim(D_k) * dim(H)^k for the degree-k component."""
    return report.dim_scalar * dim_H ** report.k
