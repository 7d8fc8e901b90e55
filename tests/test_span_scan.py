"""The span scan behind span_Dk against the enumeration it replaced.

tests/span_oracle.py computes one F_sigma per word and partition and takes
the rank of their tau-Gram matrix; the scan must give the same dimension
for every word-length cap, and its basis must span every F_sigma.
"""

import random
from itertools import product

import pytest

from qgauss.algebra import cyclic_group, group_algebra, rank, trivial_algebra
from qgauss.copies import FreeHaarBackend, PermGroupBackend, TensorBackend
from qgauss.dimensions import span_Dk
from qgauss.moments import reduced_coefficient
from qgauss.partitions import enumerate_pair_singleton

from span_oracle import enumerated_span_Dk


def _Z(n):
    return group_algebra(cyclic_group(n))


FREE = FreeHaarBackend(6)
PERM1 = PermGroupBackend(1, 7)
PERM2 = PermGroupBackend(2, 6)
TENSOR_Z1_Z3 = TensorBackend(trivial_algebra(), _Z(3), 6)
TENSOR_Z2_Z3 = TensorBackend(_Z(2), _Z(3), 5)

# (backend, k, max_m): one scan and one enumeration give dims_by_m for
# every m <= max_m of the parity of k
CASES = [
    (FREE, 0, 6), (FREE, 1, 7), (FREE, 2, 6), (FREE, 3, 5),
    (PERM1, 1, 7), (PERM1, 2, 6), (PERM1, 3, 7),
    (PERM2, 1, 5),
    (TENSOR_Z1_Z3, 2, 6),
    (TENSOR_Z2_Z3, 1, 5),
]


def _gens(backend, spec):
    """Generators from {name: coefficient} combinations of backend.S."""
    out = []
    for combo in spec:
        x = None
        for name, c in combo.items():
            term = backend.S[name].scale(c)
            x = term if x is None else x + term
        out.append(x)
    return out


# generator sets other than S: a subset, and a combination whose span
# grows with the word length
GEN_CASES = [
    (FREE, 2, 6, [{"1": 1}, {"u": 1}]),
    (PERM2, 1, 5, [{"u01": 1, "1": 2}]),
    (PERM2, 2, 6, [{"u01": 1, "1": 2}]),
]


@pytest.mark.parametrize("backend, k, max_m", CASES,
                         ids=[f"{b.name}-k{k}-m{m}" for b, k, m in CASES])
def test_scan_matches_enumeration(backend, k, max_m):
    scan = span_Dk(backend, k, max_m)
    oracle = enumerated_span_Dk(backend, k, max_m)
    assert scan.dims_by_m == oracle.dims_by_m
    assert scan.dim_scalar == oracle.dim_scalar == len(scan.vectors)
    assert scan.stabilized_at_m == oracle.stabilized_at_m


@pytest.mark.parametrize("backend, k, max_m, spec", GEN_CASES, ids=[
    f"{b.name}-k{k}-m{m}" for b, k, m, _ in GEN_CASES])
def test_scan_matches_enumeration_on_other_generators(backend, k, max_m, spec):
    gens = _gens(backend, spec)
    scan = span_Dk(backend, k, max_m, gens=gens)
    oracle = enumerated_span_Dk(backend, k, max_m, gens=gens)
    assert scan.dims_by_m == oracle.dims_by_m
    assert scan.dim_scalar == oracle.dim_scalar


def test_span_grows_with_the_word_length():
    # the combination case grows at m = 4, so a scan that read (k, 0) at
    # the wrong step, or pruned a word that reaches max_m, would show it
    gens = _gens(PERM2, [{"u01": 1, "1": 2}])
    dims = {2: 1, 4: 4, 6: 4}
    for max_m in (2, 4, 6):
        assert span_Dk(PERM2, 2, max_m, gens=gens).dims_by_m == {
            m: d for m, d in dims.items() if m <= max_m}


def _in_span(vectors, x) -> bool:
    keys = sorted({key for v in vectors + [x] for key in v.coeffs}, key=repr)
    rows = [[v.coeffs.get(key, 0) for key in keys] for v in vectors]
    return rank(rows + [[x.coeffs.get(key, 0) for key in keys]]) == rank(rows)


@pytest.mark.parametrize("backend, k, max_m, spec", [
    (FREE, 2, 6, None),
    (PERM2, 2, 6, [{"u01": 1, "1": 2}]),
    (TENSOR_Z2_Z3, 1, 5, None),
])
def test_basis_spans_sampled_coefficients(backend, k, max_m, spec):
    gens = list(backend.S.values()) if spec is None else _gens(backend, spec)
    scan = span_Dk(backend, k, max_m, gens=gens)
    rng = random.Random(k * 100 + max_m)
    for m in range(k, max_m + 1, 2):
        sigmas = [s for s in enumerate_pair_singleton(m)
                  if s.num_singletons == k]
        words = list(product(gens, repeat=m))
        for _ in range(12):
            F = reduced_coefficient(rng.choice(sigmas), rng.choice(words),
                                    backend)
            assert _in_span(scan.vectors, F)


def test_transitions_are_counted():
    # k = 0, max_m = 2 over {1, u, u*}: three opens, then three closes of
    # each of the three basis elements of state (0, 1)
    assert span_Dk(FREE, 0, 2).generators_considered == 3 + 9
    # only a state's reduced basis is expanded, never an image before its
    # reduction, so no state is expanded twice
    for backend, k, max_m, tried in [(FREE, 1, 5, 582), (FREE, 2, 6, 2799),
                                     (PERM1, 2, 6, 416),
                                     (FreeHaarBackend(16), 1, 11, 70521)]:
        assert span_Dk(backend, k, max_m).generators_considered == tried
