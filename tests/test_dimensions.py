"""Linear span growth of structured-word coefficient spaces."""

import pytest

from qgauss.copies import FreeHaarBackend, PermGroupBackend
from qgauss.dimensions import growth_report, span_Dk
from qgauss.errors import SizeGuard


def test_span_report_shape():
    backend = FreeHaarBackend(4)
    rep = span_Dk(backend, 1, 3)
    assert rep.k == 1
    assert rep.max_m == 3
    assert 1 <= rep.dim_scalar <= rep.bound == 4
    assert rep.dims_by_m[rep.max_m] == rep.dim_scalar
    # dimensions never shrink when longer words are allowed
    dims = [rep.dims_by_m[m] for m in sorted(rep.dims_by_m)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))
    assert rep.stabilized_at_m <= rep.max_m


def test_span_respects_bound_free():
    backend = FreeHaarBackend(6)
    for k in (1, 2):
        rep = span_Dk(backend, k, k + 2)
        assert rep.dim_scalar <= 4 ** k


def test_span_respects_bound_perm():
    backend = PermGroupBackend(1, 6)
    for k in (1, 2):
        rep = span_Dk(backend, k, k + 2)
        assert rep.dim_scalar <= 2 ** k


def test_growth_report_keys_and_fit():
    backend = FreeHaarBackend(6)
    report = growth_report(backend, 2, max_m_offset=2)
    assert report["backend"] == backend.name
    assert len(report["rows"]) == 3  # one row per k in 0..k_max
    assert report["d_estimate"] >= 1.0
    for k, dim, bound, stab in report["rows"]:
        assert dim <= bound


def test_custom_generators_shrink_the_span():
    backend = FreeHaarBackend(4)
    only_unit = [backend.S["1"]]
    rep = span_Dk(backend, 1, 3, gens=only_unit)
    full = span_Dk(backend, 1, 3)
    assert rep.dim_scalar <= full.dim_scalar


@pytest.mark.parametrize("backend, base", [(FreeHaarBackend(8), 3),
                                           (PermGroupBackend(1, 8), 2)])
def test_growth_to_degree_five(backend, base):
    report = growth_report(backend, 5, max_m_offset=2)
    assert [dim for _, dim, _, _ in report["rows"]] == [base ** k
                                                        for k in range(6)]
    assert report["d_estimate"] == pytest.approx(base, rel=1e-12)


def test_perm_span_work_is_not_weighed_by_backend():
    """The work estimate counts the same units on every backend: perm d = 2
    k_max 6 at offset 6 (4.5e5 units) is spanned, and perm d = 1 k_max 5
    at offset 12 is refused by its word length before any span."""
    report = growth_report(PermGroupBackend(2, 12), 6, max_m_offset=6)
    assert [(dim, bound) for _, dim, bound, _ in report["rows"]] == [
        (2 ** k, 3 ** k) for k in range(7)]
    with pytest.raises(SizeGuard, match=r"^dims\.max_m_offset: 12 with "
                                        r"k_max 5 spans words of length 17"):
        growth_report(PermGroupBackend(1, 11), 5, max_m_offset=12)


def test_perm_bound_holds_at_d_zero():
    """S moves only point 0 and the copy points, so D_k at d = 0 is the
    2^k-dimensional span of d = 1, and the bound says so."""
    backend = PermGroupBackend(0, 8)
    for k in range(6):
        rep = span_Dk(backend, k, k + 2)
        assert rep.dim_scalar == rep.bound == 2 ** k
    with pytest.raises(SizeGuard, match=r"^dims\.k_max: 11 allows spans of "
                                        r"dimension up to 2048"):
        growth_report(PermGroupBackend(0, 12), 11, max_m_offset=0)
