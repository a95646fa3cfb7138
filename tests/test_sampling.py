"""The float quadrics and point samples of the export surfaces."""

import pytest

from celestial import sampling
from celestial.segre import mu_transform, toric_projection


def test_surface_quadrics_keep_both_parts_of_complex_forms():
    counts = {s: len(sampling.surface_quadrics(s)) for s in sampling.SURFACES}
    # six of the nine dp6 quadrics are not real in the x frame of sigma_2
    assert counts == {"dp6": 15, "ring": 2, "spindle": 2, "horn": 2, "veronese": 6}
    span = toric_projection({5, 6})
    q = next(q for q in span.basis if not mu_transform(2, q, span.coords).is_real)
    x = mu_transform(2, q, span.coords)
    im = [[float(a.im) for a in row] for row in x.matrix.entries()]
    assert im in sampling.surface_quadrics("dp6")


def test_unknown_surface_is_rejected():
    with pytest.raises(ValueError, match="unknown surface"):
        sampling.surface_quadrics("klein-bottle")


def _dense_residual(forms, point):
    """The dense loop that the sparse residual replaced, kept as the reference."""
    norm = sum(x * x for x in point)
    worst = 0.0
    for mat in forms:
        val = 0.0
        for i, row in enumerate(mat):
            for j, a in enumerate(row):
                if a:
                    val += a * point[i] * point[j]
        worst = max(worst, abs(val) / norm)
    return worst


@pytest.mark.parametrize("surface", sampling.SURFACES)
def test_sparse_residual_is_the_dense_one_bit_for_bit(surface):
    forms = sampling.surface_quadrics(surface)
    sparse = sampling.sparse_forms(forms)
    pts, _ = sampling.surface_points(surface, 24)
    for p in pts:
        assert sampling.residual(sparse, p) == _dense_residual(forms, p)
